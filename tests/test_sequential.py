import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from ndqv import catalog, harness, linalg
from ndqv import sequential as seq
from ndqv import states, strategies
from ndqv.states import NoiseSpec


def random_density(dim, seed):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / float(np.real(np.trace(rho)))


def bell_projectors():
    strat = strategies.bell_minimal()
    return [s.projector for s in strat.settings]


def test_build_qnd_setting_rejects_nonprojector():
    with pytest.raises(ValueError, match="projector"):
        seq.build_qnd_setting(np.diag([2.0, 0.0]).astype(complex))


def test_qnd_setting_structure():
    omega = bell_projectors()[0]
    setting = seq.build_qnd_setting(omega, label="parity")
    assert linalg.is_unitary(setting.unitary)
    total = (
        linalg.dagger(setting.m_pass) @ setting.m_pass
        + linalg.dagger(setting.m_fail) @ setting.m_fail
    )
    assert linalg.max_abs(total - np.eye(8)) < 1e-12
    # pass branch leaves a passing system state untouched
    psi = states.bell_state().vector
    e0 = np.array([1.0, 0.0], dtype=complex)
    out = setting.m_pass @ np.kron(psi, e0)
    assert linalg.max_abs(out - np.kron(psi, e0)) < 1e-12


SETTING_FIELDS = {"label", "projector", "weight", "word"}


def test_lifted_matrices_are_built_on_first_access_only():
    setting = seq.build_qnd_setting(bell_projectors()[0])
    assert set(vars(setting)) == SETTING_FIELDS
    assert setting.m_pass is setting.m_pass
    assert "_lifted" in vars(setting)


def test_runs_never_build_lifted_matrices():
    protocol = catalog.build_sequential("ghz9")
    noise = NoiseSpec("worst_case_orthogonal", 0.05)
    spec = harness.ExperimentSpec(protocol, noise, 200, 4, mode="count_frequency")
    harness.run_experiment(spec)
    sigma = protocol.target.projector()
    seq.fidelity_transform(protocol, sigma)
    seq.stage_pass_probabilities(protocol, sigma)
    for setting in protocol.settings:
        assert set(vars(setting)) == SETTING_FIELDS


def _lifted_member_probs(protocol, members):
    """Stage probabilities through each setting's pass branch on system + ancilla."""
    e0 = np.array([1.0, 0.0], dtype=complex)
    probs = np.empty((len(members), len(protocol.settings)))
    for m_idx, (_, vec) in enumerate(members):
        cur = vec
        for i, setting in enumerate(protocol.settings):
            block = (setting.m_pass @ np.kron(cur, e0)).reshape(-1, 2)[:, 0]
            p = min(max(float(np.real(np.vdot(block, block))), 0.0), 1.0)
            probs[m_idx, i] = p
            cur = block / math.sqrt(p) if p > 1e-14 else block
    return probs


@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec("depolarizing", 0.05),
        NoiseSpec("worst_case_orthogonal", 0.05),
        NoiseSpec("random_orthogonal", 0.2, seed=11),
    ],
    ids=lambda n: n.kind,
)
@pytest.mark.parametrize(
    "name, theta",
    [("bell", None), ("two_qubit_three", 0.55), ("ghz3", None),
     ("adaptive_two", 0.55), ("ghz7", None)],
)
def test_member_probs_match_the_lifted_pass_branch(name, theta, noise):
    protocol = catalog.build_sequential(name, theta)
    witness = seq.protocol_gap(protocol).witness
    members = harness._source_ensemble(protocol, noise, witness)
    got = harness._sequential_member_probs(protocol, members)
    want = _lifted_member_probs(protocol, members)
    if noise.kind == "depolarizing" and theta is None:
        # Stabilizer projectors on stabilizer-state members: every sum is
        # exact, so the summation order cannot change a bit.
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15


def test_compose_rejects_nonfixing_projector():
    target = states.bell_state()
    bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="does not fix"):
        seq.compose_sequential(target, [bad])


def test_compose_rejects_incomplete_set():
    target = states.bell_state()
    only_parity = [bell_projectors()[0]]
    with pytest.raises(ValueError, match="incomplete"):
        seq.compose_sequential(target, only_parity)
    # explicitly allowed when completeness is waived
    protocol = seq.compose_sequential(target, only_parity, require_complete=False)
    assert len(protocol.settings) == 1


def test_compose_refuses_labels_that_do_not_match_the_projectors():
    # zip used to drop the unlabelled projectors silently
    with pytest.raises(ValueError, match="1 labels for 2 projectors"):
        seq.compose_sequential(states.bell_state(), bell_projectors(), labels=["zz"])


def test_effective_operator_is_target_projector():
    protocol = catalog.sequential_bell()
    eff = seq.effective_operator(protocol)
    assert linalg.max_abs(eff - protocol.target.projector()) < 1e-12


def test_effective_operator_application_order():
    target = states.bell_state()
    projs = bell_projectors()
    protocol = seq.compose_sequential(target, projs)
    manual = projs[1] @ projs[0]  # first listed setting acts first
    assert linalg.max_abs(seq.effective_operator(protocol) - manual) < 1e-12


def test_protocol_gap_is_one():
    for protocol in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        report = seq.protocol_gap(protocol)
        assert abs(report.nu - 1.0) < 1e-12
        assert abs(np.vdot(protocol.target.vector, report.witness)) < 1e-9


def test_protocol_gap_rejects_nonhermitian_effective():
    # two rank-2 projectors sharing only the target: their product is a
    # non-Hermitian operator, so no gap is defined for the pair
    target = states.bell_state()
    psi = target.vector
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    e2 = np.zeros(4, dtype=complex)
    e2[2] = 1.0
    mixed = (e1 + e2) / np.sqrt(2.0)
    p1 = linalg.projector_onto(psi) + linalg.projector_onto(e1)
    p2 = linalg.projector_onto(psi) + linalg.projector_onto(mixed)
    protocol = seq.compose_sequential(
        target, [p1, p2], require_complete=False, label="tilted"
    )
    assert not linalg.is_hermitian(seq.effective_operator(protocol))
    with pytest.raises(ValueError, match="Hermitian"):
        seq.protocol_gap(protocol)


def test_order_permutation_invariance_ghz3():
    protocol = catalog.sequential_ghz3()
    projs = [s.projector for s in protocol.settings]
    base = seq.effective_operator(protocol)
    for perm in itertools.permutations(range(3)):
        reordered = seq.compose_sequential(
            protocol.target, [projs[i] for i in perm], label="perm"
        )
        assert linalg.max_abs(seq.effective_operator(reordered) - base) < 1e-12


def test_appended_setting_gap():
    protocol = catalog.sequential_bell()
    proj = protocol.target.projector()
    comp = np.eye(4) - proj
    for lam in (1.0, 0.7, 0.5):
        effect = lam * proj + 0.25 * lam * comp
        assert abs(seq.appended_setting_gap(protocol, effect) - lam) < 1e-12


def test_appended_setting_gap_validates_effect():
    protocol = catalog.sequential_bell()
    with pytest.raises(ValueError, match="0 <= E <= I"):
        seq.appended_setting_gap(protocol, 2.0 * protocol.target.projector())
    with pytest.raises(ValueError, match="Hermitian"):
        seq.appended_setting_gap(protocol, np.triu(np.ones((4, 4))).astype(complex))


def test_summation_equals_product_form():
    for protocol in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        assert (
            linalg.max_abs(
                seq.full_operator(protocol) - seq.summation_form(protocol)
            )
            < 1e-12
        )


def test_full_operator_cap():
    spec = strategies.ghz_generator_spec(7)
    strat = strategies.stabilizer_generators(spec)
    protocol = seq.compose_sequential(
        strat.target,
        [s.projector for s in strat.settings],
        label="ghz7",
    )
    with pytest.raises(ValueError, match="at most 6"):
        seq.full_operator(protocol)
    # the reduced paths still work past the materialization cap
    sigma = random_density(protocol.target.dim, seed=1)
    assert seq.conditional_equivalence(protocol, sigma) < 1e-9
    prob, post = seq.fidelity_transform(protocol, sigma)
    assert abs(prob - states.fidelity(sigma, protocol.target)) < 1e-9
    assert linalg.max_abs(post - protocol.target.projector()) < 1e-9


def test_conditional_equivalence_random_sources():
    protocol = catalog.sequential_two_qubit(0.5)
    for s in range(5):
        sigma = random_density(4, seed=50 + s)
        assert seq.conditional_equivalence(protocol, sigma) < 1e-10


def test_fidelity_transform_matches_overlap():
    protocol = catalog.sequential_bell()
    target = protocol.target
    for s in range(5):
        sigma = random_density(4, seed=80 + s)
        prob, post = seq.fidelity_transform(protocol, sigma)
        assert abs(prob - states.fidelity(sigma, target)) < 1e-12
        assert linalg.max_abs(post - target.projector()) < 1e-9


def test_fidelity_transform_never_passes():
    protocol = catalog.sequential_bell()
    blocked = seq.protocol_gap(protocol).witness
    prob, post = seq.fidelity_transform(protocol, linalg.projector_onto(blocked))
    assert prob < 1e-14
    assert post is None


def test_fidelity_transform_validates_input():
    protocol = catalog.sequential_bell()
    with pytest.raises(ValueError, match="density"):
        seq.fidelity_transform(protocol, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        seq.fidelity_transform(protocol, np.eye(8, dtype=complex) / 8.0)


def test_stage_pass_probabilities_refuses_a_non_density_matrix():
    protocol = catalog.sequential_bell()
    with pytest.raises(ValueError, match="sigma must be a density matrix"):
        seq.stage_pass_probabilities(protocol, np.eye(4, dtype=complex))


def test_stage_pass_probabilities_refuses_the_wrong_dimension():
    protocol = catalog.sequential_bell()
    with pytest.raises(ValueError, match="sigma dimension does not match"):
        seq.stage_pass_probabilities(protocol, np.eye(8, dtype=complex) / 8.0)


def test_stage_pass_probabilities():
    protocol = catalog.sequential_bell()
    probs = seq.stage_pass_probabilities(protocol, protocol.target.projector())
    assert probs == [pytest.approx(1.0), pytest.approx(1.0)]
    witness = seq.protocol_gap(protocol).witness
    w_probs = seq.stage_pass_probabilities(protocol, linalg.projector_onto(witness))
    # overall pass probability must vanish for an orthogonal source
    total = 1.0
    for p in w_probs:
        total *= p
    assert total < 1e-12


def test_protocol_serialization_roundtrip():
    protocol = catalog.sequential_ghz3()
    blob = json.dumps(seq.protocol_to_dict(protocol), sort_keys=True)
    back = seq.protocol_from_dict(json.loads(blob))
    assert back.label == protocol.label
    assert len(back.settings) == len(protocol.settings)
    assert (
        linalg.max_abs(
            seq.effective_operator(back) - seq.effective_operator(protocol)
        )
        == 0.0
    )


def test_protocol_from_dict_rejects_other_kinds():
    # a document of either kind that lacks its fields names the missing key
    for kind in ("strategy", "sequential"):
        with pytest.raises(ValueError, match="lacks 'n_qubits'"):
            seq.protocol_from_dict({"kind": kind})
    for kind in (None, "bogus", "Strategy"):
        with pytest.raises(ValueError, match="not a protocol document"):
            seq.protocol_from_dict({"kind": kind})
    doc = seq.protocol_to_dict(catalog.sequential_bell())
    doc["kind"] = "strategy"
    with pytest.raises(ValueError, match="lacks 'mu'"):
        seq.protocol_from_dict(doc)


# ---------------------------------------------------------------------------
# one frozen Protocol and Setting
# ---------------------------------------------------------------------------


def _nonprojector():
    return 2.0 * states.bell_state().projector()


def test_every_construction_path_refuses_a_nonprojector():
    target = states.bell_state()
    with pytest.raises(ValueError, match="not a projector"):
        seq.Setting("a", _nonprojector(), 1.0)
    with pytest.raises(ValueError, match="not a projector"):
        seq.build_qnd_setting(_nonprojector(), "a")
    with pytest.raises(ValueError, match="not a projector"):
        seq.compose_sequential(target, [_nonprojector()], require_complete=False)
    for protocol in (catalog.build_strategy("bell"), catalog.build_sequential("bell")):
        doc = seq.protocol_to_dict(protocol)
        doc["settings"][0]["matrix"] = seq.complex_pairs(_nonprojector())
        with pytest.raises(ValueError, match="not a projector"):
            seq.protocol_from_dict(doc)


def test_protocol_checks_its_fields_when_built():
    strat = catalog.build_strategy("bell")
    with pytest.raises(ValueError, match="unknown protocol kind"):
        dataclasses.replace(strat, kind="mixed")
    with pytest.raises(ValueError, match="at least one setting"):
        dataclasses.replace(strat, settings=())
    with pytest.raises(ValueError, match="expected a Setting"):
        dataclasses.replace(strat, settings=(strat.settings[0].projector,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dataclasses.replace(strat, target=states.ghz(3))
    circuits = catalog.build_sequential("bell").circuits
    with pytest.raises(ValueError, match="only sequential"):
        dataclasses.replace(strat, circuits=circuits)
    seq_bell = catalog.build_sequential("bell")
    with pytest.raises(ValueError, match="circuit count"):
        dataclasses.replace(seq_bell, circuits=circuits[:1])


def test_protocols_and_settings_compare_and_hash_by_identity():
    a, b = catalog.build_strategy("bell"), catalog.build_strategy("bell")
    assert a.settings[0] != b.settings[0] and a.settings[0] == a.settings[0]
    assert len({a, b, a}) == 2 and len(set(a.settings + b.settings)) == 4


def test_settings_and_circuits_are_tuples():
    protocol = seq.compose_sequential(states.bell_state(), bell_projectors())
    assert isinstance(protocol.settings, tuple)
    assert isinstance(catalog.build_sequential("bell").circuits, tuple)


@pytest.mark.parametrize(
    "field, value",
    [("label", "x"), ("target", None), ("settings", ()), ("kind", "strategy"),
     ("theta", 0.1), ("analytic_nu", 1.0), ("circuits", None)],
)
def test_protocol_fields_cannot_be_assigned(field, value):
    protocol = catalog.build_sequential("bell")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(protocol, field, value)


@pytest.mark.parametrize(
    "field, value", [("label", "x"), ("projector", np.eye(4)), ("weight", 1.0)]
)
def test_setting_fields_cannot_be_assigned(field, value):
    setting = catalog.build_strategy("bell").settings[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(setting, field, value)


def test_settings_cannot_be_appended():
    protocol = catalog.build_sequential("bell")
    with pytest.raises(AttributeError):
        protocol.settings.append(seq.Setting("bogus", np.eye(4)))


def test_projectors_are_read_only_views_of_their_source():
    protocol = catalog.build_sequential("bell")
    with pytest.raises(ValueError, match="read-only"):
        protocol.settings[0].projector[0, 0] = 2.0
    source = bell_projectors()[0].copy()
    setting = seq.Setting("parity", source)
    assert np.shares_memory(setting.projector, source)
    assert source.flags.writeable


def test_sequential_run_reuses_the_strategy_settings(monkeypatch):
    strat = strategies.adaptive_two(0.55)
    monkeypatch.setattr(strategies, "adaptive_two", lambda theta: strat)
    protocol = catalog.build_sequential("adaptive_two", 0.55)
    assert protocol.settings == strat.settings
    assert all(a is b for a, b in zip(protocol.settings, strat.settings))
    assert (protocol.kind, protocol.analytic_nu, protocol.theta) == ("sequential", None, 0.55)
    assert (strat.kind, strat.label) == ("strategy", "adaptive_two")


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_sequential_build_checks_each_projector_once(monkeypatch):
    # Word settings build their projector from the word, exact by
    # construction: no dense check. Matrix settings keep the dense check.
    dense = _counting(monkeypatch, linalg, "is_projector")
    words = _counting(monkeypatch, states, "pauli_projector")
    protocol = catalog.build_sequential("ghz4")
    assert dense == []
    assert words == [s.word for s in protocol.settings] == list(
        strategies.ghz_generator_spec(4).generators
    )
    dense.clear()
    protocol = catalog.build_sequential("two_qubit_three", 0.55)
    assert len(dense) == len(protocol.settings) == 3


def test_a_ghz10_sequential_build_runs_no_dense_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense check on the build path")

    monkeypatch.setattr(linalg, "is_projector", refuse)
    monkeypatch.setattr(seq, "effective_operator", refuse)
    protocol = catalog.build_sequential("ghz10")
    assert len(protocol.settings) == 10
    assert protocol.target.vector.tobytes() == states.ghz(10).vector.tobytes()


def test_a_protocol_from_a_document_runs_both_dense_checks(monkeypatch):
    doc = seq.protocol_to_dict(catalog.build_sequential("ghz4"))
    dense = _counting(monkeypatch, linalg, "is_projector")
    products = _counting(monkeypatch, seq, "effective_operator")
    back = seq.protocol_from_dict(doc)
    assert len(dense) == 4
    assert len(products) == 1
    assert all(s.word is None for s in back.settings)


def test_a_word_setting_refuses_a_different_matrix():
    word = "+XZ"
    kept = seq.Setting(word, states.pauli_projector(word), word=word)
    assert kept.projector.tobytes() == seq.pauli_setting(word).projector.tobytes()
    with pytest.raises(ValueError, match="not that of its word"):
        seq.Setting(word, states.pauli_projector("+ZX"), word=word)
    with pytest.raises(ValueError, match="projector or a word"):
        seq.Setting("empty")
    with pytest.raises(ValueError, match="position 2"):
        seq.pauli_setting("+XQ")


def test_word_settings_that_are_not_generators_take_the_dense_product(monkeypatch):
    products = _counting(monkeypatch, seq, "effective_operator")
    target = states.bell_state()
    # Three group elements: complete, but not n independent generators.
    group = [seq.pauli_setting(w) for w in ("+ZZ", "+XX", "-YY")]
    seq.check_complete(seq.Protocol("group", target, group, "sequential"))
    assert len(products) == 1
    with pytest.raises(ValueError, match="incomplete"):
        seq.check_complete(
            seq.Protocol("parity", target, [seq.pauli_setting("+ZZ")], "sequential")
        )
    assert len(products) == 2


def test_gap_reads_the_operator_from_the_kind():
    strat = catalog.build_strategy("ghz3")
    run = dataclasses.replace(strat, kind="sequential", analytic_nu=None)
    assert seq.protocol_gap(strat).nu == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert seq.protocol_gap(run).nu == pytest.approx(1.0, abs=1e-12)
    assert strategies.spectral_gap is seq.protocol_gap is harness.spectral_gap
