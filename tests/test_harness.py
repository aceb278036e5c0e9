import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ndqv import catalog, circuits, harness, rng
from ndqv.states import NoiseSpec


def _pure() -> NoiseSpec:
    return NoiseSpec("worst_case_orthogonal", 0.0)


def _worst(eps: float) -> NoiseSpec:
    return NoiseSpec("worst_case_orthogonal", eps)


# ---------------------------------------------------------------------------
# confidence bounds
# ---------------------------------------------------------------------------


def test_exponential_bound_oracles():
    # half-gap Bell strategy, one-percent deviation: 299 copies reach 5%
    assert harness.confidence_exponential(0.02, 0.5, 299) <= 0.05
    assert harness.confidence_exponential(0.02, 0.5, 298) > 0.05
    assert harness.confidence_exponential(0.05, 1.0, 0) == 1.0
    assert harness.confidence_exponential(0.05, 1.0, 45) == pytest.approx(
        0.0994, abs=1e-4
    )


def test_exponential_bound_domain():
    with pytest.raises(ValueError, match="epsilon"):
        harness.confidence_exponential(0.0, 0.5, 10)
    with pytest.raises(ValueError, match="epsilon"):
        harness.confidence_exponential(1.0, 1.0, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        harness.confidence_exponential(0.1, 0.5, -1)


def test_divergence_properties():
    assert harness.bernoulli_divergence(0.3, 0.3) == 0.0
    assert harness.bernoulli_divergence(0.0, 0.5) == pytest.approx(math.log(2.0))
    assert harness.bernoulli_divergence(1.0, 0.5) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        harness.bernoulli_divergence(1.2, 0.5)
    with pytest.raises(ValueError):
        harness.bernoulli_divergence(0.5, 1.0)


@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.01, 0.99),
)
def test_divergence_nonnegative(x, y):
    assert harness.bernoulli_divergence(x, y) >= 0.0


def test_chernoff_inconclusive_below_threshold():
    assert harness.confidence_chernoff(0.8, 0.4, 0.5, 100) is None
    assert harness.confidence_chernoff(0.74, 0.4, 0.5, 100) is None


def test_chernoff_equals_exponential_at_unit_frequency():
    for eps, nu, n in [(0.05, 1.0, 45), (0.02, 0.5, 299), (0.1, 0.25, 12)]:
        chern = harness.confidence_chernoff(1.0, eps, nu, n)
        expo = harness.confidence_exponential(eps, nu, n)
        assert abs(chern - expo) < 1e-12


def test_chernoff_domain():
    with pytest.raises(ValueError, match="f must"):
        harness.confidence_chernoff(1.5, 0.1, 0.5, 10)
    with pytest.raises(ValueError, match="epsilon"):
        harness.confidence_chernoff(0.9, 0.0, 0.5, 10)
    with pytest.raises(ValueError, match="positive"):
        harness.confidence_chernoff(0.9, 0.1, 0.5, 0)


def test_wilson_interval_endpoints():
    low, high = harness.wilson_interval(100, 100)
    assert high == pytest.approx(1.0)
    assert 0.9 < low < 1.0
    low0, high0 = harness.wilson_interval(0, 100)
    assert low0 == pytest.approx(0.0)
    assert 0.0 < high0 < 0.1
    with pytest.raises(ValueError):
        harness.wilson_interval(5, 0)
    with pytest.raises(ValueError):
        harness.wilson_interval(7, 5)


@given(st.data())
def test_wilson_interval_brackets_the_point(data):
    n = data.draw(st.integers(1, 500))
    k = data.draw(st.integers(0, n))
    low, high = harness.wilson_interval(k, n)
    p = k / n
    assert 0.0 <= low <= high <= 1.0
    assert low <= p + 1e-12
    assert high >= p - 1e-12


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_spec_validation():
    strat = catalog.build_strategy("bell")
    with pytest.raises(ValueError, match="backend"):
        harness.ExperimentSpec(strat, _pure(), 10, 1, backend="gpu")
    with pytest.raises(ValueError, match="mode"):
        harness.ExperimentSpec(strat, _pure(), 10, 1, mode="hope")
    with pytest.raises(ValueError, match="at least 1"):
        harness.ExperimentSpec(strat, _pure(), 0, 1)


@pytest.mark.parametrize(
    "n_copies, seed, bad",
    [
        (10, 1.5, "seed"),
        (10, True, "seed"),
        (10, -1, "seed"),
        (10, 2**128, "seed"),
        (10, "1", "seed"),
        (True, 1, "n_copies"),
        (50.7, 1, "n_copies"),
        ("5", 1, "n_copies"),
        (np.bool_(True), 1, "n_copies"),
    ],
)
def test_spec_rejects_bad_integers(n_copies, seed, bad):
    strat = catalog.build_strategy("bell")
    with pytest.raises(ValueError, match=bad):
        harness.ExperimentSpec(strat, _pure(), n_copies, seed)


def test_spec_stores_numpy_integers_as_int():
    strat = catalog.build_strategy("bell")
    spec = harness.ExperimentSpec(strat, _pure(), np.int64(10), np.uint64(2**64 - 1))
    assert type(spec.n_copies) is int and spec.n_copies == 10
    assert type(spec.seed) is int and spec.seed == 2**64 - 1


@pytest.mark.parametrize(
    "field, value",
    [
        # each of these used to go through: 1.5 replayed seed 1, "gpu" reached
        # the circuit branch, 0 divided by zero
        ("seed", 1.5),
        ("backend", "gpu"),
        ("n_copies", 0),
        ("mode", "count_frequency"),
        ("noise", _pure()),
        ("protocol", None),
    ],
)
def test_spec_fields_cannot_be_assigned(field, value):
    spec = harness.ExperimentSpec(catalog.build_strategy("bell"), _pure(), 10, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, field, value)
    assert (spec.seed, spec.backend, spec.n_copies) == (1, "matrix", 10)


@pytest.mark.parametrize("protocol", [None, "bell", {"kind": "strategy"}])
def test_spec_refuses_a_non_protocol(protocol):
    with pytest.raises(ValueError, match=f"got {type(protocol).__name__}"):
        harness.ExperimentSpec(protocol, _pure(), 10, 1)


@pytest.mark.parametrize("noise", [None, "depolarizing", ("depolarizing", 0.1)])
def test_spec_refuses_a_non_noise_spec(noise):
    # None used to fail in the run with an AttributeError on noise.kind
    with pytest.raises(ValueError, match=f"NoiseSpec, got {type(noise).__name__}"):
        harness.ExperimentSpec(catalog.build_strategy("bell"), noise, 10, 1)


def test_numpy_noise_parameters_serialize():
    # a float32 epsilon used to reach the report and break report_to_json
    noise = NoiseSpec("random_orthogonal", np.float32(0.25), seed=np.int64(3))
    spec = harness.ExperimentSpec(catalog.build_sequential("bell"), noise, 50, 1)
    assert json.loads(harness.report_to_json(harness.run_experiment(spec)))["epsilon"] == 0.25


def test_circuit_backend_needs_sequential():
    strat = catalog.build_strategy("bell")
    spec = harness.ExperimentSpec(strat, _pure(), 10, 1, backend="circuit")
    with pytest.raises(ValueError, match="sequential"):
        harness.run_experiment(spec)


def test_circuit_backend_needs_compiled_circuits():
    proto = dataclasses.replace(catalog.build_sequential("ghz4"), circuits=None)
    spec = harness.ExperimentSpec(proto, _pure(), 10, 1, backend="circuit")
    with pytest.raises(ValueError, match="compiled circuits"):
        harness.run_experiment(spec)


def test_pure_source_always_passes():
    for protocol in (catalog.build_strategy("bell"), catalog.build_sequential("bell")):
        for mode in harness.MODES:
            spec = harness.ExperimentSpec(protocol, _pure(), 250, 7, mode=mode)
            report = harness.run_experiment(spec)
            assert report.n_run == 250
            assert report.n_pass == 250
            assert report.frequency == 1.0
            assert report.verdict == "pass"
            # zero deviation supports no finite significance level
            assert report.delta_exponential is None
            assert report.delta_chernoff is None


def test_pure_source_circuit_backend():
    proto = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(proto, _pure(), 60, 3, backend="circuit")
    report = harness.run_experiment(spec)
    assert report.n_pass == 60
    assert report.per_setting_attempts == [60, 60]
    assert report.per_setting_passes == [60, 60]


def test_worst_case_sequential_frequency_tracks_fidelity():
    # all-stage pass probability of each copy equals its target overlap 0.9
    proto = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(
        proto, _worst(0.1), 10_000, 42, mode="count_frequency"
    )
    report = harness.run_experiment(spec)
    sigma = math.sqrt(0.9 * 0.1 / 10_000)
    assert abs(report.frequency - 0.9) <= 3.0 * sigma
    # deterministic stage structure: the parity stage passes both components
    assert report.per_setting_attempts[0] == 10_000
    assert report.per_setting_passes[0] == 10_000
    assert report.per_setting_passes[1] == report.n_pass
    est = report.fidelity_estimate
    assert est is not None
    assert est["f_hat"] == report.frequency
    assert est["ci_low"] < est["f_hat"] < est["ci_high"]


def test_worst_case_strategy_frequency():
    # random-setting draws accept with probability 1 - nu*eps = 0.95
    strat = catalog.build_strategy("bell")
    spec = harness.ExperimentSpec(
        strat, _worst(0.1), 10_000, 11, mode="count_frequency"
    )
    report = harness.run_experiment(spec)
    p = 1.0 - 0.5 * 0.1
    sigma = math.sqrt(p * (1.0 - p) / 10_000)
    assert abs(report.frequency - p) <= 3.0 * sigma
    assert report.fidelity_estimate is None
    assert sum(report.per_setting_attempts) == report.n_run


def test_depolarizing_source_estimates_average_fidelity():
    # white noise of weight 0.2 on two qubits has fidelity 0.8 + 0.2/4 = 0.85
    proto = catalog.build_sequential("bell")
    noise = NoiseSpec("depolarizing", 0.2)
    spec = harness.ExperimentSpec(proto, noise, 10_000, 5, mode="count_frequency")
    report = harness.run_experiment(spec)
    f_avg = 0.8 + 0.2 / 4.0
    sigma = math.sqrt(f_avg * (1.0 - f_avg) / 10_000)
    assert abs(report.fidelity_estimate["f_hat"] - f_avg) <= 3.0 * sigma


def test_random_orthogonal_noise_runs():
    proto = catalog.build_sequential("bell")
    noise = NoiseSpec("random_orthogonal", 0.3, seed=99)
    spec = harness.ExperimentSpec(proto, noise, 2000, 13, mode="count_frequency")
    report = harness.run_experiment(spec)
    sigma = math.sqrt(0.7 * 0.3 / 2000)
    assert abs(report.frequency - 0.7) <= 4.0 * sigma


def test_stop_on_fail_truncates():
    proto = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(proto, _worst(0.5), 5000, 21)
    report = harness.run_experiment(spec)
    assert report.verdict == "fail"
    assert report.n_run < 5000
    assert report.n_pass == report.n_run - 1
    assert report.delta_exponential is None


def test_all_pass_run_reports_exponential_bound():
    # seed frozen on an all-pass run; reproducibility keeps it deterministic
    proto = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(proto, _worst(0.01), 40, 0)
    report = harness.run_experiment(spec)
    assert (report.delta_exponential is not None) == (
        report.n_pass == report.n_run
    )
    if report.delta_exponential is not None:
        expected = harness.confidence_exponential(0.01, report.nu, report.n_run)
        assert report.delta_exponential == pytest.approx(expected)


def test_count_mode_verdict_threshold():
    # white noise on a gap-one protocol beats the bound by eps/d: clear pass
    proto = catalog.build_sequential("bell")
    good = harness.run_experiment(
        harness.ExperimentSpec(
            proto, NoiseSpec("depolarizing", 0.2), 4000, 3, mode="count_frequency"
        )
    )
    assert good.verdict == "pass"
    assert good.delta_chernoff is not None
    # a fixed orthogonal component overlapping the dead direction of the
    # half-gap strategy misses its bound by a margin: clear fail
    strat = catalog.build_strategy("bell")
    noise = NoiseSpec("random_orthogonal", 0.4, seed=2)
    bad = harness.run_experiment(
        harness.ExperimentSpec(strat, noise, 4000, 3, mode="count_frequency")
    )
    assert bad.frequency < 1.0 - 0.5 * 0.4
    assert bad.verdict == "fail"
    assert bad.delta_chernoff is None


def test_reports_are_reproducible():
    proto = catalog.build_sequential("two_qubit_three", theta=0.6)
    noise = NoiseSpec("random_orthogonal", 0.2, seed=4)
    a = harness.run_experiment(
        harness.ExperimentSpec(proto, noise, 500, 17, mode="count_frequency")
    )
    b = harness.run_experiment(
        harness.ExperimentSpec(proto, noise, 500, 17, mode="count_frequency")
    )
    assert harness.report_to_dict(a) == harness.report_to_dict(b)
    c = harness.run_experiment(
        harness.ExperimentSpec(proto, noise, 500, 18, mode="count_frequency")
    )
    assert harness.report_to_dict(a) != harness.report_to_dict(c)


def test_matrix_and_circuit_backends_share_the_stream():
    # shared uniform convention makes the two backends bit-identical here
    proto = catalog.build_sequential("two_qubit_three", theta=0.7)
    noise = NoiseSpec("worst_case_orthogonal", 0.3)
    reports = []
    for backend in harness.BACKENDS:
        spec = harness.ExperimentSpec(
            proto, noise, 80, 31, backend=backend, mode="count_frequency"
        )
        reports.append(harness.run_experiment(spec))
    a, b = reports
    assert (a.n_run, a.n_pass) == (b.n_run, b.n_pass)
    assert a.per_setting_attempts == b.per_setting_attempts
    assert a.per_setting_passes == b.per_setting_passes


# ---------------------------------------------------------------------------
# chunked matrix runs
# ---------------------------------------------------------------------------

# (protocol, noise) pairs that fail often enough to stop within a few chunks.
_CHUNKED_CASES = {
    "strategy": (lambda: catalog.build_strategy("bell"), NoiseSpec("depolarizing", 0.6)),
    "sequential": (lambda: catalog.build_sequential("ghz3"), NoiseSpec("depolarizing", 0.5)),
    "sequential_pure": (lambda: catalog.build_sequential("bell"), _worst(0.3)),
}


def _slots(protocol) -> int:
    return 1 + (2 if protocol.kind == "strategy" else len(protocol.settings))


def _one_shot_counts(spec):
    """(n_run, n_pass, attempts, passes), copy by copy from the whole table."""
    protocol = spec.protocol
    strategy = protocol.kind == "strategy"
    witness = harness.spectral_gap(protocol).witness
    members = harness._source_ensemble(protocol, spec.noise, witness)
    l = len(protocol.settings)
    member_cdf = np.cumsum([w for w, _ in members])
    member_cdf[-1] = 1.0
    if strategy:
        setting_cdf = np.cumsum([float(s.weight) for s in protocol.settings])
        setting_cdf[-1] = 1.0
        probs = harness._strategy_member_probs(protocol, members)
    else:
        probs = harness._sequential_member_probs(protocol, members)
    table = rng.uniform_table(spec.seed, spec.n_copies, _slots(protocol))
    n_run = n_pass = 0
    attempts, passes = [0] * l, [0] * l
    for row in table:
        m = 0
        if spec.noise.kind == "depolarizing":
            m = min(int(np.searchsorted(member_cdf, row[0], side="right")), len(members) - 1)
        if strategy:
            j = min(int(np.searchsorted(setting_cdf, row[1], side="right")), l - 1)
            stages = [(j, row[2])]
        else:
            stages = list(enumerate(row[1:]))
        ok = True
        for j, u in stages:
            attempts[j] += 1
            if u < probs[m, j]:
                passes[j] += 1
            else:
                ok = False
                break
        n_run += 1
        n_pass += ok
        if not ok and spec.mode == "stop_on_fail":
            break
    return n_run, n_pass, attempts, passes


def _one_shot_circuit_counts(spec):
    """(n_run, n_pass, attempts, passes), running every circuit copy by copy."""
    protocol = spec.protocol
    witness = harness.spectral_gap(protocol).witness
    members = harness._source_ensemble(protocol, spec.noise, witness)
    spans = [harness._circuit_event_slots(c) for c in protocol.circuits]
    table = rng.uniform_table(spec.seed, spec.n_copies, 1 + sum(spans))
    member_idx = harness._pick(harness._member_cdf(members), table[:, 0])
    l = len(protocol.circuits)
    n_run = n_pass = 0
    attempts, passes = [0] * l, [0] * l
    for c in range(spec.n_copies):
        n_run += 1
        state = members[int(member_idx[c])][1]
        ok = True
        cursor = 1
        for i, (circuit, span) in enumerate(zip(protocol.circuits, spans)):
            attempts[i] += 1
            full = circuits.fresh_input(circuit, state)
            out, record = circuits.apply(circuit, full, uniforms=table[c, cursor : cursor + span])
            cursor += span
            if not record.passed:
                ok = False
                break
            passes[i] += 1
            state = harness._system_state_after(circuit, out)
        n_pass += ok
        if not ok and spec.mode == "stop_on_fail":
            break
    return n_run, n_pass, attempts, passes


def _counts(report):
    return (report.n_run, report.n_pass, report.per_setting_attempts, report.per_setting_passes)


def _chunked_run(monkeypatch, spec, rows):
    """The report with ``rows`` copies per chunk, and the copy ranges drawn."""
    drawn = []
    uniform_rows = rng.uniform_rows

    def recording(seed, start, stop, slots_per_copy):
        drawn.append((start, stop))
        return uniform_rows(seed, start, stop, slots_per_copy)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_CHUNK_UNIFORMS", rows * _slots(spec.protocol))
        patch.setattr(rng, "uniform_rows", recording)
        report = harness.run_experiment(spec)
    return report, drawn


@pytest.mark.parametrize("mode", harness.MODES)
@pytest.mark.parametrize("case", sorted(_CHUNKED_CASES))
@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_chunked_run_equals_one_shot_reference(monkeypatch, case, mode, n):
    # four copies per chunk: n = chunk - 1, chunk, chunk + 1, 2 * chunk + 1
    build, noise = _CHUNKED_CASES[case]
    spec = harness.ExperimentSpec(build(), noise, n, 5, mode=mode)
    report, drawn = _chunked_run(monkeypatch, spec, rows=4)
    assert _counts(report) == _one_shot_counts(spec)
    whole = harness.run_experiment(spec)
    assert harness.report_to_json(report) == harness.report_to_json(whole)
    # consecutive chunks from copy 0, ending with the chunk of the last copy run
    assert drawn[0][0] == 0 and all(a[1] == b[0] for a, b in zip(drawn, drawn[1:]))
    assert drawn[-1][1] == min(n, -(-report.n_run // 4) * 4)


@pytest.mark.parametrize("case", sorted(_CHUNKED_CASES))
def test_stop_on_fail_stops_drawing_at_the_failing_chunk(monkeypatch, case):
    build, noise = _CHUNKED_CASES[case]
    protocol = build()
    specs = [harness.ExperimentSpec(protocol, noise, 40, seed) for seed in range(60)]
    # seeds that fail within the budget, first at copy 2 or later (copies count from 0)
    late = [s for s in specs if 3 <= _one_shot_counts(s)[0] < 40][:3]
    assert late
    for spec in late:
        reference = _one_shot_counts(spec)
        first_fail = reference[0] - 1
        # the failure on the last row of chunk 0, then on the first row of chunk 1
        for rows in (first_fail + 1, first_fail):
            report, drawn = _chunked_run(monkeypatch, spec, rows)
            assert _counts(report) == reference
            start = first_fail // rows * rows
            assert drawn[-1] == (start, min(start + rows, spec.n_copies))
            assert report.verdict == "fail"


def test_chunk_holds_at_least_one_copy(monkeypatch):
    protocol = catalog.build_sequential("ghz3")
    spec = harness.ExperimentSpec(protocol, NoiseSpec("depolarizing", 0.5), 7, 2,
                                  mode="count_frequency")
    monkeypatch.setattr(harness, "_CHUNK_UNIFORMS", 1)
    assert _counts(harness.run_experiment(spec)) == _one_shot_counts(spec)


# ---------------------------------------------------------------------------
# the matrix backend's decision tables, kept per (protocol, noise spec)
# ---------------------------------------------------------------------------

_TABLE_BUILDS = {
    "strategy": lambda: catalog.build_strategy("ghz3"),
    "sequential": lambda: catalog.build_sequential("ghz3"),
}
_TABLE_NOISES = [
    NoiseSpec("depolarizing", 0.3),
    _worst(0.3),
    NoiseSpec("random_orthogonal", 0.3, seed=4),
    NoiseSpec("random_orthogonal", 0.3, seed=5),
    _pure(),
]
_TABLE_BUILDERS = (
    "_source_ensemble", "_sequential_member_probs", "_strategy_member_probs", "perturbed_state"
)


@pytest.mark.parametrize("kind", sorted(_TABLE_BUILDS))
def test_interleaved_noises_report_as_on_a_fresh_protocol(kind):
    build = _TABLE_BUILDS[kind]
    protocol = build()
    for noise in _TABLE_NOISES * 2:
        for mode in harness.MODES:
            spec = harness.ExperimentSpec(protocol, noise, 300, 7, mode=mode)
            fresh = dataclasses.replace(spec, protocol=build())
            assert harness.report_to_json(harness.run_experiment(spec)) == harness.report_to_json(
                harness.run_experiment(fresh)
            )
    assert list(protocol._decision_tables) == _TABLE_NOISES


@pytest.mark.parametrize("kind", sorted(_TABLE_BUILDS))
def test_a_warm_matrix_run_builds_no_table(monkeypatch, kind):
    calls = []
    for name in _TABLE_BUILDERS:
        original = getattr(harness, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    protocol = _TABLE_BUILDS[kind]()
    for noise in _TABLE_NOISES:
        calls.clear()
        harness.run_experiment(harness.ExperimentSpec(protocol, noise, 20, 1))
        assert f"_{kind}_member_probs" in calls
        calls.clear()
        for seed, mode in enumerate(harness.MODES, start=2):
            harness.run_experiment(harness.ExperimentSpec(protocol, noise, 20, seed, mode=mode))
        assert calls == []


def test_decision_table_is_read_only_and_holds_no_members():
    protocol = catalog.build_sequential("ghz3")
    harness.run_experiment(harness.ExperimentSpec(protocol, NoiseSpec("depolarizing", 0.2), 9, 1))
    harness.run_experiment(harness.ExperimentSpec(protocol, _worst(0.2), 9, 1))
    tables = list(protocol._decision_tables.values())
    for (probs, member_cdf), members in zip(tables, (1 + protocol.target.dim, 1)):
        assert probs.shape == (members, len(protocol.settings))
        assert member_cdf.shape == (members,)
        for array in (probs, member_cdf):
            assert not array.flags.writeable and array.base is None
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


def test_circuit_runs_fill_no_decision_table():
    protocol = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(protocol, NoiseSpec("depolarizing", 0.2), 9, 1, "circuit")
    harness.run_experiment(spec)
    assert "_decision_tables" not in vars(protocol)


def _accumulated_counts(bits):
    """Stage counts through logical_and.accumulate: the reference for _counts_from_bits."""
    through = np.logical_and.accumulate(bits, axis=1)
    reach = np.ones_like(bits)
    reach[:, 1:] = through[:, :-1]
    return through[:, -1], reach.sum(axis=0), (reach & bits).sum(axis=0)


@settings(max_examples=300, deadline=None)
@given(arrays(np.bool_, st.tuples(st.integers(0, 40), st.integers(1, 9))))
@example(np.zeros((0, 3), dtype=bool))
@example(np.zeros((0, 1), dtype=bool))
@example(np.array([[True], [False], [True]]))
@example(np.ones((6, 4), dtype=bool))
@example(np.zeros((5, 4), dtype=bool))
def test_counts_from_first_failure_equal_the_accumulated_counts(bits):
    got = harness._counts_from_bits(bits)
    want = _accumulated_counts(bits)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


_CIRCUIT_PROTOCOLS = {
    "bell": lambda: catalog.build_sequential("bell"),
    "ghz3": lambda: catalog.build_sequential("ghz3"),
    "toffoli": lambda: catalog.build_sequential("two_qubit_three", 0.6),
    "cnot_pair": lambda: catalog.build_sequential("two_qubit_three", 0.6, variant="cnot_pair"),
    "adaptive_two": lambda: catalog.build_sequential("adaptive_two", 0.5),
}
_CIRCUIT_NOISES = {
    "depolarizing": NoiseSpec("depolarizing", 0.3),
    "worst_case": _worst(0.3),
    "random": NoiseSpec("random_orthogonal", 0.3, seed=4),
}


@pytest.mark.parametrize("n", [2, 4, 5])
def test_generated_ghz_circuits_report_like_the_matrix_backend(n):
    protocol = catalog.build_sequential(f"ghz{n}")
    for noise, mode, seed in itertools.product(_CIRCUIT_NOISES.values(), harness.MODES, (0, 7)):
        reports = [
            harness.report_to_dict(
                harness.run_experiment(
                    harness.ExperimentSpec(protocol, noise, 2000, seed, backend, mode)
                )
            )
            for backend in harness.BACKENDS
        ]
        for report in reports:
            report.pop("backend")
        assert reports[0] == reports[1]


# Every protocol and noise at n = 1 and 7; at n = 300, where the reference
# loop is slow, each protocol under one noise and every noise at least once.
_CIRCUIT_CASES = [
    (name, noise, n) for name in _CIRCUIT_PROTOCOLS for noise in _CIRCUIT_NOISES for n in (1, 7)
] + [
    (name, noise, 300)
    for name, noise in zip(_CIRCUIT_PROTOCOLS, ["depolarizing", "worst_case", "random"] * 2)
]


@pytest.mark.parametrize("name, noise, n", _CIRCUIT_CASES)
def test_circuit_tree_report_equals_copy_by_copy_reference(monkeypatch, name, noise, n):
    protocol = _CIRCUIT_PROTOCOLS[name]()
    for mode in harness.MODES:
        spec = harness.ExperimentSpec(protocol, _CIRCUIT_NOISES[noise], n, 11, "circuit", mode)
        report = harness.report_to_json(harness.run_experiment(spec))
        reference = _one_shot_circuit_counts(spec)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_decide_blocks", lambda *args: reference)
            assert harness.report_to_json(harness.run_experiment(spec)) == report


def test_circuit_runs_are_bounded_by_reached_nodes(monkeypatch):
    protocol = catalog.build_sequential("bell")
    calls = []
    apply = circuits.apply

    def counting(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(circuits, "apply", counting)
    per_run = []
    for n in (10, 5000):
        calls.clear()
        spec = harness.ExperimentSpec(protocol, _pure(), n, 3, "circuit", "count_frequency")
        assert harness.run_experiment(spec).n_pass == n
        per_run.append(len(calls))
    # one pure member, two stages that always pass: one run per stage
    assert per_run == [2, 2]


_BOUNDED_RUN = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ndqv import catalog, circuits, harness, rng
from ndqv.states import NoiseSpec
kind, name, noise, eps, n, mode = sys.argv[1:]
build = catalog.build_strategy if kind == "strategy" else catalog.build_sequential
spec = harness.ExperimentSpec(build(name), NoiseSpec(noise, float(eps)), int(n), 3, mode=mode)
report = harness.run_experiment(spec)
# Peak RSS of this process image: ru_maxrss would also count the peak of the
# forking test process, which Linux carries across exec.
with open("/proc/self/status") as fh:
    rss_mb = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
print(json.dumps({"n_run": report.n_run, "n_pass": report.n_pass, "rss_mb": rss_mb}))
"""


def _bounded_run(*args) -> dict:
    """One run in a child process limited to 1 GiB of address space, BLAS pinned."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDED_RUN, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_stop_on_fail_at_a_hundred_million_copies_fits_in_one_gib():
    # The whole table would need 4 * 10**8 * 3 doubles, 8.9 GiB.
    out = _bounded_run("strategy", "ghz6", "worst_case_orthogonal", 0.05, 10**8, "stop_on_fail")
    assert 1 <= out["n_run"] < 10**5
    assert out["n_pass"] == out["n_run"] - 1


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_count_frequency_memory_does_not_grow_with_n_copies():
    n = 5 * 10**6
    out = _bounded_run("sequential", "bell", "depolarizing", 0.05, n, "count_frequency")
    assert out["n_run"] == n
    # each copy passes with the source fidelity 1 - 3 eps / 4
    assert abs(out["n_pass"] / n - (1 - 0.75 * 0.05)) < 1e-3
    assert out["rss_mb"] < 150


def test_estimate_fidelity_requirements():
    strat = catalog.build_strategy("bell")
    rep = harness.run_experiment(
        harness.ExperimentSpec(strat, _pure(), 20, 1, mode="count_frequency")
    )
    with pytest.raises(ValueError, match="sequential"):
        harness.estimate_fidelity(rep)
    proto = catalog.build_sequential("bell")
    rep2 = harness.run_experiment(harness.ExperimentSpec(proto, _pure(), 20, 1))
    with pytest.raises(ValueError, match="count_frequency"):
        harness.estimate_fidelity(rep2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _sample_report():
    proto = catalog.build_sequential("bell")
    spec = harness.ExperimentSpec(
        proto, _worst(0.1), 300, 9, mode="count_frequency"
    )
    return harness.run_experiment(spec)


def test_json_roundtrip():
    report = _sample_report()
    text = harness.report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == harness.report_to_dict(report)


def test_csv_shape_and_values():
    report = _sample_report()
    text = harness.report_to_csv(report)
    header, line, trailer = text.split("\n")
    assert trailer == ""
    names = header.split(",")
    cells = line.split(",")
    assert len(names) == len(harness._CSV_FIELDS) == 21
    assert len(cells) == len(names)
    row = dict(zip(names, cells))
    assert row["schema"] == "1"
    assert row["protocol_kind"] == "sequential"
    assert float(row["frequency"]) == report.frequency
    assert row["per_setting_attempts"] == ";".join(
        str(v) for v in report.per_setting_attempts
    )
    # floats use full-precision %.17g so parsing them back is exact
    assert float(row["nu"]) == report.nu


def test_csv_empty_cells_for_missing_bounds():
    proto = catalog.build_sequential("bell")
    report = harness.run_experiment(
        harness.ExperimentSpec(proto, _pure(), 10, 1)
    )
    row = dict(
        zip(
            harness.report_csv_header().split(","),
            harness.report_to_csv_line(report).split(","),
        )
    )
    assert row["delta_exponential"] == ""
    assert row["delta_chernoff"] == ""
    assert row["f_hat"] == ""
