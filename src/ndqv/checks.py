"""Named self-consistency checks over the whole catalog.

Each check recomputes one structural claim from scratch (analytic gap
formulas, operator identities, circuit/engine agreement, backend agreement)
and reports the worst deviation it saw. The command line exposes them under
``check``; the test suite runs the same registry.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, circuits as circ, harness, linalg, rng as rngmod
from . import sequential as seq
from . import states, strategies

TOL_STRUCTURAL = 1e-10
TOL_ENGINE = 1e-9
TOL_GAP = 1e-8

_THETAS = (0.3, 0.55, 0.7)

_REGISTRY: dict[str, Callable[[], "CheckResult"]] = {}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def check_names() -> list[str]:
    return list(_REGISTRY)


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    picked = check_names() if names is None else names
    results = []
    for name in picked:
        if name not in _REGISTRY:
            raise ValueError(f"unknown check {name!r}")
        results.append(_REGISTRY[name]())
    return results


def _result(name: str, dev: float, tol: float, extra: str = "") -> CheckResult:
    note = f"max deviation {dev:.3e} (tol {tol:.0e})"
    if extra:
        note += f"; {extra}"
    return CheckResult(name=name, passed=bool(dev <= tol), detail=note)


def _random_density(dim: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / float(np.real(np.trace(rho)))


def _random_unit(dim: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_unitary_2x2(gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@_register("rng_stream_indexing")
def _check_rng() -> CheckResult:
    table = rngmod.uniform_table(11, 6, 5)
    dev = 0.0
    for c in range(6):
        for k in range(5):
            dev = max(dev, abs(table[c, k] - rngmod.slot_uniform(11, c, k, 5)))
    # A block drawn from a nonzero start advances the counter on its own.
    rows = rngmod.uniform_rows(11, 3, 6, 5)
    for c in range(3, 6):
        for k in range(5):
            dev = max(dev, abs(rows[c - 3, k] - rngmod.slot_uniform(11, c, k, 5)))
    other = rngmod.uniform_table(12, 6, 5)
    distinct = not np.array_equal(table, other)
    return _result(
        "rng_stream_indexing",
        dev if distinct else 1.0,
        0.0,
        "seed separation ok" if distinct else "seeds collide",
    )


@_register("state_catalog")
def _check_states() -> CheckResult:
    dev = 0.0
    bell = states.bell_state()
    synth = states.stabilizer_state(states.StabilizerGroupSpec(("+ZZ", "+XX")))
    dev = max(dev, linalg.max_abs(bell.vector - synth.vector))
    g3 = states.ghz(3)
    synth3 = states.stabilizer_state(strategies.ghz_generator_spec(3))
    dev = max(dev, linalg.max_abs(g3.vector - synth3.vector))
    spun = states.canonical_phase(np.exp(0.73j) * g3.vector)
    dev = max(dev, linalg.max_abs(spun - g3.vector))
    return _result("state_catalog", dev, TOL_STRUCTURAL)


def _dense_stabilizer_state(spec: states.StabilizerGroupSpec) -> np.ndarray:
    """The target by the dense route: basis states through dense (I + S)/2."""
    dim = 2**spec.n_qubits
    mats = [states.pauli_operator(g) for g in spec.generators]
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for s in mats:
            v = (v + s @ v) / 2.0
        if np.linalg.norm(v) > 1e-8:
            return states.canonical_phase(states.normalize(v))
    raise ValueError("no computational basis state survives the projection")


@_register("pauli_form")
def _check_pauli_form() -> CheckResult:
    # Settings and targets built from Pauli bitmasks must carry the bytes of
    # the dense forms, and pass the dense checks their build skips: the
    # projector check and the completeness product. Any byte difference or
    # failed projector check counts as deviation 1.
    bell = states.StabilizerGroupSpec(("+ZZ", "+XX"))
    specs = [bell] + [strategies.ghz_generator_spec(n) for n in range(2, 7)]
    specs += [
        states.StabilizerGroupSpec(gens)
        for gens in (("+YZ", "+ZY"), ("-YY", "+XX"), ("-ZII", "-IZI", "-IIZ"))
    ]
    dev = 0.0
    n_proj = n_targets = 0
    for spec in specs:
        target = _dense_stabilizer_state(spec)
        gens = strategies.stabilizer_generators(spec)
        builds = [gens, strategies.stabilizer_full_group(spec)]
        if spec is bell:
            builds.append(strategies.bell_minimal())
        for strat in builds:
            eye = linalg.identity(strat.target.dim)
            for s in strat.settings:
                dense = (eye + states.pauli_operator(s.word)) / 2.0
                same = s.projector.tobytes() == dense.tobytes()
                if not (same and linalg.is_projector(s.projector)):
                    dev = 1.0
                n_proj += 1
            if strat.target.vector.tobytes() != target.tobytes():
                dev = 1.0
            n_targets += 1
        eff = seq.effective_operator(gens)
        dev = max(dev, linalg.max_abs(eff - gens.target.projector()))
    return _result(
        "pauli_form",
        dev,
        seq.ATOL_FIX,
        f"{n_proj} projectors and {n_targets} targets byte-identical to the dense forms"
        if dev < 1.0
        else "a Pauli-built setting or target differs from its dense form",
    )


@_register("gap_formulas")
def _check_gaps() -> CheckResult:
    builds: list[seq.Protocol] = [
        strategies.bell_minimal(),
        strategies.bell_stabilizer_group(),
        strategies.stabilizer_generators(strategies.ghz_generator_spec(3)),
        strategies.stabilizer_full_group(strategies.ghz_generator_spec(3)),
        strategies.stabilizer_generators(strategies.ghz_generator_spec(4)),
        strategies.stabilizer_full_group(strategies.ghz_generator_spec(4)),
    ]
    for theta in _THETAS:
        builds += [
            strategies.two_qubit_three(theta),
            strategies.two_qubit_four(theta),
            strategies.adaptive_two(theta),
            strategies.adaptive_three(theta),
        ]
    dev = 0.0
    for strat in builds:
        report = strategies.spectral_gap(strat)
        dev = max(dev, abs(report.nu - strat.analytic_nu))
    return _result("gap_formulas", dev, TOL_GAP, f"{len(builds)} strategies")


@_register("sample_complexity_table")
def _check_samples() -> CheckResult:
    ok = strategies.sample_complexity(1.0, 0.01, 0.05) == (299, 300)
    ok &= strategies.sample_complexity(1.0, 0.05, 0.1) == (45, 47)
    bound = harness.confidence_exponential(epsilon=0.05, nu=1.0, n=45)
    ok &= bound <= 0.1
    exact, approx = strategies.sample_complexity(0.5, 0.02, 0.01)
    ok &= exact <= approx
    return CheckResult(
        "sample_complexity_table",
        bool(ok),
        f"exact inversion and log-linear ceiling agree; 45-copy bound {bound:.4f}",
    )


@_register("qnd_coupling")
def _check_qnd() -> CheckResult:
    dev = 0.0
    projs = [
        strategies.bell_minimal().settings[0].projector,
        states.stabilizer_projectors(strategies.ghz_generator_spec(3))[0],
    ]
    e0 = np.array([1.0, 0.0], dtype=complex)
    for p in projs:
        setting = seq.build_qnd_setting(p, label="probe")
        dim = p.shape[0]
        total = (
            linalg.dagger(setting.m_pass) @ setting.m_pass
            + linalg.dagger(setting.m_fail) @ setting.m_fail
        )
        dev = max(dev, linalg.max_abs(total - linalg.identity(2 * dim)))
        # repeating a passed test must pass again with certainty
        x = _random_unit(dim, seed=5)
        w = setting.m_pass @ np.kron(x, e0)
        block = w.reshape(-1, 2)[:, 0]
        nrm = np.linalg.norm(block)
        if nrm > 1e-8:
            again = setting.m_pass @ np.kron(block / nrm, e0)
            dev = max(dev, abs(np.linalg.norm(again) - 1.0))
    parity = circ.compile_bell()[0]
    _, record = circ.apply(
        parity, circ.fresh_input(parity, states.bell_state().vector), forced_outcomes=[0]
    )
    dev = max(dev, abs(record.probability - 1.0))
    return _result("qnd_coupling", dev, TOL_STRUCTURAL)


def _catalog_protocols() -> list[seq.Protocol]:
    return [
        catalog.sequential_bell(),
        catalog.sequential_two_qubit(0.55),
        catalog.sequential_ghz3(),
        catalog.sequential_adaptive(0.55),
    ]


@_register("sequential_completeness")
def _check_complete() -> CheckResult:
    dev = 0.0
    for protocol in _catalog_protocols():
        eff = seq.effective_operator(protocol)
        dev = max(dev, linalg.max_abs(eff - protocol.target.projector()))
        dev = max(dev, abs(seq.protocol_gap(protocol).nu - 1.0))
    return _result("sequential_completeness", dev, TOL_ENGINE)


def _symmetry_connected_orders(projs: list[np.ndarray]) -> set[tuple[int, ...]]:
    # closure of the defined order under the two product-preserving moves:
    # swapping adjacent commuting settings, and reversing the whole run
    # (the reference product is Hermitian, so reversal is its adjoint)
    l = len(projs)
    commute = [
        [
            linalg.max_abs(projs[a] @ projs[b] - projs[b] @ projs[a]) <= 1e-12
            for b in range(l)
        ]
        for a in range(l)
    ]
    connected = {tuple(range(l))}
    frontier = list(connected)
    while frontier:
        nxt = []
        for perm in frontier:
            cands = [perm[::-1]]
            for i in range(l - 1):
                if commute[perm[i]][perm[i + 1]]:
                    cands.append(perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :])
            for cand in cands:
                if cand not in connected:
                    connected.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return connected


@_register("ordering_invariance")
def _check_ordering() -> CheckResult:
    # every order keeps the target fixed with a nilpotent remainder, so the
    # run gap is 1 regardless of ordering; the product matrix itself is only
    # forced to coincide on symmetry-connected orders (noncommuting settings
    # reordered past each other change it)
    dev = 0.0
    for protocol in _catalog_protocols():
        projs = [s.projector for s in protocol.settings]
        target_proj = protocol.target.projector()
        psi = protocol.target.vector
        dim = protocol.target.dim
        connected = _symmetry_connected_orders(projs)
        for perm in itertools.permutations(range(len(projs))):
            prod = linalg.identity(dim)
            for i in perm:
                prod = projs[i] @ prod
            dev = max(dev, linalg.max_abs(prod @ psi - psi))
            dev = max(
                dev,
                linalg.max_abs(np.linalg.matrix_power(prod - target_proj, dim)),
            )
            if perm in connected:
                dev = max(dev, linalg.max_abs(prod - target_proj))
    return _result("ordering_invariance", dev, TOL_STRUCTURAL)


@_register("pattern_sum_expansion")
def _check_patterns() -> CheckResult:
    dev = 0.0
    for protocol in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        dev = max(
            dev,
            linalg.max_abs(
                seq.full_operator(protocol) - seq.summation_form(protocol)
            ),
        )
    return _result("pattern_sum_expansion", dev, TOL_STRUCTURAL)


@_register("ancilla_reduction")
def _check_reduction() -> CheckResult:
    dev = 0.0
    count = 0
    for protocol in _catalog_protocols():
        for s in range(3):
            sigma = _random_density(protocol.target.dim, seed=100 + s)
            dev = max(dev, seq.conditional_equivalence(protocol, sigma))
            count += 1
    return _result("ancilla_reduction", dev, TOL_ENGINE, f"{count} random sources")


@_register("fidelity_transform")
def _check_fidelity() -> CheckResult:
    dev = 0.0
    for protocol in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        target = protocol.target
        for s in range(3):
            sigma = _random_density(target.dim, seed=200 + s)
            prob, post = seq.fidelity_transform(protocol, sigma)
            dev = max(dev, abs(prob - states.fidelity(sigma, target)))
            dev = max(dev, linalg.max_abs(post - target.projector()))
        blocked = seq.protocol_gap(protocol).witness
        prob, post = seq.fidelity_transform(protocol, linalg.projector_onto(blocked))
        if post is not None or prob > 1e-12:
            dev = max(dev, 1.0)
    return _result("fidelity_transform", dev, TOL_ENGINE)


@_register("appended_effect_gap")
def _check_appended() -> CheckResult:
    dev = 0.0
    protocol = catalog.sequential_bell()
    proj = protocol.target.projector()
    comp = linalg.identity(protocol.target.dim) - proj
    for lam in (1.0, 0.7, 0.5):
        effect = lam * proj + 0.3 * lam * comp
        dev = max(dev, abs(seq.appended_setting_gap(protocol, effect) - lam))
    return _result("appended_effect_gap", dev, TOL_ENGINE)


def _anc_zero_projector(n_anc: int) -> np.ndarray:
    p0 = np.zeros((2**n_anc, 2**n_anc), dtype=complex)
    p0[0, 0] = 1.0
    return p0


@_register("compiled_pass_operators")
def _check_compiled() -> CheckResult:
    dev = 0.0
    pairs = 0

    def direct(circuit: circ.Circuit, setting: seq.Setting) -> float:
        expected = setting.m_pass
        idle = circuit.n_ancilla - 1
        if idle:
            expected = linalg.kron(expected, linalg.identity(2**idle))
        return linalg.max_abs(circ.pass_kraus(circuit) - expected)

    for protocol in (
        catalog.sequential_bell(),
        catalog.sequential_two_qubit(0.55, variant="toffoli"),
        catalog.sequential_ghz3(),
    ):
        for circuit, setting in zip(protocol.circuits, protocol.settings):
            dev = max(dev, direct(circuit, setting))
            pairs += 1

    cp = catalog.sequential_two_qubit(0.55, variant="cnot_pair")
    for circuit, setting in zip(cp.circuits, cp.settings):
        anc0 = _anc_zero_projector(circuit.n_ancilla)
        eye_sys = linalg.identity(2**circuit.n_system)
        lhs = circ.pass_kraus(circuit) @ linalg.kron(eye_sys, anc0)
        rhs = linalg.kron(setting.projector, anc0)
        dev = max(dev, linalg.max_abs(lhs - rhs))
        pairs += 1
    return _result("compiled_pass_operators", dev, TOL_STRUCTURAL, f"{pairs} circuits")


@_register("branch_sum")
def _check_branch_sum() -> CheckResult:
    dev = 0.0
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    flip = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    for theta in _THETAS:
        s, c = math.sin(theta), math.cos(theta)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
        phi0 = np.kron(plus, np.array([s, c], dtype=complex))
        phi2 = np.kron(minus, np.array([s, -c], dtype=complex))
        expected = linalg.kron(
            linalg.projector_onto(phi0), linalg.kron(p0, p0)
        ) + linalg.kron(linalg.projector_onto(phi2), linalg.kron(flip, p0))
        circuit = circ.compile_adaptive(theta)
        # identity holds on fresh ancillas, so condition on the |00> columns
        fresh = linalg.kron(linalg.identity(4), linalg.kron(p0, p0))
        dev = max(dev, linalg.max_abs(circ.pass_kraus(circuit) @ fresh - expected))
        # the branch projectors resolve the strategy's rank-2 setting
        rank2 = linalg.projector_onto(phi0) + linalg.projector_onto(phi2)
        dev = max(
            dev, linalg.max_abs(rank2 - strategies.adaptive_x_projector(theta))
        )
        # the target never takes the fail branch
        target = states.two_qubit_pure(theta)
        vec = circ.fresh_input(circuit, target.vector)
        total = 0.0
        for branch_bit in (0, 1):
            _, record = circ.apply(circuit, vec, forced_outcomes=[branch_bit, 0])
            total += record.probability
        dev = max(dev, abs(total - 1.0))
    return _result("branch_sum", dev, TOL_STRUCTURAL)


@_register("product_reject_equivalence")
def _check_product_reject() -> CheckResult:
    dev = 0.0
    gen = np.random.default_rng(31)
    for n in (1, 2, 3):
        for use_rotations in (False, True):
            rots = (
                [_random_unitary_2x2(gen) for _ in range(n)] if use_rotations else None
            )
            toff = circ.rotated_toffoli_check(n, rots)
            cnots = circ.rotated_cnot_checks(n, rots)
            k_toff = circ.pass_kraus(toff)
            if n > 1:
                k_toff = linalg.kron(k_toff, linalg.identity(2 ** (n - 1)))
            k_cnots = circ.pass_kraus(cnots)
            anc0 = linalg.kron(
                linalg.identity(2**n), _anc_zero_projector(n)
            )
            lhs = k_toff @ anc0
            rhs = (linalg.identity(4**n) - k_cnots) @ anc0
            dev = max(dev, linalg.max_abs(lhs - rhs))
    return _result("product_reject_equivalence", dev, TOL_ENGINE)


@_register("backend_agreement")
def _check_backends() -> CheckResult:
    cases = [
        (
            catalog.sequential_bell(),
            states.NoiseSpec("worst_case_orthogonal", 0.0),
            "stop_on_fail",
            7,
        ),
        (
            catalog.sequential_two_qubit(0.6, variant="toffoli"),
            states.NoiseSpec("worst_case_orthogonal", 0.25),
            "count_frequency",
            19,
        ),
        (
            catalog.sequential_two_qubit(0.6, variant="cnot_pair"),
            states.NoiseSpec("random_orthogonal", 0.3, seed=4),
            "count_frequency",
            23,
        ),
        (
            catalog.sequential_ghz3(),
            states.NoiseSpec("depolarizing", 0.3),
            "count_frequency",
            29,
        ),
    ]
    mismatches = []
    for protocol, noise, mode, run_seed in cases:
        reports = []
        for backend in ("matrix", "circuit"):
            spec = harness.ExperimentSpec(
                protocol=protocol,
                noise=noise,
                n_copies=2000,
                seed=run_seed,
                backend=backend,
                mode=mode,
            )
            report = harness.report_to_dict(harness.run_experiment(spec))
            report.pop("backend")
            reports.append(report)
        if reports[0] != reports[1]:
            mismatches.append(protocol.label)
    return CheckResult(
        "backend_agreement",
        not mismatches,
        "matrix and circuit backends consumed identical randomness"
        if not mismatches
        else f"stream mismatch in: {', '.join(mismatches)}",
    )


@_register("serialization_roundtrip")
def _check_serialization() -> CheckResult:
    dev = 0.0
    strat = strategies.bell_stabilizer_group()
    blob = json.dumps(seq.protocol_to_dict(strat))
    back = seq.protocol_from_dict(json.loads(blob))
    for s_in, s_out in zip(strat.settings, back.settings):
        dev = max(dev, linalg.max_abs(s_in.projector - s_out.projector))
        dev = max(dev, abs(s_in.weight - s_out.weight))
    protocol = catalog.sequential_ghz3()
    blob = json.dumps(seq.protocol_to_dict(protocol))
    back_p = seq.protocol_from_dict(json.loads(blob))
    dev = max(
        dev,
        linalg.max_abs(
            seq.effective_operator(back_p) - seq.effective_operator(protocol)
        ),
    )
    for circuit in [
        circ.compile_bell()[1],
        circ.compile_two_qubit(0.55, "cnot_pair")[2],
        circ.compile_adaptive(0.55),
    ]:
        text = circ.serialize_circuit(circuit)
        parsed = circ.parse_circuit(text)
        if circ.serialize_circuit(parsed) != text:
            dev = max(dev, 1.0)
        dev = max(dev, linalg.max_abs(circ.pass_kraus(parsed) - circ.pass_kraus(circuit)))
    return _result("serialization_roundtrip", dev, TOL_STRUCTURAL)
