"""Acceptance suite: one test per release criterion, one printed line each.

Every test computes its worst observed deviation, prints a single
pass/fail line (visible under ``pytest -s`` or on failure), and asserts
against the criterion's stated tolerance. Tolerances are fixed here and
must not be loosened to make a failing build green.
"""
import itertools
import math

import numpy as np

from ndqv import catalog, harness, linalg
from ndqv import circuits as circ
from ndqv import sequential as seq
from ndqv import states, strategies
from ndqv.states import NoiseSpec

THETA_GRID = np.linspace(0.06, math.pi / 4.0 - 0.06, 20)


def _finish(num: int, dev: float, tol: float, extra: str = "") -> None:
    ok = dev <= tol
    tag = "PASS" if ok else "FAIL"
    note = f" [{extra}]" if extra else ""
    print(f"criterion {num:2d}: {tag} max deviation {dev:.3g} (tol {tol:g}){note}")
    assert ok, f"criterion {num}: deviation {dev} exceeds {tol}"


def _random_density(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _random_unitary_2x2(gen: np.random.Generator) -> np.ndarray:
    a = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_unit(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_criterion_01_spectral_gap_regression():
    cases: list[tuple[seq.Protocol, float]] = [
        (strategies.bell_minimal(), 0.5),
        (strategies.bell_stabilizer_group(), 2.0 / 3.0),
        (strategies.stabilizer_generators(strategies.ghz_generator_spec(3)), 1.0 / 3.0),
        (strategies.stabilizer_full_group(strategies.ghz_generator_spec(3)), 4.0 / 7.0),
    ]
    for theta in THETA_GRID:
        t = float(theta)
        s, c = math.sin(t), math.cos(t)
        cases.append((strategies.two_qubit_three(t), 1.0 / 3.0))
        cases.append((strategies.two_qubit_four(t), 1.0 / (2.0 + s * c)))
        cases.append((strategies.adaptive_two(t), 0.5))
        cases.append((strategies.adaptive_three(t), 1.0 / (1.0 + c * c)))
    dev = 0.0
    for strat, expected in cases:
        dev = max(dev, abs(strategies.spectral_gap(strat).nu - expected))
    _finish(1, dev, 1e-8, f"{len(cases)} gap evaluations")


def _theorem_protocols() -> list[seq.Protocol]:
    protos = [catalog.sequential_bell()]
    for theta in (0.15, 0.3, 0.45, 0.6, 0.7):
        protos.append(catalog.sequential_two_qubit(theta))
    protos.append(catalog.sequential_ghz3())
    return protos


def _order_connected(projs: list[np.ndarray]) -> set[tuple[int, ...]]:
    """Orders whose products must equal the defined one by symmetry alone.

    Two reorderings provably preserve the product: swapping adjacent
    settings that commute, and reversing the whole run (the reference
    value is Hermitian, so the reversed product is its own adjoint).
    Returns the closure of the defined order under both moves.
    """
    l = len(projs)
    commute = [
        [
            linalg.max_abs(projs[a] @ projs[b] - projs[b] @ projs[a]) <= 1e-12
            for b in range(l)
        ]
        for a in range(l)
    ]
    seen = {tuple(range(l))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for perm in frontier:
            cands = [perm[::-1]]
            for i in range(l - 1):
                if commute[perm[i]][perm[i + 1]]:
                    cands.append(perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :])
            for cand in cands:
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def test_criterion_02_sequential_projects_onto_target():
    dev = 0.0
    orders = 0
    equal_orders = 0
    free_dev = 0.0
    for proto in _theorem_protocols():
        target_proj = proto.target.projector()
        psi = proto.target.vector
        dim = proto.target.dim
        projs = [s.projector for s in proto.settings]
        dev = max(dev, linalg.max_abs(seq.effective_operator(proto) - target_proj))
        dev = max(dev, abs(seq.protocol_gap(proto).nu - 1.0))
        connected = _order_connected(projs)
        for order in itertools.permutations(range(len(projs))):
            orders += 1
            prod = linalg.identity(dim)
            for i in order:
                prod = projs[i] @ prod
            # every order fixes the target and is nilpotent on the rest,
            # so the spectrum is {1, 0, ..., 0} and the run gap stays 1;
            # raw eigenvalues of the defective remainder are too
            # ill-conditioned to gate at 1e-9, the nilpotency power is not
            dev = max(dev, linalg.max_abs(prod @ psi - psi))
            dev = max(dev, linalg.max_abs(psi.conj() @ prod - psi.conj()))
            nil = np.linalg.matrix_power(prod - target_proj, dim)
            dev = max(dev, linalg.max_abs(nil))
            if order in connected:
                equal_orders += 1
                dev = max(dev, linalg.max_abs(prod - target_proj))
            else:
                free_dev = max(free_dev, linalg.max_abs(prod - target_proj))
    _finish(
        2,
        dev,
        1e-9,
        f"unit gap on all {orders} orders; product equality on "
        f"{equal_orders} symmetry-connected orders, elsewhere up to {free_dev:.2g}",
    )


def test_criterion_03_pattern_sum_matches_product():
    dev = 0.0
    for proto in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        dev = max(
            dev,
            linalg.max_abs(seq.summation_form(proto) - seq.full_operator(proto)),
        )
    _finish(3, dev, 1e-10, "run lengths 2 and 3")


def test_criterion_04_fresh_ancilla_reduction():
    gen = np.random.default_rng(2024)
    protos = [
        catalog.sequential_bell(),
        catalog.sequential_two_qubit(0.6),
        catalog.sequential_ghz3(),
    ]
    dev = 0.0
    for proto in protos:
        for _ in range(100):
            sigma = _random_density(gen, proto.target.dim)
            dev = max(dev, seq.conditional_equivalence(proto, sigma))
    _finish(4, dev, 1e-9, "300 random densities")


def test_criterion_05_appended_setting_sets_the_gap():
    gen = np.random.default_rng(55)
    dev = 0.0
    for proto in (catalog.sequential_bell(), catalog.sequential_two_qubit(0.5)):
        psi = proto.target.vector
        p_psi = linalg.projector_onto(psi)
        dim = proto.target.dim
        for lam in (1.0, 0.7, 0.5):
            # weak effect fixing the target with strength lam, smaller
            # random eigenvalues on the orthocomplement
            rest = np.diag(gen.uniform(0.0, 0.3 * lam, size=dim)).astype(complex)
            effect = lam * p_psi + (linalg.identity(dim) - p_psi) @ rest @ (
                linalg.identity(dim) - p_psi
            )
            gap = seq.appended_setting_gap(proto, effect)
            dev = max(dev, abs(gap - lam))
    _finish(5, dev, 1e-9, "lambda in {1.0, 0.7, 0.5}")


def test_criterion_06_fidelity_transform_and_estimator():
    # full-register identity: passing a run multiplies by the fidelity and
    # leaves the target with reset ancillas
    gen = np.random.default_rng(606)
    dev = 0.0
    for proto in (catalog.sequential_bell(), catalog.sequential_ghz3()):
        m = seq.full_operator(proto)
        l = len(proto.settings)
        anc0 = np.zeros((2**l, 2**l), dtype=complex)
        anc0[0, 0] = 1.0
        psi = proto.target.vector
        for _ in range(25):
            sigma = _random_density(gen, proto.target.dim)
            fid = float(np.real(np.vdot(psi, sigma @ psi)))
            lhs = m @ linalg.kron(sigma, anc0) @ m.conj().T
            rhs = fid * linalg.kron(linalg.projector_onto(psi), anc0)
            dev = max(dev, linalg.max_abs(lhs - rhs))
    assert dev <= 1e-9

    # estimator coverage: 200 replications on a 0.8-fidelity source
    proto = catalog.sequential_bell()
    noise = NoiseSpec("worst_case_orthogonal", 0.2)
    covered = 0
    for rep in range(200):
        spec = harness.ExperimentSpec(
            proto, noise, 10_000, seed=60_000 + rep, mode="count_frequency"
        )
        report = harness.run_experiment(spec)
        f_hat, low, high = harness.estimate_fidelity(report)
        if low <= 0.8 <= high:
            covered += 1
    ok = covered >= 190
    print(
        f"criterion  6: {'PASS' if ok else 'FAIL'} max deviation {dev:.3g} "
        f"(tol 1e-09) [CI covered truth in {covered}/200 replications]"
    )
    assert ok, f"criterion 6: coverage {covered}/200 below 190"


def test_criterion_07_multi_controlled_vs_cnot_bank():
    gen = np.random.default_rng(77)
    dev = 0.0
    inputs = 0
    for n in (1, 2, 3, 4):
        for use_rotations in (False, True):
            rots = (
                [_random_unitary_2x2(gen) for _ in range(n)]
                if use_rotations
                else None
            )
            k_toff = circ.pass_kraus(circ.rotated_toffoli_check(n, rots))
            if n > 1:
                k_toff = linalg.kron(k_toff, linalg.identity(2 ** (n - 1)))
            k_cnots = circ.pass_kraus(circ.rotated_cnot_checks(n, rots))
            complement = linalg.identity(4**n) - k_cnots
            anc = np.zeros(2**n, dtype=complex)
            anc[0] = 1.0
            for _ in range(20):
                w = np.kron(_random_unit(gen, 2**n), anc)
                dev = max(dev, float(np.max(np.abs(k_toff @ w - complement @ w))))
                inputs += 1
    _finish(7, dev, 1e-9, f"{inputs} random inputs")


def test_criterion_08_branching_circuit_operator_sum():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    flip = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    dev = 0.0
    for theta in (0.3, 0.55, 0.7):
        s, c = math.sin(theta), math.cos(theta)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
        phi0 = np.kron(plus, np.array([s, c], dtype=complex))
        phi2 = np.kron(minus, np.array([s, -c], dtype=complex))
        expected = linalg.kron(
            linalg.projector_onto(phi0), linalg.kron(p0, p0)
        ) + linalg.kron(linalg.projector_onto(phi2), linalg.kron(flip, p0))
        circuit = circ.compile_adaptive(theta)
        fresh = linalg.kron(linalg.identity(4), linalg.kron(p0, p0))
        dev = max(
            dev, linalg.max_abs(circ.pass_kraus(circuit) @ fresh - expected)
        )
        # the target never takes the reject branch
        vec = circ.fresh_input(circuit, states.two_qubit_pure(theta).vector)
        total = 0.0
        for branch_bit in (0, 1):
            _, record = circ.apply(circuit, vec, forced_outcomes=[branch_bit, 0])
            total += record.probability
        dev = max(dev, abs(total - 1.0))
    _finish(8, dev, 1e-10, "3 theta values")


def test_criterion_09_compiled_circuits_match_engine_operators():
    dev = 0.0
    count = 0
    for proto in (
        catalog.sequential_bell(),
        catalog.sequential_two_qubit(0.55),
        catalog.sequential_ghz3(),
    ):
        for circuit, setting in zip(proto.circuits, proto.settings):
            expected = setting.m_pass
            idle = circuit.n_ancilla - 1
            if idle:
                expected = linalg.kron(expected, linalg.identity(2**idle))
            dev = max(dev, linalg.max_abs(circ.pass_kraus(circuit) - expected))
            count += 1
    pair = catalog.sequential_two_qubit(0.55, variant="cnot_pair")
    for circuit, setting in zip(pair.circuits, pair.settings):
        n_anc = circuit.n_ancilla
        anc0 = np.zeros((2**n_anc, 2**n_anc), dtype=complex)
        anc0[0, 0] = 1.0
        lhs = circ.pass_kraus(circuit) @ linalg.kron(
            linalg.identity(2**circuit.n_system), anc0
        )
        rhs = linalg.kron(setting.projector, anc0)
        dev = max(dev, linalg.max_abs(lhs - rhs))
        count += 1
    _finish(9, dev, 1e-10, f"{count} circuits")


def test_criterion_10_statistical_bounds():
    exact, approx = strategies.sample_complexity(1.0, 0.01, 0.05)
    assert (exact, approx) == (299, 300)

    dev = 0.0
    for eps, nu, n in [(0.01, 1.0, 299), (0.05, 1.0, 45), (0.02, 0.5, 500)]:
        chern = harness.confidence_chernoff(1.0, eps, nu, n)
        expo = harness.confidence_exponential(eps, nu, n)
        dev = max(dev, abs(chern - expo))
    assert dev <= 1e-12

    # survival fraction of worst-case sources over the certified budget
    n_copies, _ = strategies.sample_complexity(1.0, 0.05, 0.1)
    assert n_copies == 45
    proto = catalog.sequential_bell()
    noise = NoiseSpec("worst_case_orthogonal", 0.05)
    survived = 0
    reps = 500
    for rep in range(reps):
        report = harness.run_experiment(
            harness.ExperimentSpec(proto, noise, n_copies, seed=100_000 + rep)
        )
        if report.n_pass == n_copies:
            survived += 1
    frac = survived / reps
    bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / reps)
    ok = dev <= 1e-12 and frac <= bound
    print(
        f"criterion 10: {'PASS' if ok else 'FAIL'} max deviation {dev:.3g} "
        f"(tol 1e-12) [survival {frac:.4f} <= {bound:.4f}]"
    )
    assert frac <= bound, f"criterion 10: survival {frac} above {bound}"
