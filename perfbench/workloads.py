"""The benchmark's four workloads, their ops and the checks on every report.

A workload is a fixed list of cases; one op runs every case once through
``harness.run_experiment`` with run seed ``base + i`` for op ``i``. Every
report is checked three ways: structural invariants that hold for any seed,
a binomial bound against the pass probability derived from the source
density (count_frequency cases), and the report digest pinned in
``digests.json`` for the first run seeds. On ``mc_circuit`` the cases marked
``matches_matrix`` must also equal the matrix backend's report.

Library calls go through module attributes (``catalog.build_strategy``,
``harness.run_experiment``) so that a Tracer can wrap them.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import ndqv
from ndqv import catalog, harness
from ndqv.states import NoiseSpec

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
PINNED_SEEDS = 256
# Two-sided false-alarm probability of the binomial check, per case and op:
# a correct report fails it with at most this probability (exact tails).
FALSE_ALARM = 1e-9

DEPOLARIZING = NoiseSpec("depolarizing", 0.05)
WORST_CASE = NoiseSpec("worst_case_orthogonal", 0.05)


@dataclass(frozen=True)
class Case:
    """One protocol run inside an op."""

    name: str
    kind: str  # "strategy" or "sequential"
    noise: NoiseSpec
    n_copies: int
    mode: str
    backend: str = "matrix"
    theta: float | None = None
    # The report must equal the matrix backend's in every field but backend.
    matches_matrix: bool = False

    def build(self):
        if self.kind == "strategy":
            return catalog.build_strategy(self.name, self.theta)
        return catalog.build_sequential(self.name, self.theta)

    def spec(self, protocol, seed: int, backend: str | None = None):
        return harness.ExperimentSpec(
            protocol, self.noise, self.n_copies, seed, backend or self.backend, self.mode
        )


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_strategy",
            (Case("ghz6", "strategy", DEPOLARIZING, 200_000, "count_frequency"),),
        ),
        Workload(
            "mc_stop",
            (Case("ghz6", "strategy", WORST_CASE, 500_000, "stop_on_fail"),),
        ),
        Workload(
            "mc_sequential",
            (Case("ghz7", "sequential", DEPOLARIZING, 50_000, "count_frequency"),),
        ),
        Workload(
            "mc_circuit",
            tuple(
                Case(name, "sequential", DEPOLARIZING, 50, "count_frequency",
                     backend="circuit", theta=theta, matches_matrix=matches)
                for name, theta, matches in (
                    ("bell", None, True),
                    ("ghz3", None, True),
                    ("two_qubit_three", 0.5, True),
                    # Its branching circuit reserves two slots, so the
                    # circuit and matrix streams differ: digest only.
                    ("adaptive_two", 0.5, False),
                )
            ),
        ),
    )
}


def build(workload: Workload) -> list:
    return [case.build() for case in workload.cases]


def run_op(workload: Workload, protocols: list, seed: int) -> list:
    return [
        harness.run_experiment(case.spec(protocol, seed))
        for case, protocol in zip(workload.cases, protocols)
    ]


def members(case: Case, protocol) -> int:
    """Source-ensemble size: the target plus d basis states when depolarized."""
    return protocol.target.dim + 1 if case.noise.kind == "depolarizing" else 1


def expected_pass(case: Case, protocol) -> float:
    """Per-copy pass probability derived from the source density matrix."""
    rho = ndqv.source_density(protocol.target, case.noise)
    if case.kind == "strategy":
        return sum(
            float(s.weight) * float(np.real(np.trace(s.projector @ rho)))
            for s in protocol.settings
        )
    eff = ndqv.effective_operator(protocol)
    return float(np.real(np.trace(eff @ rho @ eff.conj().T)))


def digest(report) -> str:
    return hashlib.sha256(harness.report_to_json(report).encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def structural_problems(case: Case, report, seed: int) -> list[str]:
    """Invariants every report satisfies, whatever the seed."""
    problems = []
    r = report
    expect = {
        "seed": seed,
        "n_requested": case.n_copies,
        "mode": case.mode,
        "backend": case.backend,
        "noise_kind": case.noise.kind,
        "protocol_kind": case.kind,
    }
    for field, value in expect.items():
        if getattr(r, field) != value:
            problems.append(f"{field}={getattr(r, field)!r}, expected {value!r}")
    if not 0 <= r.n_pass <= r.n_run <= r.n_requested or r.n_run < 1:
        problems.append(f"counts out of order: {r.n_pass}/{r.n_run}/{r.n_requested}")
        return problems
    if r.frequency != r.n_pass / r.n_run:
        problems.append("frequency is not n_pass / n_run")
    if case.mode == "count_frequency" and r.n_run != r.n_requested:
        problems.append("count_frequency stopped early")
    if case.mode == "stop_on_fail":
        stopped = r.n_pass == r.n_run - 1
        if not (stopped or r.n_pass == r.n_run == r.n_requested):
            problems.append("stop_on_fail ran past a failure or stopped on a pass")
    attempts, passes = r.per_setting_attempts, r.per_setting_passes
    if len(attempts) != len(passes) or any(p > a for a, p in zip(attempts, passes)):
        problems.append("a setting passed more often than it was attempted")
    elif case.kind == "strategy":
        if sum(attempts) != r.n_run or sum(passes) != r.n_pass:
            problems.append("per-setting counts do not add up to the totals")
    elif attempts[0] != r.n_run or attempts[1:] != passes[:-1] or passes[-1] != r.n_pass:
        problems.append("stage counts do not chain: attempts[i+1] != passes[i]")
    return problems


def binomial_tail(n: int, p: float, k: int, step: int, stop: float) -> float:
    """P(X = k) + P(X = k + step) + ... for X ~ Binomial(n, p), step = +-1.

    The sum ends at the edge, once it passes ``stop``, or once its terms no
    longer change it (they shrink as k moves away from the mean).
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(n + 1)
    total = 0.0
    while 0 <= k <= n and total <= stop:
        term = math.exp(
            log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q
        )
        if (total and term < total * 1e-17) or (term == 0.0 and (k - n * p) * step > 0):
            break
        total += term
        k += step
    return total


def binomial_problems(case: Case, report, p: float) -> list[str]:
    """n_pass must not lie in either exact tail of mass FALSE_ALARM / 2."""
    if case.mode != "count_frequency":
        return []
    n, k = report.n_run, report.n_pass
    if p <= 0.0 or p >= 1.0:
        ok = k == round(n * p)
    else:
        half = FALSE_ALARM / 2
        ok = (binomial_tail(n, p, k, -1, half) > half
              and binomial_tail(n, p, k, +1, half) > half)
    return [] if ok else [f"n_pass {k} of {n} is in a tail below {FALSE_ALARM} (p={p:.6f})"]


def check_op(workload: Workload, protocols, expected, seed: int, reports, digests) -> list[str]:
    """Every problem found in one op's reports; empty when all are correct."""
    problems = []
    pinned = digests.get(workload.name, {})
    for case, protocol, p, report in zip(workload.cases, protocols, expected, reports):
        found = structural_problems(case, report, seed)
        found += binomial_problems(case, report, p)
        want = pinned.get(case.name, {}).get(str(seed))
        if want is not None and digest(report) != want:
            found.append(f"digest {digest(report)} != pinned {want}")
        if case.matches_matrix:
            ref = harness.run_experiment(case.spec(protocol, seed, backend="matrix"))
            mine, theirs = harness.report_to_dict(report), harness.report_to_dict(ref)
            mine.pop("backend")
            theirs.pop("backend")
            if mine != theirs:
                found.append("differs from the matrix backend")
        problems += [f"{case.name} seed {seed}: {msg}" for msg in found]
    return problems


def wrap_setup(tracer) -> None:
    """Spans around protocol construction."""
    tracer.wrap(catalog, "build_strategy", "catalog.build")
    tracer.wrap(catalog, "build_sequential", "catalog.build")
    tracer.wrap(ndqv.sequential, "build_qnd_setting", "sequential.build_qnd_setting")


def _table_bytes(seed, n_copies, slots_per_copy):
    # uniform_table draws 4 doubles per (copy, slot) and keeps the first.
    return 4.0 * n_copies * slots_per_copy * 8


def wrap_op(tracer) -> None:
    """Spans around the attributes run_experiment resolves at call time."""
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "spectral_gap", "strategies.spectral_gap")
    tracer.wrap(harness, "perturbed_state", "states.perturbed_state")
    tracer.wrap(ndqv.sequential, "protocol_gap", "sequential.protocol_gap")
    tracer.wrap(ndqv.rng, "uniform_table", "rng.uniform_table", note=_table_bytes)
    tracer.wrap(ndqv.circuits, "apply", "circuits.apply")
    tracer.wrap(ndqv.circuits, "fresh_input", "circuits.fresh_input")
