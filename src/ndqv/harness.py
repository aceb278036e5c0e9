"""Monte Carlo acceptance-test harness.

A run draws source copies, pushes each through the chosen protocol on the
chosen backend, and reports pass statistics together with the confidence
bounds they support. Runs are reproducible: the same ExperimentSpec always
yields the same report because every random decision reads a fixed
counter-indexed slot (see rng.uniform_rows).

Slot layout per copy: slot 0 selects the source ensemble member (a pure
source has one member, so only depolarizing noise makes it matter), then
each measurement setting owns its event slots in protocol order.
Matrix-backend settings use one slot each; circuit-backend settings use one
slot per recorded event, so a branching circuit uses two.

Both backends decide a block of copies at once with `u < p0` comparisons
and add the counts up over blocks; in stop_on_fail mode the block holding
the first failure is re-decided truncated after it. The matrix backend
draws one chunk of consecutive copies per block, so its memory is bounded
per chunk and a stop_on_fail run draws nothing past the chunk of its first
failure. The circuit backend still draws its whole table as one block, but
runs each compiled circuit only once per reached (member, stage, outcome
bits) node of a per-run threshold tree, not once per copy.

What is cached: the matrix backend's decision table, that is the
(members x settings) threshold matrix and the member cdf, one read-only
entry per NoiseSpec, kept on the Protocol for as long as the protocol
lives. The first run with a noise spec builds it from the source ensemble;
later runs skip the ensemble and the member-probability pass. An entry never
holds the member vectors. The gap (nu and the worst-case witness) is still
computed on every run, and the circuit backend still builds its members and
its threshold tree per run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import circuits as circ
from . import rng as rngmod
from .sequential import Protocol
from .sequential import protocol_gap as spectral_gap
from .states import NoiseSpec, perturbed_state

Z_95 = 1.959963984540054

MODES = ("stop_on_fail", "count_frequency")
BACKENDS = ("matrix", "circuit")

# Kept uniforms per matrix-backend chunk; the draw behind them is 4x as many
# raw Philox doubles, about 1 MB.
_CHUNK_UNIFORMS = 2**15


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: protocol, backend, source noise, budget.

    Frozen, so a field cannot be changed past the checks made here.
    """

    protocol: Protocol
    noise: NoiseSpec
    n_copies: int
    seed: int
    backend: str = "matrix"
    mode: str = "stop_on_fail"

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, Protocol):
            raise ValueError(
                f"protocol must be a Protocol, got {type(self.protocol).__name__}"
            )
        if not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"noise must be a NoiseSpec, got {type(self.noise).__name__}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        n_copies = _as_int("n_copies", self.n_copies)
        if n_copies < 1:
            raise ValueError("n_copies must be at least 1")
        seed = _as_int("seed", self.seed)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
        object.__setattr__(self, "n_copies", n_copies)
        object.__setattr__(self, "seed", seed)


def _as_int(name: str, value) -> int:
    """An integer argument as a plain int; bools and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class RunReport:
    """Outcome of one experiment, in fixed field order for serialization."""

    protocol_label: str
    protocol_kind: str
    backend: str
    mode: str
    noise_kind: str
    epsilon: float
    seed: int
    nu: float
    n_requested: int
    n_run: int
    n_pass: int
    frequency: float
    per_setting_attempts: list[int]
    per_setting_passes: list[int]
    delta_exponential: float | None
    delta_chernoff: float | None
    fidelity_estimate: dict | None
    verdict: str
    schema: int = 1


def confidence_exponential(epsilon: float, nu: float, n: int) -> float:
    """All-pass significance level (1 - epsilon*nu)^n."""
    x = nu * epsilon
    if not 0.0 < x < 1.0:
        raise ValueError("epsilon*nu must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1.0 - x) ** n


def bernoulli_divergence(x: float, y: float) -> float:
    """KL divergence D(x || y) between Bernoulli(x) and Bernoulli(y), nats."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if not 0.0 < y < 1.0:
        raise ValueError("y must lie in (0, 1)")
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return total


def confidence_chernoff(
    f: float, epsilon: float, nu: float, n: int
) -> float | None:
    """Tail bound exp(-n D(f || 1 - epsilon*nu)); None when f is inconclusive.

    A pass frequency at or below the noisy-source expectation 1 - epsilon*nu
    supports no confidence claim, so the bound only exists above it.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError("f must lie in [0, 1]")
    x = nu * epsilon
    if not 0.0 < x < 1.0:
        raise ValueError("epsilon*nu must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    threshold = 1.0 - x
    if f <= threshold:
        return None
    return math.exp(-n * bernoulli_divergence(f, threshold))


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_fidelity(report: RunReport) -> tuple[float, float, float]:
    """Point estimate and Wilson 95% interval for source fidelity.

    Valid only for sequential protocols run in count_frequency mode, where
    the all-stage pass probability of each copy equals its fidelity with
    the target.
    """
    if report.protocol_kind != "sequential":
        raise ValueError("fidelity estimation needs a sequential protocol")
    if report.mode != "count_frequency":
        raise ValueError("fidelity estimation needs count_frequency mode")
    if report.n_run < 1:
        raise ValueError("no copies were run")
    low, high = wilson_interval(report.n_pass, report.n_run)
    return (report.n_pass / report.n_run, low, high)


def _source_ensemble(
    protocol, noise: NoiseSpec, witness: np.ndarray
) -> list[tuple[float, np.ndarray]]:
    """Weighted pure decomposition of the source state."""
    target = protocol.target
    if noise.kind == "depolarizing":
        dim = target.dim
        members = [(1.0 - noise.epsilon, target.vector.copy())]
        eye = np.eye(dim, dtype=complex)
        members += [(noise.epsilon / dim, eye[:, k].copy()) for k in range(dim)]
        return members
    vec = perturbed_state(target, noise, witness=witness)
    return [(1.0, vec)]


def _strategy_member_probs(strategy: Protocol, members) -> np.ndarray:
    """probs[m, j] = acceptance probability of setting j on member m."""
    probs = np.empty((len(members), len(strategy.settings)))
    for m_idx, (_, vec) in enumerate(members):
        for j, setting in enumerate(strategy.settings):
            p = float(np.real(np.vdot(vec, setting.projector @ vec)))
            probs[m_idx, j] = min(max(p, 0.0), 1.0)
    return probs


def _sequential_member_probs(protocol: Protocol, members) -> np.ndarray:
    """probs[m, i] = conditional pass probability of stage i for member m.

    Valid because a pure source makes every post-pass state deterministic,
    so each stage reduces to a single Bernoulli threshold.
    """
    probs = np.empty((len(members), len(protocol.settings)))
    for m_idx, (_, vec) in enumerate(members):
        cur = vec
        for i, setting in enumerate(protocol.settings):
            block = setting.projector @ cur
            p = float(np.real(np.vdot(block, block)))
            p = min(max(p, 0.0), 1.0)
            probs[m_idx, i] = p
            cur = block / math.sqrt(p) if p > 1e-14 else block
    return probs


def _cdf(weights) -> np.ndarray:
    """Cumulative weights with the last entry pinned to 1."""
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf[-1] = 1.0
    return cdf


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to indices of the cumulative weights (searchsorted on cdf)."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _circuit_event_slots(circuit: circ.Circuit) -> int:
    """Uniform slots one execution of this circuit may consume."""
    if circuit.pass_rule == "reject_all_zero":
        return 1
    own = sum(1 for g in circuit.gates if g.kind == "MZ")
    if circuit.branches is None:
        return own
    return own + max(_circuit_event_slots(b) for b in circuit.branches.values())


def _system_state_after(circuit: circ.Circuit, out: np.ndarray) -> np.ndarray:
    """Extract the system factor from a passed circuit output.

    Requires the output to be a system (x) ancilla product with the ancillas
    in a single basis state, which holds for every compiled protocol circuit.
    """
    d_sys = 1 << circuit.n_system
    d_anc = 1 << circuit.n_ancilla
    table = out.reshape(d_sys, d_anc)
    col_norms = np.sum(np.abs(table) ** 2, axis=0)
    j = int(np.argmax(col_norms))
    if col_norms[j] < 1.0 - 1e-9:
        raise ValueError("ancillas not in a basis state after pass")
    sys_vec = table[:, j]
    return sys_vec / math.sqrt(float(col_norms[j]))


def _counts_from_bits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stage reach/pass counts given the (copies, stages) pass-bit matrix.

    A copy that passes its first k stages and fails stage k (k = stages when
    it passes all) attempts stages 0..k and passes stages 0..k-1, so both
    counts are tail sums of the histogram of k.
    """
    l = bits.shape[1]
    k = np.argmin(bits, axis=1)
    copy_ok = bits[np.arange(len(bits)), k]
    k[copy_ok] = l
    reached = np.bincount(k, minlength=l + 1)[::-1].cumsum()[::-1]
    return copy_ok, reached[:-1], reached[1:]


def _member_cdf(members) -> np.ndarray:
    """Cumulative member weights, which slot 0 picks from."""
    return _cdf([w for w, _ in members])


def _decision_table(
    protocol: Protocol, noise: NoiseSpec, witness: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The matrix backend's (member thresholds, member cdf) for this noise.

    Computed on the first run of each noise spec and kept, read-only, on the
    protocol. The witness is the protocol's own gap eigenvector, so the
    noise spec alone keys the table. Two threads that miss at once build
    equal tables, and either store is correct.
    """
    tables = protocol._decision_tables
    table = tables.get(noise)
    if table is None:
        members = _source_ensemble(protocol, noise, witness)
        if protocol.kind == "strategy":
            probs = _strategy_member_probs(protocol, members)
        else:
            probs = _sequential_member_probs(protocol, members)
        table = (probs, _member_cdf(members))
        for array in table:
            array.flags.writeable = False
        tables[noise] = table
    return table


def _strategy_decider(protocol: Protocol, probs: np.ndarray, member_cdf: np.ndarray):
    """Per-chunk decision of a sampled strategy: slot 1 picks the setting."""
    setting_cdf = _cdf([float(s.weight) for s in protocol.settings])
    l = len(protocol.settings)

    def decide(u: np.ndarray):
        setting_idx = _pick(setting_cdf, u[:, 1])
        passed = u[:, 2] < probs[_pick(member_cdf, u[:, 0]), setting_idx]
        attempts = np.bincount(setting_idx, minlength=l)
        return passed, attempts, np.bincount(setting_idx[passed], minlength=l)

    return decide


def _sequential_decider(probs: np.ndarray, member_cdf: np.ndarray):
    """Per-chunk decision of a sequential protocol: one slot per stage."""

    def decide(u: np.ndarray):
        return _counts_from_bits(u[:, 1:] < probs[_pick(member_cdf, u[:, 0])])

    return decide


# Node kinds of the circuit backend's threshold tree.
_UNEXPANDED, _EVENT, _FAIL, _PASS = range(4)


def _circuit_decider(protocol: Protocol, members, slot_spans):
    """Per-block decision on the circuit backend over a lazily grown tree.

    A node stands for (member, stage, outcome bits so far). A pure member
    enters every stage in a state fixed by that path, so one circuit run
    per reached node gives every copy on it the same outcome-0 thresholds
    (MeasurementRecord.p_zero). A node is expanded only when some copy
    reaches it, by running the stage circuit on that copy's own uniforms
    from the stage root, so each threshold is the float the circuit
    computes on that path. An event node holds its threshold and two
    children, a passed leaf links to the root of the next stage, and a
    stage root holds the system state entering its stage. The tree lives
    as long as the decider, so re-deciding a truncated block runs no
    circuit again.
    """
    circuits = protocol.circuits
    member_cdf = _member_cdf(members)
    # Per node: kind, outcome-0 threshold and children (a passed leaf keeps
    # the next stage's root in child0); per stage root, its entering state.
    kind: list[int] = []
    p0: list[float] = []
    child0: list[int] = []
    child1: list[int] = []
    entry_state: dict[int, np.ndarray] = {}

    def new_node() -> int:
        kind.append(_UNEXPANDED)
        p0.append(math.nan)
        child0.append(-1)
        child1.append(-1)
        return len(kind) - 1

    for _, vec in members:
        entry_state[new_node()] = vec

    def expand(stage: int, root: int, uniforms: np.ndarray) -> None:
        circuit = circuits[stage]
        full = circ.fresh_input(circuit, entry_state[root])
        out, record = circ.apply(circuit, full, uniforms=uniforms)
        at = root
        for (_, bit), threshold in zip(record.outcomes, record.p_zero):
            if kind[at] == _UNEXPANDED:
                kind[at] = _EVENT
                p0[at] = threshold
                child0[at] = new_node()
                child1[at] = new_node()
            at = child1[at] if bit else child0[at]
        if not record.passed:
            kind[at] = _FAIL
            return
        kind[at] = _PASS
        if stage + 1 < len(circuits):
            child0[at] = new_node()
            entry_state[child0[at]] = _system_state_after(circuit, out)

    def decide(u: np.ndarray):
        bits = np.zeros((len(u), len(circuits)), dtype=bool)
        rows = np.arange(len(u))
        cur = _pick(member_cdf, u[:, 0])
        cursor = 1
        for stage, span in enumerate(slot_spans):
            roots = cur.copy()
            for depth in range(span + 1):
                reached = np.flatnonzero(np.bincount(cur, minlength=len(kind)))
                for node in reached.tolist():
                    if kind[node] == _UNEXPANDED:
                        c = int(np.argmax(cur == node))
                        expand(stage, int(roots[c]), u[rows[c], cursor : cursor + span])
                node_kind = np.asarray(kind)[cur]
                event = node_kind == _EVENT
                if not event.any():
                    break
                at = cur[event]
                one = ~(u[rows[event], cursor + depth] < np.asarray(p0)[at])
                cur[event] = np.where(one, np.asarray(child1)[at], np.asarray(child0)[at])
            passed = node_kind == _PASS
            bits[rows, stage] = passed
            rows = rows[passed]
            cur = np.asarray(child0, dtype=np.intp)[cur[passed]]
            cursor += span
        return _counts_from_bits(bits)

    return decide


def _decide_blocks(blocks, decide, stop_on_fail: bool, n_settings: int):
    """Run, pass and per-setting counts added up over consecutive blocks.

    In stop_on_fail mode the block that holds the first failing copy is
    re-decided truncated after that copy, and no later block is drawn.
    """
    n_run = n_pass = 0
    attempts = passes = np.zeros(n_settings, dtype=np.int64)
    for u in blocks:
        copy_ok, block_attempts, block_passes = decide(u)
        stop = stop_on_fail and not copy_ok.all()
        if stop:
            u = u[: int(np.argmin(copy_ok)) + 1]
            copy_ok, block_attempts, block_passes = decide(u)
        n_run += len(u)
        n_pass += int(copy_ok.sum())
        attempts = attempts + block_attempts
        passes = passes + block_passes
        if stop:
            break
    return n_run, n_pass, attempts.tolist(), passes.tolist()


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Execute one experiment and assemble its report."""
    protocol = spec.protocol
    kind = protocol.kind
    if spec.backend == "circuit":
        if kind != "sequential":
            raise ValueError("circuit backend needs a sequential protocol")
        if protocol.circuits is None:
            raise ValueError("protocol has no compiled circuits")

    gap = spectral_gap(protocol)
    nu = gap.nu

    n = spec.n_copies
    if spec.backend == "matrix":
        probs, member_cdf = _decision_table(protocol, spec.noise, gap.witness)
        if kind == "strategy":
            slots = 3
            decide = _strategy_decider(protocol, probs, member_cdf)
        else:
            slots = 1 + len(protocol.settings)
            decide = _sequential_decider(probs, member_cdf)
        rows = max(1, _CHUNK_UNIFORMS // slots)
        blocks = (
            rngmod.uniform_rows(spec.seed, start, min(start + rows, n), slots)
            for start in range(0, n, rows)
        )
    else:
        members = _source_ensemble(protocol, spec.noise, gap.witness)
        slot_spans = [_circuit_event_slots(c) for c in protocol.circuits]
        decide = _circuit_decider(protocol, members, slot_spans)
        blocks = [rngmod.uniform_table(spec.seed, n, 1 + sum(slot_spans))]
    n_run, n_pass, attempts, passes = _decide_blocks(
        blocks, decide, spec.mode == "stop_on_fail", len(protocol.settings)
    )

    frequency = n_pass / n_run
    x = nu * spec.noise.epsilon
    delta_exp = None
    delta_chern = None
    if 0.0 < x < 1.0:
        if n_pass == n_run:
            delta_exp = confidence_exponential(spec.noise.epsilon, nu, n_run)
        if spec.mode == "count_frequency":
            delta_chern = confidence_chernoff(frequency, spec.noise.epsilon, nu, n_run)

    if spec.mode == "stop_on_fail":
        verdict = "pass" if n_pass == spec.n_copies else "fail"
    elif 0.0 < x < 1.0:
        verdict = "pass" if frequency > 1.0 - x else "fail"
    else:
        verdict = "pass" if n_pass == n_run else "fail"

    report = RunReport(
        protocol_label=protocol.label,
        protocol_kind=kind,
        backend=spec.backend,
        mode=spec.mode,
        noise_kind=spec.noise.kind,
        epsilon=spec.noise.epsilon,
        seed=spec.seed,
        nu=nu,
        n_requested=spec.n_copies,
        n_run=n_run,
        n_pass=n_pass,
        frequency=frequency,
        per_setting_attempts=attempts,
        per_setting_passes=passes,
        delta_exponential=delta_exp,
        delta_chernoff=delta_chern,
        fidelity_estimate=None,
        verdict=verdict,
    )
    if kind == "sequential" and spec.mode == "count_frequency":
        f_hat, low, high = estimate_fidelity(report)
        report.fidelity_estimate = {"f_hat": f_hat, "ci_low": low, "ci_high": high}
    return report


_CSV_FIELDS = (
    "schema",
    "protocol_label",
    "protocol_kind",
    "backend",
    "mode",
    "noise_kind",
    "epsilon",
    "seed",
    "nu",
    "n_requested",
    "n_run",
    "n_pass",
    "frequency",
    "delta_exponential",
    "delta_chernoff",
    "f_hat",
    "ci_low",
    "ci_high",
    "verdict",
    "per_setting_attempts",
    "per_setting_passes",
)


def report_to_dict(report: RunReport) -> dict:
    return asdict(report)


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def report_csv_header() -> str:
    return ",".join(_CSV_FIELDS)


def report_to_csv_line(report: RunReport) -> str:
    fid = report.fidelity_estimate or {}
    row = {
        **report_to_dict(report),
        "f_hat": fid.get("f_hat"),
        "ci_low": fid.get("ci_low"),
        "ci_high": fid.get("ci_high"),
    }
    return ",".join(_csv_cell(row[name]) for name in _CSV_FIELDS)


def report_to_csv(report: RunReport) -> str:
    return report_csv_header() + "\n" + report_to_csv_line(report) + "\n"
