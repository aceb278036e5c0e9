"""One child process of the benchmark: a cold set-up or a measured run.

    python3 perfbench/child.py setup <workload> <trace>
    python3 perfbench/child.py run <workload> <seed> <seconds> <trace>

run.py starts it with BLAS pinned to one thread and ``src`` on the path.
The last line of standard output is one JSON object.

setup: times ``import ndqv``, the first BLAS call and then building the
workload's protocols in this fresh process. With trace 1 the build is traced.

run: builds the protocols, runs two warm-up ops, then runs ops until the op
loop has taken ``seconds``, checking every report. With trace 0 each op is
timed bare. With trace 1 each iteration runs the op bare and then traced on
the same seed, and the two reports must be byte-identical. Between ops, at
even steps of the loop's time, it starts SETUP_CHILDREN set-up children and
times a fixed reference kernel, so both see the machine the ops see.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback

WARMUP_OPS = 2
# Fresh set-up processes started during each run.
SETUP_CHILDREN = 15


def setup(name: str, trace: bool) -> dict:
    t0 = time.perf_counter()
    import ndqv  # noqa: F401  (timed import)

    import_s = time.perf_counter() - t0
    import numpy as np

    a = np.ones((64, 64), dtype=complex)
    t0 = time.perf_counter()
    a @ a
    first_call_ms = (time.perf_counter() - t0) * 1e3

    import workloads
    from spans import Tracer, totals

    workload = workloads.WORKLOADS[name]
    with Tracer() as tracer:
        if trace:
            workloads.wrap_setup(tracer)
        t0 = time.perf_counter()
        workloads.build(workload)
        setup_s = time.perf_counter() - t0
    return {
        "import_s": import_s,
        "first_call_ms": first_call_ms,
        "setup_s": setup_s,
        "layers": {k: [ms, calls] for k, (ms, calls, _) in totals(tracer.spans).items()},
    }


def machine_ref_ms(repeats: int = 3) -> list[float]:
    """A fixed numpy kernel (matmul plus Philox draws) timed several times."""
    import numpy as np

    a = np.random.Generator(np.random.Philox(0)).random((96, 96))
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(10):
            a @ a
        np.random.Generator(np.random.Philox(1)).random(100_000).sum()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def _op_layers(reports, spans) -> dict:
    """Per-layer figures of one traced op, from its spans and reports."""
    from spans import self_ms, totals

    sums = totals(spans)
    roots = [i for i, s in enumerate(spans) if s.name == "harness.run_experiment"]
    circuit_copies = sum(r.n_run for r in reports if r.backend == "circuit")
    return {
        "ms": {k: ms for k, (ms, _, _) in sums.items()},
        "harness.self_ms": sum(self_ms(spans, i) for i in roots),
        "spans_ms": sum(spans[i].ms for i in roots),
        "table_bytes": sums.get("rng.uniform_table", (0, 0, 0.0))[2],
        "apply_calls": sums.get("circuits.apply", (0, 0, 0))[1],
        "circuit_copies": circuit_copies,
        "n_run": sum(r.n_run for r in reports),
        "n_requested": sum(r.n_requested for r in reports),
    }


def setup_child(name: str, trace: bool) -> dict:
    """One cold set-up in a fresh interpreter that inherits this environment."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", name, str(int(trace))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(name: str, base_seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from ndqv import harness
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    protocols = workloads.build(workload)
    expected = [workloads.expected_pass(c, p) for c, p in zip(workload.cases, protocols)]
    digests = workloads.load_digests()

    ops = failed = 0
    latencies, traced_latencies, layers, setups, ref = [], [], [], [], []
    requested = 0
    measured = 0.0  # seconds spent in the op loop after warm-up
    while ops < WARMUP_OPS or measured < seconds:
        # Set-up children and the reference kernel are spread over the run so
        # that they see the same machine speed as the ops.
        due = len(setups) * seconds <= measured * SETUP_CHILDREN
        if ops >= WARMUP_OPS and due and len(setups) < SETUP_CHILDREN:
            setups.append(setup_child(name, trace))
            ref += machine_ref_ms()
        seed = base_seed + ops
        gc.collect()
        start = time.perf_counter()
        try:
            t0 = time.perf_counter()
            reports = workloads.run_op(workload, protocols, seed)
            bare_ms = (time.perf_counter() - t0) * 1e3
            problems = workloads.check_op(workload, protocols, expected, seed, reports, digests)
            if trace:
                gc.collect()
                with Tracer() as tracer:
                    workloads.wrap_op(tracer)
                    t0 = time.perf_counter()
                    traced = workloads.run_op(workload, protocols, seed)
                    traced_ms = (time.perf_counter() - t0) * 1e3
                if [harness.report_to_json(r) for r in traced] != [
                    harness.report_to_json(r) for r in reports
                ]:
                    problems.append(f"seed {seed}: traced report differs from bare")
        except Exception:
            traceback.print_exc()
            problems = [f"seed {seed}: raised"]
        for msg in problems:
            print("FAIL", msg, file=sys.stderr)
        failed += bool(problems)
        if ops >= WARMUP_OPS:
            measured += time.perf_counter() - start
            if not problems:
                latencies.append(bare_ms)
                requested += sum(r.n_requested for r in reports)
                if trace:
                    traced_latencies.append(traced_ms)
                    layers.append(_op_layers(traced, tracer.spans))
        ops += 1
    while len(setups) < SETUP_CHILDREN:
        setups.append(setup_child(name, trace))

    out = {
        "attempted": ops,
        "failed": failed,
        "latencies_ms": latencies,
        "copies_requested": requested,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "machine_ref_ms": ref,
        "members": sum(workloads.members(c, p) for c, p in zip(workload.cases, protocols)),
        "setups": setups,
        "meta": metadata(),
    }
    if trace:
        out["traced_latencies_ms"] = traced_latencies
        out["layers"] = layers
    return out


def main(argv: list[str]) -> int:
    role, name = argv[0], argv[1]
    if role == "setup":
        result = setup(name, argv[2] == "1")
    elif role == "run":
        result = run(name, int(argv[2]), float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
