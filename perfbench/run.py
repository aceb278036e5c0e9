"""Benchmark of the ndqv Monte Carlo layers.

    python3 perfbench/run.py --workload mc_stop --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. One closed loop with one client: each op
starts when the previous one has finished. A run starts one child process
with BLAS and OpenMP pinned to one thread; it runs the workload's ops for
``--seconds``, checks every report, and starts fresh children that each time
one cold protocol build (see child.py and workloads.py). The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload both ways and prints every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0
PINNED_THREADS = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# name -> unit, in the order of BENCHMARK.json.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Op-level spans reported as the median, over traced ops, of their time per op.
OP_SPANS = (
    "strategies.spectral_gap",
    "sequential.protocol_gap",
    "rng.uniform_table",
    "states.perturbed_state",
    "circuits.apply",
    "circuits.fresh_input",
)


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args: list[str]) -> dict:
    """Run child.py to completion and parse the JSON on its last line.

    The child gets its own process group, so a timeout also ends the set-up
    processes it started.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def decile(values: list[float], k: int) -> float:
    """The k-th decile (k = 1 is p10, k = 9 is p90)."""
    return statistics.quantiles(values, n=10)[k - 1] if len(values) > 1 else median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run: returns (metrics {name: (value, n)}, child result, info lines)."""
    res = run_child(["run", workload, str(seed), str(seconds), "1" if trace else "0"])
    setups = res["setups"]
    n_setup = len(setups)
    ref = res["machine_ref_ms"]
    lat = res["latencies_ms"]
    # Not gated: the op latency is bimodal on a shared machine, and these
    # jump with the share of the run that the machine spends in its fast state.
    info = [
        f"machine.ref_ms {median(ref):.4f} (median of {len(ref)} spread over the run)",
        f"op_ms_p10 {decile(lat, 1):.4f} ms, op_ms_p50 {median(lat):.4f} ms, copies_per_s "
        f"{res['copies_requested'] / (sum(lat) / 1e3):.1f} 1/s (n={len(lat)}; not gated)",
    ]
    if not trace:
        metrics = {
            "setup_s": (median([s["setup_s"] for s in setups]), n_setup),
            "op_ms_p90": (decile(lat, 9), len(lat)),
            "peak_rss_mb": (res["peak_rss_mb"], 1),
        }
        return metrics, res, info

    layers = res["layers"]
    n_ops = len(layers)

    def setup_layer(name, k):
        return median([s["layers"].get(name, [0.0, 0])[k] for s in setups]), n_setup

    metrics = {
        "catalog.build_ms": setup_layer("catalog.build", 0),
        "sequential.build_qnd_setting_ms": setup_layer("sequential.build_qnd_setting", 0),
        "sequential.build_qnd_setting_calls": setup_layer("sequential.build_qnd_setting", 1),
    }
    for span in OP_SPANS:
        metrics[span + "_ms"] = (median([op["ms"].get(span, 0.0) for op in layers]), n_ops)
    total_requested = sum(op["n_requested"] for op in layers)
    circuit_copies = sum(op["circuit_copies"] for op in layers)
    traced = res["traced_latencies_ms"]
    metrics.update({
        "rng.table_mb": (median([op["table_bytes"] for op in layers]) / 1e6, n_ops),
        "rng.table_used_ratio": (
            sum(op["n_run"] for op in layers) / (4 * total_requested) if total_requested else 0.0,
            n_ops,
        ),
        "harness.self_ms": (median([op["harness.self_ms"] for op in layers]), n_ops),
        "harness.members": (res["members"], 1),
        "circuits.apply_calls_per_copy": (
            sum(op["apply_calls"] for op in layers) / circuit_copies if circuit_copies else 0.0,
            n_ops,
        ),
        "cli.import_s": (median([s["import_s"] for s in setups]), n_setup),
        "linalg.first_call_ms": (median([s["first_call_ms"] for s in setups]), n_setup),
        "machine.ref_ms": (median(ref), len(ref)),
        # Each traced op runs right after its bare twin, on the same seed.
        "trace.overhead_ratio": (median([t / b for t, b in zip(traced, lat)]), n_ops),
    })
    covered = median([op["spans_ms"] / t for op, t in zip(layers, traced)])
    info.append(f"spans cover {covered:.3f} of each traced op (median over {n_ops} ops)")
    return {k: metrics[k] for k in PER_LAYER}, res, info


def print_table(workload: str, metrics: dict, units: dict) -> None:
    for name, (value, n) in metrics.items():
        # A per-layer 0 means the workload never enters that layer.
        idle = "  (idle on this workload)" if value == 0 else ""
        print(f"{workload:14s} {name:36s} {value:16.6f} {units[name]:7s} n={n}{idle}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ndqv", "__init__.py")):
        print(f"no ndqv sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    out = {}
    for workload, trace in runs:
        metrics, res, info = measure(workload, args.seed, args.seconds, trace)
        attempted += res["attempted"]
        failed += res["failed"]
        units = PER_LAYER if trace else END_TO_END
        print(f"# {workload} trace={int(trace)} seed={args.seed} ops={res['attempted']} "
              f"failed={res['failed']} failed_ratio={res['failed'] / res['attempted']}")
        print("# meta " + json.dumps({**res["meta"], "commit": commit()}, sort_keys=True))
        for line in info:
            print("# " + line)
        print_table(workload, metrics, units)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, _) in metrics.items():
            out[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
