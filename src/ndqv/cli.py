"""Command line front end.

Subcommands: gap, sweep, simulate, fidelity, compile, check. Angles are in
radians. Outputs are deterministic byte for byte for identical invocations;
--out writes atomically (temp file + rename in the target directory).

Exit codes: 0 on success, 1 when a simulation verdict or a check fails,
2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import catalog, checks, circuits as circ, harness
from . import sequential, states, strategies


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_atomic(out, text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _noise_from_args(args) -> states.NoiseSpec:
    return states.NoiseSpec(
        kind=args.noise, epsilon=args.epsilon, seed=args.noise_seed
    )


def _cmd_gap(args) -> int:
    strat = catalog.build_strategy(args.name, args.theta)
    report = strategies.spectral_gap(strat)
    payload = {
        "schema": 1,
        "name": args.name,
        "label": strat.label,
        "theta": strat.theta,
        "nu": report.nu,
        "lambda2": report.lambda2,
        "analytic_nu": strat.analytic_nu,
        "witness": sequential.complex_pairs(report.witness),
    }
    if args.epsilon is not None or args.delta is not None:
        if args.epsilon is None or args.delta is None:
            raise ValueError("sample counts need both --epsilon and --delta")
        exact, approx = strategies.sample_complexity(
            report.nu, args.epsilon, args.delta
        )
        payload["epsilon"] = args.epsilon
        payload["delta"] = args.delta
        payload["n_exact"] = exact
        payload["n_approx"] = approx
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        lines = [
            f"strategy {strat.label} (selector {args.name})",
            f"nu = {report.nu!r}",
            f"lambda2 = {report.lambda2!r}",
            f"analytic nu = {strat.analytic_nu!r}",
        ]
        if "n_exact" in payload:
            lines.append(
                f"copies for epsilon={args.epsilon!r} delta={args.delta!r}: "
                f"exact {payload['n_exact']}, approx {payload['n_approx']}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if not catalog.needs_theta(args.name):
        raise ValueError(f"{args.name} has no theta to sweep")
    span = args.theta_max - args.theta_min
    rows = []
    for k in range(args.steps):
        theta = args.theta_min + span * k / (args.steps - 1)
        strat = catalog.build_strategy(args.name, theta)
        report = strategies.spectral_gap(strat)
        row = {
            "theta": theta,
            "nu": report.nu,
            "lambda2": report.lambda2,
            "analytic_nu": strat.analytic_nu,
        }
        if args.epsilon is not None and args.delta is not None:
            exact, approx = strategies.sample_complexity(
                report.nu, args.epsilon, args.delta
            )
            row["n_exact"] = exact
            row["n_approx"] = approx
        rows.append(row)
    if args.format == "json":
        _emit(_json_text({"schema": 1, "name": args.name, "rows": rows}), args.out)
    else:
        cols = list(rows[0])
        lines = [",".join(cols)]
        for row in rows:
            cells = []
            for col in cols:
                value = row[col]
                cells.append("%.17g" % value if isinstance(value, float) else str(value))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_protocol(args):
    if args.sequential:
        return catalog.build_sequential(args.name, args.theta, variant=args.variant)
    return catalog.build_strategy(args.name, args.theta)


def _cmd_simulate(args) -> int:
    protocol = _build_protocol(args)
    spec = harness.ExperimentSpec(
        protocol=protocol,
        noise=_noise_from_args(args),
        n_copies=args.n,
        seed=args.seed,
        backend=args.backend,
        mode=args.mode,
    )
    report = harness.run_experiment(spec)
    if args.format == "json":
        _emit(harness.report_to_json(report), args.out)
    else:
        _emit(harness.report_to_csv(report), args.out)
    return 0 if report.verdict == "pass" else 1


def _cmd_fidelity(args) -> int:
    protocol = catalog.build_sequential(args.name, args.theta, variant=args.variant)
    spec = harness.ExperimentSpec(
        protocol=protocol,
        noise=_noise_from_args(args),
        n_copies=args.n,
        seed=args.seed,
        backend=args.backend,
        mode="count_frequency",
    )
    report = harness.run_experiment(spec)
    f_hat, low, high = harness.estimate_fidelity(report)
    payload = {
        "schema": 1,
        "protocol_label": report.protocol_label,
        "backend": report.backend,
        "noise_kind": report.noise_kind,
        "epsilon": report.epsilon,
        "seed": report.seed,
        "n_run": report.n_run,
        "n_pass": report.n_pass,
        "f_hat": f_hat,
        "ci_low": low,
        "ci_high": high,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        _emit(
            f"fidelity estimate {f_hat!r} (95% CI [{low!r}, {high!r}]) "
            f"from {report.n_pass}/{report.n_run} passes\n",
            args.out,
        )
    return 0


def _cmd_compile(args) -> int:
    protocol = catalog.build_sequential(args.name, args.theta, variant=args.variant)
    circuits = protocol.circuits
    if args.index is not None:
        if not 0 <= args.index < len(circuits):
            raise ValueError(f"index must lie in [0, {len(circuits) - 1}]")
        circuits = [circuits[args.index]]
    blocks = []
    for circuit in circuits:
        blocks.append(f"# circuit {circuit.label}\n" + circ.serialize_circuit(circuit))
    _emit("\n".join(blocks), args.out)
    return 0


def _cmd_check(args) -> int:
    names = args.names or None
    if args.list:
        _emit("\n".join(checks.check_names()) + "\n", args.out)
        return 0
    results = checks.run_checks(names)
    if args.format == "json":
        payload = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        _emit(_json_text(payload), args.out)
    else:
        lines = [
            f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def _add_common_output(sub, formats=("json", "text")) -> None:
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None, help="write output to this path atomically")


def _add_protocol_selection(sub, sequential_flag: bool = True) -> None:
    sub.add_argument("name", help="catalog selector, e.g. bell or two_qubit_three")
    sub.add_argument("--theta", type=float, default=None, help="state angle in radians")
    sub.add_argument(
        "--variant",
        choices=("toffoli", "cnot_pair"),
        default="toffoli",
        help="circuit realization of the rank-1 reject checks",
    )
    if sequential_flag:
        sub.add_argument(
            "--sequential",
            action="store_true",
            help="run the single-copy sequential protocol instead of sampling settings",
        )


def _add_noise(sub) -> None:
    sub.add_argument("--noise", choices=states.NOISE_KINDS, default="worst_case_orthogonal")
    sub.add_argument("--epsilon", type=float, default=0.0, help="source deviation weight")
    sub.add_argument("--noise-seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndqv",
        description="Simulate projective and sequential nondemolition state verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gap = subs.add_parser("gap", help="spectral gap of a strategy")
    p_gap.add_argument("name")
    p_gap.add_argument("--theta", type=float, default=None)
    p_gap.add_argument("--epsilon", type=float, default=None)
    p_gap.add_argument("--delta", type=float, default=None)
    _add_common_output(p_gap)
    p_gap.set_defaults(func=_cmd_gap)

    p_sweep = subs.add_parser("sweep", help="gap across a theta grid")
    p_sweep.add_argument("name")
    p_sweep.add_argument("--theta-min", type=float, required=True)
    p_sweep.add_argument("--theta-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=9)
    p_sweep.add_argument("--epsilon", type=float, default=None)
    p_sweep.add_argument("--delta", type=float, default=None)
    _add_common_output(p_sweep, formats=("csv", "json"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = subs.add_parser("simulate", help="Monte Carlo verification run")
    _add_protocol_selection(p_sim)
    _add_noise(p_sim)
    p_sim.add_argument("--backend", choices=harness.BACKENDS, default="matrix")
    p_sim.add_argument("--mode", choices=harness.MODES, default="stop_on_fail")
    p_sim.add_argument("--n", type=int, default=100, help="copies to draw")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_common_output(p_sim, formats=("json", "csv"))
    p_sim.set_defaults(func=_cmd_simulate)

    p_fid = subs.add_parser("fidelity", help="estimate source fidelity sequentially")
    _add_protocol_selection(p_fid, sequential_flag=False)
    _add_noise(p_fid)
    p_fid.add_argument("--backend", choices=harness.BACKENDS, default="matrix")
    p_fid.add_argument("--n", type=int, default=1000)
    p_fid.add_argument("--seed", type=int, default=0)
    _add_common_output(p_fid)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_comp = subs.add_parser("compile", help="emit protocol circuits as text")
    _add_protocol_selection(p_comp, sequential_flag=False)
    p_comp.add_argument("--index", type=int, default=None, help="emit one circuit only")
    p_comp.add_argument("--out", default=None)
    p_comp.set_defaults(func=_cmd_compile)

    p_check = subs.add_parser("check", help="run the named invariant suite")
    p_check.add_argument("names", nargs="*", help="subset of checks to run")
    p_check.add_argument("--list", action="store_true", help="list check names")
    _add_common_output(p_check, formats=("text", "json"))
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
