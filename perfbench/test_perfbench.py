"""Tests of the benchmark itself, at tiny sizes."""
from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import pytest

import run as bench_run
import workloads
from ndqv import catalog, circuits, harness, rng, sequential
from spans import Tracer, self_ms

HERE = os.path.dirname(os.path.abspath(__file__))


def tiny(workload: workloads.Workload) -> workloads.Workload:
    cases = tuple(
        dataclasses.replace(c, n_copies=5 if c.backend == "circuit" else 300)
        for c in workload.cases
    )
    return dataclasses.replace(workload, cases=cases)


def run_and_check(workload, seed=0, digests=None):
    protocols = workloads.build(workload)
    expected = [workloads.expected_pass(c, p) for c, p in zip(workload.cases, protocols)]
    reports = workloads.run_op(workload, protocols, seed)
    problems = workloads.check_op(workload, protocols, expected, seed, reports, digests or {})
    return protocols, expected, reports, problems


def test_benchmark_json_names_the_workloads_defined_here():
    assert list(bench_run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_each_workload_runs_and_passes_its_checks(name):
    _, _, reports, problems = run_and_check(tiny(workloads.WORKLOADS[name]), seed=3)
    assert problems == []
    assert len(reports) == len(workloads.WORKLOADS[name].cases)


def test_tracer_restores_every_wrapped_attribute():
    owners = [
        (harness, "run_experiment"), (harness, "spectral_gap"), (harness, "perturbed_state"),
        (sequential, "protocol_gap"), (sequential, "build_qnd_setting"),
        (rng, "uniform_table"), (circuits, "apply"), (circuits, "fresh_input"),
        (catalog, "build_strategy"), (catalog, "build_sequential"),
    ]
    before = [getattr(o, a) for o, a in owners]
    workload = tiny(workloads.WORKLOADS["mc_circuit"])
    with Tracer() as tracer:
        workloads.wrap_setup(tracer)
        workloads.wrap_op(tracer)
        assert all(getattr(o, a) is not f for (o, a), f in zip(owners, before))
        protocols = workloads.build(workload)
        workloads.run_op(workload, protocols, 0)
    assert [getattr(o, a) for o, a in owners] == before
    names = {s.name for s in tracer.spans}
    assert {"catalog.build", "sequential.build_qnd_setting", "circuits.apply",
            "circuits.fresh_input", "rng.uniform_table", "harness.run_experiment"} <= names


def test_traced_reports_are_byte_identical_to_bare_ones():
    workload = tiny(workloads.WORKLOADS["mc_stop"])
    protocols = workloads.build(workload)
    bare = workloads.run_op(workload, protocols, 5)
    with Tracer() as tracer:
        workloads.wrap_op(tracer)
        traced = workloads.run_op(workload, protocols, 5)
    assert [harness.report_to_json(r) for r in traced] == [
        harness.report_to_json(r) for r in bare
    ]
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "harness.run_experiment")
    assert 0.0 <= self_ms(tracer.spans, root) <= tracer.spans[root].ms


def test_pinned_digest_matches_and_a_perturbed_report_trips_it():
    workload = workloads.WORKLOADS["mc_strategy"]
    digests = workloads.load_digests()
    protocols, expected, reports, problems = run_and_check(workload, 0, digests)
    assert problems == []
    reports[0].nu += 1e-12
    problems = workloads.check_op(workload, protocols, expected, 0, reports, digests)
    assert len(problems) == 1 and "digest" in problems[0]


def test_structural_and_binomial_checks_catch_inconsistent_counts():
    workload = tiny(workloads.WORKLOADS["mc_sequential"])
    protocols, expected, reports, _ = run_and_check(workload, 1)
    reports[0].per_setting_passes[0] -= 1
    problems = workloads.check_op(workload, protocols, expected, 1, reports, {})
    assert any("chain" in p for p in problems)
    case = workload.cases[0]
    assert workloads.binomial_problems(case, dataclasses.replace(reports[0], n_pass=0), expected[0])


def test_binomial_tail_matches_the_exact_sum():
    n, p = 50, 0.9625
    for k in (30, 36, 44, 50):
        lower = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))
        assert workloads.binomial_tail(n, p, k, -1, 1.0) == pytest.approx(lower, rel=1e-9)
    # Near the circuit cases' pass rate at 50 copies, 36 passes are accepted
    # and 35 would occur with probability below FALSE_ALARM / 2.
    half = workloads.FALSE_ALARM / 2
    assert workloads.binomial_tail(n, p, 36, -1, half) > half
    assert workloads.binomial_tail(n, p, 35, -1, half) <= half


@pytest.mark.xfail(strict=True, reason="known defect: adaptive_two's branching circuit "
                   "reserves two slots, so its circuit and matrix streams differ")
def test_adaptive_two_circuit_report_equals_matrix_report():
    case = workloads.WORKLOADS["mc_circuit"].cases[-1]
    protocol = case.build()
    for seed in range(3):
        mine = harness.report_to_dict(harness.run_experiment(case.spec(protocol, seed)))
        ref = harness.run_experiment(case.spec(protocol, seed, backend="matrix"))
        theirs = harness.report_to_dict(ref)
        mine.pop("backend")
        theirs.pop("backend")
        assert mine == theirs


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "mc_stop"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
