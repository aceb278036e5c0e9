import json
import math
import re

import numpy as np
import pytest

from ndqv import linalg, states, strategies
from ndqv import sequential as seq
from ndqv.sequential import Protocol, Setting


def _strategy(target, *settings):
    return Protocol("bad", target, settings, "strategy")


def test_strategy_validation_weights():
    target = states.bell_state()
    proj = target.projector()
    with pytest.raises(ValueError, match="weights sum"):
        _strategy(target, Setting("a", proj, 0.5))
    with pytest.raises(ValueError, match="non-positive"):
        _strategy(target, Setting("a", proj, 1.5), Setting("b", proj, -0.5))
    with pytest.raises(ValueError, match="non-positive"):
        _strategy(target, Setting("a", proj))


@pytest.mark.parametrize(
    "weight", [float("nan"), float("inf"), True, np.bool_(True), "1.0", 1.0 + 0j]
)
def test_strategy_refuses_a_weight_that_is_not_a_finite_real(weight):
    # nan used to reach the gap, which refused a "non-Hermitian" operator;
    # True ran as weight 1 and "1.0" raised a TypeError
    target = states.bell_state()
    with pytest.raises(ValueError, match=re.escape(repr(weight))):
        _strategy(target, Setting("a", target.projector(), weight))


def test_strategy_validation_fixing():
    target = states.bell_state()
    wrong = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="does not fix"):
        _strategy(target, Setting("a", wrong, 1.0))


def test_strategy_validation_projector():
    target = states.bell_state()
    with pytest.raises(ValueError, match="not a projector"):
        _strategy(target, Setting("a", 2.0 * target.projector(), 1.0))


def test_bell_minimal_gap():
    strat = strategies.bell_minimal()
    report = strategies.spectral_gap(strat)
    assert abs(report.nu - 0.5) < 1e-12
    assert abs(np.vdot(strat.target.vector, report.witness)) < 1e-9
    assert abs(np.linalg.norm(report.witness) - 1.0) < 1e-12


def test_bell_group_gap():
    report = strategies.spectral_gap(strategies.bell_stabilizer_group())
    assert abs(report.nu - 2.0 / 3.0) < 1e-12


def test_witness_achieves_lambda2():
    strat = strategies.two_qubit_three(0.5)
    report = strategies.spectral_gap(strat)
    omega = sum(s.weight * s.projector for s in strat.settings)
    rayleigh = float(np.real(np.vdot(report.witness, omega @ report.witness)))
    assert abs(rayleigh - report.lambda2) < 1e-9


def test_four_setting_rejected_vectors_miss_target():
    strat = strategies.two_qubit_four(0.4)
    psi = strat.target.vector
    for setting in strat.settings[1:]:
        # each reject setting must pass the target with certainty
        assert linalg.max_abs(setting.projector @ psi - psi) < 1e-9


def test_adaptive_projectors():
    theta = 0.6
    x_proj = strategies.adaptive_x_projector(theta)
    y_proj = strategies.adaptive_y_projector(theta)
    for p in (x_proj, y_proj):
        assert linalg.is_projector(p)
        assert abs(np.trace(p).real - 2.0) < 1e-12
    psi = states.two_qubit_pure(theta).vector
    assert linalg.max_abs(x_proj @ psi - psi) < 1e-12
    assert linalg.max_abs(y_proj @ psi - psi) < 1e-12


def test_stabilizer_strategy_gaps():
    spec = strategies.ghz_generator_spec(3)
    gens = strategies.spectral_gap(strategies.stabilizer_generators(spec))
    assert abs(gens.nu - 1.0 / 3.0) < 1e-12
    group = strategies.spectral_gap(strategies.stabilizer_full_group(spec))
    assert abs(group.nu - 4.0 / 7.0) < 1e-12


def test_full_group_qubit_cap():
    with pytest.raises(ValueError, match="up to 6"):
        strategies.stabilizer_full_group(strategies.ghz_generator_spec(7))


def test_ghz_generator_spec_words():
    spec = strategies.ghz_generator_spec(4)
    assert spec.generators == ("+XXXX", "+ZZII", "+ZIZI", "+ZIIZ")


def test_sample_complexity_oracles():
    assert strategies.sample_complexity(1.0, 0.01, 0.05) == (299, 300)
    assert strategies.sample_complexity(1.0, 0.05, 0.1) == (45, 47)


def test_sample_complexity_domain():
    with pytest.raises(ValueError):
        strategies.sample_complexity(0.0, 0.01, 0.05)
    with pytest.raises(ValueError):
        strategies.sample_complexity(1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        strategies.sample_complexity(1.0, 1.0, 0.05)
    with pytest.raises(ValueError):
        strategies.sample_complexity(1.0, 0.01, 0.0)
    assert strategies.sample_complexity(1.0, 0.01, 1.0) == (0, 0)


def test_sample_complexity_exact_at_most_approx():
    for nu in (0.25, 0.5, 1.0):
        for eps in (0.01, 0.05):
            for delta in (0.01, 0.1):
                exact, approx = strategies.sample_complexity(nu, eps, delta)
                assert exact <= approx
                # exact really is the inversion point
                x = nu * eps
                assert (1.0 - x) ** exact <= delta + 1e-15
                if exact > 0:
                    assert (1.0 - x) ** (exact - 1) > delta


def test_serialization_roundtrip_json():
    strat = strategies.two_qubit_four(0.37)
    blob = json.dumps(seq.protocol_to_dict(strat), sort_keys=True)
    back = seq.protocol_from_dict(json.loads(blob))
    assert back.kind == "strategy"
    assert back.label == strat.label
    assert back.theta == strat.theta
    assert back.analytic_nu == strat.analytic_nu
    assert linalg.max_abs(back.target.vector - strat.target.vector) == 0.0
    for a, b in zip(strat.settings, back.settings):
        assert a.label == b.label
        assert a.weight == b.weight
        assert linalg.max_abs(a.projector - b.projector) == 0.0


def test_strategy_from_dict_rejects_other_kinds():
    # a sequential document is never read back as a strategy
    with pytest.raises(ValueError):
        seq.protocol_from_dict({"kind": "sequential"})
    doc = seq.protocol_to_dict(strategies.bell_minimal())
    doc["kind"] = "sequential"
    assert seq.protocol_from_dict(doc, require_complete=False).kind == "sequential"
    for kind in ("Strategy", "bogus", None):
        doc["kind"] = kind
        with pytest.raises(ValueError, match="not a protocol document"):
            seq.protocol_from_dict(doc)


def test_weights_are_exact_for_uniform_strategies():
    strat = strategies.two_qubit_three(0.5)
    assert sum(s.weight for s in strat.settings) == pytest.approx(1.0, abs=1e-15)
    assert math.isclose(strat.settings[0].weight, 1.0 / 3.0, rel_tol=0, abs_tol=1e-16)
