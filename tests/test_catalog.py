import re

import numpy as np
import pytest

from ndqv import catalog, linalg, sequential as seq, states, strategies


def test_strategy_names_lists_every_family():
    names = catalog.strategy_names()
    assert "bell" in names
    assert "ghz<n>" in names
    assert len(names) == len(set(names))


def test_needs_theta():
    assert catalog.needs_theta("two_qubit_three")
    assert catalog.needs_theta("adaptive_three")
    assert not catalog.needs_theta("bell")
    assert not catalog.needs_theta("ghz5")


def test_build_fixed_strategies():
    strat = catalog.build_strategy("bell")
    assert strat.label == "bell_minimal"
    group = catalog.build_strategy("bell_group")
    assert len(group.settings) == 3


def test_build_theta_families():
    for name in ("two_qubit_three", "two_qubit_four", "adaptive_two", "adaptive_three"):
        strat = catalog.build_strategy(name, theta=0.6)
        assert strat.theta == 0.6
        assert strat.target.dim == 4


def test_theta_enforced_both_ways():
    with pytest.raises(ValueError, match="requires theta"):
        catalog.build_strategy("two_qubit_three")
    with pytest.raises(ValueError, match="does not take theta"):
        catalog.build_strategy("bell", theta=0.5)
    with pytest.raises(ValueError, match="does not take theta"):
        catalog.build_strategy("ghz3", theta=0.5)


def test_ghz_selectors_parse_size():
    gens = catalog.build_strategy("ghz4")
    assert len(gens.settings) == 4
    assert gens.target.dim == 16
    group = catalog.build_strategy("ghz3_group")
    assert len(group.settings) == 7


@pytest.mark.parametrize("n", [1, 11])
def test_ghz_sizes_outside_the_range_are_refused_alike_everywhere(n):
    message = re.escape(f"ghz supports 2..10 qubits, got {n}")
    assert n not in states.GHZ_QUBITS
    for build in (
        states.ghz,
        lambda n: catalog.build_strategy(f"ghz{n}"),
        lambda n: catalog.build_sequential(f"ghz{n}"),
    ):
        with pytest.raises(ValueError, match=message):
            build(n)


def test_unknown_selector():
    with pytest.raises(ValueError, match="unknown strategy"):
        catalog.build_strategy("bellish")
    with pytest.raises(ValueError, match="unknown strategy"):
        catalog.build_strategy("ghz")


def test_sequential_bell_carries_circuits():
    proto = catalog.build_sequential("bell")
    assert isinstance(proto, seq.Protocol) and proto.kind == "sequential"
    assert len(proto.circuits) == len(proto.settings) == 2
    eff = seq.effective_operator(proto)
    assert linalg.max_abs(eff - proto.target.projector()) < 1e-12


def test_sequential_variant_plumbing():
    toff = catalog.build_sequential("two_qubit_three", theta=0.5)
    pair = catalog.build_sequential("two_qubit_three", theta=0.5, variant="cnot_pair")
    assert toff.circuits[1].n_qubits == 3
    assert pair.circuits[1].n_qubits == 4
    assert pair.circuits[1].pass_rule == "reject_all_zero"
    with pytest.raises(ValueError, match="variant"):
        catalog.build_sequential("two_qubit_three", theta=0.5, variant="mps")


def test_sequential_adaptive_orders_branching_stage_last():
    proto = catalog.build_sequential("adaptive_two", theta=0.6)
    assert proto.circuits[-1].branches is not None
    assert all(c.branches is None for c in proto.circuits[:-1])
    expected = strategies.adaptive_x_projector(0.6)
    assert linalg.max_abs(proto.settings[-1].projector - expected) < 1e-12


def test_sequential_ghz_sizes():
    p3 = catalog.build_sequential("ghz3")
    assert len(p3.circuits) == 3
    p5 = catalog.build_sequential("ghz5")
    assert len(p5.circuits) == 5
    assert len(p5.settings) == 5
    eff = seq.effective_operator(p5)
    assert linalg.max_abs(eff - p5.target.projector()) < 1e-12


def test_every_ghz_size_carries_labelled_parity_circuits():
    for n in range(2, 11):
        protocol = catalog.build_sequential(f"ghz{n}")
        words = [s.word for s in protocol.settings]
        assert [c.label for c in protocol.circuits] == [
            f"ghz{n}_{w[1:].lower()}" for w in words
        ]
        assert all((c.n_qubits, c.n_system) == (n + 1, n) for c in protocol.circuits)
        if n != 3:
            assert tuple(words) == strategies.ghz_generator_spec(n).generators


def test_ghz3_keeps_its_pinned_stage_order():
    # ghz_generator_spec(3) lists the Z pairs the other way round
    assert strategies.ghz_generator_spec(3).generators == ("+XXX", "+ZZI", "+ZIZ")
    protocol = catalog.sequential_ghz3()
    assert [s.word for s in protocol.settings] == ["+XXX", "+ZIZ", "+ZZI"]
    assert [c.label for c in protocol.circuits] == ["ghz3_xxx", "ghz3_ziz", "ghz3_zzi"]


def test_sequential_selector_errors():
    with pytest.raises(ValueError, match="no sequential protocol"):
        catalog.build_sequential("bell_group")
    with pytest.raises(ValueError, match="requires theta"):
        catalog.build_sequential("adaptive_two")
    with pytest.raises(ValueError, match="does not take theta"):
        catalog.build_sequential("ghz3", theta=0.3)


def test_has_sequential():
    assert catalog.has_sequential("bell")
    assert catalog.has_sequential("ghz6")
    assert not catalog.has_sequential("ghz6_group")
    assert not catalog.has_sequential("bell_group")
    assert not catalog.has_sequential("nope")


def test_selectors_agree_with_direct_constructors():
    a = catalog.build_strategy("two_qubit_three", theta=0.45)
    b = strategies.two_qubit_three(0.45)
    for sa, sb in zip(a.settings, b.settings):
        assert linalg.max_abs(sa.projector - sb.projector) == 0.0
        assert sa.weight == sb.weight
