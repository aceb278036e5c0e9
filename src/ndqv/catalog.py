"""Named constructors for every target, strategy, and protocol shipped here.

The command line and the invariant checker both resolve names through this
module, so a selector like ``two_qubit_three`` means the same object
everywhere. GHZ families accept sizes inline, e.g. ``ghz4`` or ``ghz3_group``.
"""
from __future__ import annotations

import dataclasses
import re

from . import circuits as circ
from . import sequential as seq
from . import states, strategies
from .sequential import Protocol

_THETA_FAMILIES = {
    "two_qubit_three",
    "two_qubit_four",
    "adaptive_two",
    "adaptive_three",
}

_FIXED_STRATEGIES = {
    "bell": strategies.bell_minimal,
    "bell_group": strategies.bell_stabilizer_group,
}

_GHZ_PATTERN = re.compile(r"^ghz(\d+)(_group)?$")

# Stage orders that differ from ghz_generator_spec(n). ghz3 runs its outer
# Z pair first; its sequential document and report digests are pinned in
# this order.
_GHZ_STAGE_WORDS = {3: ("+XXX", "+ZIZ", "+ZZI")}


def strategy_names() -> list[str]:
    """Canonical selector spellings, GHZ families abbreviated."""
    return [
        "bell",
        "bell_group",
        "two_qubit_three",
        "two_qubit_four",
        "adaptive_two",
        "adaptive_three",
        "ghz<n>",
        "ghz<n>_group",
    ]


def needs_theta(name: str) -> bool:
    return name in _THETA_FAMILIES


def build_strategy(name: str, theta: float | None = None) -> Protocol:
    """Resolve a selector to its strategy, validating the theta requirement."""
    if name in _FIXED_STRATEGIES:
        if theta is not None:
            raise ValueError(f"{name} does not take theta")
        return _FIXED_STRATEGIES[name]()
    if name in _THETA_FAMILIES:
        if theta is None:
            raise ValueError(f"{name} requires theta")
        builder = getattr(strategies, name)
        return builder(theta)
    m = _GHZ_PATTERN.match(name)
    if m:
        if theta is not None:
            raise ValueError(f"{name} does not take theta")
        n = int(m.group(1))
        spec = strategies.ghz_generator_spec(n)
        if m.group(2):
            return strategies.stabilizer_full_group(spec)
        return strategies.stabilizer_generators(spec)
    raise ValueError(f"unknown strategy {name!r}")


def _from_strategy(strat: Protocol, label: str, circuits=None) -> Protocol:
    """Run a strategy's settings in sequence, in the order it lists them.

    The strategy's settings are reused as they are, so no projector is
    validated twice; only completeness is checked on top.
    """
    protocol = dataclasses.replace(
        strat, kind="sequential", label=label, analytic_nu=None, circuits=circuits
    )
    seq.check_complete(protocol)
    return protocol


def sequential_bell() -> Protocol:
    return _from_strategy(
        strategies.bell_minimal(), "bell_sequential", circ.compile_bell()
    )


def sequential_two_qubit(theta: float, variant: str = "toffoli") -> Protocol:
    return _from_strategy(
        strategies.two_qubit_three(theta),
        f"two_qubit_sequential_{variant}",
        circ.compile_two_qubit(theta, variant),
    )


def sequential_ghz3() -> Protocol:
    return sequential_ghz(3)


def sequential_adaptive(theta: float) -> Protocol:
    parity = circ.compile_bell()[0]
    return _from_strategy(
        strategies.adaptive_two(theta),
        "adaptive_sequential",
        [parity, circ.compile_adaptive(theta)],
    )


def sequential_ghz(n: int) -> Protocol:
    """Generator checks in sequence, each with its parity circuit ``ghz{n}_<body>``.

    The stages follow ghz_generator_spec(n) unless _GHZ_STAGE_WORDS pins them.
    """
    words = _GHZ_STAGE_WORDS.get(n)
    spec = strategies.ghz_generator_spec(n) if words is None else states.StabilizerGroupSpec(words)
    labels = [f"ghz{n}_{w[1:].lower()}" for w in spec.generators]
    return _from_strategy(
        strategies.stabilizer_generators(spec),
        f"ghz{n}_sequential",
        circ.compile_stabilizer(spec.generators, labels),
    )


def build_sequential(
    name: str, theta: float | None = None, variant: str = "toffoli"
) -> Protocol:
    """Resolve a selector to its sequential protocol, compiled circuits attached."""
    if name == "bell":
        if theta is not None:
            raise ValueError("bell does not take theta")
        return sequential_bell()
    if name == "two_qubit_three":
        if theta is None:
            raise ValueError("two_qubit_three requires theta")
        return sequential_two_qubit(theta, variant)
    if name == "adaptive_two":
        if theta is None:
            raise ValueError("adaptive_two requires theta")
        return sequential_adaptive(theta)
    m = _GHZ_PATTERN.match(name)
    if m and not m.group(2):
        if theta is not None:
            raise ValueError(f"{name} does not take theta")
        return sequential_ghz(int(m.group(1)))
    raise ValueError(f"no sequential protocol for {name!r}")


def has_sequential(name: str) -> bool:
    if name in ("bell", "two_qubit_three", "adaptive_two"):
        return True
    m = _GHZ_PATTERN.match(name)
    return bool(m and not m.group(2))
