"""Counter-based random streams for reproducible Monte Carlo runs.

Each Monte Carlo trial owns a fixed set of slots (source draw, one draw per
measurement event). Slot k of copy c reads the first double of Philox counter
block c * slots + k, so draws are independent of evaluation order: any run of
consecutive copies can be drawn on its own by advancing the counter to its
first block, and drawing it in pieces gives the same numbers as drawing it
whole.
"""
from __future__ import annotations

import numpy as np

# One Philox counter block yields 4 doubles; each (copy, slot) pair owns a
# whole block so scalar and bulk paths agree bit for bit.
_BLOCK = 4


def slot_uniform(seed: int, copy: int, slot: int, slots_per_copy: int) -> float:
    """Uniform for one (copy, slot) pair, independent of draw order."""
    if slot >= slots_per_copy:
        raise ValueError(f"slot {slot} out of range for layout {slots_per_copy}")
    bg = np.random.Philox(key=seed)
    bg.advance(copy * slots_per_copy + slot)
    return float(np.random.Generator(bg).random())


def uniform_rows(seed: int, start: int, stop: int, slots_per_copy: int) -> np.ndarray:
    """Uniforms of copies start..stop-1, shape (stop - start, slots_per_copy).

    Row r column k equals ``slot_uniform(seed, start + r, k, slots_per_copy)``.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"copy range [{start}, {stop}) is not a valid range")
    bg = np.random.Philox(key=seed)
    bg.advance(start * slots_per_copy)
    raw = np.random.Generator(bg).random(_BLOCK * (stop - start) * slots_per_copy)
    return raw[0::_BLOCK].reshape(stop - start, slots_per_copy)


def uniform_table(seed: int, n_copies: int, slots_per_copy: int) -> np.ndarray:
    """All trial uniforms at once, shape (n_copies, slots_per_copy)."""
    return uniform_rows(seed, 0, n_copies, slots_per_copy)
