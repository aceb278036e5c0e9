import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqv import rng


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=5),
)
def test_table_matches_scalar_slots(seed, n_copies, slots):
    table = rng.uniform_table(seed, n_copies, slots)
    assert table.shape == (n_copies, slots)
    for c in range(n_copies):
        for k in range(slots):
            assert table[c, k] == rng.slot_uniform(seed, c, k, slots)


def test_deterministic():
    a = rng.uniform_table(42, 10, 3)
    b = rng.uniform_table(42, 10, 3)
    assert np.array_equal(a, b)


def test_seed_separation():
    a = rng.uniform_table(1, 20, 2)
    b = rng.uniform_table(2, 20, 2)
    assert not np.array_equal(a, b)


def test_copy_prefix_stability():
    # extending the copy budget must not change earlier copies
    small = rng.uniform_table(7, 5, 4)
    large = rng.uniform_table(7, 50, 4)
    assert np.array_equal(small, large[:5])


def test_values_in_unit_interval():
    table = rng.uniform_table(3, 100, 4)
    assert table.min() >= 0.0
    assert table.max() < 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=5),
)
def test_rows_match_table_and_scalar_slots(seed, a, b, slots):
    start, stop = min(a, b), max(a, b)
    rows = rng.uniform_rows(seed, start, stop, slots)
    assert rows.shape == (stop - start, slots)
    assert np.array_equal(rows, rng.uniform_table(seed, stop, slots)[start:stop])
    for c in range(start, stop):
        for k in range(slots):
            assert rows[c - start, k] == rng.slot_uniform(seed, c, k, slots)


def test_rows_refuse_a_reversed_range():
    with pytest.raises(ValueError, match="range"):
        rng.uniform_rows(1, 5, 4, 3)
    with pytest.raises(ValueError, match="range"):
        rng.uniform_rows(1, -1, 4, 3)
