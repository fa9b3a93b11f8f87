import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nclandau.serialize import dumps, format_float


def reference(value) -> str:
    """Per-element encoding of a nested list, one format_float call per number."""
    if isinstance(value, list):
        return "[" + ", ".join(reference(item) for item in value) + "]"
    return format_float(value)


# Signed zeros, subnormals, huge and tiny magnitudes, and few distinct values
# so that repeats are common.
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 1.0, 0.1])
elements = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
shapes = st.one_of(
    st.tuples(st.integers(0, 40)),
    st.tuples(st.integers(0, 40), st.just(2)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.just(2)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, shapes, elements=elements))
def test_array_matches_per_element_encoding(arr):
    assert dumps(arr) == reference(arr.tolist())
    assert dumps({"entries": arr}) == '{"entries": ' + reference(arr.tolist()) + "}"


def test_blocks_join_like_one_array():
    arr = np.tile([[-0.0, 0.5], [3.0, 0.0]], (70000, 1))
    assert dumps(arr) == reference(arr.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps(np.array([[1.0, 2.0], [bad, 0.0]]))


def test_non_float_array_raises():
    with pytest.raises(TypeError, match="int64"):
        dumps(np.arange(3))
