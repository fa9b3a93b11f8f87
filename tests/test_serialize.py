import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nclandau.fock import OperatorMatrix, to_json_dict
from nclandau.serialize import dumps, format_cell, format_float


def reference(value) -> str:
    """Per-element encoding of a nested list, one format_float call per number."""
    if isinstance(value, list):
        return "[" + ", ".join(reference(item) for item in value) + "]"
    return format_float(value)


# Signed zeros, subnormals, huge and tiny magnitudes, and few distinct values
# so that repeats are common.
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 1.0, 0.1])
elements = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def operators(draw):
    dim = draw(st.integers(1, 40))
    offsets = sorted(draw(st.sets(st.integers(1 - dim, dim - 1), max_size=9)))
    values = draw(hnp.arrays(np.float64, (len(offsets), dim, 2), elements=elements)).view(complex)
    return OperatorMatrix(dict(zip(offsets, values[..., 0])), dim)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operators())
def test_dump_matches_per_element_encoding(op):
    pairs = [[z.real, z.imag] for row in op.entries.tolist() for z in row]
    assert dumps(to_json_dict(op)) == f'{{"dim": {op.dim}, "entries": {reference(pairs)}}}'


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        format_float(bad)
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"entries": [[1.0, 2.0], [bad, 0.0]]})



@pytest.mark.parametrize("value, cell", [
    (None, ""), (True, "true"), (False, "false"), (3, "3"),
    (0.1, "0.1"), (-0.0, "-0"), (np.float64(1e300), "1e+300"), (2.5e-7, "2.5e-07"),
])
def test_cells_use_the_json_scalar_encoding(value, cell):
    assert format_cell(value) == cell
