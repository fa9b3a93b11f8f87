import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclandau.units import (NATURAL, PhysicalUnits, cyclotron_frequency, level_spacing, magnetic_length_squared,
                            momentum_grid_scale)


def test_natural_units_scales():
    # exactly 1, so natural units print the pure numbers bit for bit
    assert magnetic_length_squared(NATURAL) == 1.0
    assert cyclotron_frequency(NATURAL) == 1.0
    assert momentum_grid_scale(NATURAL) == 1.0


def test_momentum_grid_scale_values():
    # e B ell / c: a guiding center c k / eB one magnetic length out
    assert momentum_grid_scale(PhysicalUnits(B=4.0)) == 2.0  # ell = 1/2
    assert momentum_grid_scale(PhysicalUnits(e=2, B=3, c=5, hbar=7, m=1)) == pytest.approx(math.sqrt(42 / 5), rel=1e-15)


def test_magnetic_length_quarter_field():
    assert magnetic_length_squared(PhysicalUnits(e=1, B=4, c=1, hbar=1)) == 0.25


def test_magnetic_length_generic():
    # direct arithmetic: hbar*c/(e*B) = 7*5/(2*3)
    u = PhysicalUnits(e=2, B=3, c=5, hbar=7, m=1)
    assert magnetic_length_squared(u) == 35.0 / 6.0


def test_cyclotron_frequency_values():
    assert cyclotron_frequency(PhysicalUnits(e=1, B=2, c=1, m=1)) == 2.0
    assert cyclotron_frequency(PhysicalUnits(e=3, B=4, m=2, c=6)) == 1.0  # 12/12


@pytest.mark.parametrize("field", ["e", "B", "c", "hbar", "m"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_nonpositive_constants(field, bad):
    with pytest.raises(ValueError, match=field):
        PhysicalUnits(**{field: bad})


@pytest.mark.parametrize("tiny", [1e-160, 1e-200])
def test_rejects_underflowing_magnetic_length(tiny):
    # hbar*c is 1e-320, a subnormal with about 3 digits, or 0
    with pytest.raises(ValueError, match="underflows"):
        PhysicalUnits(hbar=tiny, c=tiny)


def test_rejects_magnetic_length_of_two_overflowing_products():
    # hbar*c and e*B are both inf, so hbar*c/(e*B) is nan though the true value is 1
    with pytest.raises(ValueError, match="both overflow"):
        PhysicalUnits(hbar=1e200, c=1e200, e=1e200, B=1e200)


@pytest.mark.parametrize("flags", [{"B": 1e300, "m": 1e-10}, {"hbar": 1e200, "B": 1e200}])
def test_rejects_overflowing_level_spacing(flags):
    with pytest.raises(ValueError, match="overflows"):
        PhysicalUnits(**flags)


@pytest.mark.parametrize("flags,message", [
    ({"e": 1e-200, "B": 1e-200}, r"e\*B underflows to 0"),
    ({"m": 1e-200, "c": 1e-200}, r"m\*c underflows to 0"),
    ({"hbar": 1e-200, "e": 1e-200}, r"hbar\*e\*B/\(m\*c\) = 0.0 underflows to 0"),
    ({"e": 10**400}, "constant e"),
    ({"e": 10**200, "B": 10**200}, "underflows below the smallest normal float"),
], ids=["e*B", "m*c", "hbar*omega", "int constant", "int product"])
def test_rejects_products_outside_the_float_range(flags, message):
    with pytest.raises(ValueError, match=message):
        PhysicalUnits(**flags)


def test_huge_int_constant_is_named_by_its_digit_count():
    with pytest.raises(ValueError) as info:
        PhysicalUnits(B=-(10**400))
    assert str(info.value) == "constant B must be a positive finite float, got an integer of 401 digits"


def test_units_are_read_only_values():
    units = PhysicalUnits(B=2)
    assert units == PhysicalUnits(1.0, 2.0, 1.0, 1.0, 1.0) and units != NATURAL
    assert hash(units) == hash(PhysicalUnits(B=2.0)) and type(units.B) is float
    assert repr(NATURAL) == "PhysicalUnits(e=1.0, B=1.0, c=1.0, hbar=1.0, m=1.0)"
    for name in ("B", "extra"):
        with pytest.raises(AttributeError):
            setattr(units, name, 3.0)


# each constant log-uniform over the floats, or an int up to 10**400
constant = st.one_of(st.floats(-320, 308).map(lambda t: 10.0**t), st.integers(0, 10**400))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(constant, constant, constant, constant, constant)
def test_constructs_or_raises_value_error(e, B, c, hbar, m):
    try:
        units = PhysicalUnits(e=e, B=B, c=c, hbar=hbar, m=m)
    except ValueError:
        return
    assert all(type(getattr(units, name)) is float for name in ("e", "B", "c", "hbar", "m"))
    assert 0 < level_spacing(units) < math.inf


def test_accepts_subnormal_level_spacing():
    assert 0 < level_spacing(PhysicalUnits(B=1e-310)) < sys.float_info.min


def test_accepts_smallest_normal_magnetic_length():
    assert magnetic_length_squared(PhysicalUnits(hbar=sys.float_info.min)) == sys.float_info.min


def test_scale_identities_random_units():
    # ell^2 * eB = hbar*c and ell^2 * omega * m = hbar for any valid constants
    rng = np.random.default_rng(7)
    for _ in range(50):
        e, B, c, hbar, m = np.exp(rng.uniform(-3, 3, size=5))
        u = PhysicalUnits(e=e, B=B, c=c, hbar=hbar, m=m)
        ell2 = magnetic_length_squared(u)
        assert ell2 * (e * B) == pytest.approx(hbar * c, rel=1e-15)
        assert ell2 * cyclotron_frequency(u) * m == pytest.approx(hbar, rel=1e-15)
        assert level_spacing(u) == pytest.approx(hbar * e * B / (m * c), rel=1e-15)
