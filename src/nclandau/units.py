"""Physical constants and the derived magnetic scales.

Everything downstream works in whatever unit system the constants are
supplied in; the engine never converts between systems. The default is
the dimensionless choice e = B = c = hbar = m = 1, in which both the
magnetic length and the cyclotron frequency equal one and all commutator
results are pure numbers.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = [
    "PhysicalUnits",
    "NATURAL",
    "magnetic_length",
    "cyclotron_frequency",
    "level_spacing",
]


class PhysicalUnits(namedtuple("PhysicalUnits", "e B c hbar m")):
    """Charge, field strength, speed of light, hbar and mass.

    All five constants must be strictly positive numbers within the float
    range, and are stored as floats. They must be mutually consistent (same
    unit system): e*B and m*c must not underflow to 0, hbar c / (e B) must be
    at least a normal float, and hbar omega = hbar e B / (m c) must be
    positive and finite.
    """

    __slots__ = ()

    def __new__(cls, e: float = 1.0, B: float = 1.0, c: float = 1.0, hbar: float = 1.0, m: float = 1.0):
        for name, value in zip(cls._fields, (e, B, c, hbar, m)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # exact comparisons, so an int past the float range is rejected, not converted
            if not (number and 0 < value <= sys.float_info.max):
                huge = isinstance(value, int) and abs(value) > sys.float_info.max
                shown = f"an integer of {len(str(abs(value)))} digits" if huge else repr(value)
                raise ValueError(f"constant {name} must be a positive finite float, got {shown}")
        self = super().__new__(cls, float(e), float(B), float(c), float(hbar), float(m))
        for product, value in (("e*B", self.e * self.B), ("m*c", self.m * self.c)):
            if value == 0:
                raise ValueError(f"{product} underflows to 0")
        ell2 = self.hbar * self.c / (self.e * self.B)
        if not ell2 >= sys.float_info.min:
            cause = "as hbar*c and e*B both overflow" if math.isnan(ell2) else (
                "underflows below the smallest normal float")
            raise ValueError(f"hbar*c/(e*B) = {ell2!r} {cause}")
        gap = level_spacing(self)
        if not 0 < gap < math.inf:
            raise ValueError(f"hbar*e*B/(m*c) = {gap!r} {'overflows' if gap else 'underflows to 0'}")
        return self


def magnetic_length(units: PhysicalUnits) -> float:
    """Length scale ell = sqrt(hbar c / (e B)) of the planar problem.

    ell**2 is the magnitude of the coordinate commutator picked up on the
    lowest retained level.
    """
    return math.sqrt(units.hbar * units.c / (units.e * units.B))


def cyclotron_frequency(units: PhysicalUnits) -> float:
    """Angular frequency omega = e B / (m c) of the circular orbits."""
    return units.e * units.B / (units.m * units.c)


def level_spacing(units: PhysicalUnits) -> float:
    """Energy gap hbar*omega between adjacent oscillator levels."""
    return units.hbar * cyclotron_frequency(units)


NATURAL = PhysicalUnits()
