import random

import numpy as np
import pytest

from nclandau.fock import Cutoffs
from nclandau.ladder import build_H, build_xy
from nclandau.spectrum import verify_spectrum
from nclandau.units import PhysicalUnits, level_spacing

from dense import composite_spectrum

# Cutoffs up to the largest composite basis a spectrum may print, and five unit systems with
# constants drawn log-uniformly over 10^-3..10^3 from a fixed seed.
SPECTRUM_CUTOFFS = [(0, 0), (3, 5), (12, 7), (127, 127), (63, 255), (0, 16383), (16383, 0)]
_draw = random.Random(27)
RANDOM_UNITS = [PhysicalUnits(**{name: 10 ** _draw.uniform(-3, 3) for name in ("e", "B", "c", "hbar", "m")})
                for _ in range(5)]


class TestHermitianEigenvalues:
    def test_commutator_over_minus_i_is_hermitian(self):
        # [x,y] is anti-Hermitian, so [x,y]/(-i) has a real spectrum
        x, y = (op.entries for op in build_xy(Cutoffs(1, 2)))
        herm = (x @ y - y @ x) / -1j
        assert np.max(np.abs(herm - herm.conj().T)) <= 1e-10
        vals = np.linalg.eigvalsh(herm)
        raw = np.linalg.eigvals(herm)  # independent solver route
        assert np.max(np.abs(raw.imag)) < 1e-12
        assert np.allclose(vals, np.sort(raw.real), atol=1e-12)


class TestVerifySpectrum:
    def test_single_degeneracy_levels(self):
        report = verify_spectrum(Cutoffs(3, 0))
        assert np.allclose(report.eigenvalues, [0.5, 1.5, 2.5, 3.5], atol=1e-13)
        assert report.degeneracy_table == {0: 1, 1: 1, 2: 1, 3: 1}
        assert report.max_abs_error <= 1e-12
        assert report.ok

    def test_single_level_multiplicity(self):
        report = verify_spectrum(Cutoffs(0, 4))
        assert np.allclose(report.eigenvalues, [0.5] * 5, atol=1e-13)
        assert report.degeneracy_table == {0: 5}

    def test_doubling_field_doubles_spacing(self):
        report = verify_spectrum(Cutoffs(3, 0), PhysicalUnits(B=2.0))
        assert np.allclose(report.eigenvalues, [1.0, 3.0, 5.0, 7.0], atol=1e-13)
        assert report.ok

    def test_adjacent_level_gap(self):
        u = PhysicalUnits(e=2, B=3, c=4, hbar=1.5, m=0.5)
        report = verify_spectrum(Cutoffs(4, 2), u)
        distinct = sorted(set(round(v, 9) for v in report.eigenvalues))
        gaps = np.diff(distinct)
        assert np.allclose(gaps, u.hbar * u.e * u.B / (u.m * u.c), rtol=1e-12)

    @pytest.mark.parametrize("N,J", [(0, 0), (3, 5), (12, 7), (25, 25)])
    @pytest.mark.parametrize("units", [PhysicalUnits(), PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2)])
    def test_sorted_diagonal_matches_dense_eigensolver(self, N, J, units):
        dense = build_H(Cutoffs(N, J)).scaled(level_spacing(units)).entries
        report = verify_spectrum(Cutoffs(N, J), units)
        assert np.allclose(report.eigenvalues, np.linalg.eigvalsh(dense), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("N,J", SPECTRUM_CUTOFFS)
    @pytest.mark.parametrize("units", RANDOM_UNITS, ids=[f"units{i}" for i in range(len(RANDOM_UNITS))])
    def test_level_mode_spectrum_is_the_composite_sort_bit_for_bit(self, N, J, units):
        eigenvalues = np.array(verify_spectrum(Cutoffs(N, J), units).eigenvalues)
        assert eigenvalues.tobytes() == composite_spectrum(Cutoffs(N, J), units).tobytes()

    def test_report_leaves_the_cutoffs_to_the_caller(self):
        assert "cutoffs" not in verify_spectrum(Cutoffs(1, 1))._fields

    def test_hl_commute_flag(self):
        assert verify_spectrum(Cutoffs(4, 3)).hl_commutes
