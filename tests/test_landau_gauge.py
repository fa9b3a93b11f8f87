import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval

from nclandau.fock import Cutoffs, OperatorMatrix
from nclandau.landau_gauge import (
    ConvergenceRow,
    KGrid,
    build_landau_xy,
    convergence_study,
    delta_test_profile,
    derivative_matrix,
    oscillator_p_elements,
    oscillator_x_elements,
    projected_commutator_landau,
)
from nclandau.projection import projected_commutator_xy
from nclandau.units import NATURAL, PhysicalUnits, magnetic_length


# -- independent oracles ----------------------------------------------------
# Library Hermite polynomials with explicit normalization; shares nothing
# with the package's recurrence.

def phi_poly(n, x):
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n)) / math.pi**0.25
    return hermval(x, coeff) * norm * np.exp(-x * x / 2.0)


def phi_poly_bare(n, x):
    # phi without its Gaussian, for Gauss-Hermite quadrature
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n)) / math.pi**0.25
    return hermval(x, coeff) * norm


def dphi_poly_bare(n, x):
    # phi' = (2n H_{n-1} - x H_n) * norm, Gaussian stripped
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n)) / math.pi**0.25
    coeff_n = np.zeros(n + 1)
    coeff_n[n] = 1.0
    upper = hermval(x, coeff_n)
    if n == 0:
        lower = np.zeros_like(np.asarray(x, dtype=float))
    else:
        coeff_m = np.zeros(n)
        coeff_m[n - 1] = 1.0
        lower = hermval(x, coeff_m)
    return (2.0 * n * lower - x * upper) * norm


GH_NODES, GH_WEIGHTS = hermgauss(80)


def quad_x_element(n, m):
    return float(np.sum(GH_WEIGHTS * phi_poly_bare(n, GH_NODES) * GH_NODES * phi_poly_bare(m, GH_NODES)))


def quad_p_element(n, m):
    return complex(np.sum(GH_WEIGHTS * phi_poly_bare(n, GH_NODES) * (-1j) * dphi_poly_bare(m, GH_NODES)))


def quad_overlap(n, m):
    return float(np.sum(GH_WEIGHTS * phi_poly_bare(n, GH_NODES) * phi_poly_bare(m, GH_NODES)))


class TestWavefunction:
    def test_orthonormality(self):
        for n in range(13):
            for m in range(13):
                got = quad_overlap(n, m)
                assert got == pytest.approx(1.0 if n == m else 0.0, abs=1e-10)


class TestOscillatorElements:
    def test_first_off_diagonal(self):
        x = oscillator_x_elements(1).entries
        assert x[0, 1] == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)
        assert x[1, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)

    def test_second_off_diagonal_value(self):
        assert oscillator_x_elements(2).entries[1, 2] == pytest.approx(1.0, abs=1e-15)

    def test_diagonals_vanish_by_parity(self):
        assert np.all(np.diag(oscillator_x_elements(6).entries) == 0)
        assert np.all(np.diag(oscillator_p_elements(6).entries) == 0)

    def test_p_first_entries(self):
        p = oscillator_p_elements(1).entries
        assert p[1, 0] == pytest.approx(1j / math.sqrt(2), abs=1e-15)
        assert p[0, 1] == pytest.approx(np.conj(p[1, 0]), abs=1e-15)

    def test_against_quadrature(self):
        x = oscillator_x_elements(12).entries
        p = oscillator_p_elements(12).entries
        for n in range(13):
            for m in range(13):
                assert x[n, m] == pytest.approx(quad_x_element(n, m), abs=1e-8)
                assert p[n, m] == pytest.approx(quad_p_element(n, m), abs=1e-8)

    def test_physical_units_scaling(self):
        u = PhysicalUnits(e=2, B=2, c=2, hbar=3, m=1.5)
        omega = u.e * u.B / (u.m * u.c)
        x_ratio = math.sqrt(u.hbar / (2 * u.m * omega)) / math.sqrt(0.5)
        p_ratio = math.sqrt(u.m * omega * u.hbar / 2) / math.sqrt(0.5)
        assert np.allclose(
            oscillator_x_elements(5, u).entries, x_ratio * oscillator_x_elements(5).entries
        )
        assert np.allclose(
            oscillator_p_elements(5, u).entries, p_ratio * oscillator_p_elements(5).entries
        )


class TestPlaneIntegralRoute:
    """Quadrature over the guiding-center coordinate for fixed momentum
    labels; the production matrices never touch these integrals."""

    @staticmethod
    def overlap(n, m, k, q):
        xs = np.linspace(-12.0 + min(k, q), 12.0 + max(k, q), 4001)
        return np.trapezoid(phi_poly(n, xs - k) * phi_poly(m, xs - q), xs)

    def test_x_matrix_element_structure(self):
        # <n,k|x|m,k> = k delta_nm + <n|x~|m> in natural units (c/eB = 1)
        k = 0.7
        x_osc = oscillator_x_elements(3).entries
        for n, m in [(0, 0), (0, 1), (2, 2), (1, 2), (3, 1)]:
            xs = np.linspace(-12.0 + k, 12.0 + k, 4001)
            got = np.trapezoid(phi_poly(n, xs - k) * xs * phi_poly(m, xs - k), xs)
            expected = k * (n == m) + x_osc[n, m].real
            assert got == pytest.approx(expected, abs=1e-9)

    def test_y_delta_coefficient_sign_and_value(self):
        # differentiating the overlap in the column label gives the
        # momentum term of y with a plus sign: i hbar dg/dq = +<n|p~|m>
        k, h = 0.7, 1e-4
        p_osc = oscillator_p_elements(4).entries
        for n, m in [(0, 1), (1, 0), (2, 3), (1, 1), (3, 1)]:
            dg = (self.overlap(n, m, k, k + h) - self.overlap(n, m, k, k - h)) / (2 * h)
            assert 1j * dg == pytest.approx(p_osc[n, m], abs=1e-7)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="3"):
            KGrid(size=2, k_min=0.0, dk=0.1)
        with pytest.raises(ValueError, match="spacing"):
            KGrid(size=8, k_min=0.0, dk=0.0)
        with pytest.raises(ValueError, match="half_width"):
            KGrid.centered(16, half_width=0.0)

    def test_grid_is_a_read_only_value(self):
        grid = KGrid(size=9, k_min=-2.0, dk=0.5)
        assert grid == KGrid(9, -2.0, 0.5) and hash(grid) == hash(KGrid(9, -2.0, 0.5))
        assert grid != KGrid(9, -2.0, 0.25)
        for name in ("dk", "extra"):
            with pytest.raises(AttributeError):
                setattr(grid, name, 1.0)

    @pytest.mark.parametrize("half_width", [1e-300, 3.7e-154, 1.4e154, 1e300])
    def test_rejects_spans_that_square_outside_the_normal_floats(self, half_width):
        with pytest.raises(ValueError, match="normal floats"):
            KGrid.centered(256, half_width=half_width)

    @pytest.mark.parametrize("half_width", [1e-150, 1e150])
    def test_extreme_spans_give_the_default_coefficient(self, half_width):
        # the test profile scales with the grid, so the coefficient does not depend on the span
        coefficient = projected_commutator_landau(KGrid.centered(64), 0).top_coefficient
        scaled = projected_commutator_landau(KGrid.centered(64, half_width=half_width), 0).top_coefficient
        assert scaled == pytest.approx(coefficient, rel=1e-12)

    def test_centered_range(self):
        grid = KGrid.centered(33)
        assert grid.points[0] == pytest.approx(-8.0)
        assert grid.points[-1] == pytest.approx(8.0)
        u = PhysicalUnits(B=4.0)  # ell = 1/2, scale eB*ell/c = 2
        grid = KGrid.centered(17, u)
        assert grid.points[-1] == pytest.approx(16.0)

    def test_derivative_matrix_is_second_order(self):
        grid = KGrid.centered(101)
        pts = grid.points
        f = np.exp(-(pts**2) / 9.0)
        df = derivative_matrix(grid).entries @ f
        exact = -2.0 * pts / 9.0 * f
        assert np.max(np.abs(df - exact)[2:-2]) < 1e-3

    def test_position_derivative_commutator_is_neighbor_average(self):
        # direct 1D matrix oracle: [K, D] has -1/2 on both off-diagonals
        grid = KGrid(size=9, k_min=-2.0, dk=0.5)
        K, D = np.diag(grid.points), derivative_matrix(grid).entries
        cm = K @ D - D @ K
        S = np.zeros((9, 9))
        rows = np.arange(1, 8)
        S[rows, rows + 1] = 0.5
        S[rows, rows - 1] = 0.5
        assert np.allclose(cm[2:-2], -S[2:-2], atol=1e-13)


class TestOperators:
    def test_x_is_guiding_center_diagonal(self):
        grid = KGrid.centered(16)
        x, _ = build_landau_xy(grid, 2)
        for n in range(3):
            for i in range(16):
                assert x.entries[n * 16 + i, n * 16 + i] == pytest.approx(grid.points[i])

    def test_x_exactly_hermitian(self):
        x, _ = build_landau_xy(KGrid.centered(16), 2)
        assert np.array_equal(x.entries, x.entries.conj().T)

    def test_y_stencil_entries_lowest_level(self):
        grid = KGrid.centered(16)
        _, y = build_landau_xy(grid, 0)
        for i in range(1, 15):
            assert y.entries[i, i + 1] == pytest.approx(1j / (2 * grid.dk), abs=1e-15)
            assert y.entries[i, i - 1] == pytest.approx(-1j / (2 * grid.dk), abs=1e-15)

    def test_y_hermiticity_deviation_confined_to_end_rows(self):
        M = 24
        _, y = build_landau_xy(KGrid.centered(M), 1)
        dev = y.entries - y.entries.conj().T
        ends = [0, M - 1, M, 2 * M - 1]
        dev = np.delete(np.delete(dev, ends, axis=0), ends, axis=1)
        assert np.all(dev == 0)

    def test_rejects_undersized_inputs(self):
        with pytest.raises(ValueError, match="levels"):
            build_landau_xy(KGrid.centered(16), -1)
        for size in (3, 4):
            with pytest.raises(ValueError, match="interior"):
                projected_commutator_landau(KGrid(size=size, k_min=0.0, dk=0.1), 0)


def dense_level_coefficients(grid, levels, units):
    """The dense oracle: per level, (block·f)/f on the grid interior, with
    the block cut from [x, y] formed by numpy on the dense entries."""
    x, y = (op.entries for op in build_landau_xy(grid, levels, units))
    comm = x @ y - y @ x
    M, f = grid.size, delta_test_profile(grid)
    blocks = (comm[n * M : (n + 1) * M, n * M : (n + 1) * M] for n in range(levels + 1))
    return [(block @ f)[grid.interior] / f[grid.interior] for block in blocks]


class TestCommutatorCoefficients:
    def test_lowest_level_accuracy(self):
        got = projected_commutator_landau(KGrid.centered(64), 0).top_coefficient
        assert abs(got - (-1j)) <= 0.01
        assert got.imag < 0 and abs(got.real) < 1e-12

    def test_second_order_error_decay(self):
        # halving dk (63 -> 126 intervals) cuts the deviation ~4x
        err_coarse = abs(projected_commutator_landau(KGrid.centered(64), 0).top_coefficient + 1j)
        err_fine = abs(projected_commutator_landau(KGrid.centered(127), 0).top_coefficient + 1j)
        assert 3.2 <= err_coarse / err_fine <= 4.8

    def test_field_rescaling(self):
        units = PhysicalUnits(B=2.0)
        got = projected_commutator_landau(KGrid.centered(128, units), 0, units).top_coefficient
        assert got == pytest.approx(-0.5j, abs=0.005)

    def test_two_levels(self):
        # top level within 1% of -2i, the level below within 1% of zero
        report = projected_commutator_landau(KGrid.centered(128), 1)
        assert abs(report.top_coefficient - (-2j)) <= 0.01 * 2.0
        assert report.max_offtop_residual <= 0.01 * 2.0

    def test_single_level_reduces_to_lowest_level_routine(self):
        # with one level there is one block: the whole commutator
        grid = KGrid.centered(64)
        report = projected_commutator_landau(grid, 0)
        expected = complex(np.mean(dense_level_coefficients(grid, 0, NATURAL)[0]))
        assert abs(report.top_coefficient - expected) <= 1e-12 * abs(expected)
        assert report.max_offtop_residual == 0.0

    @pytest.mark.parametrize("units", [NATURAL, PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2)])
    @pytest.mark.parametrize("M", [16, 64, 200])
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_matches_dense_block_times_profile(self, levels, M, units):
        grid = KGrid.centered(M, units)
        means = [np.mean(level) for level in dense_level_coefficients(grid, levels, units)]
        scale = (levels + 1) * magnetic_length(units) ** 2
        report = projected_commutator_landau(grid, levels, units)
        assert abs(report.top_coefficient - means[levels]) <= 1e-12 * scale
        residual = max((abs(mean) for mean in means[:levels]), default=0.0)
        assert abs(report.max_offtop_residual - residual) <= 1e-12 * scale

    def test_lower_levels_vanish_at_stencil_order(self):
        grid = KGrid.centered(128)
        report = projected_commutator_landau(grid, 2)
        assert 0 < report.max_offtop_residual < 2 * grid.dk**2

    def test_level_blocks_do_not_mix(self):
        grid = KGrid.centered(32)
        x, y = build_landau_xy(grid, 2)
        cm = x.entries @ y.entries - y.entries @ x.entries
        M = grid.size
        for n in range(3):
            for n2 in range(3):
                if n != n2:
                    block = cm[n * M : (n + 1) * M, n2 * M : (n2 + 1) * M]
                    assert np.max(np.abs(block)) < 1e-12

    def test_report_carries_grid_and_levels(self):
        grid = KGrid.centered(32)
        report = projected_commutator_landau(grid, 1)
        assert report.grid == grid
        assert report.levels == 1

    @pytest.mark.parametrize("keep", [0, 1, 2, 3, 4])
    def test_cross_gauge_agreement(self, keep):
        # same physics from two disjoint code paths
        exact = projected_commutator_xy(Cutoffs(keep, keep + 3), keep).top_coefficient
        grid_value = projected_commutator_landau(KGrid.centered(128), keep).top_coefficient
        assert abs(grid_value - exact) / abs(exact) <= 0.01


class TestConvergenceStudy:
    def test_rows_and_order_trend(self):
        rows = convergence_study(0, [32, 64, 128, 256])
        assert [r.size for r in rows] == [32, 64, 128, 256]
        assert rows[0].observed_order is None
        errors = [r.abs_error for r in rows]
        assert errors == sorted(errors, reverse=True)
        orders = [r.observed_order for r in rows[1:]]
        assert all(o is not None for o in orders)
        assert orders == sorted(orders)  # approaching 2 from below
        assert 1.8 <= orders[-1] <= 2.1

    def test_one_product_per_grid_size(self, monkeypatch):
        calls = []
        apply = OperatorMatrix.apply
        monkeypatch.setattr(OperatorMatrix, "apply", lambda op, v: calls.append(op.dim) or apply(op, v))
        convergence_study(2, [16, 32, 64])
        assert calls == [3 * 16, 3 * 32, 3 * 64]

    def test_row_serialization(self):
        row = convergence_study(1, [32])[0]
        payload = row.as_dict()
        assert list(payload) == ConvergenceRow.csv_header()
        assert payload["keep"] == 1
        assert payload["observed_order"] is None


def test_profile_is_smooth_and_positive():
    grid = KGrid.centered(64)
    f = delta_test_profile(grid)
    assert np.all(f > 0)
    assert f[0] < f[32] and f[-1] < f[32]
