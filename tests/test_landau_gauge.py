import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss, hermval

from nclandau.fock import Cutoffs, OperatorMatrix, commutator
from nclandau.landau_gauge import (
    KGrid,
    convergence_study,
    delta_test_profile,
    derivative_matrix,
    oscillator_p_elements,
    oscillator_x_elements,
    projected_commutator_landau,
)
from nclandau.projection import projected_commutator_xy
from nclandau.units import NATURAL, PhysicalUnits, magnetic_length_squared

from dense import (
    build_landau_xy,
    closed_form_level_coefficients,
    grid_mean,
    landau_level_coefficients,
    oscillator_elements,
    physical_grid,
)

NON_NATURAL = PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2)
THREE_UNITS = (NATURAL, NON_NATURAL, PhysicalUnits(e=0.37, B=3.1, c=2.9, hbar=1.7))
EPS = np.finfo(float).eps


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
        # x~ = ell x^ and (c/eB) p~ = ell p^: the mass cancels
        u = PhysicalUnits(e=2, B=2, c=2, hbar=3, m=1.5)
        ell = math.sqrt(magnetic_length_squared(u))
        x_tilde, p_tilde = oscillator_elements(5, u)
        assert np.allclose(x_tilde.entries, ell * oscillator_x_elements(5).entries)
        assert np.allclose(u.c / (u.e * u.B) * p_tilde.entries, ell * oscillator_p_elements(5).entries)


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
        for size in (2, 3, 4):
            with pytest.raises(ValueError, match="nonempty interior needs 5"):
                KGrid(size=size, k_min=0.0, dk=0.1)
        with pytest.raises(ValueError, match="spacing"):
            KGrid(size=8, k_min=0.0, dk=0.0)
        for half_width in (0.0, -1.0, math.nan):  # each spacing is 0, negative or nan
            with pytest.raises(ValueError, match="spacing"):
                KGrid.centered(16, half_width=half_width)
        for size in (-3, 0, 1, 4):  # the size is checked before the spacing it divides by
            with pytest.raises(ValueError, match="nonempty interior needs 5"):
                KGrid.centered(size)

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

    @pytest.mark.parametrize("keep", [0, 3])
    @pytest.mark.parametrize("half_width", [1e-150, 1e150])
    def test_extreme_spans_give_the_default_coefficient(self, half_width, keep):
        # the test profile scales with the grid, so the coefficient does not depend on the span;
        # nor does the rounding, since the route leaves out the cross terms that grow with it
        coefficient = projected_commutator_landau(KGrid.centered(64), keep).top_coefficient
        scaled = projected_commutator_landau(KGrid.centered(64, half_width=half_width), keep).top_coefficient
        assert scaled == pytest.approx(coefficient, rel=1e-12)

    def test_centered_range(self):
        # guiding centers at ell = 1: the grid spans ±half_width magnetic lengths in any units
        grid = KGrid.centered(33)
        assert grid.points[0] == pytest.approx(-8.0)
        assert grid.points[-1] == pytest.approx(8.0)
        assert KGrid.centered(17, 3.0).points[-1] == pytest.approx(3.0)

    def test_derivative_matrix_is_second_order(self):
        grid = KGrid.centered(101)
        pts = grid.points
        f = np.exp(-(pts**2) / 9.0)
        df = derivative_matrix(grid).entries @ f
        exact = -2.0 * pts / 9.0 * f
        assert np.max(np.abs(df - exact)[2:-2]) < 1e-3

    def test_derivative_matrix_is_the_corner_cut_central_stencil(self):
        grid = KGrid.centered(12)
        D = derivative_matrix(grid)
        assert list(D.diagonals) == [-1, 1]
        assert np.array_equal(D.entries, (np.eye(12, k=1) - np.eye(12, k=-1)) / (2 * grid.dk))

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

    def test_y_exactly_hermitian(self):
        _, y = build_landau_xy(KGrid.centered(24), 1)
        assert np.array_equal(y.entries, y.entries.conj().T)

    constant = st.floats(0.5, 2.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(5, 24), st.integers(0, 3), constant, constant, constant, constant, constant)
    def test_matches_dense_kron_construction(self, M, levels, e, B, c, hbar, m):
        units = PhysicalUnits(e=e, B=B, c=c, hbar=hbar, m=m)
        grid = KGrid.centered(M)
        k = physical_grid(grid, units)  # the momenta in units
        ratio, level_eye, grid_eye = c / (e * B), np.eye(levels + 1), np.eye(M)
        x_tilde, p_tilde = (op.entries for op in oscillator_elements(levels, units))
        want_x = ratio * np.kron(level_eye, np.diag(k.points)) + np.kron(x_tilde, grid_eye)
        want_y = 1j * hbar * np.kron(level_eye, derivative_matrix(k).entries) + ratio * np.kron(p_tilde, grid_eye)
        x, y = build_landau_xy(grid, levels, units)
        assert np.array_equal(x.entries, want_x)
        assert np.array_equal(y.entries, want_y)
        dense = want_x @ want_y - want_y @ want_x
        assert np.allclose(commutator(x, y).entries, dense, rtol=0, atol=1e-13 * np.max(np.abs(dense)))

    def test_rejects_undersized_inputs(self):
        with pytest.raises(ValueError, match="levels"):
            build_landau_xy(KGrid.centered(16), -1)
        with pytest.raises(ValueError, match="dimension"):
            projected_commutator_landau(KGrid.centered(16), -1)


def dense_level_coefficients(grid, levels, units):
    """The dense oracle: per level, (block·f)/f on the grid interior over ell^2, with
    the block cut from [x, y] formed by numpy on the dense entries in ``units``."""
    x, y = (op.entries for op in build_landau_xy(grid, levels, units))
    comm = (x @ y - y @ x) / magnetic_length_squared(units)
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

    def test_two_levels(self):
        # top level within 1% of -2i
        report = projected_commutator_landau(KGrid.centered(128), 1)
        assert abs(report.top_coefficient - (-2j)) <= 0.01 * 2.0

    def test_single_level_reduces_to_lowest_level_routine(self):
        # with one level there is one block: the whole commutator
        grid = KGrid.centered(64)
        report = projected_commutator_landau(grid, 0)
        expected = complex(np.mean(dense_level_coefficients(grid, 0, NATURAL)[0]))
        assert abs(report.top_coefficient - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("units", [NATURAL, PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2)])
    @pytest.mark.parametrize("M", [16, 64, 200])
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_matches_dense_block_times_profile(self, levels, M, units):
        # the route at ell = 1 against [x, y] built in units on the same grid laid out in units, over ell^2
        grid = KGrid.centered(M)
        means = [np.mean(level) for level in dense_level_coefficients(grid, levels, units)]
        report = projected_commutator_landau(grid, levels)
        assert abs(report.top_coefficient - means[levels]) <= 1e-12 * (levels + 1)

    def test_lower_levels_vanish_at_stencil_order(self):
        # below the top, [x̂, p̂]_nn = i cancels the grid factor up to its O(dk²) error; read on the build,
        # as the route reports only the top level
        grid = KGrid.centered(128)
        assert all(0 < abs(c) < 2 * grid.dk**2 for c in landau_level_coefficients(grid, 2)[:2])

    def test_report_holds_only_the_top_coefficient(self):
        report = projected_commutator_landau(KGrid.centered(32), 1)
        assert report._fields == ("top_coefficient",)

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

    @pytest.mark.parametrize("keep", [0, 1, 2, 3, 4])
    def test_cross_gauge_agreement(self, keep):
        # same physics from two disjoint code paths
        exact = projected_commutator_xy(Cutoffs(keep, keep + 3), keep).top_coefficient
        grid_value = projected_commutator_landau(KGrid.centered(128), keep).top_coefficient
        assert abs(grid_value - exact) / abs(exact) <= 0.01


def coefficient_bound(M, keep):
    """The module docstring's rounding bound, 7 eps (M + keep + 13), plus eps (keep + 6) for the closed
    form's own rounding: the route's top coefficient is within it of -i(keep + c(M))."""
    return EPS * (7 * (M + keep + 13) + keep + 6)


def build_bound(M, keep):
    """[x, y] built in units on the whole basis, over ell^2, keeps the cross terms the route leaves out,
    whose rounding grows with the half-width and its inverse. At the half-widths drawn here (3 and 8)
    each of its levels is held to 40 eps (M + keep + 2) of the closed form; the largest miss measured is
    0.35 eps (M + keep + 2)."""
    return 40 * EPS * (M + keep + 2)


def assert_route_matches_built_commutator(grid, keep, units, margin=1.0):
    # every level of the build is the one grid mean plus [x̂, p̂]_nn: the fact the route's single mean rests on
    closed_form = closed_form_level_coefficients(grid.size, keep)
    for built, exact in zip(landau_level_coefficients(grid, keep, units), closed_form, strict=True):
        assert abs(built - exact) <= build_bound(grid.size, keep) / margin
    route = projected_commutator_landau(grid, keep).top_coefficient
    assert abs(route - closed_form[keep]) <= coefficient_bound(grid.size, keep) / margin


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda power: 10.0**power)


@st.composite
def keep_and_sizes(draw):
    """A kept level and one to three grid sizes, each admitted with it: (keep + 1) * M <= 16384."""
    keep = draw(st.integers(0, 63))
    return keep, draw(st.lists(st.integers(5, 16384 // (keep + 1)), min_size=1, max_size=3))


def assert_study_is_the_closed_form(rows, keep):
    bounds = [coefficient_bound(row.size, keep) for row in rows]
    errors = [abs(1.0 - grid_mean(row.size)) for row in rows]
    for row, bound, error in zip(rows, bounds, errors):
        assert abs(row.coefficient - closed_form_level_coefficients(row.size, keep)[keep]) <= bound
        assert abs(row.abs_error - error) <= bound
    for i in range(1, len(rows)):
        prev, row = rows[i - 1], rows[i]
        if prev.dk == row.dk:
            assert row.observed_order is None
            continue
        # each error is off by at most its bound, so the log of their ratio by at most this much
        log_slack = -math.log1p(-bounds[i - 1] / errors[i - 1]) - math.log1p(-bounds[i] / errors[i])
        order = math.log(errors[i - 1] / errors[i]) / math.log(prev.dk / row.dk)
        assert abs(row.observed_order - order) <= log_slack / abs(math.log(prev.dk / row.dk))


class TestRouteAgainstBuiltCommutator:
    """The route and every level of [x, y] built on the whole (levels+1)*M basis by kron, against the closed form."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 7), st.integers(5, 300), st.sampled_from(THREE_UNITS), st.sampled_from([3.0, 8.0]))
    def test_every_level_within_the_rounding_bound(self, keep, M, units, half_width):
        assert_route_matches_built_commutator(KGrid.centered(M, half_width), keep, units)

    @pytest.mark.parametrize("keep,M", [(0, 16384), (63, 256)])
    def test_ten_times_under_the_bound_at_the_cap(self, keep, M):
        assert (keep + 1) * M == 16384
        assert_route_matches_built_commutator(KGrid.centered(M), keep, NON_NATURAL, margin=10)


class TestUnitFreeRoute:
    """Every term of [x, y] is ell^2 times a pure number; the route reports the pure numbers, at ell = 1."""

    def test_builds_its_factors_at_ell_1(self):
        route = ast.parse(inspect.getsource(projected_commutator_landau)).body[0]
        calls = [node for node in ast.walk(route) if isinstance(node, ast.Call)]
        assert not {node.id for node in ast.walk(route) if isinstance(node, ast.Name)} & {"units", "ell2"}
        builders = [call for call in calls if ast.unparse(call.func).startswith("oscillator_")]
        assert len(builders) == 2 and all(len(call.args) == 1 and not call.keywords for call in builders)
        # the grid factor acts on the 1-D profile, with no transpose round trip over the levels
        assert not any(isinstance(node, ast.Attribute) and node.attr == "T" for node in ast.walk(route))
        # nor is the profile tiled over the levels
        assert not any(ast.unparse(call.func).endswith("tile") for call in calls)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(keep_and_sizes(), log_uniform(1e-30, 1e30))
    def test_k_range_moves_only_dk(self, keep_sizes, half_width):
        # the profile's width is a fixed fraction of the span, so the coefficient depends on M alone
        # (tests/dense.py::grid_mean); the rounding of the grid points still moves its last bits. Over 20000
        # draws at keep 0 they moved by at most 4 eps, each side within 3 eps of the closed form.
        keep, sizes = keep_sizes
        default = convergence_study(keep, sizes)
        for row, default_row in zip(convergence_study(keep, sizes, half_width), default, strict=True):
            assert row.dk == KGrid.centered(row.size, half_width).dk
            assert abs(row.coefficient - default_row.coefficient) <= 8 * EPS * (keep + 1)


class TestConvergenceStudy:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(keep_and_sizes(), st.sampled_from([3.0, 8.0]))
    @example((0, [16384]), 8.0)
    @example((0, [8191, 16384]), 3.0)
    @example((63, [128, 256]), 8.0)
    def test_every_row_is_the_closed_form(self, keep_sizes, half_width):
        # up to the largest admitted grid, where the dense build cannot go
        keep, sizes = keep_sizes
        assert_study_is_the_closed_form(convergence_study(keep, sizes, half_width), keep)

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

    def test_builds_no_operator_above_its_factors(self, monkeypatch):
        # the route applies the level and grid factors; nothing of dimension (levels+1)*M
        dims = []
        init = OperatorMatrix.__init__

        def recording_init(op, *args, **kwargs):
            init(op, *args, **kwargs)
            dims.append(op.dim)

        monkeypatch.setattr(OperatorMatrix, "__init__", recording_init)
        convergence_study(2, [16, 32, 64])
        assert dims and set(dims) <= {3, 16, 32, 64}

    def test_route_memory_grows_with_levels_plus_grid_size(self):
        # one grid mean and one level diagonal: no array holds an entry per level and grid point
        grid, keep = KGrid.centered(256), 63
        projected_commutator_landau(grid, keep)  # first call's one-time allocations
        tracemalloc.start()
        try:
            projected_commutator_landau(grid, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 16 * (grid.size + keep + 1)


def test_profile_is_smooth_and_positive():
    grid = KGrid.centered(64)
    f = delta_test_profile(grid)
    assert np.all(f > 0)
    assert f[0] < f[32] and f[-1] < f[32]
