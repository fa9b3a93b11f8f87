import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from nclandau.fock import Cutoffs, annihilation_matrix, commutator, dagger, matmul
from nclandau.ladder import (
    build_H,
    build_L,
    build_a,
    build_alpha,
    build_b,
    build_momenta,
    build_xy,
    interior_slice,
)
from nclandau.units import (NATURAL, PhysicalUnits, coordinate_scale, cyclotron_frequency, level_spacing,
                            magnetic_length_squared, momentum_scale)

from dense import identity, kron

HBAR = 1.0  # natural units throughout unless a test says otherwise


def comm(a, b):
    return a @ b - b @ a


class TestModeAssignment:
    def test_a_counts_degeneracy_quanta(self):
        a = build_a(Cutoffs(0, 1))
        assert np.array_equal(matmul(dagger(a), a).entries, np.diag([0.0, 1.0]))
        a = build_a(Cutoffs(1, 1))
        assert np.array_equal(matmul(dagger(a), a).entries, np.diag([0.0, 1.0, 0.0, 1.0]))

    def test_a_annihilates_j_zero_states(self):
        c = Cutoffs(2, 2)
        a = build_a(c).entries
        for n in range(3):
            basis_vec = np.zeros(c.dim)
            basis_vec[n * 3] = 1.0  # state (n, j=0)
            assert np.all(a @ basis_vec == 0)

    def test_b_counts_level_quanta(self):
        b = build_b(Cutoffs(1, 0))
        assert np.array_equal(matmul(dagger(b), b).entries, np.diag([0.0, 1.0]))
        b = build_b(Cutoffs(2, 0)).entries
        assert b[0, 1] == 1.0
        assert b[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_modes_commute_exactly(self):
        c = Cutoffs(2, 3)
        a, b = build_a(c), build_b(c)
        assert np.all(commutator(a, b).entries == 0)
        assert np.all(commutator(a, dagger(b)).entries == 0)

    @pytest.mark.parametrize("N,J", [(1, 1), (2, 3), (4, 2)])
    def test_mode_boundary_commutators(self, N, J):
        # [a,a+] = 1 except -J on the j=J diagonal; [b,b+] likewise in n
        c = Cutoffs(N, J)
        ca = commutator(build_a(c), dagger(build_a(c))).entries
        cb = commutator(build_b(c), dagger(build_b(c))).entries
        expect_a = np.kron(np.eye(N + 1), np.diag([1.0] * J + [-float(J)]))
        expect_b = np.kron(np.diag([1.0] * N + [-float(N)]), np.eye(J + 1))
        assert np.allclose(ca, expect_a, rtol=0, atol=1e-12)
        assert np.allclose(cb, expect_b, rtol=0, atol=1e-12)


def same_bits(got, want) -> bool:
    """Same offsets in the same order, and the same bits on each diagonal."""
    return list(got.diagonals) == list(want.diagonals) and all(
        np.array_equal(got.diagonals[k].view(np.uint64), v.view(np.uint64)) for k, v in want.diagonals.items())


class TestDirectBuilds:
    """The one-diagonal builds against the tensor products they replace.

    Offset order counts: sums keep first-appearance order, which fixes the
    summation order of every later product.
    """

    @pytest.mark.parametrize("units", [NATURAL, PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2.0)])
    @pytest.mark.parametrize("N,J", [(0, 0), (0, 3), (3, 0), (1, 1), (6, 9)])
    def test_match_the_kron_construction_bit_for_bit(self, N, J, units):
        c = Cutoffs(N, J)
        a = kron(identity(N + 1), annihilation_matrix(J + 1))
        b = kron(annihilation_matrix(N + 1), identity(J + 1))
        H = units.hbar * cyclotron_frequency(units) * (matmul(dagger(b), b) + 0.5 * identity(c.dim))
        assert same_bits(build_a(c), a)
        assert same_bits(build_b(c), b)
        assert same_bits(build_alpha(c), a + dagger(b))
        assert same_bits(build_H(c, form="ladder").scaled(level_spacing(units)), H)

    @pytest.mark.parametrize("N,J", [(0, 3), (3, 0), (6, 9)])
    def test_scaled_unit_builds_are_the_complex_products_they_replace(self, N, J):
        # scale times each part gives the complex product's bits here, signed zeros of y included: the operators
        # in units as dump-matrix scales them, and at ell = 1 as the package builds them
        c, units = Cutoffs(N, J), PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2.0)
        a, b = build_a(c), build_b(c)
        alpha, s, p = build_alpha(c), math.sqrt(magnetic_length_squared(units) / 2.0), momentum_scale(units)
        x, y = (op.scaled(s) for op in build_xy(c, 1.0))
        px, py = (op.scaled(p) for op in build_momenta(c, 1.0))
        assert same_bits(build_xy(c)[0], math.sqrt(0.5) * (alpha + dagger(alpha)))
        assert same_bits(build_momenta(c)[1], math.sqrt(0.125) * ((a + dagger(a)) - (b + dagger(b))))
        assert same_bits(x, s * (alpha + dagger(alpha)))
        assert same_bits(y, (1j * s) * (alpha - dagger(alpha)))
        assert same_bits(px, (-1j * p) * ((a - dagger(a)) + (b - dagger(b))))
        assert same_bits(py, p * ((a + dagger(a)) - (b + dagger(b))))
        assert same_bits(build_L(c).scaled(units.hbar), units.hbar * (matmul(dagger(a), a) - matmul(dagger(b), b)))

    @pytest.mark.parametrize("N,J", [(0, 0), (0, 4), (4, 0), (1, 1), (9, 9)])
    def test_default_scales_are_the_unit_builds_scaled_once(self, N, J):
        # x and y at ell = 1 are sqrt(1/2), and px and py at hbar = e = B = c = 1 sqrt(1/8), times their builds at
        # scale 1, part by part: a scale applied before the lift gives the bits of one applied after it
        c = Cutoffs(N, J)
        for build, scale in ((build_xy, math.sqrt(0.5)), (build_momenta, math.sqrt(0.125))):
            assert all(same_bits(got, op.scaled(scale)) for got, op in zip(build(c), build(c, 1.0), strict=True))


class TestAlpha:
    def test_singleton_space_is_zero(self):
        assert np.all(build_alpha(Cutoffs(0, 0)).entries == 0)

    def test_reduces_to_b_dagger_without_degeneracy(self):
        alpha = build_alpha(Cutoffs(1, 0)).entries
        assert alpha[1, 0] == 1.0
        assert np.count_nonzero(alpha) == 1

    def test_commutator_small_case_against_literal_matrices(self):
        # independent oracle: hand-written 4x4 matrices in the (n,j) order
        # (0,0),(0,1),(1,0),(1,1); a lowers j, b lowers n
        a_lit = np.array(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=complex
        )
        b_lit = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
        )
        alpha_lit = a_lit + b_lit.conj().T
        oracle = comm(alpha_lit, alpha_lit.conj().T)
        assert np.allclose(oracle, np.diag([0.0, -2.0, 2.0, 0.0]), atol=1e-15)

        alpha = build_alpha(Cutoffs(1, 1))
        got = commutator(alpha, dagger(alpha)).entries
        assert np.allclose(got, oracle, atol=1e-15)


class TestCoordinates:
    @pytest.mark.parametrize("N,J", [(1, 1), (3, 2), (2, 5)])
    def test_exact_hermiticity(self, N, J):
        x, y = build_xy(Cutoffs(N, J))
        assert np.array_equal(x.entries, x.entries.conj().T)
        assert np.array_equal(y.entries, y.entries.conj().T)

    @pytest.mark.parametrize("N,J", [(0, 0), (0, 3), (3, 0), (2, 5), (6, 4)])
    def test_offset_form_stores_the_dense_entries(self, N, J):
        # numpy oracle: alpha = a + b+ from np.kron of literal ladder matrices
        c = Cutoffs(N, J)
        lower = lambda dim: np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        alpha = np.kron(np.eye(N + 1), lower(J + 1)) + np.kron(lower(N + 1), np.eye(J + 1)).T
        scale = math.sqrt(0.5)  # sqrt(hbar c / 2 e B) at ell = 1
        x, y = build_xy(c)
        assert set(x.diagonals) <= {-J - 1, -1, 1, J + 1}
        assert np.array_equal(x.entries, scale * (alpha + alpha.T))
        assert np.allclose(y.entries, 1j * scale * (alpha - alpha.T), rtol=0, atol=1e-15)

    def test_small_case_commutator(self):
        x, y = build_xy(Cutoffs(1, 1))
        got = commutator(x, y).entries
        assert np.allclose(got, -1j * np.diag([0.0, -2.0, 2.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("N,J", [(1, 2), (3, 3), (5, 2)])
    def test_commutator_proportional_to_alpha_commutator(self, N, J):
        # [x,y] = -i ell^2 [alpha, alpha+] as exact matrices, any cutoffs; ell = 1 here
        c = Cutoffs(N, J)
        x, y = build_xy(c)
        alpha = build_alpha(c)
        lhs = commutator(x, y).entries
        rhs = -1j * commutator(alpha, dagger(alpha)).entries
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestMomenta:
    def test_hermiticity(self):
        px, py = build_momenta(Cutoffs(3, 3))
        assert np.array_equal(px.entries, px.entries.conj().T)
        assert np.array_equal(py.entries, py.entries.conj().T)

    def test_canonical_pairs_on_interior(self):
        # interior elements of [x,px], [y,py] equal i*hbar; cross pairs vanish
        c = Cutoffs(4, 4)
        x, y = build_xy(c)
        px, py = build_momenta(c)
        inner = interior_slice(c, 1)
        for lhs, rhs, target in (
            (x, px, 1j * HBAR),
            (y, py, 1j * HBAR),
            (x, py, 0.0),
            (y, px, 0.0),
        ):
            cm = commutator(lhs, rhs).entries
            for i in inner:
                for k in inner:
                    expect = target if i == k else 0.0
                    assert abs(cm[i, k] - expect) < 1e-12

    def test_interior_elements_stable_under_cutoff_growth(self):
        # the (0,0) element at N=J=4 matches the same element at N=J=8
        def corner_element(size):
            c = Cutoffs(size, size)
            x, _ = build_xy(c)
            px, _ = build_momenta(c)
            return commutator(x, px).entries[0, 0]

        assert corner_element(4) == pytest.approx(corner_element(8), abs=1e-13)
        assert corner_element(4) == pytest.approx(1j * HBAR, abs=1e-12)

    def test_physical_units_canonical_value(self):
        # x and px in units, each its unit-scale build times its scale: [x, px] = i hbar
        u = PhysicalUnits(e=2, B=3, c=4, hbar=1.5, m=2.5)
        c = Cutoffs(4, 4)
        x = build_xy(c, 1.0)[0].scaled(coordinate_scale(u))
        px = build_momenta(c, 1.0)[0].scaled(momentum_scale(u))
        assert commutator(x, px).entries[0, 0] == pytest.approx(1.5j, abs=1e-12)

    @pytest.mark.parametrize("span", [3, 300])
    def test_scale_is_exact_to_an_ulp_and_the_plain_formula_where_that_is_normal(self, span):
        # sqrt(hbar e B / 8c) within 2 eps wherever it is a normal float, whatever its products do
        normal = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
        checked = plain = 0
        for constants in 10.0 ** np.random.default_rng(span).uniform(-span, span, (3000, 5)):
            e, B, c, hbar, m = map(float, constants)
            try:
                units = PhysicalUnits(e=e, B=B, c=c, hbar=hbar, m=m)
            except ValueError:
                continue
            exact = Fraction(hbar) * Fraction(e) * Fraction(B) / (8 * Fraction(c))
            if not normal[0] <= exact <= normal[1]:
                continue
            scale, checked = momentum_scale(units), checked + 1
            assert abs(Fraction(scale) ** 2 / exact - 1) <= 4 * sys.float_info.epsilon, constants
            if all(normal[0] <= v <= normal[1] for v in (e * B, e * B * hbar, e * B * hbar / (8.0 * c))):
                plain += 1
                assert scale == math.sqrt(e * B * hbar / (8.0 * c)), constants
        assert checked > 300 and plain > (300 if span == 3 else 0)


class TestAngularMomentum:
    def test_diagonal_values(self):
        ang = build_L(Cutoffs(1, 1)).entries
        assert np.array_equal(ang, np.diag([0.0, 1.0, -1.0, 0.0]))

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_traceless_on_square_cutoffs(self, N):
        assert np.trace(build_L(Cutoffs(N, N)).entries) == 0.0

    def test_eigenvalues_single_level(self):
        vals = np.sort(np.linalg.eigvalsh(build_L(Cutoffs(0, 2)).entries))
        assert np.allclose(vals, [0.0, 1.0, 2.0], atol=1e-14)

    def test_hbar_scaling(self):
        ang = build_L(Cutoffs(1, 1)).scaled(2.0).entries  # L at hbar = 2
        assert np.array_equal(ang, np.diag([0.0, 2.0, -2.0, 0.0]))


class TestHamiltonian:
    def test_ladder_form_single_degeneracy(self):
        ham = build_H(Cutoffs(2, 0)).entries
        assert np.allclose(ham, np.diag([0.5, 1.5, 2.5]), atol=1e-14)

    def test_ladder_eigenvalues_with_multiplicity(self):
        ham = build_H(Cutoffs(2, 1)).entries
        vals = np.sort(np.linalg.eigvalsh(ham))
        assert np.allclose(vals, [0.5, 0.5, 1.5, 1.5, 2.5, 2.5], atol=1e-13)

    def test_commutes_with_angular_momentum(self):
        c = Cutoffs(3, 2)
        assert np.all(commutator(build_H(c), build_L(c)).entries == 0.0)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            build_H(Cutoffs(1, 1), form="peierls")

    def test_quadratic_form_interior_element(self):
        ham = build_H(Cutoffs(5, 5), form="quadratic")
        assert ham.entries[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "units",
        [NATURAL, PhysicalUnits(e=2, B=1.5, c=3, hbar=0.7, m=1.2)],
    )
    def test_quadratic_matches_ladder_on_interior(self, units):
        # quadratic terms shift indices by <= 2, so compare at depth 2
        c = Cutoffs(5, 5)
        lad = build_H(c, form="ladder").scaled(level_spacing(units)).entries
        quad = build_H(c, form="quadratic").scaled(level_spacing(units)).entries
        inner = interior_slice(c, 2)
        worst = max(abs(lad[i, k] - quad[i, k]) for i in inner for k in inner)
        assert worst < 1e-10

    @pytest.mark.parametrize("units", [PhysicalUnits(e=2, B=1.5, c=3, hbar=0.7, m=1.2),
                                       PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2.0)])
    def test_quadratic_form_is_hbar_omega_times_its_natural_build(self, units):
        # the physical form (px² + py²)/2m + m (eB/2mc)² (x² + y²)/2 - (eB/2mc) L, everywhere, boundary included
        c = Cutoffs(4, 5)
        s, p = (math.sqrt(units.hbar * units.c / (2 * units.e * units.B)),
                math.sqrt(units.hbar * units.e * units.B / (8 * units.c)))
        x, y = (s * op.entries for op in build_xy(c, 1.0))
        px, py = (p * op.entries for op in build_momenta(c, 1.0))
        half_omega = units.e * units.B / (2 * units.m * units.c)
        ang = units.hbar * build_L(c).entries
        physical = (px @ px + py @ py) / (2 * units.m) + units.m * half_omega**2 * (x @ x + y @ y) / 2 - half_omega * ang
        got = build_H(c, form="quadratic").scaled(level_spacing(units)).entries
        assert np.max(np.abs(got - physical)) <= 1e-14 * level_spacing(units)


def test_bundle_shares_dimension():
    c = Cutoffs(2, 3)
    ops = [build_a(c), build_b(c), build_alpha(c), *build_xy(c), *build_momenta(c),
           build_H(c), build_L(c)]
    for op in ops:
        assert op.dim == c.dim
