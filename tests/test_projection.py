import ast
import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclandau import cli, fock, projection
from nclandau.fock import BasisIndex, Cutoffs, OperatorMatrix, commutator, dagger, flatten
from nclandau.ladder import build_alpha, build_mode_xy, build_xy
from nclandau.landau_gauge import KGrid, convergence_study, projected_commutator_landau
from nclandau.projection import (
    analyze_factors,
    full_space_scan,
    project,
    projected_commutator_xy,
    projector,
    sweep,
)
from nclandau.spectrum import verify_spectrum
from nclandau.units import NATURAL, PhysicalUnits

from dense import dense_route_report, identity

DUMP_OPS = ("a", "b", "alpha", "x", "y", "px", "py", "H", "L", "xy-commutator", "projector")
NON_NATURAL = PhysicalUnits(e=1.5, B=0.7, c=1.3, hbar=0.6, m=2)
THREE_UNITS = (NATURAL, NON_NATURAL, PhysicalUnits(e=0.37, B=3.1, c=2.9, hbar=1.7))


# Units whose ell^2 lies near either end of the float range, for the dense oracle to build x and y in.
EXTREME_UNITS = [
    PhysicalUnits(hbar=1e306), PhysicalUnits(B=1e-300), PhysicalUnits(hbar=1e-300, m=1e-10),
    PhysicalUnits(hbar=sys.float_info.min), PhysicalUnits(e=1e-150, c=1e150), NON_NATURAL,
]
EPS = np.finfo(float).eps


def mode_commutators(cutoffs):
    """[x_a, y_a] on the J+1 orbits and [x_b, y_b] on the N+1 levels, at ell = 1."""
    return [commutator(*pieces) for pieces in build_mode_xy(cutoffs)]


def sweep_factors(monkeypatch, cutoffs):
    """The (on_a, on_b, top) that sweep hands to the scoring function."""
    seen = []
    analyze = projection.analyze_factors
    monkeypatch.setattr(projection, "analyze_factors", lambda *a: seen.append(a) or analyze(*a))
    sweep(cutoffs)
    return seen[0][:3]


def bumped(op, k, row, size=1e-6):
    """``op`` plus ``size`` at (row, row+k)."""
    bump = np.zeros(op.dim, complex)
    bump[row] = size
    return op + OperatorMatrix(diagonals={k: bump}, dim=op.dim)


class TestProjector:
    def test_keep_everything_is_identity(self):
        c = Cutoffs(2, 3)
        assert np.array_equal(projector(c, 2).entries, np.eye(c.dim))

    def test_keep_lowest(self):
        assert np.array_equal(projector(Cutoffs(1, 0), 0).entries, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_idempotent_and_hermitian(self, keep):
        p = projector(Cutoffs(2, 2), keep)
        assert np.array_equal(p.entries @ p.entries, p.entries)
        assert np.array_equal(dagger(p).entries, p.entries)

    def test_keep_out_of_range(self):
        with pytest.raises(ValueError, match="keep"):
            projector(Cutoffs(2, 2), 3)
        with pytest.raises(ValueError, match="keep"):
            projector(Cutoffs(2, 2), -1)


class TestProject:
    def test_identity_projector_is_noop(self):
        c = Cutoffs(1, 2)
        x, _ = build_xy(c)
        full = projector(c, 1)
        assert np.array_equal(project(x, full).entries, x.entries)

    def test_projecting_identity_gives_projector(self):
        c = Cutoffs(1, 2)
        p = projector(c, 0)
        eye = identity(c.dim)
        assert np.array_equal(project(eye, p).entries, p.entries)

    def test_discarded_rows_and_columns_vanish(self):
        c = Cutoffs(1, 2)
        x, _ = build_xy(c)
        cut = project(x, projector(c, 0)).entries
        dropped = [flatten(BasisIndex(1, j), c) for j in range(3)]
        assert np.all(cut[dropped, :] == 0)
        assert np.all(cut[:, dropped] == 0)


class TestProjectedCommutator:
    def test_lowest_level(self):
        report = projected_commutator_xy(Cutoffs(1, 3), keep=0)
        assert report.top_coefficient == pytest.approx(-1j, abs=1e-12)
        assert report.max_offtop_residual <= 1e-12
        assert report.top_uniform and report.ok

    def test_two_levels_diagonal(self):
        # kept-block level diagonal is (0, -2i): only the top level reacts
        c = Cutoffs(1, 3)
        x, y = build_xy(c)
        p = projector(c, 1)
        cm = commutator(project(x, p), project(y, p)).entries
        for j in range(3):
            assert abs(cm[flatten(BasisIndex(0, j), c), flatten(BasisIndex(0, j), c)]) <= 1e-12
            top = cm[flatten(BasisIndex(1, j), c), flatten(BasisIndex(1, j), c)]
            assert top == pytest.approx(-2j, abs=1e-12)
        report = projected_commutator_xy(c, keep=1)
        assert report.top_coefficient == pytest.approx(-2j, abs=1e-12)

    def test_memory_grows_with_the_levels_and_orbits_not_their_product(self):
        # keep = J = 16383, the cap: the (keep, J) sums of the level and orbit diagonals would take 4 GiB;
        # the scorer holds O(keep + J)
        tracemalloc.start()
        try:
            report = projected_commutator_xy(Cutoffs(16383, 16383), 16383)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.top_coefficient == pytest.approx(-16384j, abs=1e-9)
        assert peak < 16 * 2**20

    def test_six_levels(self):
        report = projected_commutator_xy(Cutoffs(5, 8), keep=5)
        assert report.top_coefficient == pytest.approx(-6j, abs=1e-12)
        assert report.ok

    @pytest.mark.parametrize("keep", [0, 1, 3])
    def test_kept_block_is_x_and_y_built_on_the_kept_levels(self, keep):
        # x and y are corner cuts, so the kept block needs no slice of the full basis
        size = (keep + 1) * 5
        full, kept = build_xy(Cutoffs(3, 4)), build_xy(Cutoffs(keep, 4))
        for big, small in zip(full, kept):
            assert np.array_equal(big.entries[:size, :size], small.entries)

    def test_requires_degeneracy_interior(self):
        with pytest.raises(ValueError, match="degeneracy"):
            projected_commutator_xy(Cutoffs(2, 0), keep=1)

    @pytest.mark.parametrize("N,J,keep", [(4000, 2, 4000), (8191, 1, 8191), (1, 8191, 1)])
    def test_large_cutoffs_pass_within_rounding(self, N, J, keep):
        # residuals of a few 1e-12 here are rounding of entries of
        # size keep+J, not a failed projection
        report = projected_commutator_xy(Cutoffs(N, J), keep)
        assert report.ok and report.top_uniform
        assert report.max_offtop_residual <= 1e-14 * (keep + J + 2)

    @pytest.mark.parametrize("keep", [-1, 3])
    def test_keep_out_of_range(self, keep):
        with pytest.raises(ValueError, match="keep"):
            projected_commutator_xy(Cutoffs(2, 2), keep=keep)

    @pytest.mark.parametrize("keep,J", [(0, 2), (1, 3), (2, 2), (3, 5)])
    def test_only_top_diagonal_survives(self, keep, J):
        # every interior element vanishes unless n=n'=keep and j=j'
        c = Cutoffs(keep + 1, J)
        x, y = build_xy(c)
        p = projector(c, keep)
        cm = commutator(project(x, p), project(y, p)).entries
        for n1 in range(keep + 1):
            for j1 in range(J):
                for n2 in range(keep + 1):
                    for j2 in range(J):
                        row = flatten(BasisIndex(n1, j1), c)
                        col = flatten(BasisIndex(n2, j2), c)
                        if n1 == n2 == keep and j1 == j2:
                            assert cm[row, col] == pytest.approx(-1j * (keep + 1), abs=1e-12)
                        else:
                            assert abs(cm[row, col]) <= 1e-12

    def test_matches_corner_truncated_alpha_route(self):
        # same block via -i ell^2 [alpha_T, alpha_T+] on the kept cutoffs
        keep, N, J = 2, 4, 5
        big = Cutoffs(N, J)
        x, y = build_xy(big)
        p = projector(big, keep)
        block_dim = (keep + 1) * (J + 1)
        lhs = commutator(project(x, p), project(y, p)).entries[:block_dim, :block_dim]
        alpha_t = build_alpha(Cutoffs(keep, J))
        rhs = -1j * commutator(alpha_t, dagger(alpha_t)).entries
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_boundary_artifacts_values(self):
        # degeneracy edge carries +i(J+1) ell^2 below the top level and
        # -i(keep-J) ell^2 at the corner
        keep, J = 2, 4
        report = projected_commutator_xy(Cutoffs(3, J), keep=keep)
        artifacts = dict(report.boundary_artifacts)
        for n in range(keep):
            assert artifacts[n] == pytest.approx(1j * (J + 1), abs=1e-12)
        assert artifacts[keep] == pytest.approx(-1j * (keep - J), abs=1e-12)

    def test_boundary_artifacts_are_level_value_pairs(self):
        # each artifact is the diagonal element at (n, J), named by its level n alone
        assert "BasisIndex" not in vars(projection)
        report = projected_commutator_xy(Cutoffs(1, 3), keep=1)
        assert [type(n) for n, _ in report.boundary_artifacts] == [int, int]
        assert [type(z) for _, z in report.boundary_artifacts] == [complex, complex]
        assert [n for n, _ in report.boundary_artifacts] == [0, 1]
        assert [z for _, z in report.boundary_artifacts] == pytest.approx([4j, 2j], abs=1e-12)


class TestDoctoredFactors:
    """The scorer fed single-mode commutators with one entry bumped, as an indexing bug would."""

    def test_nonuniform_top_sets_flag_not_exception(self):
        c = Cutoffs(1, 3)
        on_a, on_b = mode_commutators(c)
        assert analyze_factors(on_a, on_b, on_b, c, [1])[0].ok
        report = analyze_factors(bumped(on_a, 0, 0), on_b, on_b, c, [1])[0]
        assert not report.top_uniform
        assert not report.ok

    def test_entry_touching_j_equal_J_is_an_artifact_not_a_residual(self):
        c = Cutoffs(1, 3)
        on_a, on_b = mode_commutators(c)
        clean = analyze_factors(on_a, on_b, on_b, c, [1])[0]
        # (row, offset) of [x_a, y_a], then of [x_b, y_b]; j = 3 = J is the degeneracy edge
        for factor, row, k, counted in [("a", 2, 1, False), ("a", 3, -1, False), ("a", 1, 1, True),
                                        ("a", 3, 0, False), ("b", 0, 1, True), ("b", 1, -1, True)]:
            doctored = (bumped(on_a, k, row), on_b) if factor == "a" else (on_a, bumped(on_b, k, row))
            report = analyze_factors(*doctored, doctored[1], c, [1])[0]
            assert (report.max_offtop_residual >= 1e-6) is counted, (factor, row, k)
            assert report.ok is not counted
        moved = analyze_factors(bumped(on_a, 0, 3), on_b, on_b, c, [1])[0].boundary_artifacts
        shifts = [z - dict(clean.boundary_artifacts)[n] for n, z in moved]
        assert shifts == pytest.approx([1e-6, 1e-6], abs=1e-15)

    def test_factors_without_a_diagonal_score(self):
        c = Cutoffs(2, 3)
        on_a, _ = mode_commutators(c)
        hollow = OperatorMatrix({k: v for k, v in on_a.diagonals.items() if k != 0}, on_a.dim)
        empty = OperatorMatrix(diagonals={}, dim=3)
        for op in (hollow, OperatorMatrix(diagonals={}, dim=on_a.dim)):
            report = analyze_factors(op, empty, empty, c, [2])[0]
            assert report.top_coefficient == 0 and report.boundary_artifacts == []
            assert report.top_uniform and not report.ok
            assert analyze_factors(op, empty, empty, c, range(3))[2] == report

    def test_level_entry_counts_from_the_keep_that_holds_both_levels(self, monkeypatch):
        c = Cutoffs(3, 3)
        on_a, on_b, top = sweep_factors(monkeypatch, c)
        # levels 0 and 2: inside keep 2's block, outside keep 1's
        for k, row in [(2, 0), (-2, 2)]:
            reports = analyze_factors(on_a, bumped(on_b, k, row), top, c, range(4))
            assert [r.max_offtop_residual >= 1e-6 for r in reports] == [False, False, True, True]
            assert [r.ok for r in reports] == [True, True, False, False]

    def test_bump_on_a_top_entry_moves_the_coefficient_not_the_residual(self, monkeypatch):
        c = Cutoffs(3, 3)
        on_a, on_b, top = sweep_factors(monkeypatch, c)
        clean = analyze_factors(on_a, on_b, top, c, range(4))
        reports = analyze_factors(on_a, on_b, top + OperatorMatrix({0: [0, 0, 1e-3j, 0]}, 4), c, range(4))
        assert reports[2].top_coefficient == pytest.approx(clean[2].top_coefficient + 1e-3j, abs=1e-12)
        assert reports[2].top_uniform and not reports[2].ok
        assert [r.max_offtop_residual for r in reports] == [r.max_offtop_residual for r in clean]
        assert reports[:2] + reports[3:] == clean[:2] + clean[3:]

    def test_a_bump_on_any_level_counts_from_the_keep_above_it(self):
        # at J = 2^17, with 20 levels, a bump at level n counts from keep n+1 on, whichever level n is
        c = Cutoffs(19, 2**17)
        on_a, on_b = mode_commutators(c)
        for row in (0, 7, 8, 15, 16, 18):
            reports = analyze_factors(on_a, bumped(on_b, 0, row), on_b, c, range(20))
            assert [r.max_offtop_residual >= 1e-6 for r in reports] == [keep > row for keep in range(20)], row

    def test_residual_is_the_largest_part_of_an_entry(self, monkeypatch):
        # an interior orbit entry moved off the extremes of Im u by 3e-6 + 4e-6j: the largest |part| of its
        # sum with each kept level below the top is 4e-6, where the modulus would be 5e-6
        c = Cutoffs(3, 8)
        on_a, on_b, top = sweep_factors(monkeypatch, c)
        clean = analyze_factors(on_a, on_b, top, c, range(4))
        interior = on_a.diagonals[0][:8].imag
        row = next(j for j in range(8) if j not in (np.argmax(interior), np.argmin(interior)))
        reports = analyze_factors(bumped(on_a, 0, row, 3e-6 + 4e-6j), on_b, top, c, range(4))
        assert reports[0].max_offtop_residual == clean[0].max_offtop_residual
        assert [r.max_offtop_residual for r in reports[1:]] == pytest.approx([4e-6] * 3, abs=1e-12)
        # the same on an off-diagonal level entry, counted from keep 1 on
        reports = analyze_factors(on_a, bumped(on_b, 1, 0, 3e-6 + 4e-6j), top, c, range(4))
        assert [r.max_offtop_residual for r in reports] == pytest.approx([0, 4e-6, 4e-6, 4e-6], abs=1e-12)
        # at j = J the bump is an artifact, not a residual
        reports = analyze_factors(bumped(on_a, 0, 8, 3e-6 + 4e-6j), on_b, top, c, range(4))
        assert [r.max_offtop_residual for r in reports] == [r.max_offtop_residual for r in clean]

    def test_bump_below_the_top_level_counts_as_residual(self, monkeypatch):
        c = Cutoffs(3, 3)
        on_a, on_b, top = sweep_factors(monkeypatch, c)
        # level 1 of [x_b, y_b] is top for keep 1 (read from `top`), residual from keep 2 on
        reports = analyze_factors(on_a, bumped(on_b, 0, 1), top, c, range(4))
        assert [r.max_offtop_residual >= 1e-6 for r in reports] == [False, False, True, True]
        assert reports[1] == analyze_factors(on_a, on_b, top, c, [1])[0]


def modulus_residuals(on_a, on_b, J):
    """Each keep's residual by the modulus |v_n + u_j| of every counted entry, with u and v the diagonals of
    [x_a, y_a] and [x_b, y_b]: all keep x J sums at once, unchunked, then each off-diagonal entry."""
    u, v = (op.diagonals.get(0, np.zeros(op.dim, complex)) for op in (on_a, on_b))
    start = np.zeros(on_b.dim)
    start[0] = max([0] + [np.abs(w[: J - max(k, 0)]).max(initial=0) for k, w in on_a.diagonals.items() if k])
    start[1:] = np.abs(v[:-1, None] + u[:J]).max(axis=1)
    for k, w in on_b.diagonals.items():
        if k:
            counted = start[max(k, 0) :]
            np.maximum(counted, np.abs(w[: len(counted)]), out=counted)
    return np.maximum.accumulate(start).tolist()


class TestModulusOracle:
    """The residual is the largest |part| of a counted entry; on the route's factors, whose real parts are all
    ±0, that is the modulus, so it equals the modulus of every keep x J sum bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 300), st.integers(1, 1500))
    def test_residual_is_the_modulus_of_every_sum(self, N, J):
        factors = projection._factors(Cutoffs(N, J))
        self.assert_real_parts_are_zero(factors)
        reports = analyze_factors(*factors, Cutoffs(N, J), range(N + 1))
        assert [r.max_offtop_residual for r in reports] == modulus_residuals(*factors[:2], J)

    def test_real_parts_are_zero_at_the_cap(self):
        self.assert_real_parts_are_zero(projection._factors(Cutoffs(16383, 16383)))

    @staticmethod
    def assert_real_parts_are_zero(factors):
        # x is real and y imaginary, so every entry of [x_a, y_a], [x_b, y_b] and the top is imaginary
        for op in factors:
            for k, w in op.diagonals.items():
                assert not np.any(w.real), k


def rounding_bounds(J, keep):
    """The entry and top-coefficient bounds of the projection module docstring,
    5 eps (keep+J+2) and (13 + log2(J)/2) eps (keep+1), each with 2 eps of its
    value more for the dense oracle, which builds x and y at sqrt(ell^2 / 2):
    ell^2 rounds 1.5 eps from hbar c / eB, and the division by it 0.5 eps."""
    return (5 + 2) * EPS * (keep + J + 2), (13 + math.log2(J) / 2 + 2) * EPS * (keep + 1)


def assert_routes_agree(cutoffs, keep, units, fast=None):
    """The pure route against the dense oracle built in ``units`` and divided by ell^2."""
    if fast is None:
        fast = projected_commutator_xy(cutoffs, keep)
    oracle = dense_route_report(cutoffs, keep, units)
    entry, top = rounding_bounds(cutoffs.degeneracy_cutoff, keep)
    assert (fast.ok, fast.top_uniform) == (oracle.ok, oracle.top_uniform)
    assert abs(fast.top_coefficient - oracle.top_coefficient) <= top
    assert fast.max_offtop_residual <= entry
    assert [n for n, _ in fast.boundary_artifacts] == [n for n, _ in oracle.boundary_artifacts]
    for (_, got), (_, want) in zip(fast.boundary_artifacts, oracle.boundary_artifacts):
        assert abs(got - want) <= entry


class TestFactoredRouteMatchesDenseOracle:
    constant = st.floats(0.5, 2.0)
    units = st.builds(PhysicalUnits, e=constant, B=constant, c=constant, hbar=constant) | st.sampled_from(EXTREME_UNITS)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data(), st.integers(0, 40), st.integers(1, 60), units)
    def test_random_cutoffs_and_units(self, data, N, J, units):
        keep = data.draw(st.integers(0, N), label="keep")
        assert_routes_agree(Cutoffs(N, J), keep, units)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 6), st.integers(1, 8), st.sampled_from(THREE_UNITS))
    def test_sweep_equals_commutator_at_every_keep(self, N, J, units):
        cutoffs = Cutoffs(N, J)
        for keep, report in enumerate(sweep(cutoffs)):
            # repr writes every float exactly, signed zeros included: bit for bit
            assert repr(report) == repr(projected_commutator_xy(cutoffs, keep))
            assert_routes_agree(cutoffs, keep, units, fast=report)

    @pytest.mark.parametrize("keep", [0, 15, 30])
    def test_thirty_levels(self, keep):
        assert_routes_agree(Cutoffs(30, 30), keep, PhysicalUnits())

    def test_builds_no_dense_matrix(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(fock.OperatorMatrix, "entries", property(refuse))
        assert projected_commutator_xy(Cutoffs(60, 60), 60).ok
        assert all(report.ok for report in sweep(Cutoffs(20, 20)))
        grid = projected_commutator_landau(KGrid.centered(1024), 2)
        assert abs(grid.top_coefficient + 3j) <= 0.01 * 3
        assert convergence_study(1, [128, 256, 512])[-1].abs_error <= 0.01 * 2
        assert verify_spectrum(Cutoffs(40, 40)).ok
        for op in DUMP_OPS:
            out = tmp_path / f"{op}.json"
            argv = ["dump-matrix", "--op", op, "--N", "6", "--J", "6", "--out", str(out)]
            assert cli.main(argv + ["--keep", "3"] * (op == "projector")) == 0
            assert json.loads(out.read_text())["dim"] == 49

    def test_builds_no_operator_on_the_composite_basis(self, monkeypatch):
        dims = record_dims(monkeypatch)
        runs = [(Cutoffs(60, 60), lambda c: [projected_commutator_xy(c, keep) for keep in (0, 1, 30, 60)]),
                (Cutoffs(20, 20), sweep), (Cutoffs(10, 10), full_space_scan), (Cutoffs(30, 50), verify_spectrum),
                (Cutoffs(50, 30), verify_spectrum)]
        for cutoffs, run in runs:
            dims.clear()
            run(cutoffs)
            assert dims and max(dims) <= max(cutoffs) + 1, run

    @pytest.mark.parametrize("argv", [
        "spectrum --N 40 --J 60 --output json", "spectrum --N 60 --J 40 --hbar 2 --output csv",
        "spectrum --N 0 --J 16383 --output table", "commutator --N 60 --J 60",
        "commutator --N 3 --J 16383 --keep 0 --output json", "commutator --N 200 --J 200 --keep 150 --output csv",
        "sweep --N 20 --J 30 --output json", "sweep --N 127 --J 127 --output csv",
    ])
    def test_cli_builds_no_operator_on_the_composite_basis(self, monkeypatch, tmp_path, argv):
        # through cli.main, so config_from_args and spectrum's overflow check count too
        dims = record_dims(monkeypatch)
        args = argv.split()
        N, J = (int(args[args.index(flag) + 1]) for flag in ("--N", "--J"))
        assert cli.main(args + ["--out", str(tmp_path / "report")]) == 0
        assert dims and max(dims) <= max(N, J) + 1


def record_dims(monkeypatch) -> list:
    """The list that the dimension of every OperatorMatrix constructed from now on is appended to."""
    dims = []
    init = fock.OperatorMatrix.__init__
    monkeypatch.setattr(fock.OperatorMatrix, "__init__", lambda op, diagonals, dim: dims.append(dim) or init(
        op, diagonals, dim))
    return dims


def closed_form_diagonal(cutoffs, keep):
    """The exact kept-block diagonal of [x, y] at ell = 1.

    [x, y] = -i ell^2 ([a, a†] - [b, b†]) at every truncation, and b is cut at
    level keep, so the entry at (n, j) is -i (u_j - v_n): u_j = 1 for j < J
    and u_J = -J, v_n = 1 for n < keep and v_keep = -keep. Every entry off the
    diagonal is 0.
    """
    J = cutoffs.degeneracy_cutoff
    u, v = [1] * J + [-J], [1] * keep + [-keep]
    return np.array([complex(0.0, -(uj - vn)) for vn in v for uj in u])


def composite_bound(J, keep):
    """4 eps (keep+J+2), which holds the composite [x, y] of ``build_xy`` to the closed form."""
    return 4 * EPS * (keep + J + 2)


class TestClosedFormOracle:
    """The ladder route against its exact closed form, at the largest bases."""

    @pytest.mark.parametrize("N,J,keep", [(127, 127, 127), (127, 127, 40), (2, 5460, 2), (0, 16383, 0)])
    def test_kept_block_and_report(self, N, J, keep):
        cutoffs = Cutoffs(N, J)
        exact = closed_form_diagonal(cutoffs, keep)
        bound = composite_bound(J, keep)

        # the composite x and y (dump-matrix --op xy-commutator): as corner cuts, the kept block is x and y
        # built on levels 0..keep
        comm = commutator(*build_xy(Cutoffs(keep, J)))
        assert np.max(np.abs(comm.diagonals[0] - exact)) <= bound
        for k, values in comm.diagonals.items():
            if k != 0:
                assert np.max(np.abs(values)) <= bound, k
        self.assert_report_exact(projected_commutator_xy(cutoffs, keep), exact)

    @pytest.mark.parametrize("N,J", [(127, 127), (2, 5460)])
    def test_every_keep_of_sweep(self, N, J):
        reports = sweep(Cutoffs(N, J))
        assert [r.keep_levels for r in reports] == list(range(N + 1))
        for keep, report in enumerate(reports):
            self.assert_report_exact(report, closed_form_diagonal(Cutoffs(keep, J), keep))
            assert repr(report) == repr(projected_commutator_xy(Cutoffs(N, J), keep))

    @pytest.mark.parametrize("N,J", [(0, 16383), (2, 5460)])
    def test_top_coefficient_error_is_well_inside_its_bound(self, N, J):
        # The derived bound, not the fixed DEFAULT_TOLERANCE, at the largest J the cap admits. It is
        # tight: at keep 2 the top entry -2i q_1 alone errs by about 6 eps of the bound's 64 eps.
        for keep, report in enumerate(sweep(Cutoffs(N, J))):
            exact = closed_form_diagonal(Cutoffs(keep, J), keep)[keep * (J + 1)]
            _, top = rounding_bounds(J, keep)
            assert abs(report.top_coefficient - exact) <= top / (10 if keep < 2 else 5)
            assert repr(report) == repr(projected_commutator_xy(Cutoffs(N, J), keep))

    @staticmethod
    def assert_report_exact(report, exact):
        keep, J = report.keep_levels, report.cutoffs.degeneracy_cutoff
        # the factored report's derived bounds, or the composite's where that is tighter
        bound, top = (min(b, composite_bound(J, keep)) for b in rounding_bounds(J, keep))
        assert abs(report.top_coefficient - exact[keep * (J + 1)]) <= top
        assert report.max_offtop_residual <= bound
        edge = [(n, exact[n * (J + 1) + J]) for n in range(keep + 1)]
        want = [(n, value) for n, value in edge if value != 0]
        assert [n for n, _ in report.boundary_artifacts] == [n for n, _ in want]
        for (_, got), (_, value) in zip(report.boundary_artifacts, want):
            assert abs(got - value) <= bound


class TestFullSpaceScan:
    def test_interior_vanishes(self):
        for n, value in full_space_scan(Cutoffs(4, 4)):
            assert abs(value) <= 1e-12, f"level {n}"

    def test_single_interior_state(self):
        scan = full_space_scan(Cutoffs(1, 1))
        assert len(scan) == 1
        assert scan[0][0] == 0
        assert abs(scan[0][1]) <= 1e-12

    def test_empty_when_no_interior(self):
        assert full_space_scan(Cutoffs(0, 4)) == []
        assert full_space_scan(Cutoffs(3, 0)) == []

    def test_boundary_values(self):
        # the level edge (n = N, j < J) carries -i(N+1), the degeneracy
        # edge (n < N, j = J) +i(J+1), and the corner -i(N-J)
        N, J = 3, 4
        c = Cutoffs(N, J)
        diag = np.diag(commutator(*build_xy(c)).entries)
        for j in range(J):
            assert diag[flatten(BasisIndex(N, j), c)] == pytest.approx(-1j * (N + 1), abs=1e-12)
        for n in range(N):
            assert diag[flatten(BasisIndex(n, J), c)] == pytest.approx(1j * (J + 1), abs=1e-12)
        assert diag[flatten(BasisIndex(N, J), c)] == pytest.approx(-1j * (N - J), abs=1e-12)

    @pytest.mark.parametrize("N,J", [(1, 1), (2, 1), (1, 2), (10, 10), (16383, 1), (1, 16383)] + [
        (int(n), int(j)) for n, j in np.random.default_rng(32).integers(1, (301, 1501), size=(40, 2))])
    def test_matches_the_first_argmax_scan_bit_for_bit(self, N, J):
        # the oracle scans the N x J array: |first-argmax entry| of level n's row [x_b, y_b][n] + [x_a, y_a][j]
        (x_a, y_a), (x_b, y_b) = build_mode_xy(Cutoffs(N, J))
        u, v = commutator(x_a, y_a).diagonals[0], commutator(x_b, y_b).diagonals[0]
        rows = v[:N, None] + u[:J]
        want = [(n, abs(complex(row[np.argmax(np.abs(row))]))) for n, row in enumerate(rows)]
        got = full_space_scan(Cutoffs(N, J))
        assert [type(value) for _, value in got] == [float] * N
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    def test_holds_no_array_over_levels_and_orbits(self):
        # the N x J array of sums alone is 64 MiB here
        full_space_scan(Cutoffs(3, 3))
        tracemalloc.start()
        try:
            scan = full_space_scan(Cutoffs(2047, 2047))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scan) == 2047 and peak < 4 * 2**20

    def test_level_above_kept_set_goes_quiet(self):
        # the top level n=2 of a 3-level projection carries -3i, but the
        # same level inside a larger unprojected space carries nothing
        report = projected_commutator_xy(Cutoffs(2, 4), keep=2)
        assert report.top_coefficient == pytest.approx(-3j, abs=1e-12)
        scan = dict(full_space_scan(Cutoffs(3, 4)))
        assert abs(scan[2]) <= 1e-12


class TestSweep:
    def test_coefficient_ladder(self):
        reports = sweep(Cutoffs(3, 6))
        assert [r.keep_levels for r in reports] == [0, 1, 2, 3]
        for keep, report in enumerate(reports):
            assert report.top_coefficient == pytest.approx(-1j * (keep + 1), abs=1e-12)
            assert report.ok

    def test_single_level_space(self):
        reports = sweep(Cutoffs(0, 3))
        assert len(reports) == 1
        assert reports[0].top_coefficient == pytest.approx(-1j, abs=1e-12)

    def test_keeps_share_the_artifacts_of_their_common_levels(self):
        # each (n, J) artifact is made once: keep k lists those of levels n < k, then its own top level's
        # (about i (J - keep), so J > N puts one on every level)
        reports = sweep(Cutoffs(6, 9))
        widest = reports[-1].boundary_artifacts
        assert [n for n, _ in widest] == list(range(7))
        for keep, report in enumerate(reports):
            assert [n for n, _ in report.boundary_artifacts] == list(range(keep + 1))
            assert all(own is shared for own, shared in zip(report.boundary_artifacts[:keep], widest))

    def test_csv_sweep_holds_no_artifact_payload(self):
        # at N = 600 the JSON objects of the N^2/2 artifacts took 92 MB; csv and table print none of them
        cli.main(["sweep", "--N", "3", "--J", "1", "--out", "/dev/null"])  # the lazy engine modules load here
        tracemalloc.start()
        try:
            assert cli.main(["sweep", "--N", "600", "--J", "1", "--output", "csv", "--out", "/dev/null"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_json_sweep_encodes_each_shared_artifact_once(self, tmp_path):
        # the N^2/2 printed artifacts are 2N+1 shared tuples: each is encoded once, and its text spliced in
        # wherever it recurs (at N = 600 one JSON object and text per artifact took 198 MiB)
        cli.main(["sweep", "--N", "3", "--J", "1", "--out", "/dev/null"])  # the lazy engine modules load here
        out = tmp_path / "sweep.json"
        tracemalloc.start()
        try:
            assert cli.main(["sweep", "--N", "600", "--J", "1", "--output", "json", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 10 * 10**6
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("keep", [0, 2])
    def test_degeneracy_cutoff_independence(self, keep):
        base = projected_commutator_xy(Cutoffs(keep, keep + 3), keep)
        wide = projected_commutator_xy(Cutoffs(keep, keep + 8), keep)
        assert base.top_coefficient == pytest.approx(wide.top_coefficient, abs=1e-12)


class TestUnitFreeRoute:
    """The ladder route commutes the pieces of x and y at ell = 1 and reports pure numbers; cli scales them."""

    def test_builds_the_pieces_at_ell_1(self):
        module = ast.parse(inspect.getsource(projection))
        names = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        assert not names & {"units", "ell2", "magnetic_length_squared"}
        calls = [node for node in ast.walk(module) if isinstance(node, ast.Call)]
        builders = [call for call in calls if ast.unparse(call.func) == "build_mode_xy"]
        assert len(builders) == 1 and all(len(call.args) == 1 and not call.keywords for call in builders)
