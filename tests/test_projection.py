import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclandau import fock, projection
from nclandau.fock import BasisIndex, Cutoffs, OperatorMatrix, commutator, dagger, flatten
from nclandau.ladder import build_alpha, build_xy
from nclandau.landau_gauge import KGrid, convergence_study, projected_commutator_landau
from nclandau.projection import (
    analyze_projected_commutator,
    full_space_scan,
    project,
    projected_commutator_xy,
    projector,
    sweep,
)
from nclandau.spectrum import verify_spectrum
from nclandau.units import PhysicalUnits, magnetic_length


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
        eye = OperatorMatrix(np.eye(c.dim), basis=c)
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

    def test_six_levels(self):
        report = projected_commutator_xy(Cutoffs(5, 8), keep=5)
        assert report.top_coefficient == pytest.approx(-6j, abs=1e-12)
        assert report.ok

    def test_requires_degeneracy_interior(self):
        with pytest.raises(ValueError, match="degeneracy"):
            projected_commutator_xy(Cutoffs(2, 0), keep=1)

    @pytest.mark.parametrize("N,J,keep", [(4000, 2, 4000), (8191, 1, 8191), (1, 8191, 1)])
    def test_large_cutoffs_pass_within_rounding(self, N, J, keep):
        # residuals of a few 1e-12 ell^2 here are rounding of entries of
        # size (keep+J) ell^2, not a failed projection
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
        artifacts = {(row.n, row.j): value for row, _, value in report.boundary_artifacts}
        for n in range(keep):
            assert artifacts[(n, J)] == pytest.approx(1j * (J + 1), abs=1e-12)
        assert artifacts[(keep, J)] == pytest.approx(-1j * (keep - J), abs=1e-12)

    def test_nonuniform_top_sets_flag_not_exception(self):
        c = Cutoffs(1, 3)
        comm = commutator(*build_xy(c))
        assert analyze_projected_commutator(comm, c, 1).ok
        bump = np.zeros(c.dim)
        bump[flatten(BasisIndex(1, 0), c)] = 1e-6  # simulate an indexing bug
        report = analyze_projected_commutator(comm + OperatorMatrix(diagonals={0: bump}, dim=c.dim), c, 1)
        assert not report.top_uniform
        assert not report.ok

    def test_residual_reads_only_interior_pairs(self):
        # an element touching j = J is a boundary artifact, not a residual
        c = Cutoffs(1, 3)
        comm = commutator(*build_xy(c))
        for row, k, counted in [((0, 2), 1, False), ((0, 3), 1, False), ((0, 1), 1, True),
                                ((0, 0), 4, True), ((0, 2), 5, False)]:
            bump = np.zeros(c.dim)
            bump[flatten(BasisIndex(*row), c)] = 1e-6
            report = analyze_projected_commutator(comm + OperatorMatrix(diagonals={k: bump}, dim=c.dim), c, 1)
            assert (report.max_offtop_residual >= 1e-6) is counted, (row, k)
            assert report.ok is not counted


def dense_route_report(cutoffs, keep, units):
    """The dense oracle: P x P and P y P commuted as full numpy matrices, with
    the kept block fed through the production analysis."""
    x, y = (op.entries for op in build_xy(cutoffs, units))
    size = (keep + 1) * cutoffs.num_degeneracy
    p = np.diag((np.arange(cutoffs.dim) < size).astype(float))
    px, py = p @ x @ p, p @ y @ p
    block = (px @ py - py @ px)[:size, :size]
    return analyze_projected_commutator(OperatorMatrix(block), cutoffs, keep, units)


def assert_routes_agree(cutoffs, keep, units):
    fast = projected_commutator_xy(cutoffs, keep, units)
    oracle = dense_route_report(cutoffs, keep, units)
    ell2 = magnetic_length(units) ** 2
    scale = 1e-12 * (keep + 1) * ell2
    assert (fast.ok, fast.top_uniform) == (oracle.ok, oracle.top_uniform)
    assert abs(fast.top_coefficient - oracle.top_coefficient) <= scale
    assert fast.max_offtop_residual <= 1e-12 * ell2
    assert oracle.max_offtop_residual <= 1e-12 * ell2
    assert [a[:2] for a in fast.boundary_artifacts] == [a[:2] for a in oracle.boundary_artifacts]
    for (_, _, got), (_, _, want) in zip(fast.boundary_artifacts, oracle.boundary_artifacts):
        assert abs(got - want) <= scale


class TestOffsetRouteMatchesDenseOracle:
    constant = st.floats(0.5, 2.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.integers(0, 12), st.integers(1, 14), constant, constant, constant, constant)
    def test_random_cutoffs_and_units(self, data, N, J, e, B, c, hbar):
        keep = data.draw(st.integers(0, N), label="keep")
        assert_routes_agree(Cutoffs(N, J), keep, PhysicalUnits(e=e, B=B, c=c, hbar=hbar))

    @pytest.mark.parametrize("keep", [0, 15, 30])
    def test_thirty_levels(self, keep):
        assert_routes_agree(Cutoffs(30, 30), keep, PhysicalUnits())

    def test_builds_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(fock.OperatorMatrix, "entries", property(refuse))
        assert projected_commutator_xy(Cutoffs(60, 60), 60).ok
        assert all(report.ok for report in sweep(Cutoffs(20, 20)))
        grid = projected_commutator_landau(KGrid.centered(1024), 2)
        assert abs(grid.top_coefficient + 3j) <= 0.01 * 3
        assert convergence_study(1, [128, 256, 512])[-1].abs_error <= 0.01 * 2
        assert verify_spectrum(Cutoffs(40, 40)).ok


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

    def test_field_rescaling(self):
        # ell^2 = hbar c / eB, so doubling B halves every coefficient
        doubled = PhysicalUnits(B=2.0)
        for strong, weak in zip(sweep(Cutoffs(2, 4), doubled), sweep(Cutoffs(2, 4))):
            assert strong.top_coefficient == pytest.approx(0.5 * weak.top_coefficient, rel=1e-14)
            assert strong.ok

    def test_builds_x_and_y_once(self, monkeypatch):
        calls = []
        build = projection.build_xy
        monkeypatch.setattr(projection, "build_xy", lambda *args: calls.append(args) or build(*args))
        reports = sweep(Cutoffs(6, 6))
        assert len(calls) == 1
        assert reports == [projected_commutator_xy(Cutoffs(6, 6), keep) for keep in range(7)]

    @pytest.mark.parametrize("keep", [0, 2])
    def test_degeneracy_cutoff_independence(self, keep):
        base = projected_commutator_xy(Cutoffs(keep, keep + 3), keep)
        wide = projected_commutator_xy(Cutoffs(keep, keep + 8), keep)
        assert base.top_coefficient == pytest.approx(wide.top_coefficient, abs=1e-12)

    def test_physical_units_scaling_of_report(self):
        u = PhysicalUnits(e=1, B=2, c=1, hbar=1)
        reports = sweep(Cutoffs(3, 6), u)
        ell2 = magnetic_length(u) ** 2
        assert ell2 == pytest.approx(0.5, rel=1e-15)
        for keep, report in enumerate(reports):
            assert report.top_coefficient == pytest.approx(-1j * (keep + 1) * ell2, abs=1e-12)


def test_report_json_dict_shape():
    report = projected_commutator_xy(Cutoffs(1, 3), keep=1)
    payload = report.as_dict()
    assert list(payload) == [
        "N", "J", "keep", "top_coefficient", "max_offtop_residual",
        "boundary_artifacts", "ok",
    ]
    assert payload["top_coefficient"] == pytest.approx([0.0, -2.0], abs=1e-12)
    assert payload["ok"] is True
