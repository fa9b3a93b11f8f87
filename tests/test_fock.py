import json

import numpy as np
import pytest

from nclandau.fock import (
    BasisIndex,
    Cutoffs,
    OperatorMatrix,
    annihilation_matrix,
    commutator,
    dagger,
    flatten,
    matmul,
    to_json_dict,
)
from nclandau.serialize import dumps

from dense import dense_operator, identity, kron


def random_operator(rng, dim):
    data = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return dense_operator(data)


class TestIndexing:
    def test_flatten_examples(self):
        assert flatten(BasisIndex(0, 0), Cutoffs(3, 3)) == 0
        assert flatten(BasisIndex(1, 0), Cutoffs(2, 2)) == 3  # row-major by n
        assert flatten(BasisIndex(2, 1), Cutoffs(2, 3)) == 9  # 2*4+1

    @pytest.mark.parametrize("N,J", [(0, 0), (0, 3), (3, 0), (2, 4), (5, 5)])
    def test_flatten_unflatten_roundtrip(self, N, J):
        c = Cutoffs(N, J)
        seen = set()
        for n in range(N + 1):
            for j in range(J + 1):
                pos = flatten(BasisIndex(n, j), c)
                assert 0 <= pos < c.dim
                assert divmod(pos, c.num_degeneracy) == (n, j)
                seen.add(pos)
        assert seen == set(range(c.dim))

    def test_flatten_names_offending_component(self):
        c = Cutoffs(2, 3)
        with pytest.raises(ValueError, match="n=5"):
            flatten(BasisIndex(5, 0), c)
        with pytest.raises(ValueError, match="j=4"):
            flatten(BasisIndex(0, 4), c)

    def test_cutoffs_validation(self):
        with pytest.raises(ValueError):
            Cutoffs(-1, 0)
        with pytest.raises(ValueError):
            Cutoffs(0, -2)
        with pytest.raises(ValueError, match="nonnegative integer"):
            Cutoffs(2.0, 1)
        # a plain value: the size a command may hold is the CLI's check (tests/test_cli.py)
        assert Cutoffs(200, 200).dim == 40401

    def test_cutoffs_are_read_only_values(self):
        c = Cutoffs(landau_cutoff=2, degeneracy_cutoff=3)
        assert c == Cutoffs(2, 3) and hash(c) == hash(Cutoffs(2, 3)) and c != Cutoffs(3, 2)
        assert repr(c) == "Cutoffs(landau_cutoff=2, degeneracy_cutoff=3)"
        for name in ("landau_cutoff", "extra"):
            with pytest.raises(AttributeError):
                setattr(c, name, 1)


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            dense_operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dense_operator(bad)

    def test_stores_the_nonzero_diagonals_of_dense_input(self):
        rng = np.random.default_rng(10)
        dense = np.triu(rng.standard_normal((5, 5)), -1) * (1 + 1j)
        dense[np.arange(3), np.arange(2, 5)] = 0.0
        op = dense_operator(dense)
        assert sorted(op.diagonals) == [-1, 0, 1, 3, 4]
        assert np.array_equal(op.entries, dense)

    def test_entries_are_read_only(self):
        op = identity(3)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(identity(2), identity(3))
        with pytest.raises(ValueError, match="mismatch"):
            commutator(identity(2), identity(3))

    @pytest.mark.parametrize("dim", [0, -1, True, 2.5])
    def test_rejects_dimension_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="positive integer"):
            OperatorMatrix(diagonals={}, dim=dim)

    @pytest.mark.parametrize("build", [identity, annihilation_matrix])
    @pytest.mark.parametrize("dim", [0, -1, True])
    def test_builders_reject_dimension_that_is_not_a_positive_integer(self, build, dim):
        with pytest.raises(ValueError, match="positive integer"):
            build(dim)


class TestAnnihilation:
    def test_dim_one_is_zero(self):
        assert np.all(annihilation_matrix(1).entries == 0)

    def test_dim_three_entries(self):
        a = annihilation_matrix(3).entries
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(np.sqrt(2), abs=1e-15)
        assert np.count_nonzero(a) == 2

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_truncated_boundary_identity(self, dim):
        # [a, a+] = diag(1, ..., 1, -(dim-1)) up to rounding of sqrt products
        a = annihilation_matrix(dim)
        expected = np.diag([1.0] * (dim - 1) + [-(dim - 1.0)])
        assert np.allclose(commutator(a, dagger(a)).entries, expected, rtol=0, atol=1e-12)

    def test_number_operator(self):
        a = annihilation_matrix(3)
        assert np.allclose(
            matmul(dagger(a), a).entries, np.diag([0.0, 1.0, 2.0]), rtol=0, atol=1e-12
        )

    def test_double_lowering(self):
        a = annihilation_matrix(3)
        assert matmul(a, a).entries[0, 2] == pytest.approx(np.sqrt(2), abs=1e-15)


class TestAlgebra:
    def test_dagger_identity(self):
        assert np.array_equal(dagger(identity(4)).entries, np.eye(4))

    def test_dagger_involution(self):
        rng = np.random.default_rng(11)
        op = random_operator(rng, 5)
        assert np.array_equal(dagger(dagger(op)).entries, op.entries)

    def test_dagger_of_annihilation(self):
        assert dagger(annihilation_matrix(3)).entries[1, 0] == 1.0

    def test_dagger_antihomomorphism(self):
        rng = np.random.default_rng(12)
        a, b = random_operator(rng, 6), random_operator(rng, 6)
        lhs = dagger(matmul(a, b)).entries
        rhs = (a.entries @ b.entries).conj().T
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_matmul_identity(self):
        rng = np.random.default_rng(13)
        op = random_operator(rng, 4)
        assert np.array_equal(matmul(op, identity(4)).entries, op.entries)

    def test_commutator_with_self_vanishes(self):
        rng = np.random.default_rng(14)
        op = random_operator(rng, 5)
        assert np.allclose(commutator(op, op).entries, 0.0, atol=1e-13)

    def test_diagonal_matrices_commute(self):
        d1 = dense_operator(np.diag([1.0, 2.0]))
        d2 = dense_operator(np.diag([3.0, 4.0]))
        assert np.array_equal(commutator(d1, d2).entries, np.zeros((2, 2)))


class TestKron:
    def test_identity_factors(self):
        assert np.array_equal(kron(identity(2), identity(3)).entries, np.eye(6))

    def test_flatten_order(self):
        # level factor outer: diag(0,1) x I2 spreads over the n blocks
        lvl = dense_operator(np.diag([0.0, 1.0]))
        out = kron(lvl, identity(2))
        assert np.array_equal(out.entries, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(15)
        a, b, c, d = (random_operator(rng, 2) for _ in range(4))
        lhs = matmul(kron(a, b), kron(c, d)).entries
        rhs = np.kron(a.entries @ c.entries, b.entries @ d.entries)
        assert np.allclose(lhs, rhs, atol=1e-13)

    @pytest.mark.parametrize("outer,inner", [([0, 1], [-3, 1, 3]), ([-1, 0], [-3, -1, 3]), ([-2, 0, 1], [-3, -1, 2, 3])])
    def test_colliding_flat_offsets(self, outer, inner):
        # 3 (x) 4: outer offset ka and inner offset kb land on 4*ka + kb, so
        # (1, -3) and (0, 1), or (0, 3) and (1, -1), share a flat diagonal
        rng = np.random.default_rng(len(outer) + len(inner))
        a, b = random_offsets(rng, 3, outer), random_offsets(rng, 4, inner)
        assert np.array_equal(kron(a, b).entries, np.kron(a.entries, b.entries))


def random_offsets(rng, dim, offsets):
    """Random complex diagonals, with junk where i+k leaves the basis."""
    diagonals = {k: rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for k in offsets}
    return OperatorMatrix(diagonals=diagonals, dim=dim)


class TestOffsetOperator:
    """The diagonal storage against numpy on the dense entries."""

    @pytest.mark.parametrize("dim,offsets", [(1, [0]), (3, [-2, 1]), (7, [-3, -1, 0, 1, 3]), (12, [-4, 2, 5])])
    def test_algebra_matches_dense(self, dim, offsets):
        rng = np.random.default_rng(dim)
        a = random_offsets(rng, dim, offsets)
        b = random_offsets(rng, dim, [0, 1, -dim + 1] if dim > 1 else [0])
        da, db = a.entries, b.entries
        vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert np.allclose((a @ b).entries, da @ db, atol=1e-13)
        assert np.allclose(commutator(a, b).entries, da @ db - db @ da, atol=1e-13)
        assert np.array_equal((a + b).entries, da + db)
        assert np.array_equal((a - b).entries, da - db)
        assert np.array_equal((2j * a).entries, 2j * da)
        assert np.array_equal((-a).entries, -da)
        assert np.array_equal(dagger(a).entries, da.conj().T)
        assert np.allclose(a.apply(vector), da @ vector, atol=1e-13)

    def test_product_drops_offsets_outside_the_basis(self):
        a = random_offsets(np.random.default_rng(1), 3, [2])
        assert set((a @ a).diagonals) == set()
        flipped = OperatorMatrix(diagonals={-2: a.diagonals[2][::-1]}, dim=3)
        assert set((a @ flipped).diagonals) == {0}

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            OperatorMatrix(diagonals={0: np.array([1.0, np.nan])}, dim=2)
        # inf * 0 in the unused slot is the NaN the check must catch.
        with pytest.raises(ValueError, match="non-finite"), pytest.warns(RuntimeWarning):
            np.inf * OperatorMatrix(diagonals={1: np.array([1.0, 2.0])}, dim=2)

    def test_rejects_offsets_outside_the_basis(self):
        with pytest.raises(ValueError, match="does not fit"):
            OperatorMatrix(diagonals={2: np.ones(2)}, dim=2)
        with pytest.raises(ValueError, match="does not fit"):
            OperatorMatrix(diagonals={0: np.ones(3)}, dim=2)


class TestSerialization:
    def test_schema(self):
        payload = json.loads(dumps(to_json_dict(annihilation_matrix(2))))
        assert payload == {"dim": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}

    def test_roundtrip(self):
        rng = np.random.default_rng(16)
        op = random_operator(rng, 3)
        payload = json.loads(dumps(to_json_dict(op)))
        back = np.array([complex(re, im) for re, im in payload["entries"]])
        # 15 significant digits hold each part to 5e-15 relative
        np.testing.assert_allclose(back.reshape(payload["dim"], payload["dim"]), op.entries, rtol=1e-14, atol=0)
