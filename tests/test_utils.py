"""Unit tests for repro.utils (rng plumbing, validation, spare rows)."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.spare import SpareRows
from repro.utils.validation import (
    as_float_matrix,
    as_float_vector,
    check_k,
    check_positive,
    check_probability,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(3).standard_normal(5)
        b = ensure_rng(3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert not np.allclose(a.standard_normal(10), b.standard_normal(10))

    def test_deterministic_from_seed(self):
        x = spawn_rngs(9, 3)[1].standard_normal(4)
        y = spawn_rngs(9, 3)[1].standard_normal(4)
        np.testing.assert_array_equal(x, y)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(0)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2


class TestAsFloatMatrix:
    def test_list_coerced(self):
        out = as_float_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64 and out.shape == (2, 2)

    def test_vector_promoted_to_row(self):
        assert as_float_matrix([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            as_float_matrix(np.zeros((2, 2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_float_matrix(np.zeros((0, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            as_float_matrix([[1.0, np.nan]])

    def test_contiguous(self):
        arr = np.asfortranarray(np.ones((4, 3)))
        assert as_float_matrix(arr).flags["C_CONTIGUOUS"]


class TestAsFloatVector:
    def test_dim_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            as_float_vector([1.0, 2.0], dim=3)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            as_float_vector(np.zeros((2, 2)))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_float_vector([np.inf])


class TestScalarChecks:
    def test_check_k_positive(self):
        assert check_k(3) == 3

    def test_check_k_zero_raises(self):
        with pytest.raises(ValueError):
            check_k(0)

    def test_check_k_bool_rejected(self):
        with pytest.raises(TypeError):
            check_k(True)

    def test_check_k_exceeds_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            check_k(10, n_points=5)

    def test_check_positive_strict(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_positive_nonstrict_allows_zero(self):
        assert check_positive(0, "x", strict=False) == 0

    def test_check_positive_type(self):
        with pytest.raises(TypeError):
            check_positive("1", "x")

    def test_check_probability_range(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")


class TestSpareRows:
    def test_appends_like_vstack_without_touching_published_rows(self):
        rng = np.random.default_rng(0)
        spare, live = SpareRows(), rng.standard_normal((5, 3))
        expected, published = live.copy(), []
        for _ in range(200):
            rows = rng.standard_normal((2, 3))
            live = spare.append("data", live, rows)
            expected = np.vstack([expected, rows])
            published.append((live, expected))
        # Every view ever handed out still reads what it was published
        # with: later appends wrote behind it, never into it.
        for view, want in published:
            assert view.flags.c_contiguous
            np.testing.assert_array_equal(view, want)
        # Geometric growth: a handful of buffers, not one per append.
        buffers = {id(view.base) for view, _ in published}
        assert len(buffers) <= 12

    def test_foreign_arrays_are_copied_first(self):
        spare = SpareRows()
        owner = np.arange(10, dtype=np.int64)
        adopted = owner[:4]                   # a prefix of someone's array
        grown = spare.append("ids", adopted, np.array([7, 8]))
        np.testing.assert_array_equal(owner, np.arange(10))
        np.testing.assert_array_equal(grown, [0, 1, 2, 3, 7, 8])
        frozen = np.zeros(3, dtype=bool)
        frozen.flags.writeable = False
        np.testing.assert_array_equal(
            spare.append("deleted", frozen, np.ones(1, dtype=bool)),
            [False, False, False, True])
        # A replaced array (``delete`` publishes a fresh mask) is foreign
        # again, whatever buffer the key had.
        fresh = np.ones(4, dtype=bool)
        regrown = spare.append("deleted", fresh, np.zeros(2, dtype=bool))
        np.testing.assert_array_equal(regrown, [1, 1, 1, 1, 0, 0])
        assert fresh.shape == (4,) and regrown.base is not fresh
