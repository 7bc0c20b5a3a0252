"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx as pytest_approx

from repro.lsh.table import morton_keys
from repro.lattice.e8 import decode_d8, decode_e8, e8_minimal_vectors
from repro.lattice.zm import ZMLattice
from repro.lsh.multiprobe import boundary_distances, perturbation_sets
from repro.evaluation.metrics import error_ratio, recall_ratio
from tests.oracle import morton_encode

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


class TestE8DecoderProperties:
    @given(arrays(np.float64, (8,), elements=finite_floats))
    @settings(max_examples=200, deadline=None)
    def test_d8_output_valid(self, x):
        out = decode_d8(x.reshape(1, -1))[0]
        assert np.allclose(out, np.round(out))
        assert int(round(out.sum())) % 2 == 0

    @given(arrays(np.float64, (8,), elements=finite_floats))
    @settings(max_examples=200, deadline=None)
    def test_e8_no_closer_neighbor(self, x):
        # The decoded point is nearer than all 240 adjacent lattice points
        # (which are exactly the Voronoi-relevant vectors of E8).
        out = decode_e8(x.reshape(1, -1))[0]
        d_out = np.sum((x - out) ** 2)
        neighbors = out + e8_minimal_vectors() / 2.0
        d_nb = np.min(np.sum((x - neighbors) ** 2, axis=1))
        assert d_out <= d_nb + 1e-7

    @given(arrays(np.float64, (8,), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_e8_beats_d8(self, x):
        # E8 contains D8, so the E8 decode is at least as close.
        e8 = decode_e8(x.reshape(1, -1))[0]
        d8 = decode_d8(x.reshape(1, -1))[0]
        assert (np.sum((x - e8) ** 2) <= np.sum((x - d8) ** 2) + 1e-9)

    @given(arrays(np.float64, (8,), elements=finite_floats),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_translation_preserves_distance(self, x, t):
        # Shifting by an even integer vector (in D8) cannot change the
        # decode *distance* (the shifted decode of the unshifted point is a
        # valid lattice point, and vice versa).  Exact equality of the
        # decoded points can fail at Voronoi-boundary ties, where float
        # absorption flips the tiebreak, so only distances are compared.
        shift = np.full(8, 2.0 * t)
        a = decode_e8((x + shift).reshape(1, -1))[0]
        b = decode_e8(x.reshape(1, -1))[0]
        d_a = np.sum(((x + shift) - a) ** 2)
        d_b = np.sum((x - b) ** 2)
        assert d_a == pytest_approx(d_b)


class TestZMProperties:
    @given(arrays(np.float64, (4,), elements=finite_floats),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_ancestor_contains_code(self, y, k):
        # A code's k-ancestor cell contains the code: anc <= c < anc + 2^k.
        lat = ZMLattice(4)
        code = lat.quantize(y.reshape(1, -1))
        anc = lat.ancestor(code, k)
        assert np.all(anc <= code)
        assert np.all(code < anc + (1 << k))

    @given(arrays(np.float64, (4,), elements=finite_floats),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_ancestor_composition(self, y, k1, k2):
        # Eq. (9): ancestors telescope for the floor-based hierarchy.
        lat = ZMLattice(4)
        code = lat.quantize(y.reshape(1, -1))
        both = lat.ancestor(code, k1 + k2)
        step = lat.ancestor(lat.ancestor(code, k1), k1 + k2)
        np.testing.assert_array_equal(both, step)


class TestMultiprobeProperties:
    @given(arrays(np.float64, (5,),
                  elements=st.floats(min_value=-10, max_value=10,
                                     allow_nan=False)),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_probe_sets_valid_and_ordered(self, y, budget):
        code = np.floor(y).astype(np.int64)
        scores, labels = boundary_distances(y, code)
        label_score = dict(zip(labels, scores))
        prev = -1.0
        for pset in perturbation_sets(scores, labels, budget):
            dims = [d for d, _ in pset]
            assert len(dims) == len(set(dims))
            s = sum(label_score[p] for p in pset)
            assert s >= prev - 1e-9
            prev = s


class TestMortonProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                    min_size=1, max_size=50, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_injective(self, pairs):
        codes = np.array(pairs, dtype=np.int64)
        mortons = morton_encode(codes, bits=6)
        assert len(set(mortons)) == len(pairs)
        assert len(set(morton_keys(codes)[0].tolist())) == len(pairs)

    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_coordinate(self, x, y):
        # Increasing one coordinate strictly increases the Morton code,
        # and the key of one box orders the same way.
        base = morton_encode(np.array([[x, y]]), bits=6)[0]
        up_x = morton_encode(np.array([[x + 1, y]]), bits=6)[0]
        up_y = morton_encode(np.array([[x, y + 1]]), bits=6)[0]
        assert up_x > base and up_y > base
        keys = morton_keys(np.array([[0, 0], [x, y], [x + 1, y],
                                     [x, y + 1]]))[0]
        assert keys[2] > keys[1] and keys[3] > keys[1]


class TestMetricProperties:
    @given(st.integers(2, 20), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_recall_bounds(self, k, seed):
        rng = np.random.default_rng(seed)
        exact = rng.choice(1000, size=(3, k), replace=False)
        returned = rng.integers(0, 1000, size=(3, k))
        rec = recall_ratio(exact, returned)
        assert np.all((rec >= 0) & (rec <= 1))

    @given(st.integers(1, 15), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_error_ratio_one_iff_equal(self, k, seed):
        rng = np.random.default_rng(seed)
        exact = np.sort(rng.uniform(0.1, 5.0, size=(2, k)), axis=1)
        assert np.allclose(error_ratio(exact, exact), 1.0)
        worse = exact * 1.5
        assert np.all(error_ratio(exact, worse) < 1.0)

    @given(st.integers(1, 12), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_recall_invariant_to_permutation(self, k, seed):
        rng = np.random.default_rng(seed)
        exact = rng.choice(500, size=(1, k), replace=False)
        returned = exact.copy()
        perm = rng.permutation(k)
        assert recall_ratio(exact, returned[:, perm])[0] == 1.0
