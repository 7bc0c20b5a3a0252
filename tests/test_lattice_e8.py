"""Unit tests for the E8 lattice: decoder, minimal vectors, ancestors."""

import numpy as np
import pytest

from repro.lattice.e8 import (
    BLOCK,
    E8Lattice,
    decode_d8,
    decode_e8,
    e8_minimal_vectors,
)


def is_d8_point(p: np.ndarray) -> bool:
    """All integer coordinates with an even sum."""
    return np.allclose(p, np.round(p)) and int(round(p.sum())) % 2 == 0


def is_e8_point(p: np.ndarray) -> bool:
    """All-integer or all-half-integer with even coordinate sum * 2... """
    doubled = 2.0 * p
    if not np.allclose(doubled, np.round(doubled)):
        return False
    ints = np.round(p)
    if np.allclose(p, ints):  # D8 branch
        return int(round(p.sum())) % 2 == 0
    halves = p - 0.5
    if np.allclose(halves, np.round(halves)):  # D8 + (1/2)^8 branch
        return int(round(halves.sum())) % 2 == 0
    return False


class TestDecodeD8:
    def test_d8_points_are_fixed(self):
        pts = np.array([[2., 0, 0, 0, 0, 0, 0, 0],
                        [1., 1, 0, 0, 0, 0, 0, 0],
                        [1., 1, 1, 1, 1, 1, 1, 1]])
        np.testing.assert_allclose(decode_d8(pts), pts)

    def test_output_is_d8(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, size=(200, 8))
        out = decode_d8(x)
        for row in out:
            assert is_d8_point(row)

    def test_nearest_among_candidates(self):
        # The decoded point must be at least as close as rounding plus any
        # single +-1 correction (which covers all D8 candidates adjacent
        # to the naive rounding).
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, size=(50, 8))
        out = decode_d8(x)
        base = np.round(x)
        for i in range(x.shape[0]):
            d_out = np.sum((x[i] - out[i]) ** 2)
            for j in range(8):
                for step in (-1.0, 1.0):
                    cand = base[i].copy()
                    cand[j] += step
                    if int(round(cand.sum())) % 2 == 0:
                        assert d_out <= np.sum((x[i] - cand) ** 2) + 1e-9

    def test_half_integer_tie_rule(self):
        # Ties round half up; an odd sum re-rounds the first coordinate of
        # largest error the other way, up at an exact integer.  The
        # compiled E8 decoder follows the same rule (tests/test_native.py).
        x = np.array([[0.5, 0, 0, 0, 0, 0, 0, 0],
                      [2.5, 0.5, 0, 0, 0, 0, 0, 0],
                      [0.5, 0.5, 0.5, 0, 0, 0, 0, 0],
                      [1.0, 0, 0, 0, 0, 0, 0, 0],
                      [-1.5, 2.5, 0, 0, 0, 0, 0, 0]])
        want = np.array([[0., 0, 0, 0, 0, 0, 0, 0],
                         [3., 1, 0, 0, 0, 0, 0, 0],
                         [0., 1, 1, 0, 0, 0, 0, 0],
                         [2., 0, 0, 0, 0, 0, 0, 0],
                         [-1., 3, 0, 0, 0, 0, 0, 0]])
        np.testing.assert_array_equal(decode_d8(x), want)

    def test_wrong_dim_raises(self):
        with pytest.raises(ValueError, match="dim-8"):
            decode_d8(np.zeros((1, 7)))


class TestDecodeE8:
    def test_output_is_e8(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-4, 4, size=(300, 8))
        out = decode_e8(x)
        for row in out:
            assert is_e8_point(row)

    def test_half_integer_branch_reachable(self):
        # A point near (1/2)^8 decodes to the half-integer coset.
        x = np.full((1, 8), 0.5) + 0.01
        out = decode_e8(x)[0]
        assert not np.allclose(out, np.round(out))

    def test_e8_points_are_fixed(self):
        pts = np.array([np.ones(8), np.full(8, 0.5),
                        np.array([1., 1, 0, 0, 0, 0, 0, 0])])
        np.testing.assert_allclose(decode_e8(pts), pts)

    def test_nearest_vs_exhaustive_small_region(self):
        # Exhaustive check: decoded point is nearest among all E8 points in
        # a local window around the query.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, size=(20, 8))
        out = decode_e8(x)
        # Enumerate E8 points near the origin: D8 and D8+half with coords
        # in {-2..2} would be huge; instead verify against decoded point
        # plus each of the 240 minimal-vector neighbors (the Voronoi
        # relevant vectors of E8 are exactly its minimal vectors).
        minimal = e8_minimal_vectors() / 2.0  # real units
        for i in range(x.shape[0]):
            d_out = np.sum((x[i] - out[i]) ** 2)
            neighbors = out[i] + minimal
            d_nb = np.sum((x[i] - neighbors) ** 2, axis=1)
            assert d_out <= d_nb.min() + 1e-9


class TestMinimalVectors:
    def test_count_is_240(self):
        assert e8_minimal_vectors().shape == (240, 8)

    def test_all_distinct(self):
        vecs = e8_minimal_vectors()
        assert np.unique(vecs, axis=0).shape[0] == 240

    def test_norms_equal(self):
        # In half-integer units the squared norm is 8 (= 2 in real units).
        vecs = e8_minimal_vectors()
        norms = np.sum(vecs ** 2, axis=1)
        assert np.all(norms == 8)

    def test_vectors_are_e8(self):
        for v in e8_minimal_vectors():
            assert is_e8_point(v / 2.0)

    def test_closed_under_negation(self):
        vecs = {tuple(v) for v in e8_minimal_vectors()}
        for v in list(vecs):
            assert tuple(-np.array(v)) in vecs

    def test_immutable(self):
        with pytest.raises(ValueError):
            e8_minimal_vectors()[0, 0] = 99


class TestE8Lattice:
    def test_code_dim_padding(self):
        assert E8Lattice(8).code_dim == 8
        assert E8Lattice(10).code_dim == 16
        assert E8Lattice(16).code_dim == 16

    def test_quantize_parity_invariant(self):
        # Scaled codes are all-even (D8) or all-odd (D8 + half) per block.
        lat = E8Lattice(8)
        rng = np.random.default_rng(4)
        codes = lat.quantize(rng.uniform(-4, 4, size=(100, 8)))
        parity = codes % 2
        same = np.all(parity == parity[:, :1], axis=1)
        assert same.all()

    def test_quantize_roundtrip_on_lattice_points(self):
        lat = E8Lattice(8)
        pts = np.array([np.ones(8), np.full(8, 0.5)])
        codes = lat.quantize(pts)
        np.testing.assert_allclose(lat.cell_center(codes), pts)

    def test_padded_block_decodes(self):
        lat = E8Lattice(12)
        codes = lat.quantize(np.random.default_rng(5).uniform(-2, 2, (10, 12)))
        assert codes.shape == (10, 16)

    def test_probe_codes_order_and_count(self):
        lat = E8Lattice(8)
        y = np.random.default_rng(6).uniform(-2, 2, 8)
        code = lat.quantize(y.reshape(1, -1))[0]
        probes = lat.probe_codes(y, code, 30)
        assert probes.shape == (30, 8)
        # Scores must be non-decreasing.
        y2 = y * 2.0
        d = np.sum((probes - y2) ** 2, axis=1)
        assert np.all(np.diff(d) >= -1e-9)
        # All probes are valid E8 codes (same-parity blocks).
        parity = probes % 2
        assert np.all(np.all(parity == parity[:, :1], axis=1))

    def test_probe_codes_multi_block(self):
        lat = E8Lattice(16)
        y = np.random.default_rng(7).uniform(-2, 2, 16)
        code = lat.quantize(y.reshape(1, -1))[0]
        probes = lat.probe_codes(y, code, 300)
        assert probes.shape == (300, 16)
        # Each probe perturbs exactly one block.
        for p in probes:
            changed = [np.any(p[b * 8:(b + 1) * 8] != code[b * 8:(b + 1) * 8])
                       for b in range(2)]
            assert sum(changed) == 1

    @staticmethod
    def _probe_one_query(lat, y, code, n_probes):
        """The per-block scoring loop the block form replaced: the oracle
        for its order (stable argsort over blocks x 240 scores)."""
        y2 = lat._pad(y)[0] * 2.0
        minimal = e8_minimal_vectors()
        scores = np.concatenate([
            np.sum((y2[b * 8:(b + 1) * 8][None, :]
                    - (code[b * 8:(b + 1) * 8][None, :] + minimal)) ** 2,
                   axis=1) for b in range(lat.n_blocks)])
        out = np.tile(code, (min(n_probes, scores.size), 1))
        for row, flat in enumerate(np.argsort(scores,
                                              kind="stable")[:n_probes]):
            b, m_idx = divmod(int(flat), minimal.shape[0])
            out[row, b * 8:(b + 1) * 8] += minimal[m_idx]
        return out

    @pytest.mark.parametrize("dim", [5, 8, 16, 20])
    @pytest.mark.parametrize("grid", [None, 4])  # 4: scores tie in droves
    def test_probe_codes_block_matches_per_query_order(self, dim, grid):
        lat = E8Lattice(dim)
        rng = np.random.default_rng(dim)
        q = lat.PROBE_CHUNK + 40  # crosses a scoring-chunk boundary
        y = (rng.uniform(-4, 4, (q, dim)) if grid is None
             else rng.integers(-12, 12, (q, dim)) / grid)
        codes = lat.quantize(y)
        for n_probes in (1, 33, 240 * lat.n_blocks + 5):
            block = lat.probe_codes(y, codes, n_probes)
            assert block.shape == (q, min(n_probes, 240 * lat.n_blocks),
                                   lat.padded_dim)
            for qi in range(0, q, 17):
                want = self._probe_one_query(lat, y[qi], codes[qi], n_probes)
                np.testing.assert_array_equal(block[qi], want)
                np.testing.assert_array_equal(
                    lat.probe_codes(y[qi], codes[qi], n_probes), want)

    def test_zero_probes(self):
        lat = E8Lattice(8)
        assert lat.probe_codes(np.zeros(8), np.zeros(8, dtype=np.int64),
                               0).shape == (0, 8)

    def test_ancestor_identity(self):
        lat = E8Lattice(8)
        codes = lat.quantize(np.random.default_rng(8).uniform(-4, 4, (20, 8)))
        np.testing.assert_array_equal(lat.ancestor(codes, 0), codes)

    def test_ancestor_is_scaled_lattice_point(self):
        # The k-th ancestor (in real units) divided by 2^k must be E8.
        lat = E8Lattice(8)
        codes = lat.quantize(np.random.default_rng(9).uniform(-8, 8, (30, 8)))
        for k in (1, 2, 3):
            anc = lat.ancestor(codes, k)
            real = anc.astype(float) / 2.0 / (2 ** k)
            for row in real:
                from_test = np.round(row * 2) / 2
                np.testing.assert_allclose(row, from_test)

    def test_ancestor_merges_codes(self):
        # Higher levels should not increase the number of distinct codes.
        lat = E8Lattice(8)
        codes = lat.quantize(np.random.default_rng(10).uniform(-8, 8, (200, 8)))
        prev = np.unique(codes, axis=0).shape[0]
        for k in (1, 2, 3, 4):
            cur = np.unique(lat.ancestor(codes, k), axis=0).shape[0]
            assert cur <= prev
            prev = cur

    def test_bad_code_shape_raises(self):
        lat = E8Lattice(8)
        with pytest.raises(ValueError):
            lat.probe_codes(np.zeros(8), np.zeros(7, dtype=np.int64), 5)
        with pytest.raises(ValueError):
            lat.ancestor(np.zeros((2, 7), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            lat.ancestor(np.zeros((2, 8), dtype=np.int64), -1)
