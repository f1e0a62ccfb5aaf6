"""Tests for block structures, feasible points, and the divergence measure."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    BlockPoint,
    BlockStructure,
    barycenter,
    i_divergence,
    i_divergence_blocks,
    normalize,
    random_interior,
)
from kneejerk.simplex import _dirichlet_rows
from generators import interior_point, random_structure


class TestBlockStructure:
    def test_basic_attributes(self):
        s = BlockStructure((2, 3))
        assert s.n == 5
        assert s.k == 2
        assert s.slices == (slice(0, 2), slice(2, 5))
        assert np.array_equal(s.weights, np.ones(5))
        assert s.index.tolist() == [0, 0, 1, 1, 1]
        assert s.starts.tolist() == [0, 2]
        assert s.unit is True
        assert BlockStructure((2, 3), np.array([1.0, 1.0, 2.0, 1.0, 1.0])).unit is False

    def test_sums_match_np_sum_on_short_blocks(self):
        # bincount adds each block in coordinate order, which is np.sum's
        # order below 8 terms.
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_structure(rng, max_n=12, max_blocks=4)
            v = rng.uniform(0.0, 1.0, s.n) * 10.0 ** rng.integers(-8, 8, s.n)
            expected = [np.sum(v[sl]) for sl in s.slices]
            if max(s.blocks) < 8:
                assert s.sums(v).tolist() == expected
            else:
                assert_allclose(s.sums(v), expected, rtol=1e-15, atol=0)

    def test_rejects_empty_or_nonpositive_blocks(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            BlockStructure((2,), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            BlockStructure((2,), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            BlockStructure((2,), np.array([1.0, 1.0, 1.0]))
        for bad in (np.nan, np.inf, -np.inf):
            for w in ([bad, 1.0], [1.0, bad]):
                with pytest.raises(ValueError, match="^weights must be finite and strictly positive$"):
                    BlockStructure((1, 1), np.array(w))

    def test_equality(self):
        a = BlockStructure((2, 1), np.array([1.0, 2.0, 1.0]))
        b = BlockStructure((2, 1), np.array([1.0, 2.0, 1.0]))
        c = BlockStructure((2, 1))
        assert a == b
        assert a != c
        assert a != BlockStructure((3,), np.array([1.0, 2.0, 1.0]))

    def test_json_dict_omits_unit_weights(self):
        assert "weights" not in BlockStructure((2, 2)).to_json_dict()
        d = BlockStructure((2,), np.array([2.0, 1.0])).to_json_dict()
        assert d["weights"] == [2.0, 1.0]


class TestBlockPoint:
    def test_accepts_feasible_point(self):
        s = BlockStructure((2,), np.array([2.0, 1.0]))
        p = BlockPoint(np.array([0.25, 0.5]), s)
        assert p.interior

    def test_rejects_unnormalized(self):
        s = BlockStructure((2,))
        with pytest.raises(ValueError):
            BlockPoint(np.array([0.6, 0.6]), s)

    def test_rejects_negative(self):
        s = BlockStructure((2,))
        with pytest.raises(ValueError):
            BlockPoint(np.array([1.2, -0.2]), s)

    def test_boundary_point_is_not_interior(self):
        s = BlockStructure((2,))
        p = BlockPoint(np.array([1.0, 0.0]), s)
        assert not p.interior

    def test_multi_block_feasibility_is_per_block(self):
        s = BlockStructure((2, 2))
        BlockPoint(np.array([0.5, 0.5, 0.1, 0.9]), s)
        with pytest.raises(ValueError):
            # total mass 2 but unevenly split across blocks
            BlockPoint(np.array([0.7, 0.5, 0.3, 0.5]), s)


class TestPointGuardMessages:
    # Each kind of bad coordinate, put in block 1, keeps its own message.
    S = BlockStructure((2, 3), np.array([1.0, 2.0, 0.5, 1.0, 1.5]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.nan, "coordinates must be finite"),
            (math.inf, "coordinates must be finite"),
            (-math.inf, "coordinates must be finite"),
            (-0.25, r"must be nonnegative; x\[3\] = -0.25"),
            (0.5, r"block 1 weighted sum is .* violates normalization"),
        ],
    )
    def test_message_names_the_fault(self, bad, message):
        x = barycenter(self.S).x.copy()
        x[3] = bad
        with pytest.raises(ValueError, match=message):
            BlockPoint(x, self.S)


class TestFirstBadBlockIsNamed:
    # Blocks 1 and 2 are both bad; the message names block 1.
    S = BlockStructure((2, 3, 2))

    def test_block_point(self):
        with pytest.raises(ValueError, match="block 1 weighted sum"):
            BlockPoint(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.2, 0.2]), self.S)

    def test_normalize(self):
        with pytest.raises(ValueError, match="block 1 sums to zero"):
            normalize(np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]), self.S)

    def test_i_divergence_blocks(self):
        x = barycenter(self.S).x
        y = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.2, 0.2])
        with pytest.raises(ValueError, match="block 1 is not normalized"):
            i_divergence_blocks(y, x, self.S)
        with pytest.raises(ValueError, match="block 1 is not normalized"):
            i_divergence_blocks(x, y, self.S)


class TestBarycenter:
    def test_plain(self):
        s = BlockStructure((4,))
        assert_allclose(barycenter(s).x, np.full(4, 0.25), rtol=0, atol=0)

    def test_weighted(self):
        s = BlockStructure((2,), np.array([2.0, 1.0]))
        assert_allclose(barycenter(s).x, [0.25, 0.5], rtol=0, atol=0)

    def test_two_blocks(self):
        s = BlockStructure((2, 2))
        assert_allclose(barycenter(s).x, [0.5, 0.5, 0.5, 0.5], rtol=0, atol=0)

    def test_random_structures_are_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_structure(rng)
            b = barycenter(s)
            for sl in s.slices:
                assert abs(float(s.weights[sl] @ b.x[sl]) - 1.0) <= 1e-12


class TestNormalize:
    def test_unit_weights(self):
        p = normalize(np.array([2.0, 2.0]), BlockStructure((2,)))
        assert_allclose(p.x, [0.5, 0.5], rtol=0, atol=0)

    def test_boundary_input_stays_on_boundary(self):
        p = normalize(np.array([1.0, 0.0]), BlockStructure((2,)))
        assert np.array_equal(p.x, [1.0, 0.0])
        assert not p.interior

    def test_weighted_example(self):
        s = BlockStructure((2,), np.array([2.0, 1.0]))
        p = normalize(np.array([1.0, 1.0]), s)
        assert_allclose(p.x, [1 / 3, 1 / 3], rtol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_structure(rng)
            raw = rng.uniform(0.1, 3.0, s.n)
            p = normalize(raw, s)
            q = normalize(p.x, s)
            assert_allclose(q.x, p.x, rtol=0, atol=1e-15)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, -0.1]), BlockStructure((2,)))

    def test_rejects_zero_mass_block(self):
        with pytest.raises(ValueError):
            normalize(np.array([0.0, 0.0, 1.0]), BlockStructure((2, 1)))


class TestIDivergence:
    def test_frozen_binary_value(self):
        s = BlockStructure((2,))
        y = BlockPoint(np.array([0.7, 0.3]), s)
        x = BlockPoint(np.array([0.5, 0.5]), s)
        # 0.7 log(1.4) + 0.3 log(0.6), computed independently at high
        # precision.
        assert_allclose(i_divergence(y, x), 0.082282878505051846392, rtol=1e-13)

    def test_zero_iff_equal(self):
        s = BlockStructure((3,))
        p = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        assert i_divergence(p, p) == 0.0
        rng = np.random.default_rng(9)
        for _ in range(50):
            st = random_structure(rng)
            a = interior_point(rng, st)
            b = interior_point(rng, st)
            if np.array_equal(a.x, b.x):
                # structures made of singleton blocks admit only one point
                assert i_divergence(a, b) == 0.0
            else:
                assert i_divergence(a, b) > 1e-12

    def test_vertex_against_uniform(self):
        s = BlockStructure((2,))
        y = BlockPoint(np.array([1.0, 0.0]), s)
        x = BlockPoint(np.array([0.5, 0.5]), s)
        assert_allclose(i_divergence(y, x), math.log(2.0), rtol=1e-15)

    def test_infinite_when_support_grows(self):
        s = BlockStructure((2,))
        y = BlockPoint(np.array([0.5, 0.5]), s)
        x = BlockPoint(np.array([1.0, 0.0]), s)
        assert i_divergence(y, x) == math.inf

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            st = random_structure(rng)
            a = interior_point(rng, st)
            b = interior_point(rng, st)
            assert i_divergence(a, b) >= -1e-12

    def test_block_additivity_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            st = random_structure(rng, max_blocks=3)
            a = interior_point(rng, st)
            b = interior_point(rng, st)
            per_block = i_divergence_blocks(a.x, b.x, st)
            assert per_block.shape == (st.k,)
            total = 0.0
            for v in per_block:
                total += float(v)
            assert i_divergence(a, b) == total
            # each block value matches a single-block computation on the
            # corresponding sub-vectors
            for i, sl in enumerate(st.slices):
                sub = BlockStructure((st.blocks[i],), st.weights[sl].copy())
                ya = BlockPoint(a.x[sl].copy(), sub)
                xb = BlockPoint(b.x[sl].copy(), sub)
                assert i_divergence(ya, xb) == float(per_block[i])

    def test_weighted_divergence_scales_by_weights(self):
        # With weights a, the divergence is sum a_j y_j log(y_j/x_j); check
        # against a hand expansion.
        s = BlockStructure((2,), np.array([2.0, 1.0]))
        y = BlockPoint(np.array([0.3, 0.4]), s)
        x = BlockPoint(np.array([0.25, 0.5]), s)
        expected = 2 * 0.3 * math.log(0.3 / 0.25) + 0.4 * math.log(0.4 / 0.5)
        assert_allclose(i_divergence(y, x), expected, rtol=1e-14)

    def test_ratio_underflow_at_positive_points_warns_nothing(self):
        # A weight just above 1/2 lets x_0 = 2 (a_0 x_0 is 1 within the point
        # tolerance); the smallest subnormal y_0 keeps a_0 y_0 > 0, but
        # y_0 / x_0 rounds to 0.  Both points are positive, so the term is
        # a_0 y_0 (log y_0 - log x_0), a subnormal, and the block's
        # divergence is that of its second coordinate, log(1 / 1e-300).
        s = BlockStructure((2,), np.array([0.5 * (1.0 + 2.0**-44), 1.0]))
        y = BlockPoint(np.array([5e-324, 1.0]), s)
        x = BlockPoint(np.array([2.0, 1e-300]), s)
        assert y.x[0] / x.x[0] == 0.0 and s.weights[0] * y.x[0] > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = i_divergence_blocks(y, x)[0]
        assert got == pytest.approx(math.log(1e300), rel=1e-15)

    def test_weighted_mass_that_underflows_counts_as_zero(self):
        # a_0 y_0 = 1e-3 * 5e-324 and y_0 / x_0 both round to 0: the term
        # counts as 0, as y_0 = 1e-320 (a_0 y_0 > 0) already shows, and the
        # block's divergence is log(1 / 0.5), not 0 * log 0 = NaN.
        s = BlockStructure((2,), np.array([1e-3, 1.0]))
        x = np.array([500.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = i_divergence_blocks(np.array([5e-324, 1.0]), x, s)
            near = i_divergence_blocks(np.array([1e-320, 1.0]), x, s)
        assert got.tobytes() == near.tobytes()
        assert_allclose(got, [math.log(2.0)], rtol=1e-15)

    def test_structure_mismatch_rejected(self):
        s2 = BlockStructure((2,))
        s3 = BlockStructure((3,))
        y = BlockPoint(np.array([0.5, 0.5]), s2)
        x = BlockPoint(np.array([0.2, 0.3, 0.5]), s3)
        with pytest.raises(ValueError):
            i_divergence(y, x)


class TestRandomInterior:
    def test_feasible_and_interior(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            st = random_structure(rng)
            p = random_interior(st, rng)
            assert p.interior
            for sl in st.slices:
                assert abs(float(st.weights[sl] @ p.x[sl]) - 1.0) <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        st = BlockStructure((3, 2))
        a = random_interior(st, np.random.default_rng(99))
        b = random_interior(st, np.random.default_rng(99))
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("b", [1, 2, 3, 7, 8, 9, 10, 16])
    def test_rows_are_numpy_dirichlet_draws_bit_for_bit(self, b):
        # The rows are numpy's own Dirichlet(1, ..., 1) draws, block by block
        # for all rows at once, then clipped and divided by the weights; the
        # generator ends in the same state.
        st = BlockStructure((b, 3), np.linspace(0.5, 2.0, b + 3))
        ours, ref = np.random.default_rng(b), np.random.default_rng(b)
        got = _dirichlet_rows(st, ours, 500)
        expected = np.empty((500, st.n))
        for size, sl in zip(st.blocks, st.slices):
            p = ref.dirichlet(np.ones(size), size=500)
            expected[:, sl] = np.clip(p, 1e-300, None) / st.weights[sl]
        assert got.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BlockPoint(np.array([0.5, 0.5]), BlockStructure((3,))),
                     "point must have length 3, got shape (2,)", id="point-length"),
        pytest.param(lambda: normalize([1.0, 1.0], BlockStructure((3,))),
                     "raw vector must have length 3, got shape (2,)", id="normalize-length"),
        pytest.param(lambda: normalize([1.0, np.inf], BlockStructure((2,))),
                     "raw coordinates must be finite", id="normalize-non-finite"),
        pytest.param(lambda: i_divergence_blocks(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
                     "a block structure is required when passing raw arrays", id="no-structure"),
        pytest.param(lambda: i_divergence_blocks([0.5, 0.5], [0.25, 0.25, 0.5], BlockStructure((2,))),
                     "arguments must match the structure length 2, got shapes (2,) and (3,)", id="length"),
        pytest.param(lambda: i_divergence_blocks([-0.5, 1.5], [0.5, 0.5], BlockStructure((2,))),
                     "first argument must be finite and nonnegative", id="negative-first"),
        pytest.param(lambda: i_divergence_blocks([np.nan, 0.5], [0.5, 0.5], BlockStructure((2,))),
                     "first argument must be finite and nonnegative", id="non-finite-first"),
        pytest.param(lambda: i_divergence_blocks([0.5, 0.5], [1.5, -0.5], BlockStructure((2,))),
                     "second argument must be finite and nonnegative", id="negative-second"),
        pytest.param(lambda: i_divergence_blocks([0.5, 0.5], [0.5, np.inf], BlockStructure((2,))),
                     "second argument must be finite and nonnegative", id="non-finite-second"),
    ],
)
def test_input_errors_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_raw_arrays_default_to_one_probability_vector():
    # Without a structure, raw arrays form one unweighted block.
    y, x = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    assert_allclose(i_divergence(y, x), 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), rtol=1e-15)
    assert i_divergence(y, x) == i_divergence(y, x, BlockStructure((2,)))
