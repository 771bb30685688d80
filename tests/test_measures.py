"""Quality indicators: exact hypervolume vs Monte Carlo, epsilon, coverage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute.errors import ContractViolation
from survroute.kernels import front_rows
from survroute.moo import ObjectiveVector
from survroute.measures import (
    ReferencePoint,
    _points,
    additive_epsilon,
    coverage,
    hypervolume,
    hypervolume_clipped,
)


def mc_hypervolume(front, ref, n=200_000, seed=0):
    """Monte Carlo estimate plus one-sigma; independent of the exact sweep."""
    F = np.asarray(front, dtype=float)
    ref = np.asarray(ref, dtype=float)
    lo = F.min(axis=0)
    box = float(np.prod(ref - lo))
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo, ref, size=(n, F.shape[1]))
    covered = np.zeros(n, dtype=bool)
    for p in F:
        covered |= (samples >= p).all(axis=1)
    p_hat = covered.mean()
    sigma = box * float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return box * p_hat, sigma


def random_front(rng, k=8):
    """Random mutually nondominated point set."""
    pts = rng.random((k, 2))
    keep = []
    for i in range(k):
        dominated = any(
            (pts[j] <= pts[i]).all() and (pts[j] < pts[i]).any() for j in range(k) if j != i
        )
        if not dominated:
            keep.append(pts[i])
    return np.array(keep)


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume([(1, 1)], ReferencePoint((2, 2))) == 1.0

    def test_two_point_inclusion_exclusion(self):
        # 2x1 + 1x2 boxes overlap in a 1x1 square: 2 + 2 - 1
        assert hypervolume([(1, 2), (2, 1)], (3, 3)) == 3.0

    def test_empty_front(self):
        assert hypervolume([], (3, 3)) == 0.0

    def test_ref_must_be_strictly_dominated(self):
        with pytest.raises(ContractViolation):
            hypervolume([(1, 3)], (3, 3))
        with pytest.raises(ContractViolation):
            hypervolume([(4, 1)], (3, 3))
        with pytest.raises(ContractViolation):  # a NaN component is not below the reference
            hypervolume([(1, float("nan"))], (3, 3))

    def test_unsupported_dimension(self):
        with pytest.raises(ContractViolation):
            hypervolume([(1, 1, 1, 1)], (2, 2, 2, 2))
        with pytest.raises(ContractViolation):
            hypervolume([(1, 2, 1), (2, 1, 2)], (3, 3, 3))
        with pytest.raises(ContractViolation):  # a 3-D front against a 2-D reference
            hypervolume([(1, 2, 1)], (3, 3))
        with pytest.raises(ContractViolation):
            hypervolume_clipped([(1, 2, 1)], (3, 3, 3))

    def test_matches_monte_carlo_2d(self):
        rng = np.random.default_rng(99)
        for i in range(5):
            front = random_front(rng, k=10)
            exact = hypervolume(front, (1.5, 1.5))
            estimate, sigma = mc_hypervolume(front, (1.5, 1.5), seed=i)
            assert abs(exact - estimate) <= 3 * sigma

    def test_clipped_ignores_outside_points(self):
        assert hypervolume_clipped([(1, 1), (5, 0)], (2, 2)) == 1.0
        assert hypervolume_clipped([(5, 5)], (2, 2)) == 0.0


grid_pts = st.tuples(st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(st.lists(grid_pts, min_size=1, max_size=10), grid_pts)
def test_hv_monotone_under_adding_points(existing, extra):
    ref = (10.0, 10.0)
    before = hypervolume_clipped(existing, ref)
    after = hypervolume_clipped(existing + [extra], ref)
    assert after >= before - 1e-12


class TestAdditiveEpsilon:
    def test_identity_is_zero(self):
        front = [(1, 2), (2, 1)]
        assert additive_epsilon(front, front) == 0.0

    def test_uniform_shift(self):
        assert additive_epsilon([(2, 2)], [(1, 1)]) == 1.0

    def test_sign_preserved_when_approx_dominates(self):
        assert additive_epsilon([(0.5, 0.5)], [(1, 1)]) == -0.5

    def test_empty_approx_rejected(self):
        with pytest.raises(ContractViolation):
            additive_epsilon([], [(1, 1)])


class TestCoverage:
    def test_self_coverage(self):
        front = [(1, 2), (2, 1)]
        assert coverage(front, front) == 1.0

    def test_total_dominance(self):
        assert coverage([(0, 0)], [(1, 2), (2, 1)]) == 1.0

    def test_disjoint_incomparable(self):
        assert coverage([(0, 10)], [(10, 0)]) == 0.0

    def test_asymmetric_pair(self):
        a = [(0, 0), (5, 5)]
        b = [(1, 1), (6, 6)]
        assert coverage(a, b) == 1.0
        assert coverage(b, a) == 0.5  # only (5,5) is covered by (1,1)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            coverage([], [(1, 1)])


class TestPoints:
    def test_pairs_of_floats(self):
        assert _points([(1, 2), ObjectiveVector((3.0, 4.0))]) == [(1.0, 2.0), (3.0, 4.0)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ContractViolation):
            _points([(1.0, 2.0), (bad, 1.0)])

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    def test_other_lengths_rejected(self, point):
        with pytest.raises(ContractViolation):
            _points([point])
        with pytest.raises(ContractViolation):  # every indicator reads its fronts through _points
            additive_epsilon([point], [(1.0, 1.0)])
        with pytest.raises(ContractViolation):
            coverage([(1.0, 1.0)], [point])

    def test_reference_point_takes_two_components(self):
        for values in [(1.0,), (1.0, 2.0, 3.0)]:
            with pytest.raises(ContractViolation):
                ReferencePoint(values)


def _cleaned(points):
    """The distinct points no other point weakly dominates, by a plain pairwise scan."""
    distinct = sorted(set(points))
    return [p for p in distinct if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in distinct)]


@st.composite
def raw_fronts(draw):
    """Points on a small integer grid, some repeated and many dominated, with some at or beyond the reference 5."""
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=25))
    points += draw(st.lists(st.sampled_from(points), max_size=10))  # repeats
    return [tuple(float(v) for v in p) for p in points], (5.0, 5.0)


@settings(max_examples=200, deadline=None)
@given(raw_fronts())
def test_hv_of_raw_front_equals_hv_of_cleaned_front(case):
    points, ref = case
    inside = [p for p in points if all(v < r for v, r in zip(p, ref))]
    expected = hypervolume(_cleaned(inside), ref).hex()
    assert hypervolume(inside, ref).hex() == expected
    assert hypervolume_clipped(points, ref).hex() == expected


def numpy_hypervolume(front, ref, clip):
    """Reference: the numpy form both hypervolumes had, ``front_rows`` cleaning then one slab per front row."""
    r = np.asarray(ref, dtype=np.float64)
    F = np.asarray(front, dtype=np.float64).reshape(-1, 2)
    inside = (F < r).all(axis=1)
    if clip:
        F = F[inside]
    elif not inside.all():
        raise ContractViolation("a point does not strictly dominate the reference")
    F = F[front_rows(F[:, 0], F[:, 1], np.arange(F.shape[0]))]
    vol = 0.0
    prev_y = r[1]
    for i in range(F.shape[0]):
        vol += (r[0] - F[i, 0]) * (prev_y - F[i, 1])
        prev_y = F[i, 1]
    return float(vol)


# grid values (ties, repeats, points on the reference 2.5) or anywhere around the reference
hv_coords = st.one_of(st.sampled_from([0.0, 0.5, 1.25, 2.5, 3.0]), st.floats(-1.0, 4.0, allow_nan=False))


@st.composite
def unsorted_fronts(draw):
    """Unsorted points with repeats and dominated points, some at or beyond the reference (2.5, 2.5)."""
    points = draw(st.lists(st.tuples(hv_coords, hv_coords), min_size=1, max_size=30))
    points += draw(st.lists(st.sampled_from(points), max_size=10))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(unsorted_fronts())
def test_hv_equals_numpy_form_in_both_clip_modes(points):
    ref = (2.5, 2.5)
    assert hypervolume_clipped(points, ref).hex() == numpy_hypervolume(points, ref, clip=True).hex()
    inside = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    assert hypervolume(inside, ref).hex() == numpy_hypervolume(inside, ref, clip=False).hex()
    if len(inside) < len(points):
        with pytest.raises(ContractViolation):
            hypervolume(points, ref)


def numpy_additive_epsilon(approx, reference_front):
    """Reference: the numpy form ``additive_epsilon`` had, one (approx, reference, objective) difference array."""
    A = np.asarray(approx, dtype=np.float64)
    R = np.asarray(reference_front, dtype=np.float64)
    diff = (A[:, None, :] - R[None, :, :]).max(axis=2)
    return float(diff.min(axis=0).max())


def numpy_coverage(a, b):
    """Reference: the numpy form ``coverage`` had, one (a, b, objective) comparison array."""
    A = np.asarray(a, dtype=np.float64)
    B = np.asarray(b, dtype=np.float64)
    covered = (A[:, None, :] <= B[None, :, :]).all(axis=2).any(axis=0)
    return float(covered.sum() / B.shape[0])


@st.composite
def grid_fronts(draw):
    """Points on a half-integer grid around 0, many tied in a component, some repeated."""
    coord = st.integers(-4, 4).map(lambda i: i * 0.5)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
    points += draw(st.lists(st.sampled_from(points), max_size=8))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(grid_fronts(), grid_fronts())
def test_epsilon_and_coverage_equal_numpy_forms(a, b):
    assert additive_epsilon(a, b).hex() == numpy_additive_epsilon(a, b).hex()
    assert additive_epsilon(b, a).hex() == numpy_additive_epsilon(b, a).hex()
    assert coverage(a, b).hex() == numpy_coverage(a, b).hex()
    assert coverage(b, a).hex() == numpy_coverage(b, a).hex()
