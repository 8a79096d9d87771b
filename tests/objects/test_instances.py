"""Unit tests for repro.objects.instances."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry import Point
from repro.objects import InstanceSet

FH = 4.0


def square_set():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return InstanceSet.uniform(xy, floor=0)


class TestConstruction:
    def test_uniform_probs(self):
        s = square_set()
        assert len(s) == 4
        assert s.probs.tolist() == [0.25] * 4
        assert s.mass == pytest.approx(1.0)

    def test_single(self):
        s = InstanceSet.single(Point(3, 4, 2))
        assert len(s) == 1 and s.floor == 2
        assert s.xy.tolist() == [[3, 4]]

    def test_bad_shapes_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((3, 3)), 0, np.full(3, 1 / 3))
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((3, 2)), 0, np.full(4, 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((0, 2)), 0, np.zeros(0))

    def test_negative_probs_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((2, 2)), 0, np.array([1.5, -0.5]))

    def test_mass_above_one_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((2, 2)), 0, np.array([0.9, 0.9]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ReproError, match="finite"):
            InstanceSet([[bad, 1.0], [2.0, 3.0]], 0, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        with pytest.raises(ReproError, match="finite"):
            InstanceSet([[0.0, 1.0], [2.0, 3.0]], 0, [bad, 0.5])

    def test_partial_mass_allowed_for_subregions(self):
        s = InstanceSet(np.zeros((2, 2)), 0, np.array([0.1, 0.2]))
        assert s.mass == pytest.approx(0.3)


class TestSubset:
    def test_subset_keeps_raw_probs(self):
        s = square_set()
        sub = s.subset(np.array([True, False, True, False]))
        assert len(sub) == 2
        assert sub.mass == pytest.approx(0.5)

    def test_subset_by_indices(self):
        s = square_set()
        sub = s.subset(np.array([0, 3]))
        assert sub.xy.tolist() == [[0, 0], [1, 1]]


class TestMeasures:
    def test_bounds(self):
        assert square_set().bounds().corners()[0] == (0.0, 0.0)
        assert square_set().bounds().maxx == 1.0

    def test_mean(self):
        m = square_set().mean()
        assert (m.x, m.y, m.floor) == (0.5, 0.5, 0)

    def test_weighted_mean(self):
        s = InstanceSet(
            np.array([[0.0, 0.0], [10.0, 0.0]]), 0, np.array([0.9, 0.1])
        )
        assert s.mean().x == pytest.approx(1.0)


class TestDistances:
    def test_distances_same_floor(self):
        s = square_set()
        d = s.distances_to(Point(0, 0, 0), FH)
        assert d.tolist() == pytest.approx(
            [0.0, 1.0, 1.0, np.sqrt(2)], abs=1e-12
        )

    def test_distances_cross_floor(self):
        s = square_set()
        d = s.distances_to(Point(0, 0, 1), FH)
        assert d[0] == pytest.approx(FH)
        assert d[1] == pytest.approx(np.hypot(1, FH))

    def test_min_max(self):
        s = square_set()
        q = Point(2, 0, 0)
        assert s.min_distance_to(q, FH) == pytest.approx(1.0)
        assert s.max_distance_to(q, FH) == pytest.approx(np.hypot(2, 1))

    def test_expected_distance(self):
        s = InstanceSet(
            np.array([[0.0, 0.0], [4.0, 0.0]]), 0, np.array([0.25, 0.75])
        )
        q = Point(0, 0, 0)
        assert s.expected_distance_to(q, FH) == pytest.approx(3.0)

    def test_min_le_expected_le_max(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 50, size=(100, 2))
        s = InstanceSet.uniform(xy, 0)
        q = Point(-3, 17, 0)
        lo = s.min_distance_to(q, FH)
        mid = s.expected_distance_to(q, FH)
        hi = s.max_distance_to(q, FH)
        assert lo <= mid <= hi
