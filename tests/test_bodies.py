import numpy as np
import pytest

from ppgeo import (
    DEFAULT_SCHEDULE,
    Body,
    ClassBody,
    ConfigurationError,
    default_class_body,
    epsilon_family,
    minkowski_sum,
)


@pytest.fixture
def square():
    return Body([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_interval_volume_and_support():
    b = Body([[-0.5], [2.0]])
    assert b.volume() == pytest.approx(2.5)
    assert b.support_many([[3.0], [-1.0]]) == pytest.approx([6.0, 0.5])


def test_polygon_orientation_enforced(square):
    with pytest.raises(ConfigurationError):
        Body(list(reversed(square.vertices)))


def test_polygon_volume(square):
    assert square.volume() == pytest.approx(1.0)


def test_support_additivity_under_minkowski_sum(square):
    # h_{P + eps Q}(x) = h_P(x) + eps h_Q(x), exact for polytopes
    q = Body([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    eps = 0.37
    s = minkowski_sum(square, q, eps)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(100, 2))
    lhs = s.support_many(xs)
    rhs = square.support_many(xs) + eps * q.support_many(xs)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_minkowski_sum_interval():
    p = Body([[0.0], [1.0]])
    q = Body([[-1.0], [1.0]])
    s = minkowski_sum(p, q, 0.25)
    assert s.vertex_array[:, 0].tolist() == [-0.25, 1.25]


def test_volume_polynomial_in_epsilon(square):
    # vol(P + eps Q) is a polynomial of degree n in eps
    q = Body([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    vols = np.array([minkowski_sum(square, q, e).volume() for e in eps])
    # (1 + 2e)^2 for the unit square with the half-width-1 square
    assert np.allclose(vols, (1 + 2 * eps) ** 2, atol=1e-12)


def test_class_body_requires_origin_inside_q():
    p = Body([[0.0], [1.0]])
    with pytest.raises(ConfigurationError):
        ClassBody(p, Body([[0.5], [1.5]]))


def test_default_schedule_decreasing():
    sched = DEFAULT_SCHEDULE
    assert len(sched) == 7
    assert sched[0] == pytest.approx(0.2)
    assert all(b == pytest.approx(a / 2) for a, b in zip(sched, sched[1:]))
    assert epsilon_family(default_class_body(1), 64).schedule == sched


def test_epsilon_family_volumes(capsys):
    fam = epsilon_family(default_class_body(1), 64)
    for eps, vol in zip(fam.schedule, fam.volumes):
        assert vol == pytest.approx(1.0 + 2.0 * eps)


def test_contains_boundary(square):
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [1.1, 0.5]])
    inside = square.contains(pts)
    assert inside.tolist() == [True, True, True, False]
