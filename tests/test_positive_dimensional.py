"""Orbit invariance and separation for positive-dimensional actions beyond
the scaling torus, checked against their known invariants.

SO(2) rotates the plane; its orbits through rational points are the circles
x^2 + y^2 = const (the origin alone at radius 0).  The (1,-1) torus moves
(x, y) to (t x, y / t); its orbits are the hyperbolas xy = const != 0, the
two punctured axes and the origin.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitslp import QQ, compile_separator, evaluate, separate
from conftest import TORUS_GROUP_JSON, make_action

SO2_GROUP_JSON = {"ambient_dim": 2, "group_dim": 1, "vars": ["c", "s"],
                  "generators": ["c^2 + s^2 - 1"]}
SO2_REP_JSON = {"n": 2, "rho": [["c", "-s"], ["s", "c"]]}
TORUS_1_M1_REP_JSON = {"n": 2, "rho": [["z1", "0"], ["0", "z2"]]}

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
nonzero = rationals.filter(bool)
# few distinct values, so that independent points often share an invariant
small = st.sampled_from([Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)])
points = st.lists(rationals, min_size=2, max_size=2)
small_points = st.lists(small, min_size=2, max_size=2)


@pytest.fixture(scope="module")
def so2():
    return compile_separator(*make_action(SO2_GROUP_JSON, SO2_REP_JSON, QQ))


@pytest.fixture(scope="module")
def torus_1_m1():
    return compile_separator(
        *make_action(TORUS_GROUP_JSON, TORUS_1_M1_REP_JSON, QQ))


def rotate(t, p):
    """Rotation by the rational point ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    return [c * p[0] - s * p[1], s * p[0] + c * p[1]]


def torus_class(p):
    """Complete invariant of the (1,-1) torus orbit through p."""
    return p[0] * p[1], p[0] == 0, p[1] == 0


@EXAMPLES
@given(p=points, t=rationals)
def test_so2_invariant_under_rational_rotations(so2, p, t):
    assert evaluate(so2, rotate(t, p)) == evaluate(so2, p)


@EXAMPLES
@given(p=small_points, q=small_points)
def test_so2_separates_exactly_by_radius(so2, p, q):
    radius2 = lambda v: v[0] ** 2 + v[1] ** 2  # noqa: E731
    assert separate(so2, p, q) == (radius2(p) == radius2(q))


@EXAMPLES
@given(p=points, t=nonzero)
def test_torus_1_m1_invariant_under_t(torus_1_m1, p, t):
    assert evaluate(torus_1_m1, [t * p[0], p[1] / t]) == evaluate(torus_1_m1, p)


@EXAMPLES
@given(p=small_points, q=small_points)
def test_torus_1_m1_separates_hyperbolas_axes_and_origin(torus_1_m1, p, q):
    assert separate(torus_1_m1, p, q) == (torus_class(p) == torus_class(q))
