import hashlib
import math

import numpy as np
import pytest
import scipy

from curlstokes.quadrature import (EDGE_MAX_DEGREE, TRIANGLE_MAX_DEGREE, edge_rule,
                                   triangle_rule)

# sha256 over the points and weights of every rule, triangles then edges,
# on scipy 1.17.1 and numpy 2.4.6
RULES_SHA256 = "1de107eae36130ba633865340d3098b6ce1a2ad09696675cddf4988f05b7f5fd"


def tri_monomial_integral(a: int, b: int) -> float:
    # exact integral of x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_exactness(degree):
    rule = triangle_rule(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(rule.weights @ (x ** a * y ** b))
            exact = tri_monomial_integral(a, b)
            assert abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("degree", range(1, 13))
def test_edge_exactness(degree):
    rule = edge_rule(degree)
    for k in range(degree + 1):
        got = float(rule.weights @ rule.points ** k)
        exact = 1.0 / (k + 1)
        assert abs(got - exact) <= 1e-13 * exact


def test_frozen_values():
    r2 = triangle_rule(2)
    assert float(r2.weights @ (r2.points[:, 1] * r2.points[:, 2])) == pytest.approx(1 / 24, rel=1e-13)
    r4 = triangle_rule(4)
    assert float(r4.weights @ r4.points[:, 1] ** 4) == pytest.approx(1 / 30, rel=1e-13)
    r1 = triangle_rule(1)
    assert float(r1.weights.sum()) == pytest.approx(0.5, abs=1e-14)
    e1 = edge_rule(1)
    assert float(e1.weights @ e1.points) == pytest.approx(0.5, rel=1e-13)
    e3 = edge_rule(3)
    assert float(e3.weights @ e3.points ** 3) == pytest.approx(0.25, rel=1e-13)
    e5 = edge_rule(5)
    assert float(e5.weights @ e5.points ** 5) == pytest.approx(1 / 6, rel=1e-13)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_rule_structure(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert rule.points.min() >= 0.0
    assert rule.points.max() <= 1.0
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("degree", range(1, 13))
def test_edge_rule_structure(degree):
    rule = edge_rule(degree)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    assert rule.points.min() > 0.0 and rule.points.max() < 1.0


@pytest.mark.parametrize("degree", [0, 11, -3])
def test_triangle_degree_range(degree):
    with pytest.raises(ValueError):
        triangle_rule(degree)


@pytest.mark.parametrize("degree", [0, 13])
def test_edge_degree_range(degree):
    with pytest.raises(ValueError):
        edge_rule(degree)


def test_rule_bits_are_pinned():
    # every output reads these bits: a scipy release that moved the roots
    # would move them all, as a LAPACK change would
    rules = ([triangle_rule(d) for d in range(1, TRIANGLE_MAX_DEGREE + 1)]
             + [edge_rule(d) for d in range(1, EDGE_MAX_DEGREE + 1)])
    digest = hashlib.sha256()
    for rule in rules:
        digest.update(rule.points.tobytes())
        digest.update(rule.weights.tobytes())
    assert digest.hexdigest() == RULES_SHA256, (
        f"the quadrature rules changed bits under scipy {scipy.__version__} "
        f"(checked on scipy 1.17.1)")


def test_each_rule_is_built_once():
    # callers share one rule per degree; its arrays are read-only
    rule = triangle_rule(4)
    assert triangle_rule(4) is rule and edge_rule(6) is edge_rule(6)
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
