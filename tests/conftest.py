"""Shared fixtures.

The two builtin degree-8 and degree-14 analyses are expensive enough
(group enumeration plus an exact character table each) that the suite
computes them once per session.  pipeline.builtin_analysis caches per
process, so the acceptance module sees the same objects.

class_matrices, imported by the test modules, builds the full tensor of
class multiplication constants, which the library itself never needs.
"""

import pytest

from ctrz.pipeline import builtin_analysis


@pytest.fixture(scope="session")
def g8():
    return builtin_analysis("g1344-deg8")


@pytest.fixture(scope="session")
def g14():
    return builtin_analysis("g1344-deg14")


def class_matrices(algebra):
    """Every class matrix M_i of the algebra, in class order: the tensor
    a[i][j][k], each matrix built once and checked as it is built."""
    return [algebra.matrix(i) for i in range(algebra.size)]
