"""Property tests of exact descent: a value lifted from Q(zeta_m) into
Q(zeta_e) comes back down to a conductor dividing m, unchanged."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ctrz.exact import Cyclotomic, cyclotomic_polynomial

coefficients = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=12)))


@st.composite
def lifted_values(draw):
    e = draw(st.integers(min_value=1, max_value=168))
    m = draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
    deg = len(cyclotomic_polynomial(m)) - 1
    coeffs = draw(st.lists(coefficients, min_size=deg, max_size=deg))
    return Cyclotomic(m, coeffs), e


@settings(max_examples=150, deadline=None)
@given(lifted_values())
def test_lift_then_reduce_round_trips(case):
    v, e = case
    r = v.lift(e).reduced()
    assert r == v
    assert v.conductor % r.conductor == 0
    assert r.reduced().conductor == r.conductor
