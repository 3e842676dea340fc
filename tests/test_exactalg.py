"""Core algebra layer: u-Laurent coefficients and weight-truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau.exactalg import (
    FAMILIES,
    FamilyError,
    TruncatedSeries,
    TruncationError,
    UBandError,
    UPOLY_ONE,
    UPOLY_ZERO,
    UPoly,
    band_for_weight,
    mono,
    mono_key,
    mono_str,
    mono_var,
    mono_weight,
    monomials_of_weight,
    substitute_linear,
)


def q(i, W=6, **kw):
    return TruncatedSeries.variable("q", W, i, **kw)


# ---------------------------------------------------------------------------
# UPoly
# ---------------------------------------------------------------------------


def test_upoly_parse_and_str():
    assert str(UPoly.parse("u^-1+2")) == "2 + u^-1"
    assert str(UPoly.parse("0")) == "0"
    assert str(UPoly.u(2, Fraction(-1, 3))) == "-1/3*u^2"
    assert UPoly.parse("1+u") * UPoly.parse("1-u") == UPoly.parse("1 - u^2")


def test_upoly_queries():
    p = UPoly.parse("3*u^-2 + u + 1/2*u^4")
    assert p.min_exp() == -2 and p.max_exp() == 4
    assert p.coeff(1) == 1 and p.coeff(3) == 0
    assert p.shift(2).min_exp() == 0
    assert p.scale(2).coeff(-2) == 6
    assert p.clip_above(1) == UPoly.parse("3*u^-2 + u")
    with pytest.raises(UBandError):
        p.check_band(-1, 4)


upoly_st = st.builds(
    lambda d: sum((UPoly.u(e, c) for e, c in d.items()), UPOLY_ZERO),
    st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4),
)


@given(upoly_st, upoly_st, upoly_st)
def test_upoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + UPOLY_ZERO == a and a * UPOLY_ONE == a


@given(upoly_st)
def test_upoly_json_roundtrip(p):
    assert UPoly.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


def test_mono_key_order():
    ms = [mono_var(3), mono((1, 3)), mono((1, 1), (2, 1)), mono_var(1)]
    assert [mono_str(m) for m in sorted(ms, key=mono_key)] == [
        "q1", "q1^3", "q1*q2", "q3",
    ]


def test_monomials_of_weight():
    got = {mono_str(m) for m in monomials_of_weight(3)}
    assert got == {"q3", "q1*q2", "q1^3"}


# ---------------------------------------------------------------------------
# TruncatedSeries ring structure
# ---------------------------------------------------------------------------


def test_truncation_is_silent_in_products():
    # quotient ring: weight > W simply vanishes
    s = q(1, 3) + q(2, 3)
    t = q(2, 3) + q(3, 3)
    assert str(s * t) == "q1*q2"


def test_overweight_input_is_an_error():
    with pytest.raises(TruncationError):
        TruncatedSeries("q", 3, {mono_var(4): UPOLY_ONE})


def test_family_mixing_is_an_error():
    with pytest.raises(FamilyError):
        q(1) + TruncatedSeries.variable("p", 6, 1)
    assert set("qpt") <= set(FAMILIES)


def small_series(W=5):
    monos = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ix: mono(*((i, ix.count(i)) for i in set(ix)))
    ).filter(lambda m: mono_weight(m) <= W)
    # band wide enough for triple products of |e| <= 4 coefficients
    term = st.tuples(monos, st.integers(-2, 2), st.integers(-4, 4))
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (TruncatedSeries.monomial("q", W, m, UPoly.u(e, c), umin=-12, umax=12)
             for m, c, e in ts),
            TruncatedSeries.zero("q", W, umin=-12, umax=12),
        )
    )


@settings(deadline=None)
@given(small_series(), small_series(), small_series())
def test_series_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == TruncatedSeries.zero("q", 5)


@settings(deadline=None)
@given(small_series(), small_series())
def test_partials_commute(f, g):
    s = f * g
    assert s.partial(1).partial(2) == s.partial(2).partial(1)


def test_partial_weight_drop():
    x = TruncatedSeries.monomial("q", 6, mono((1, 1), (2, 2)), UPoly.u(1))
    assert str(x.partial(2)) == "2*u*q1*q2"
    assert x.partial(2).reliable == 6 - 2
    assert x.partial(3) == TruncatedSeries.zero("q", 6)


def test_truncate_and_slices():
    s = q(1) + q(2) * q(3) + q(1).pow(4)
    assert str(s.truncate(2)) == "q1"
    assert str(s.weight_slice(5)) == "q2*q3"
    assert str(s.up_to_weight(4)) == "q1 + q1^4"


# ---------------------------------------------------------------------------
# exactness bookkeeping
# ---------------------------------------------------------------------------


def test_reliable_propagation_in_products():
    r = TruncatedSeries("q", 6, {mono_var(1): UPoly.const(2)}, reliable=4)
    w = TruncatedSeries("q", 6, {mono_var(2): UPOLY_ONE}, u_hi=3)
    p = r.mul(w)
    # min(W, 4 + wmin(w), 6 + wmin(r)) = 6; u_hi enters through the other
    # factor's lowest u-exponent
    assert p.reliable == 6
    assert p.u_hi == 3


def test_reliable_never_exceeds_W():
    s = TruncatedSeries("q", 4, {mono_var(1): UPOLY_ONE}, reliable=99)
    assert s.reliable == 4
    assert s.truncate(3).reliable == 3


# ---------------------------------------------------------------------------
# u-band policy
# ---------------------------------------------------------------------------


def test_default_band():
    assert band_for_weight(8) == (-10, 10)
    with pytest.raises(UBandError):
        TruncatedSeries("q", 4, {mono_var(1): UPoly.u(7)})
    TruncatedSeries("q", 4, {mono_var(1): UPoly.u(7)}, umax=7)  # widening is fine


def test_band_escape_in_mul_is_loud():
    a = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(6)})
    with pytest.raises(UBandError):
        a.mul(a)
    wide = a.mul(a, umax=12)
    assert wide.coefficient_of(mono((1, 2))) == UPoly.u(12)


def test_json_golden():
    s = q(1, 3) * q(2, 3)
    assert s.to_json() == (
        '{"W":3,"family":"q","terms":[{"coef":[[0,"1"]],"mono":[[1,1],[2,1]]}]}'
    )
    assert TruncatedSeries.from_json(s.to_json()) == s


def test_clip_u_above_drops_high_exponents_and_records_the_clip():
    s = TruncatedSeries(
        "q", 4, {mono_var(1): UPoly.parse("u^-1 + 2*u^3"), mono_var(2): UPoly.u(5)}
    ).with_reliable(3)
    out = s.clip_u_above(2)
    assert out.terms == {mono_var(1): UPoly.u(-1)}
    assert (out.umin, out.umax) == (s.umin, 2)
    assert out.reliable == 3
    assert s.u_hi is None and out.u_hi == 2
    assert s.with_u_hi(7).clip_u_above(2).u_hi == 2
    assert s.with_u_hi(1).clip_u_above(2).u_hi == 1


# ---------------------------------------------------------------------------
# linear substitution
# ---------------------------------------------------------------------------


def test_substitute_linear_expands_squares():
    img = {1: q(1) + q(2)}
    out = substitute_linear(q(1) * q(1), img)
    assert str(out) == "q1^2 + 2*q1*q2 + q2^2"


def test_substitute_linear_band_override():
    # images may sit far below the default band of the target weight
    deep = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(-9)}, umin=-9)
    with pytest.raises(UBandError):
        substitute_linear(q(1, 4), {1: deep})
    out = substitute_linear(q(1, 4), {1: deep}, umin=-9)
    assert out.coefficient_of(mono_var(1)) == UPoly.u(-9)
