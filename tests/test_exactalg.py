"""Core algebra layer: u-Laurent coefficients and weight-truncated series."""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau.exactalg import (
    FAMILIES,
    PACK_LIMIT,
    FamilyError,
    PackCapacityError,
    TruncatedSeries,
    TruncationError,
    UBandError,
    UPOLY_ONE,
    UPOLY_ZERO,
    UPoly,
    band_for_weight,
    convolve,
    mono,
    mono_key,
    mono_mul,
    mono_str,
    mono_var,
    mono_weight,
    monomials_of_weight,
    monomials_up_to_weight,
    pack,
    packed_rows,
    substitute_linear,
    unpack,
)
from gjvtau.gjv import change_of_variables
from gjvtau.hirota import KP1, hirota_apply, to_hirota_vars
from gjvtau.hurwitz import cutjoin_series, h01_h02_closed_forms
from gjvtau import operators
from gjvtau.operators import CutJoin, Lambda, Partial, commutator, exponential_apply, symbol


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
    with pytest.raises(ValueError, match="1/0"):
        UPoly.parse("1/0")
    # a '*' must be followed by a power of u
    for text in ("2*", "1/2*", "3*u^2 - 2*"):
        with pytest.raises(ValueError, match=r"\*"):
            UPoly.parse(text)
    assert UPoly.parse("2*u") == UPoly.parse("2u") == UPoly.u(1, 2)


def test_upoly_queries():
    p = UPoly.parse("3*u^-2 + u + 1/2*u^4")
    assert p.min_exp() == -2 and p.max_exp() == 4
    assert p.coeff(1) == 1 and p.coeff(3) == 0
    assert p.scale(2).coeff(-2) == 6
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


# every monomial through weight 14, for the packed-monomial checks
MONOS_14 = list(monomials_up_to_weight(14))


def test_pack_then_unpack_gives_back_the_monomial():
    assert len(MONOS_14) == 508 and len({pack(m) for m in MONOS_14}) == 508
    for m in MONOS_14:
        assert unpack(pack(m)) == m
        assert pack(m) == sum(e << 8 * (i - 1) for i, e in m)


def test_packed_product_is_the_sum_of_the_packed_factors():
    for a in MONOS_14:
        pa = pack(a)
        for b in MONOS_14:
            assert pack(mono_mul(a, b)) == pa + pack(b), (a, b)


def test_packed_kernels_refuse_a_weight_a_byte_cannot_hold():
    # q1^256 would carry into q2's byte; every kernel raises by name first
    assert PACK_LIMIT == 256
    big = mono_var(1, PACK_LIMIT)
    s = TruncatedSeries.monomial("q", PACK_LIMIT, big)
    with pytest.raises(PackCapacityError):
        pack(big)
    with pytest.raises(PackCapacityError):
        s.partial(1)
    with pytest.raises(PackCapacityError):
        s.mul(q(1, W=PACK_LIMIT))
    with pytest.raises(PackCapacityError):
        Lambda(0).apply(s)
    with pytest.raises(PackCapacityError):
        hirota_apply(KP1, to_hirota_vars(s))
    # a kernel that forms monomials by + refuses the truncation itself, even
    # on a series whose own exponents fit
    one = q(1, W=PACK_LIMIT)
    for run in (lambda: one.mul(one), lambda: Partial(1).apply(one),
                lambda: exponential_apply(CutJoin(2), one)):
        with pytest.raises(PackCapacityError):
            run()
    # and so does a symbol at d-weight PACK_LIMIT, before it reads any stencil
    layers = operators._leaf_layer.cache_info().currsize
    for op in (Partial(1), commutator(CutJoin(2), Lambda(1))):
        with pytest.raises(PackCapacityError):
            symbol(op, PACK_LIMIT)
    assert operators._leaf_layer.cache_info().currsize == layers
    # one below the limit packs and runs
    top = PACK_LIMIT - 1
    assert unpack(pack(mono_var(1, top))) == mono_var(1, top)
    assert q(1, W=top).mul(q(1, W=top)) == TruncatedSeries.monomial("q", top, mono_var(1, 2))


def test_convolve_refuses_tuple_rows():
    # tuple monomials would concatenate under +, giving a wrong product
    s = q(1, 4) + q(2, 4)
    packed = packed_rows(s.rows)
    for left, right in ((s.rows, packed), (packed, s.rows), (s.rows, s.rows)):
        with pytest.raises(TypeError, match="packed rows"):
            convolve(left, right, 4)
    assert convolve(packed, packed, 4) == {pack(mono_var(1, 2)): (2, {0: 1}),
                                           pack(mono((1, 1), (2, 1))): (3, {0: 2}),
                                           pack(mono_var(2, 2)): (4, {0: 1})}


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
    s = q(1) + q(2) * q(3) + q(1) * q(1) * q(1) * q(1)
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


def test_band_escape_in_mul_raises_from_the_row_check():
    # the product's rows are checked as the public constructor checks terms
    a = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(6)})
    with pytest.raises(UBandError, match=re.escape("u-exponent range [12, 12] "
                                                   "escapes band [-6, 6]")):
        a.mul(a)
    with pytest.raises(UBandError, match=re.escape("u-exponent range [12, 12] "
                                                   "escapes band [-6, 6]")):
        TruncatedSeries("q", 4, {mono((1, 2)): UPoly.u(12)})
    # a part whose multiplier escapes raises, though the parts cancel
    with pytest.raises(UBandError, match=re.escape("u^4 times a series escapes "
                                                   "its band [-6, 6]")):
        a.add_scaled([(UPoly.u(4), a), (UPoly.u(4, -1), a)])


def test_row_constructor_checks_weight_and_band():
    row = [(mono_var(3), 3, ((0, 1),))]
    kw = dict(family="q", den=1, umin=-2, umax=2, reliable=None, u_hi=None)
    assert str(TruncatedSeries._built(W=3, rows=row, **kw)) == "q3"
    with pytest.raises(TruncationError, match="q3 has weight > W=2"):
        TruncatedSeries._built(W=2, rows=row, **kw)
    with pytest.raises(UBandError, match=re.escape("[3, 3] escapes band [-2, 2]")):
        TruncatedSeries._built(W=3, rows=[(mono_var(3), 3, ((3, 1),))], **kw)
    # narrowing the band re-checks the rows
    s = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(3)})
    with pytest.raises(UBandError, match=re.escape("[3, 3] escapes band [-6, 2]")):
        s.with_band(-6, 2)
    with pytest.raises(TruncationError, match="beyond W=4"):
        s.coefficient_of(mono_var(5))


def test_rows_share_one_reduced_denominator():
    s = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(1, Fraction(1, 6)),
                                 mono_var(2): UPoly.const(Fraction(3, 4))})
    assert s.den == 12 and s.rows == [(mono_var(1), 1, ((1, 2),)),
                                      (mono_var(2), 2, ((0, 9),))]
    # 2 * s less its weight-2 part is 1/3 u q1, over 3
    assert (s.scale(2) - s.weight_slice(2).scale(2)).rows == [(mono_var(1), 1, ((1, 1),))]
    assert (s.scale(2) - s.weight_slice(2).scale(2)).den == 3
    assert (s.partial(2).den, s.partial(2).rows) == (4, [((), 0, ((0, 3),))])
    assert (s - s).den == 1 and (s - s).rows == []


def assert_as_public(s):
    """s is what the public constructor builds from s.terms: the same rows
    over the same denominator, in ascending weight, and the same fields."""
    public = TruncatedSeries(s.family, s.W, s.terms, **s._meta())
    assert public == s and s == public and public.terms == s.terms
    assert (s.W, s.umin, s.umax, s.reliable, s.u_hi) == (
        public.W, public.umin, public.umax, public.reliable, public.u_hi)
    assert s.den == public.den and sorted(s.rows) == sorted(public.rows)
    assert [w for _, w, _ in s.rows] == sorted(w for _, w, _ in s.rows)


def test_json_golden():
    s = q(1, 3) * q(2, 3)
    assert json.dumps(s.to_json_obj(), sort_keys=True, separators=(",", ":")) == (
        '{"W":3,"family":"q","terms":[{"coef":[[0,"1"]],"mono":[[1,1],[2,1]]}]}'
    )


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
# product kernel
# ---------------------------------------------------------------------------


def reference_mul(a, b, *, umin=None, umax=None):
    """Reference: the per-term product, one Fraction UPoly product and one
    UPoly sum per pair of terms whose weight is at most the product's
    reliable weight, with the same bookkeeping as mul."""
    W = min(a.W, b.W)
    lo = min(a.umin, b.umin) if umin is None else umin
    hi = max(a.umax, b.umax) if umax is None else umax
    rel = W
    if a.terms and b.terms:
        rel = min(W, a.reliable + b.min_weight(), b.reliable + a.min_weight())
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if mono_weight(m1) + mono_weight(m2) <= rel:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, UPOLY_ZERO) + c1 * c2
    u_hi = None
    if a.u_hi is not None and b:
        u_hi = a.u_hi + b.min_u_exp()
    if b.u_hi is not None and a:
        h2 = b.u_hi + a.min_u_exp()
        u_hi = h2 if u_hi is None else min(u_hi, h2)
    return TruncatedSeries(a.family, W, acc, umin=lo, umax=hi,
                           reliable=rel, u_hi=u_hi)


# small denominators mixed with large primes, so the operands' lcms and their
# product are coprime in parts and exceed machine words
DENOMINATORS = (1, 2, 3, 4, 6, 12, 35, 1_000_003, 998_244_353, 2**61 - 1)


@st.composite
def kernel_series(draw):
    W = draw(st.integers(0, 6))
    umin, umax = draw(st.integers(-4, -2)), draw(st.integers(2, 4))
    coef = st.builds(Fraction, st.integers(-10**12, 10**12),
                     st.sampled_from(DENOMINATORS))
    upoly = st.dictionaries(st.integers(-2, 2), coef, min_size=1,
                            max_size=3).map(UPoly)
    monos = st.sampled_from(list(monomials_up_to_weight(W)))
    # zero, constant and general operands
    terms = draw(st.one_of(
        st.just({}),
        upoly.map(lambda c: {(): c}),
        st.dictionaries(monos, upoly, max_size=6),
    ))
    return TruncatedSeries("q", W, terms, umin=umin, umax=umax,
                           reliable=draw(st.integers(-2, W + 2)),
                           u_hi=draw(st.none() | st.integers(-4, 4)))


@settings(deadline=None, max_examples=200)
@given(kernel_series(), kernel_series(),
       st.none() | st.tuples(st.integers(-8, -2), st.integers(2, 8)))
def test_mul_matches_the_per_term_fraction_product(a, b, band):
    kw = {} if band is None else dict(umin=band[0], umax=band[1])
    try:
        want = reference_mul(a, b, **kw)
    except UBandError:
        with pytest.raises(UBandError):
            a.mul(b, **kw)
        return
    got = a.mul(b, **kw)
    assert got.terms == want.terms
    assert (got.family, got.W, got.reliable, got.u_hi, got.umin, got.umax) == (
        want.family, want.W, want.reliable, want.u_hi, want.umin, want.umax)
    # a product stores no row above the weight it certifies
    assert all(w <= got.reliable for _, w, _ in got.rows)


def test_mul_stops_at_its_reliable_weight():
    # reliable 4 times min weight 1 certifies through 4 + 1 = 5 of W = 8
    a = TruncatedSeries("q", 8, {(): UPOLY_ONE, mono_var(1): UPoly.u(1),
                                 mono((2, 3)): UPoly.const(3)}, reliable=4)
    b = TruncatedSeries("q", 8, {mono_var(1): UPoly.const(Fraction(1, 2)),
                                 mono_var(4): UPoly.u(-1, 5),
                                 mono((1, 1), (3, 2)): UPOLY_ONE})
    got = a.mul(b)
    full = a.with_reliable(8).mul(b)
    assert (got.W, got.reliable) == (8, 5)
    assert max(w for _, w, _ in got.rows) == 5
    assert max(w for _, w, _ in full.rows) == 8
    assert got.terms == full.up_to_weight(5).terms
    # a factor with negative reliable weight leaves no pair to form, not
    # even the product of two constant terms
    for rel in (-1, -3):
        neg = a.with_reliable(rel)
        for p, want_rel in ((neg.mul(a), rel), (a.mul(neg), rel), (neg.mul(b), rel + 1)):
            assert (p.rows, p.reliable, p.W) == ([], want_rel, 8)


def test_mul_band_escape_under_a_narrow_band_raises():
    a = TruncatedSeries("q", 4, {mono_var(1): UPoly({-1: Fraction(1, 3),
                                                     1: Fraction(2, 7)})})
    b = TruncatedSeries("q", 4, {mono_var(2): UPoly.u(1, Fraction(5, 11))})
    assert a.mul(b, umin=-1, umax=2).coefficient_of(mono((1, 1), (2, 1))) == (
        UPoly({0: Fraction(5, 33), 2: Fraction(10, 77)}))
    with pytest.raises(UBandError):
        a.mul(b, umin=-1, umax=1)


def reference_add_scaled(s, parts):
    """Reference: the per-term sum, one UPoly product and one UPoly sum per
    entry, each c * p checked in p's band, with the bookkeeping of a chain of
    ``+`` in which c * p is exact up to p's u_hi plus c's lowest exponent."""
    W, lo, hi, rel, u_hi = s.W, s.umin, s.umax, s.reliable, s.u_hi
    acc = dict(s.terms)
    for c, p in parts:
        if p.family != s.family:
            raise FamilyError("mixed families")
        c = c if isinstance(c, UPoly) else UPoly.const(c)
        for m, v in p.terms.items():
            term = v * c
            term.check_band(p.umin, p.umax)
            acc[m] = acc.get(m, UPOLY_ZERO) + term
        W, lo, hi, rel = min(W, p.W), min(lo, p.umin), max(hi, p.umax), min(rel, p.reliable)
        if p.u_hi is not None:
            p_hi = p.u_hi + (c.min_exp() if c else 0)
            u_hi = p_hi if u_hi is None else min(u_hi, p_hi)
    return TruncatedSeries(s.family, W,
                           {m: c for m, c in acc.items() if mono_weight(m) <= W},
                           umin=lo, umax=hi, reliable=rel, u_hi=u_hi)


rational_st = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


@settings(deadline=None, max_examples=200)
@given(kernel_series(), st.lists(st.tuples(
    rational_st | st.dictionaries(st.integers(-3, 3), rational_st, max_size=3).map(UPoly),
    kernel_series()), max_size=3))
def test_add_scaled_matches_the_per_term_sum(s, parts):
    try:
        want = reference_add_scaled(s, parts)
    except UBandError:
        with pytest.raises(UBandError):
            s.add_scaled(iter(parts))
        return
    got = s.add_scaled(iter(parts))
    assert got.terms == want.terms
    assert (got.family, got.W, got.reliable, got.u_hi, got.umin, got.umax) == (
        want.family, want.W, want.reliable, want.u_hi, want.umin, want.umax)


@settings(deadline=None, max_examples=150)
@given(kernel_series(), kernel_series(),
       rational_st | st.dictionaries(st.integers(-3, 3), rational_st, max_size=3).map(UPoly),
       st.integers(1, 3), st.integers(-1, 7))
def test_every_kernel_output_is_what_the_public_constructor_builds(a, b, c, i, w):
    outs = [a.mul(b, umin=-8, umax=8), a.partial(i), a.clip_u_above(w - 3),
            a.weight_slice(w), a.up_to_weight(w), a.truncate(max(w, 0)),
            a.with_band(a.umin - 1, a.umax + 1), a - a, to_hirota_vars(a)]
    for kernel in (lambda: a.scale(c), lambda: a.add_scaled([(c, b), (-1, a)])):
        try:
            outs.append(kernel())
        except UBandError:
            pass
    for s in outs:
        assert_as_public(s)


def test_add_scaled_checks_each_part_in_its_band():
    # u^4 * u^3 leaves the band [-6, 6] of W = 4, though the two parts cancel
    s = q(1, 4)
    a = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(3)})
    with pytest.raises(UBandError):
        s.add_scaled([(UPoly.u(4), a), (UPoly.u(4, -1), a)])
    assert s.add_scaled([(UPoly.u(3), a), (UPoly.u(3, -1), a)]) == s


def test_scale_by_a_upoly_checks_the_band():
    a = TruncatedSeries("q", 4, {mono_var(1): UPoly.parse("u^-2 + u^3")})
    assert a.scale(UPoly.parse("u^3 - 2")).coefficient_of(mono_var(1)) == (
        UPoly.parse("u^6 - 2*u^3 + u - 2*u^-2"))
    with pytest.raises(UBandError):
        a.scale(UPoly.u(4))
    with pytest.raises(UBandError):
        a.scale(UPoly.u(-5))


def test_scale_by_negative_u_powers_lowers_u_hi():
    # the u^2 entry of u^-1 * s is read from s's u^3 entry, which is not exact
    s = TruncatedSeries("q", 4, {mono_var(1): UPoly.parse("u^-2 + u^3")}, u_hi=3)
    assert s.scale(UPoly.u(-1)).u_hi == s.u_hi - 1
    assert s.scale(UPoly.parse("u^-2 + 5*u")).u_hi == s.u_hi - 2
    # a zero multiplier, a constant one and a positive power keep it
    assert s.scale(0).u_hi == s.scale(3).u_hi == s.scale(UPoly.u(1)).u_hi == 3


def test_add_scaled_of_mixed_families_raises():
    with pytest.raises(FamilyError):
        q(1, 4).add_scaled([(1, TruncatedSeries.variable("p", 4, 1))])


def test_mul_of_mixed_families_raises():
    p = TruncatedSeries.variable("p", 4, 1)
    with pytest.raises(FamilyError):
        q(1, 4).mul(p)
    with pytest.raises(FamilyError):
        p.mul(q(1, 4))


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


def test_substitute_linear_term_leaving_the_band_raises():
    # the image and the coefficient each sit in the band; their product does not
    s = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(4)})
    img = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(3)})
    with pytest.raises(UBandError):
        substitute_linear(s, {1: img})


def test_substitute_linear_images_of_mixed_families_raise():
    with pytest.raises(FamilyError):
        substitute_linear(q(1, 4), {1: q(1, 4), 2: TruncatedSeries.variable("p", 4, 2)})


def test_substitute_linear_missing_variable_raises():
    with pytest.raises(KeyError, match="missing variable 2"):
        substitute_linear(q(1, 4) * q(2, 4), {1: q(1, 4)})


def naive_substitute_linear(s, rule, *, umin, umax):
    """Reference: every source term multiplies its images out from the
    constant, one product per variable power, and the terms are summed one
    series at a time."""
    W = s.W
    family = next(iter(rule.values())).family
    images = {
        b: TruncatedSeries(family, W, {m: c for m, c in img.terms.items()
                                       if mono_weight(m) <= W},
                           umin=umin, umax=umax)
        for b, img in rule.items()
    }
    out = TruncatedSeries.zero(family, W, umin=umin, umax=umax)
    for m, c in s.terms.items():
        term = TruncatedSeries.const(family, W, c, umin=umin, umax=umax)
        for i, e in m:
            for _ in range(e):
                term = term.mul(images[i], umin=umin, umax=umax)
        out = out + term
    slope = min((Fraction(c.min_exp(), mono_weight(m))
                 for img in rule.values() for m, c in img.terms.items()),
                default=Fraction(0))
    u_hi = s.u_hi
    if u_hi is not None:
        u_hi += math.floor(min(slope, 0) * W)
    rel = min(s.reliable, min(img.reliable for img in rule.values()), W)
    return out.with_reliable(rel).with_u_hi(u_hi)


@st.composite
def substitution_cases(draw):
    """A sparse p-series and a weight-compatible linear rule p_b -> q_(i>=b)."""
    W = draw(st.integers(1, 6))
    upoly = st.dictionaries(st.integers(-2, 2), st.integers(-5, 5),
                            min_size=1, max_size=3).map(UPoly)

    def monomial(exponents):
        # q1^e1 q2^e2 q3^e3 cut to weight W: low indices make long monomials
        # whose spelled prefixes are shared
        word = []
        for i, e in zip((1, 2, 3), exponents):
            word += [i] * min(e, (W - sum(word)) // i)
        return mono(*((i, word.count(i)) for i in set(word)))

    exponents = st.tuples(st.integers(0, W), st.integers(0, 3), st.integers(0, 2))
    terms = draw(st.dictionaries(exponents.map(monomial), upoly, max_size=12))
    # products of at most W images, each |u-exponent| <= 2, times a coefficient
    band = 2 * W + 2
    s = TruncatedSeries("p", W, terms, umin=-band, umax=band,
                        reliable=draw(st.integers(0, W)),
                        u_hi=draw(st.none() | st.integers(-3, 3)))
    rule = {}
    for b in range(1, W + 1):
        # image weights may run past W: substitute_linear drops them
        img = draw(st.dictionaries(st.integers(b, W + 2).map(mono_var), upoly,
                                   min_size=1, max_size=3))
        rule[b] = TruncatedSeries("q", W + 2, img, umin=-2, umax=2,
                                  reliable=draw(st.integers(0, W + 2)))
    return s, rule, band


@settings(deadline=None, max_examples=150)
@given(substitution_cases())
def test_substitute_linear_matches_the_per_term_products(case):
    s, rule, band = case
    got = substitute_linear(s, rule, umin=-band, umax=band)
    want = naive_substitute_linear(s, rule, umin=-band, umax=band)
    assert_as_public(got)
    assert got.terms == want.terms
    assert (got.family, got.W, got.umin, got.umax, got.reliable, got.u_hi) == (
        want.family, want.W, want.umin, want.umax, want.reliable, want.u_hi)


def binomial_rule(W, lo, hi):
    """The paper's change of variables as a linear rule:
    p_b -> sum_{i>=b} u^-i (-1)^(i-b) C(i-1, b-1) q_i, in the band [lo, hi]."""
    return {
        b: TruncatedSeries(
            "q", W,
            {mono_var(i): UPoly.u(-i, (-1) ** (i - b) * math.comb(i - 1, b - 1))
             for i in range(b, W + 1)},
            umin=lo, umax=hi)
        for b in range(1, W + 1)
    }


def binomial_substitution(s):
    """substitute_linear by the binomial rule, in change_of_variables' band."""
    lo, hi = band_for_weight(s.W)
    lo = min(lo, s.min_u_exp() - s.W)
    hi = max(hi, max((r[-1][0] for _, _, r in s.rows), default=0))
    return substitute_linear(s, binomial_rule(s.W, lo, hi), umin=lo, umax=hi)


def assert_same_substitution(got, want):
    # rows in any order within a weight, over the same reduced denominator
    assert sorted(got.rows) == sorted(want.rows)
    assert (got.family, got.W, got.den, got.umin, got.umax, got.reliable, got.u_hi) == (
        want.family, want.W, want.den, want.umin, want.umax, want.reliable, want.u_hi)


def anchor_image_source(which):
    h01, h02 = h01_h02_closed_forms(6)
    l0 = Lambda(0)
    return l0.apply(l0.apply(h01 if which == "h01" else h02))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: cutjoin_series(8, 9), id="cutjoin_8_9_c0"),
    pytest.param(lambda: cutjoin_series(8, 9, UPOLY_ONE), id="cutjoin_8_9_c1"),
    pytest.param(lambda: cutjoin_series(8, 9, UPoly.parse("u^-1+2")), id="cutjoin_8_9_c2"),
    pytest.param(lambda: cutjoin_series(14, 8), id="cutjoin_14_8"),
    pytest.param(lambda: anchor_image_source("h01"), id="l0sq_h01"),
    pytest.param(lambda: anchor_image_source("h02"), id="l0sq_h02"),
    # u-exponents below the default band, so the widened band bottom binds
    pytest.param(lambda: TruncatedSeries("p", 4, {mono((1, 1), (2, 1)): UPoly.u(-5),
                                                  mono_var(4): UPoly.u(-7, 3)}, umin=-7),
                 id="below_the_band"),
])
def test_change_of_variables_is_the_binomial_substitution(build):
    # change_of_variables conjugates by exp(-Lambda_1/u); the paper states it
    # as the binomial substitution, which substitute_linear applies directly
    s = build()
    assert_same_substitution(change_of_variables(s), binomial_substitution(s))


@settings(deadline=None, max_examples=100)
@given(substitution_cases())
def test_change_of_variables_is_the_binomial_substitution_on_drawn_series(case):
    # sparse p-series with a drawn reliable weight and u_hi; the rule drawn
    # with them is not used
    s, _, _ = case
    assert_same_substitution(change_of_variables(s), binomial_substitution(s))


def test_substitute_linear_forms_one_product_per_prefix(monkeypatch):
    # spelled as nondecreasing indices, a monomial's prefixes are the partial
    # products of its images; each distinct one is one TruncatedSeries.mul
    s = cutjoin_series(10, 6)
    words = {tuple(i for i, e in m for _ in range(e)) for m in s.terms}
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    calls = []
    mul = TruncatedSeries.mul

    def counting_mul(self, other, **kw):
        calls.append(1)
        return mul(self, other, **kw)

    monkeypatch.setattr(TruncatedSeries, "mul", counting_mul)
    binomial_substitution(s)
    assert len(calls) == len(prefixes)
