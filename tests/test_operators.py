"""Operator layer: cut-and-join actions, commutators, graded exponentials."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau import operators
from gjvtau.exactalg import (
    TruncatedSeries,
    UBandError,
    UPOLY_ONE,
    UPoly,
    mono,
    mono_mul,
    mono_var,
    mono_weight,
    monomials_up_to_weight,
)
from gjvtau.operators import (
    Compose,
    CutJoin,
    CutPart,
    JoinPart,
    Lambda,
    MulVar,
    OperatorGradingError,
    Partial,
    Sum,
    bracket_chain,
    bracket_closed_form,
    bracket_order_bound,
    commutator,
    conjugate,
    exponential_apply,
    linear_part,
    n_partial,
    o_actions,
    ops_equal,
    scaled,
    verify_commutators,
    verify_conjugations,
    verify_O_operators,
)


def qmono(powers, W=6, coef=UPOLY_ONE):
    return TruncatedSeries.monomial("q", W, mono(*powers), coef)


def test_lambda_actions():
    q1 = TruncatedSeries.variable("q", 6, 1)
    assert str(Lambda(1).apply(q1)) == "q2"
    assert str(Lambda(0).apply(q1)) == "q1"
    assert Lambda(1).apply(TruncatedSeries.zero("q", 6)).is_zero()


def test_cutjoin_actions():
    q1 = TruncatedSeries.variable("q", 6, 1)
    assert str(CutJoin(2).apply(q1)) == "q1*q2"
    assert str(CutJoin(2).apply(qmono([(1, 1), (2, 1)]))) == (
        "2*q1*q2^2 + 2*q1^2*q3 + 2*q5"
    )
    # the join sum needs room: i=j=3 lands at weight 8
    assert str(JoinPart(2).apply(qmono([(3, 2)], W=8))) == "9*q8"
    assert JoinPart(2).apply(qmono([(3, 2)], W=6)).is_zero()


def test_cut_plus_join_is_the_whole_operator():
    both = Sum(CutPart(2), JoinPart(2))
    assert ops_equal(CutJoin(2).apply, both.apply, W=6)


series_st = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=3
).map(
    lambda ts: sum(
        (TruncatedSeries.monomial("q", 6, mono((i, 1)), UPoly.const(c))
         for i, c in ts),
        TruncatedSeries.zero("q", 6),
    )
)


@settings(deadline=None)
@given(series_st)
def test_sum_and_compose_act_pointwise(s):
    a, b = Lambda(1), CutJoin(2)
    assert Sum(a, b).apply(s) == a.apply(s) + b.apply(s)
    assert Compose(a, b).apply(s) == a.apply(b.apply(s))
    assert scaled(a, Fraction(3, 2)).apply(s) == a.apply(s).scale(Fraction(3, 2))


# ---------------------------------------------------------------------------
# the stencil kernel against each leaf's defining sum
# ---------------------------------------------------------------------------


def defining_sum(op, W):
    """op as (scalar, x-monomial, derivative indices) triples, spelled out
    from its defining sum over index pairs; indices beyond W + 2 act on
    nothing below the truncation."""
    r = range(1, W + 3)
    if isinstance(op, Lambda):
        return [(i, mono_var(i + op.a), (i,)) for i in r if i + op.a >= 1]
    if isinstance(op, CutPart):
        return [(Fraction(i + j - op.k, 2), mono((i, 1), (j, 1)), (i + j - op.k,))
                for i in r for j in r if i + j - op.k >= 1]
    if isinstance(op, JoinPart):
        return [(Fraction(i * j, 2), mono_var(i + j + op.k), (i, j))
                for i in r for j in r]
    if isinstance(op, CutJoin):
        return defining_sum(CutPart(op.k), W) + defining_sum(JoinPart(op.k), W)
    if isinstance(op, MulVar):
        return [(1, mono_var(op.i), ())]
    [(c, leaf)] = op.parts
    return [(c.scale(Fraction(k)), xs, ds) for k, xs, ds in defining_sum(leaf, W)]


def reference_apply(op, s):
    """op(s) term by term in Fraction arithmetic, through partial only."""
    out = {}
    for scalar, xs, derivs in defining_sum(op, s.W):
        d = s
        for i in derivs:
            d = d.partial(i)
        for m, c in d.terms.items():
            target = mono_mul(m, xs)
            if mono_weight(target) <= s.W:
                c = c * scalar if isinstance(scalar, UPoly) else c.scale(Fraction(scalar))
                out[target] = out[target] + c if target in out else c
    return {m: c for m, c in out.items() if c}


# a scalar is the coefficient of a one-part Sum; Lambda(0) keeps every
# u-exponent, so the scaled entry tests the coefficient alone
LEAVES = [Lambda(-1), Lambda(0), Lambda(1), MulVar(1), MulVar(3),
          scaled(Lambda(0), UPoly({-1: Fraction(1, 3), 2: Fraction(-7, 6)})),
          *(cls(k) for cls in (CutPart, JoinPart, CutJoin) for k in (0, 1, 2))]

# mixed denominators, so the kernel's lcm read has work to do
COEFS = [Fraction(1, 3), Fraction(5, 4), Fraction(-7, 6), Fraction(2), Fraction(-1)]

mixed_series_st = st.dictionaries(
    st.sampled_from(list(monomials_up_to_weight(6))),
    st.dictionaries(st.integers(-2, 2), st.sampled_from(COEFS), min_size=1, max_size=3)
    .map(UPoly),
    max_size=5,
).map(lambda terms: TruncatedSeries("q", 8, terms))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(LEAVES), mixed_series_st)
def test_leaf_kernel_matches_defining_sum(op, s):
    assert op.apply(s).terms == reference_apply(op, s)


def assert_as_public(s):
    """s is what the public constructor builds from s.terms: the same rows
    over the same denominator, in ascending weight, and the same fields."""
    public = TruncatedSeries(s.family, s.W, s.terms, **s._meta())
    assert public == s and s == public and public.terms == s.terms
    assert (s.W, s.umin, s.umax, s.reliable, s.u_hi) == (
        public.W, public.umin, public.umax, public.reliable, public.u_hi)
    assert s.den == public.den and sorted(s.rows) == sorted(public.rows)
    assert [w for _, w, _ in s.rows] == sorted(w for _, w, _ in s.rows)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(LEAVES + [Partial(2), Compose(Lambda(1), CutJoin(2), Lambda(1)),
                                 Sum(CutJoin(0), scaled(Partial(1), UPoly.u(1, 3)))]),
       st.builds(lambda s, rel, u_hi: TruncatedSeries("q", s.W, s.terms, reliable=rel,
                                                      u_hi=u_hi),
                 mixed_series_st, st.integers(4, 8), st.none() | st.integers(-3, 3)))
def test_every_apply_is_what_the_public_constructor_builds(op, s):
    assert_as_public(op.apply(s))
    assert_as_public(exponential_apply(op, s, max_order=2))


def test_apply_builds_no_upoly_before_terms_are_read(monkeypatch):
    # the operator kernels read and write integer rows; the UPoly view is
    # built only when the result's terms are read
    s = TruncatedSeries("q", 8, {mono((1, 1), (2, 1)): UPoly.u(1, Fraction(1, 3)),
                                 mono_var(3): UPoly.parse("u^-1 + 5/4")})
    built = []
    init = UPoly.__init__

    def counting_init(self, terms):
        built.append(1)
        init(self, terms)

    monkeypatch.setattr(UPoly, "__init__", counting_init)
    out = Compose(Lambda(1), CutJoin(2), Lambda(1)).apply(s)
    assert out and not built
    assert out.terms and len(built) == len(out.rows)


def test_stencil_memo_carries_no_truncation():
    # the memo is filled at W = 6, then read at 10 and at 6 again
    operators._stencil.cache_clear()
    base = {mono((1, 1), (2, 1)): UPoly({0: Fraction(5, 4), 1: Fraction(-7, 6)}),
            mono((1, 3)): UPoly.const(Fraction(1, 3)), mono_var(4): UPOLY_ONE,
            mono((2, 2)): UPoly.u(-1, Fraction(3, 2))}
    for W in (6, 10, 6):
        s = TruncatedSeries("q", W, base)
        for op in LEAVES:
            assert op.apply(s).terms == reference_apply(op, s), (W, op)


def test_scalar_out_of_band_raises_through_every_apply():
    # u^8 is the top of the W = 6 band, so one more power of u escapes it
    s = qmono([(1, 1)], coef=UPoly.u(8))
    up = scaled(Lambda(0), UPoly.u(1))
    for op in (up, Sum(Lambda(0), up), Compose(Lambda(0), up)):
        with pytest.raises(UBandError):
            op.apply(s)


def test_sum_keeps_the_bookkeeping_of_the_add_chain():
    s = TruncatedSeries("q", 8, {mono((1, 1), (3, 1)): UPoly.u(2, Fraction(1, 3)),
                                 mono((2, 2)): UPoly.const(Fraction(5, 4))}, u_hi=4)
    ops = (Partial(3), scaled(Lambda(0), UPoly.u(-1, Fraction(-7, 6))), Lambda(1))
    got = Sum(*ops).apply(s)
    want = TruncatedSeries.zero("q", 8, u_hi=4)
    for op in ops:
        want = want + op.apply(s)
    assert got == want
    assert (got.reliable, got.u_hi, got.umin, got.umax) == (
        want.reliable, want.u_hi, want.umin, want.umax) == (5, 3, -10, 10)


def bookkeeping(s):
    return (s.W, s.reliable, s.u_hi, s.umin, s.umax)


def test_a_nested_sum_acts_as_the_flat_sum():
    s = TruncatedSeries("q", 8, {mono((1, 1), (3, 1)): UPoly.u(2, Fraction(1, 3)),
                                 mono((2, 2)): UPoly.const(Fraction(5, 4))}, u_hi=4)
    inner = Sum(Partial(3), scaled(Lambda(1), UPoly.u(-1)))
    nested = Sum(Lambda(0), inner, coeffs=(1, UPoly.u(-1, 2)))
    flat = Sum(Lambda(0), Partial(3), Lambda(1),
               coeffs=(1, UPoly.u(-1, 2), UPoly.u(-2, 2)))
    got, want = nested.apply(s), flat.apply(s)
    assert got == want
    assert bookkeeping(got) == bookkeeping(want) == (8, 5, 2, -10, 10)
    assert got == (Lambda(0).apply(s) + Partial(3).apply(s).scale(UPoly.u(-1, 2))
                   + Lambda(1).apply(s).scale(UPoly.u(-2, 2)))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([Partial(1), Partial(3), Lambda(-1), Lambda(0), Lambda(1),
                        MulVar(2), CutJoin(0), CutJoin(2)]),
       st.builds(lambda s, rel, u_hi: TruncatedSeries("q", s.W, s.terms, reliable=rel,
                                                      u_hi=u_hi),
                 mixed_series_st, st.integers(4, 8), st.none() | st.integers(-3, 3)),
       st.just(UPoly({})) | st.dictionaries(st.integers(-3, 3), st.sampled_from(COEFS),
                                            min_size=1, max_size=3).map(UPoly))
def test_scaled_acts_as_scale_after_the_operator(op, s, c):
    got, want = scaled(op, c).apply(s), op.apply(s).scale(c)
    assert got == want
    # a Sum reports no more than its input's reliable weight, which is less
    # than the scale's only for a weight-raising op on a series reliable
    # below W
    assert got.reliable == min(s.reliable, want.reliable)
    assert bookkeeping(got)[2:] == bookkeeping(want)[2:] and got.W == want.W


SHIFT_OPS = [
    Partial(1), Partial(3), Lambda(-1), Lambda(0), Lambda(1), MulVar(2),
    pytest.param(scaled(Lambda(0), UPoly.u(-1) + UPoly.u(2, 3)),
                 id="(3*u^2 + u^-1)*Lambda(a=0)"),
    *(cls(k) for cls in (CutPart, JoinPart, CutJoin) for k in (0, 1, 2)),
    pytest.param(scaled(CutJoin(1), UPoly.u(1, 2)), id="2u*CutJoin(k=1)"),
]


@pytest.mark.parametrize("op", SHIFT_OPS, ids=repr)
def test_declared_shifts_match_the_action(op):
    # Operator.apply's reliable weight trusts weight_shift, and
    # exponential_apply's grading reads a summand's u-shift off the exponent
    # range of its coefficient, so check both against what op does
    W = 9
    [(c, leaf)] = Sum(op).parts
    dw = leaf.weight_shift()
    ulo, uhi = c.min_exp(), c.max_exp()
    acted = False
    for m in monomials_up_to_weight(6):
        out = op.apply(TruncatedSeries.monomial("q", W, m))
        for m_out, c in out.terms.items():
            acted = True
            assert mono_weight(m_out) == mono_weight(m) + dw, (m, m_out)
            assert ulo <= c.min_exp() and c.max_exp() <= uhi, (m, c)
    assert acted


# ---------------------------------------------------------------------------
# commutator and conjugation batteries
# ---------------------------------------------------------------------------


def test_commutator_suite():
    res = verify_commutators(6)
    assert res == {
        "m0_l1_is_2m1": True,
        "m1_l1_is_m2": True,
        "m2_l1_is_zero": True,
        "l0_l1_is_l1": True,
        "d1_m2_is_l1": True,
        "m0_l0_is_zero": True,
    }


def test_single_commutator_directly():
    lhs = commutator(Lambda(0), Lambda(1))
    assert ops_equal(lhs.apply, Lambda(1).apply, W=6, headroom=2)


def test_conjugation_suite():
    assert all(verify_conjugations(6).values())


def test_conjugate_of_commuting_pair_is_identity():
    # [M2, M2] = 0, so conjugation by exp(M2) fixes M2
    out = conjugate(CutJoin(2), CutJoin(2), W=6)
    assert ops_equal(out, CutJoin(2).apply, W=6)


def test_conjugate_gives_up_past_its_depth_cap():
    # [Lambda(1), Lambda(0)] = -Lambda(1), so the k-th bracket of the chain
    # is (-1)^k Lambda(1) and none vanishes
    with pytest.raises(OperatorGradingError):
        conjugate(Lambda(0), Lambda(1), W=4)


CONJ_X = scaled(Lambda(1), UPoly.u(-1))
CHAIN_PAIRS = [
    pytest.param(CONJ_X, scaled(CutJoin(0), UPoly.u(2)), id="conj_m0"),
    pytest.param(CONJ_X, scaled(Lambda(0), UPoly.u(1)), id="conj_l0"),
    *(pytest.param(CutJoin(2), n_partial(n), id=f"m2_np{n}") for n in range(1, 6)),
]


@pytest.mark.parametrize("x,a", CHAIN_PAIRS)
def test_bracket_chain_is_the_nested_commutator_chain(x, a):
    # the binomial row against nested commutators (2^r paths at depth r), on
    # a non-monomial input with u-Laurent coefficients and u_hi set
    s = TruncatedSeries("q", 8, {mono((1, 1), (2, 1)): UPoly.u(1, Fraction(1, 3)),
                                 mono_var(3): UPoly.parse("u^-1 + 5/4"),
                                 mono((1, 2)): UPoly.u(-2, Fraction(-7, 6))},
                        reliable=7, u_hi=4)
    chain = bracket_chain(x, a, s)
    ref = a
    for r in range(5):
        got, want = next(chain), ref.apply(s)
        assert got == want, r
        assert (got.family, *bookkeeping(got)) == (want.family, *bookkeeping(want)), r
        ref = commutator(ref, x)


# ---------------------------------------------------------------------------
# graded exponentials
# ---------------------------------------------------------------------------


def test_exponential_roundtrip():
    s = TruncatedSeries("q", 6, {mono((1, 1), (2, 1)): UPoly.u(1),
                                 mono_var(3): UPOLY_ONE})
    e = exponential_apply(CutJoin(2), s)
    back = exponential_apply(scaled(CutJoin(2), -1), e)
    assert back == s
    assert back.reliable == 6


def test_exponential_needs_a_grading_or_a_cap():
    q1 = TruncatedSeries.variable("q", 6, 1)
    with pytest.raises(OperatorGradingError):
        exponential_apply(Lambda(0), q1)  # weight shift 0: no sound horizon
    capped = exponential_apply(Lambda(0), q1, max_order=3)
    assert str(capped) == "8/3*q1"


def test_exponential_reads_the_u_shift_off_the_coefficient():
    q1 = TruncatedSeries.variable("q", 6, 1)
    # u^-1 * Lambda(0) keeps weight and lowers u: no sound horizon
    with pytest.raises(OperatorGradingError):
        exponential_apply(scaled(Lambda(0), UPoly.u(-1)), q1)
    # u * Lambda(0) raises u by one: the box grading ends it at the band top,
    # and the clip is recorded in u_hi
    e = exponential_apply(scaled(Lambda(0), UPoly.u(1)), q1)
    top = q1.umax
    assert e == qmono([(1, 1)], coef=UPoly({k: Fraction(1, factorial(k))
                                            for k in range(top + 1)}))
    assert (e.umax, e.u_hi) == (top, top)


# ---------------------------------------------------------------------------
# iterated brackets and the O-operators
# ---------------------------------------------------------------------------


def test_bracket_order_bound():
    assert bracket_order_bound(4, 10) == 6
    assert bracket_order_bound(1, 8) == 4


def test_linear_part_is_the_cut_sum():
    assert ops_equal(linear_part(CutJoin(2)).apply, CutPart(2).apply, W=6)
    with pytest.raises(ValueError):
        linear_part(Lambda(1))


@pytest.mark.parametrize("n,matches_full", [(2, True), (3, True), (4, False)])
def test_closed_form_matches_cut_bracket_only(n, matches_full):
    # the one-fold bracket closed form reproduces [n d/dx_n, cut part] always;
    # against the full operator the join sum contributes from n=4 on
    cf = bracket_closed_form(n, 1, 8)
    cut = commutator(n_partial(n), CutPart(2))
    full = commutator(n_partial(n), CutJoin(2))
    assert ops_equal(cf.apply, cut.apply, W=8, headroom=1)
    assert ops_equal(cf.apply, full.apply, W=8, headroom=1) is matches_full


def test_o_operator_suite_low_n():
    for n in (1, 2, 3):
        assert all(verify_O_operators(n, 8).values()), n


def test_o_operator_suite_high_n():
    # weighted_sum_is_bracket is an identity and survives; the three
    # structural claims degrade as n grows
    assert verify_O_operators(4, 8) == {
        "action_vanishes_off_peak": True,
        "penultimate_action": False,
        "weighted_sum_is_bracket": True,
        "weighted_sum_is_lambda_shift": False,
    }
    assert verify_O_operators(5, 8) == {
        "action_vanishes_off_peak": False,
        "penultimate_action": False,
        "weighted_sum_is_bracket": True,
        "weighted_sum_is_lambda_shift": False,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weighted_o_sum_equals_bracket_action(n):
    # sum_i i*O_i(s) == [n d/dx_n, M](s), checked on a non-monomial input
    W = 8
    s = qmono([(1, 1), (3, 1)], W=W) + qmono([(2, 2)], W=W)
    acts = o_actions(n, s, W)
    weighted = sum(
        (a.scale(i) for i, a in enumerate(acts)),
        TruncatedSeries.zero("q", W),
    )
    m2 = CutJoin(2)
    np_ = n_partial(n)
    bracket = np_.apply(m2.apply(s)) - m2.apply(np_.apply(s))
    assert weighted == bracket
