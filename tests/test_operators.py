"""Operator layer: cut-and-join actions, commutators, graded exponentials."""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau import operators
from gjvtau.cli import main
from gjvtau.gjv import extract_G, tau_route_reports
from gjvtau.report import FAIL
from gjvtau.exactalg import (
    TruncatedSeries,
    UBandError,
    UPOLY_ONE,
    UPoly,
    mono,
    mono_var,
    mono_weight,
    monomials_up_to_weight,
    pack,
    unpack,
)
from gjvtau.operators import (
    Compose,
    CutJoin,
    CutPart,
    JoinPart,
    Lambda,
    Operator,
    OperatorGradingError,
    Partial,
    Sum,
    commutator,
    commutator_identities,
    conjugate,
    conjugation_cases,
    exp_u_join,
    exponential_apply,
    linear_part,
    n_partial,
    o_actions,
    ops_equal,
    scaled,
    symbol,
    verify_commutators,
    verify_conjugations,
    verify_O_operators,
)
from reference import mono_div_var, mono_mul


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
LEAVES = [Lambda(-1), Lambda(0), Lambda(1),
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
    if any(part.weight_shift() < 0 for _, part in Sum(op).parts):
        # a capped exponential takes no summand that lowers weight
        with pytest.raises(OperatorGradingError):
            exponential_apply(op, s, max_order=2)
    else:
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
    operators.clear_stencils()
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


def fold_apply(op, s):
    """A Sum's action as one series per part, summed by add_scaled."""
    return s._with([], 1).add_scaled((c, part.apply(s)) for c, part in op.parts)


coef_st = st.just(UPoly({})) | st.dictionaries(
    st.integers(-3, 3), st.sampled_from(COEFS), min_size=1, max_size=3).map(UPoly)
inexact_series_st = st.builds(
    lambda s, rel, u_hi: TruncatedSeries("q", s.W, s.terms, reliable=rel, u_hi=u_hi),
    mixed_series_st, st.integers(4, 7), st.integers(-3, 3))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(coef_st, st.sampled_from(LEAVES) | st.integers(1, 4).map(Partial)),
                min_size=1, max_size=3),
       st.none() | coef_st, inexact_series_st)
def test_sum_apply_is_the_fold_over_its_parts(parts, compose_coef, s):
    # one stencil pass for the leaves, add_scaled only for a Compose part
    if compose_coef is not None:
        parts = parts + [(compose_coef, Compose(Lambda(1), Partial(2)))]
    op = Sum(*(part for _, part in parts), coeffs=[c for c, _ in parts])
    got, want = op.apply(s), fold_apply(op, s)
    assert sorted(got.rows) == sorted(want.rows) and got.den == want.den
    assert (got.family, *bookkeeping(got)) == (want.family, *bookkeeping(want))


def test_band_escape_hidden_by_a_cancelling_part_raises_through_sum():
    # each part is checked on its own, as add_scaled checks it: the parts
    # cancel, but u^4 moves the u^6 row out of the band [-6, 6]
    s = TruncatedSeries("q", 4, {mono_var(1): UPoly.u(6)})
    op = Sum(Lambda(0), Lambda(0), coeffs=(UPoly.u(4), UPoly.u(4, -1)))
    for apply in (op.apply, lambda s: fold_apply(op, s)):
        with pytest.raises(UBandError, match=re.escape("u^4 times a series escapes "
                                                       "its band [-6, 6]")):
            apply(s)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([Partial(1), Partial(3), Lambda(-1), Lambda(0), Lambda(1),
                        CutJoin(0), CutJoin(2)]),
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
    Partial(1), Partial(3), Lambda(-1), Lambda(0), Lambda(1),
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
    assert conjugate(CutJoin(2), CutJoin(2), W=6) == symbol(CutJoin(2), 6)


def test_conjugate_gives_up_past_its_depth_cap():
    # [Lambda(1), Lambda(0)] = -Lambda(1), so the k-th bracket of the chain
    # is (-1)^k Lambda(1) and none vanishes
    with pytest.raises(OperatorGradingError):
        conjugate(Lambda(0), Lambda(1), W=4)


def series_on(sym, s):
    """sym applied to the series s term by term, through weight s.W."""
    out = {}
    for m, c in s.terms.items():
        for t, k in symbol_on(sym, m).items():
            if mono_weight(t) <= s.W:
                out[t] = out.get(t, UPoly({})) + c * k
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("name", ["conj_m0", "conj_l0"])
def test_bracket_chain_is_the_nested_commutator_chain(name):
    # conjugate's chain of symbol brackets, each exact through the top it is
    # formed at, against nested commutators (2^r paths at depth r): as
    # symbols, and acting on a non-monomial input with u-Laurent coefficients
    x, a, _ = conjugation_cases()[name]
    s = TruncatedSeries("q", 8, {mono((1, 1), (2, 1)): UPoly.u(1, Fraction(1, 3)),
                                 mono_var(3): UPoly.parse("u^-1 + 5/4"),
                                 mono((1, 2)): UPoly.u(-2, Fraction(-7, 6))})
    depth, step = 5, operators._raise(symbol(x, s.W))
    top = s.W + depth * step
    chain = [symbol(a, top)]
    for _ in range(depth - 1):
        top -= step
        chain.append(operators._bracket(chain[-1], x, top))
    for r, (got, ref) in enumerate(zip(chain, nested_brackets(x, a, depth))):
        assert operators._linear([(UPOLY_ONE, got)], s.W) == symbol(ref, s.W), r
        assert series_on(got, s) == dict(ref.apply(s).terms), r
    assert not chain[-1].terms


# ---------------------------------------------------------------------------
# normal-ordered symbols against the extensional route
# ---------------------------------------------------------------------------


def symbol_on(sym, m):
    """sym applied to the monomial m, term by term: x^a d^b x^m is
    m!/(m-b)! x^(a+m-b) when b <= m, else zero."""
    out = {}
    for (xs, ds, e), n in sym.terms.items():
        have, mult = dict(m), Fraction(n, sym.den)
        for v, b in ds:
            if have.get(v, 0) < b:
                break
            mult *= factorial(have[v]) // factorial(have[v] - b)
            have[v] -= b
        else:
            t = mono_mul(xs, mono(*have.items()))
            out[t] = out.get(t, UPoly({})) + UPoly.u(e, mult)
    return {t: c for t, c in out.items() if c}


SYMBOL_LEAVES = [Partial(1), Partial(3), *(Lambda(a) for a in range(-3, 2)),
                 *(cls(k) for cls in (CutPart, JoinPart, CutJoin) for k in (0, 1, 2))]


@pytest.mark.parametrize("leaf", SYMBOL_LEAVES, ids=repr)
def test_leaf_symbol_reproduces_the_action(leaf):
    # the symbol is read off the actions on 1, q_v and q_v q_w only, so
    # agreeing on every monomial of weight <= 8 checks that no leaf has a
    # term of order above 2; the series has room for the largest raise
    sym = symbol(leaf, 8)
    for m in monomials_up_to_weight(8):
        assert symbol_on(sym, m) == dict(leaf.apply(qmono(m, W=10)).terms), m


def tuple_peel(acted, terms, factor, mult=1):
    """acted - mult * factor * terms on tuple monomials, with no zero entries."""
    out = dict(acted)
    for t, n in terms.items():
        t = mono_mul(t, factor)
        out[t] = out.get(t, 0) - mult * n
    return {t: n for t, n in out.items() if n}


def whole_read_leaf_symbol(op, N):
    """A stencil leaf's symbol at N read off its actions on 1, q_v and
    q_v q_w in one pass, with no layer shared between N, on tuple monomials
    and with its own peel and reduction: the reference for the layered
    reader, as (terms keyed by tuple monomials, den)."""
    def act(m):
        return {unpack(t): 2 * k for t, k in operators._stencil(op, pack(m))}

    zero = act(())
    acc = {(t, (), 0): n for t, n in zero.items()}
    first = {}
    for v in range(1, N + 1):
        qv = mono_var(v)
        first[v] = tuple_peel(act(qv), zero, qv)
        acc.update(((t, qv, 0), n) for t, n in first[v].items())
    for v in range(1, N // 2 + 1):
        for w in range(v, N - v + 1):
            beta = mono((v, 1), (w, 1))
            rest = tuple_peel(act(beta), zero, beta)
            if v == w:
                rest = tuple_peel(rest, first[v], mono_var(v), 2)
                acc.update(((t, beta, 0), n // 2) for t, n in rest.items())
            else:
                rest = tuple_peel(tuple_peel(rest, first[v], mono_var(w)), first[w], mono_var(v))
                acc.update(((t, beta, 0), n) for t, n in rest.items())
    g = gcd(2 * op.den, *acc.values())
    return {k: n // g for k, n in acc.items() if n}, 2 * op.den // g


@pytest.mark.parametrize("leaf", SYMBOL_LEAVES, ids=repr)
def test_layered_leaf_symbol_matches_the_whole_read(fresh_memos, leaf):
    # N ascending, then descending: every N reads the layers the others left
    for N in [*range(13), *range(12, -1, -1)]:
        sym = operators._leaf_symbol(leaf, N)
        assert (dict(sym.terms), sym.den) == whole_read_leaf_symbol(leaf, N), N


CLOSED_FORM = Sum(CutJoin(2), scaled(CutJoin(1), UPoly.u(1, 2)), scaled(CutJoin(0), UPoly.u(2)))
BRACKET_MATRIX = [*(CutJoin(k) for k in range(3)), CutPart(1), JoinPart(0),
                  *(Lambda(a) for a in range(-2, 2)), Partial(1), Partial(3), n_partial(4),
                  scaled(Lambda(1), UPoly.u(-1)), scaled(CutJoin(0), UPoly.u(2)), CLOSED_FORM]


def two_product_bracket(a, b, N):
    """The symbol of [a, b] at N as the difference of the full symbols of
    a.b and b.a, with every uncontracted term formed and cancelled."""
    return operators._linear([(UPOLY_ONE, symbol(Compose(a, b), N)),
                              (UPoly.const(-1), symbol(Compose(b, a), N))])


@pytest.mark.parametrize("N", range(4, 11))
def test_bracket_symbol_is_the_difference_of_the_two_products(N):
    for a in BRACKET_MATRIX:
        for b in BRACKET_MATRIX:
            assert symbol(commutator(a, b), N) == two_product_bracket(a, b, N), (a, b)


def two_product_conjugate(x, a, W):
    """conjugate with each bracket [y, X] formed as the difference of the
    full symbols of y.X and X.y."""
    step = operators._raise(symbol(x, W))
    for depth in range(1, operators.CONJUGATE_DEPTH + 1):
        top = W + depth * step
        chain = [symbol(a, top)]
        for _ in range(depth):
            top -= step
            y = chain[-1]
            chain.append(operators._linear([
                (UPOLY_ONE, operators._compose(y, symbol(x, top), top)),
                (UPoly.const(-1), operators._compose(symbol(x, top + operators._raise(y)),
                                                     y, top))]))
        if not chain[-1].terms:
            return operators._linear(((UPoly.const(Fraction(1, factorial(k))), t)
                                      for k, t in enumerate(chain[:-1])), W)
    raise OperatorGradingError("no chain vanished")


@pytest.mark.parametrize("W", range(4, 11))
def test_conjugate_matches_the_two_product_reference(W):
    cases = [case[:2] for case in conjugation_cases().values()]
    cases += [(CutJoin(2), CutJoin(2)), (scaled(Lambda(1), UPoly.u(-1)), CLOSED_FORM),
              (Lambda(1), scaled(CutJoin(0), UPoly.u(2)))]
    for x, a in cases:
        assert conjugate(x, a, W=W) == two_product_conjugate(x, a, W), (x, a)


COMPOSITES = [
    # d_v^2 meets x_v^2, so the Leibniz sum runs to kappa = 2
    Compose(JoinPart(0), CutPart(0)),
    Compose(CutJoin(2), CutJoin(0)),
    Compose(Partial(2), Partial(2), CutJoin(2)),
    commutator(scaled(CutJoin(1), UPoly.u(1, Fraction(1, 3))), Lambda(-1)),
]


@pytest.mark.parametrize("op", COMPOSITES, ids=["join0_cut0", "m2_m0", "d2_d2_m2", "u_m1_lm1"])
def test_composite_symbol_acts_like_apply(op):
    # no intermediate of these composites raises weight by more than 4, so
    # at truncation 12 apply drops nothing on inputs of weight <= 8
    sym = symbol(op, 8)
    for m in monomials_up_to_weight(8):
        assert symbol_on(sym, m) == dict(op.apply(qmono(m, W=12)).terms), m


def join_corrected(n):
    """n Lambda(2-n) + (n/2) Sum_{i+j=n-2} ij d_i d_j, the bracket [n d_n, M2]."""
    join = [scaled(Compose(Partial(i), Partial(n - 2 - i)), Fraction(n * i * (n - 2 - i), 2))
            for i in range(1, n - 2)]
    return Sum(scaled(Lambda(2 - n), n), *join)


ROUTE_W = 8
ROUTE_CASES = [
    *(pytest.param(lhs, rhs, 2, True, id=name)
      for name, (lhs, rhs) in commutator_identities().items()),
    *(pytest.param(commutator(n_partial(n), CutJoin(2)), scaled(Lambda(2 - n), n), n, n <= 3,
                   id=f"bracket_n{n}_is_lambda_shift") for n in range(1, 6)),
    *(pytest.param(commutator(n_partial(n), CutJoin(2)), join_corrected(n), n, True,
                   id=f"bracket_n{n}_is_join_corrected") for n in range(1, 6)),
]


@pytest.mark.parametrize("lhs,rhs,headroom,holds", ROUTE_CASES)
def test_symbol_route_agrees_with_ops_equal(lhs, rhs, headroom, holds):
    by_symbol = symbol(lhs, ROUTE_W) == symbol(rhs, ROUTE_W)
    assert by_symbol is ops_equal(lhs, rhs, W=ROUTE_W, headroom=headroom) is holds


def nested_brackets(x, a, depth):
    """(ad_X)^k(a) = [..[[a, X], X].., X] for k < depth, as nested commutators."""
    out = [a]
    for _ in range(depth - 1):
        out.append(commutator(out[-1], x))
    return out


def chain_map(x, a):
    """s -> Sum_k [(ad_X)^k(a)](s) / k! for k < 4, on series, with no symbol;
    both conjugation chains vanish by depth 3."""
    return Sum(*nested_brackets(x, a, 4), coeffs=[Fraction(1, factorial(k)) for k in range(4)])


@pytest.mark.parametrize("name", list(conjugation_cases()))
def test_conjugation_chain_routes_agree(name):
    x, a, target = conjugation_cases()[name]
    by_symbol = verify_conjugations(ROUTE_W)[f"{name}_chain"]
    assert by_symbol is ops_equal(chain_map(x, a), target, W=ROUTE_W) is True


def literal_sandwich(x, a):
    """s -> exp(-X) a exp(X) s, applied step by step."""
    minus_x = scaled(x, -1)
    return lambda s: exponential_apply(minus_x, a.apply(exponential_apply(x, s)))


def planted_targets():
    """The conjugation cases with wrong targets: CutJoin(1)'s coefficient 2u
    made 3u, and Lambda(1) doubled."""
    (x, m0, _), (_, l0, _) = conjugation_cases().values()
    return {"conj_m0": (x, m0, Sum(m0, scaled(CutJoin(1), UPoly.u(1, 3)), CutJoin(2))),
            "conj_l0": (x, l0, Sum(l0, scaled(Lambda(1), 2)))}


@pytest.mark.parametrize("planted", [False, True], ids=["true_targets", "planted_targets"])
def test_intertwining_form_agrees_with_the_literal_sandwich(monkeypatch, planted):
    # a exp(X) = exp(X) T and exp(-X) a exp(X) = T give one verdict
    cases = planted_targets() if planted else conjugation_cases()
    monkeypatch.setattr(operators, "conjugation_cases", lambda: cases)
    got = verify_conjugations(ROUTE_W)
    for name, (x, a, target) in cases.items():
        literal = ops_equal(literal_sandwich(x, a), target, W=ROUTE_W)
        assert got[f"{name}_sandwich"] is literal is (not planted), name


@pytest.mark.parametrize("W", [8, 10])
def test_conjugations_form_three_exponentials(monkeypatch, W):
    # exp(X) probe once for both cases, which share X, and exp(X) T probe
    # once per case, whatever the number of basis monomials
    calls = []
    real = operators.exponential_apply

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(operators, "exponential_apply", counting)
    assert all(verify_conjugations(W).values())
    assert len(calls) == 3


@dataclass(frozen=True)
class Cancelling(Operator):
    """q1^2 -> q2 and q2 -> -q2: its images cancel in the plain sum of the
    weight <= W monomials, but not on the tagged probe."""

    def stencil(self, p):
        if p == pack(mono((1, 2))):
            yield pack(mono_var(2)), 1
        elif p == pack(mono_var(2)):
            yield p, -1

    def weight_shift(self):
        return 0


@dataclass(frozen=True)
class OnlyQ1(Operator):
    """The projection onto q1."""

    def stencil(self, p):
        if p == pack(mono_var(1)):
            yield p, 1

    def weight_shift(self):
        return 0


def test_ops_equal_sees_images_that_cancel_in_the_plain_sum():
    plain = sum((qmono(list(m), W=4) for m in monomials_up_to_weight(4)),
                TruncatedSeries.zero("q", 4))
    assert Cancelling().apply(plain).is_zero()
    assert not ops_equal(Lambda(0), Sum(Lambda(0), Cancelling()), W=4)


def test_ops_equal_raises_on_an_image_moved_out_of_its_window():
    # the band of a weight-4 monomial is [-6, 6], so K = 26: u^(K/2) moves
    # q1's image halfway to the next block, as far from either as can be
    K = 26
    assert ops_equal(OnlyQ1(), scaled(OnlyQ1(), UPoly.u(K)), W=4) is False
    with pytest.raises(UBandError):
        ops_equal(OnlyQ1(), scaled(OnlyQ1(), UPoly.u(K // 2)), W=4)
    with pytest.raises(UBandError):  # alone, q1 would leave its band
        scaled(OnlyQ1(), UPoly.u(K // 2)).apply(qmono([(1, 1)], W=4))


def test_ops_equal_refuses_a_clip_in_u():
    # a box-grading exponential clips at the probe's top, not at each block's
    with pytest.raises(OperatorGradingError):
        ops_equal(exp_u_join, exp_u_join, W=4)


def ordered_stencil(op, m):
    """The leaf stencils spelled on tuple monomials through mono_mul and
    mono_div_var, the cut-and-join ones over ordered pairs: Partial(n) lowers
    slot n, Lambda(a) moves slot v to v + a, CutPart replaces slot v by
    every ordered (i, j) with i + j = v + k, JoinPart joins every ordered
    pair of slots."""
    if isinstance(op, Partial):
        if e := dict(m).get(op.n):
            yield mono_div_var(m, op.n), e
    elif isinstance(op, Lambda):
        for v, e in m:
            if v + op.a >= 1:
                yield mono_mul(mono_div_var(m, v), mono_var(v + op.a)), v * e
    elif isinstance(op, CutPart):
        for v, e in m:
            base = mono_div_var(m, v)
            for i in range(1, v + op.k):
                yield mono_mul(base, mono((i, 1), (v + op.k - i, 1))), v * e
    elif isinstance(op, JoinPart):
        for vi, ei in m:
            for vj, ej in m:
                n = ei * (ej - 1) if vi == vj else ei * ej
                if n > 0:
                    base = mono_div_var(mono_div_var(m, vi), vj)
                    yield mono_mul(base, mono_var(vi + vj + op.k)), vi * vj * n
    else:
        yield from ordered_stencil(CutPart(op.k), m)
        yield from ordered_stencil(JoinPart(op.k), m)


@pytest.mark.parametrize("op", [cls(k) for cls in (CutPart, JoinPart, CutJoin)
                                for k in (0, 1, 2)]
                         + [Lambda(a) for a in range(-3, 2)] + [Partial(1), Partial(4)],
                         ids=repr)
def test_unordered_stencils_match_the_ordered_expansion(fresh_memos, op):
    # the packed stencil, unpacked, has the targets and multipliers of the
    # tuple reference, in the order the reference first reaches them
    for m in monomials_up_to_weight(14):
        want: dict = {}
        for t, k in ordered_stencil(op, m):
            want[t] = want.get(t, 0) + k
        got = [(unpack(t), k) for t, k in operators._stencil(op, pack(m))]
        assert got == [(t, k) for t, k in want.items() if k], m


def _cut_only_m2(self, p):
    yield from CutPart(self.k).stencil(p)
    if self.k != 2:
        yield from JoinPart(self.k).stencil(p)


def _cut_with_one_multiplier_doubled(self, p):
    # CutPart.stencil over ordered splits, in packed arithmetic, but the
    # x_1^2 d_2 term of CutPart(0) is doubled
    for v, e in unpack(p):
        base = p - pack(mono_var(v))
        for i in range(1, v + self.k):
            bump = 2 if (self.k, v, i) == (0, 2, 1) else 1
            yield base + pack(mono_var(i)) + pack(mono_var(v + self.k - i)), v * e * bump


def _lambda1_sign_flipped(self, p, stencil=Lambda.stencil):
    for t, k in stencil(self, p):
        yield t, -k if self.a == 1 else k


PLANTED_FAULTS = [
    pytest.param(CutJoin, _cut_only_m2, {"m1_l1_is_m2", "conj_m0_chain"},
                 id="join_dropped_from_m2"),
    # M0 no longer brackets with L1 into the algebra, so the chain never ends
    # and fails its own report
    pytest.param(CutPart, _cut_with_one_multiplier_doubled,
                 {"m0_l1_is_2m1", "conj_m0_chain"}, id="cut_multiplier_doubled"),
    # the identities homogeneous in L1 (l0_l1_is_l1, conj_l0) survive the flip
    pytest.param(Lambda, _lambda1_sign_flipped,
                 {"m0_l1_is_2m1", "m1_l1_is_m2", "d1_m2_is_l1", "conj_m0_chain"},
                 id="lambda1_sign_flipped"),
]


@pytest.mark.parametrize("cls,stencil,fails", PLANTED_FAULTS)
def test_planted_fault_fails_the_symbol_route(fresh_memos, monkeypatch, cls, stencil, fails):
    # one fault in one stencil at a time; the symbol-route entries it turns
    # False are named
    monkeypatch.setattr(cls, "stencil", stencil)
    got = verify_commutators(6)
    got |= {k: ok for k, ok in verify_conjugations(6).items() if k.endswith("_chain")}
    assert {name for name, ok in got.items() if not ok} == fails


def _lone_part_u_shift_dropped(kernel):
    """The stencil pass, but a lone part's coefficient c(u) acts as c(1)."""
    def faulty(rows, W, parts, umin, umax):
        if len(parts) == 1:
            [(c, op)] = parts
            parts = [(UPoly.const(sum(v for _, v in c.terms)), op)]
        return kernel(rows, W, parts, umin, umax)
    return faulty


def test_planted_kernel_fault_fails_the_sandwich_and_the_tau_routes(monkeypatch, fresh_memos):
    # scaled(op, c) is a one-part Sum, so X = Lambda(1)/u and the a of each
    # conjugation lose their u-shift, and so does exp(-Lambda_1/u) in the
    # change of variables that extract_G runs
    monkeypatch.setattr(operators, "_stencil_rows",
                        _lone_part_u_shift_dropped(operators._stencil_rows))
    got = verify_conjugations(8)
    assert {name for name, ok in got.items() if not ok} == {"conj_m0_sandwich",
                                                             "conj_l0_sandwich"}
    G = extract_G(8, 9)
    for c in ("0", "1", "u^-1+2"):
        assert tau_route_reports((UPoly.parse(c),), 8, G=G)[0].status == FAIL, c


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
    with pytest.raises(OperatorGradingError):  # a capped sum lowers no weight
        exponential_apply(Partial(1), q1, max_order=3)


def test_exponential_u_hi_covers_orders_it_did_not_form():
    # the series stops at once on a zero input, but an inexact entry above
    # u_hi would move down through every order that can act on it
    zero = TruncatedSeries.zero("q", 6, u_hi=0)
    assert exponential_apply(scaled(Lambda(0), UPoly.u(-1)), zero, max_order=3).u_hi == -3
    assert exponential_apply(scaled(Lambda(1), UPoly.u(-1)), zero).u_hi == -6
    # a coefficient that raises u leaves u_hi where it was
    assert exponential_apply(scaled(Lambda(0), UPoly.u(2)), zero, max_order=3).u_hi == 0


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


def test_linear_part_is_the_cut_sum():
    assert ops_equal(linear_part(CutJoin(2)).apply, CutPart(2).apply, W=6)
    with pytest.raises(ValueError):
        linear_part(Lambda(1))


@pytest.mark.parametrize("n,matches_full", [(2, True), (3, True), (4, False)])
def test_closed_form_matches_cut_bracket_only(n, matches_full):
    # n Lambda(2-n) is [n d/dx_n, cut part] always; against the full
    # operator the join sum contributes from n=4 on
    cf = scaled(Lambda(2 - n), n)
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


def o_seed(W):
    """A non-monomial seed with u-free coefficients."""
    return qmono([(1, 1), (3, 1)], W=W) + qmono([(2, 2)], W=W)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weighted_o_sum_equals_bracket_action(n):
    # sum_i i*O_i(exp(M2)s) == [n d/dx_n, M](exp(M2)s) on a non-monomial s
    W = 8
    s = o_seed(W)
    acts = o_actions(n, exp_u_join(s), W)
    weighted = sum(
        (a.scale(i) for i, a in enumerate(acts)),
        TruncatedSeries.zero("q", W),
    )
    m2 = CutJoin(2)
    np_ = n_partial(n)
    e = exponential_apply(m2, s)
    bracket = np_.apply(m2.apply(e)) - m2.apply(np_.apply(e))
    assert weighted == bracket


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_o_actions_match_the_defining_sum(n):
    # O_i = Sum_k (-1)^k B_{i+k} / (k! i!) with B_r = (ad M2)^r(n d/dx_n) as
    # nested commutators; B_r shifts weight by 2r - n, so from r = (W + n + 1) // 2
    # on it kills every input of weight >= 1 at truncation W
    W = 8
    m2 = CutJoin(2)
    e = exponential_apply(m2, o_seed(W))
    depth = (W + n + 1) // 2
    bs = [b.apply(e) for b in nested_brackets(m2, n_partial(n), depth + 1)]
    assert bs[-1].is_zero()
    acts = o_actions(n, exp_u_join(o_seed(W)), W)
    assert len(acts) <= depth
    for i in range(depth):
        want = TruncatedSeries.zero("q", W).add_scaled(
            (Fraction((-1) ** k, factorial(k) * factorial(i)), bs[i + k])
            for k in range(depth - i))
        if i < len(acts):
            assert acts[i] == want and acts[i].reliable == want.reliable == W - n, i
        else:
            assert want.is_zero(), i


@pytest.mark.parametrize("coef,fault", [
    pytest.param(UPoly.u(1), scaled(CutPart(2), UPoly.u(1)), id="cut_part_in_first_exponential"),
    pytest.param(UPoly({0: 1, 1: -1}), scaled(CutJoin(2), UPoly({0: 1, 1: 1})), id="one_plus_u"),
])
def test_planted_o_route_fault_fails_the_o_checks(tmp_path, monkeypatch, fresh_memos,
                                                  coef, fault):
    # o_actions' exponential of coef * M2 applies the fault instead; the
    # fixture drops the memoised healthy exp(uM2) q1
    real = operators.exponential_apply

    def faulty(op, s, **kw):
        hit = isinstance(op, Sum) and op.parts == ((coef, CutJoin(2)),)
        return real(fault if hit else op, s, **kw)
    monkeypatch.setattr(operators, "exponential_apply", faulty)
    assert main(["verify", "--W", "8", "--checks", "o_operators", "--out", str(tmp_path)]) == 1
    rows = {r["check"]: r for r in json.loads((tmp_path / "verify.json").read_text())}
    for n in (1, 2, 3):
        row = rows[f"o_operators_n{n}"]
        assert row["status"] == FAIL, n
        assert row["weighted_sum_is_bracket"] is row["action_vanishes_off_peak"] is False, n
