"""Bilinear derivative evaluator and the KP checks."""

from fractions import Fraction
from itertools import product as iproduct
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau import exactalg
from gjvtau.exactalg import (
    FamilyError,
    TruncatedSeries,
    UPOLY_ONE,
    UPoly,
    mono,
    mono_var,
)
from gjvtau.gjv import assemble_tau_exponential, exp_join_of_q1
from gjvtau.hirota import (
    KP1,
    KP2,
    T_CONVENTION,
    HirotaPolynomial,
    check_kp,
    check_linearized_kp,
    hirota_apply,
    to_hirota_vars,
)
from gjvtau.hurwitz import cutjoin_series

F = Fraction

D1 = HirotaPolynomial("d1", ((F(1), (1,)),))
D1SQ = HirotaPolynomial("d1sq", ((F(1), (2,)),))


def t_series(terms, W=6):
    return TruncatedSeries("t", W, terms)


def test_hand_checks():
    t1 = TruncatedSeries.variable("t", 6, 1)
    assert str(hirota_apply(D1SQ, t1)) == "-2"
    assert hirota_apply(D1, t1).is_zero()


def test_kp1_on_the_polynomial_solution():
    tau = t_series({mono_var(2): UPOLY_ONE, mono((1, 2)): UPoly.const(F(1, 2))})
    assert hirota_apply(KP1, tau).is_zero()


small_t = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=3
).map(
    lambda ts: sum(
        (TruncatedSeries.monomial("t", 6, mono((i, 1)), UPoly.const(c))
         for i, c in ts),
        TruncatedSeries.zero("t", 6),
    )
)


@settings(deadline=None)
@given(small_t)
def test_even_symmetry_and_odd_annihilation(f):
    assert hirota_apply(D1, f).is_zero()


def ordered_hirota_apply(P, f, g):
    """Reference: P(D) f.g expanded over ordered pairs (k, a - k), one
    product per pair, with a derivative memo per operand."""
    lo, hi = f.umin + g.umin, f.umax + g.umax
    out = TruncatedSeries.zero(f.family, min(f.W, g.W), umin=lo, umax=hi)
    memo_f, memo_g = {}, {}

    def partial(s, kvec, memo):
        if kvec not in memo:
            d = s
            for i, k in enumerate(kvec, 1):
                for _ in range(k):
                    d = d.partial(i)
            memo[kvec] = d
        return memo[kvec]

    for coef, avec in P.terms:
        for kvec in iproduct(*(range(a + 1) for a in avec)):
            rest = tuple(a - k for a, k in zip(avec, kvec))
            c = coef * prod(comb(a, k) for a, k in zip(avec, kvec))
            if sum(rest) % 2:
                c = -c
            df = partial(f, kvec, memo_f)
            dg = partial(g, rest, memo_g)
            out = out + df.mul(dg, umin=lo, umax=hi).scale(c)
    return out


# series with u-dependence and their own reliable / u_hi bookkeeping
banded_t = st.builds(
    lambda terms, rel, u_hi: TruncatedSeries(
        "t", 6, terms, umin=-1, umax=2, reliable=rel, u_hi=u_hi
    ),
    st.dictionaries(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2)
        .map(lambda ps: mono(*ps))
        .filter(lambda m: sum(i * e for i, e in m) <= 6),
        st.dictionaries(st.integers(-1, 2), st.integers(-3, 3), max_size=2).map(
            lambda d: sum((UPoly.u(e, c) for e, c in d.items()), UPoly({}))
        ),
        max_size=4,
    ),
    st.one_of(st.none(), st.integers(0, 6)),
    st.one_of(st.none(), st.integers(-1, 2)),
)

# distinct D-monomials with nonzero coefficients, odd ones included
hirota_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    st.integers(-3, 3).filter(bool).map(F),
    min_size=1,
    max_size=3,
).map(lambda d: HirotaPolynomial("p", tuple((c, a) for a, c in d.items())))


@settings(deadline=None)
@given(hirota_polys, banded_t)
def test_pair_gathering_matches_the_ordered_expansion(P, tau):
    # hirota_apply forms its products only through its certified region, so
    # it matches the full ordered expansion there and stores nothing beyond
    got = hirota_apply(P, tau)
    want = ordered_hirota_apply(P, tau, tau)
    region = want.up_to_weight(got.reliable)
    if got.u_hi is not None:
        region = region.clip_u_above(got.u_hi)
    assert got.terms == region.terms
    assert all(w <= got.reliable for _, w, _ in got.rows)
    assert got.u_hi is None or all(r[-1][0] <= got.u_hi for _, _, r in got.rows)
    assert (got.umin, got.umax) == (want.umin, want.umax)
    odd = [a for _, a in P.terms if sum(a) % 2]
    if not odd:
        assert (got.reliable, got.u_hi) == (want.reliable, want.u_hi)
        return
    if len(odd) == len(P.terms):
        # no product is formed, so the residual certifies nothing
        assert got.is_zero() and got.reliable == -1
        return
    # an odd D-monomial forms no product, so its factors bound nothing
    assert got.reliable >= want.reliable
    assert got.u_hi is None or got.u_hi >= want.u_hi


@pytest.mark.parametrize("kp, muls", [(KP1, 7), (KP2, 8)], ids=["kp1", "kp2"])
def test_one_product_per_unordered_pair(kp, muls, monkeypatch):
    calls = []
    mul = TruncatedSeries.mul

    def counting(self, other, **kw):
        calls.append(1)
        return mul(self, other, **kw)

    tau = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    monkeypatch.setattr(TruncatedSeries, "mul", counting)
    hirota_apply(kp, tau)
    assert len(calls) == muls


@pytest.mark.parametrize("kp, most", [(KP1, 266), (KP2, 144)], ids=["kp1", "kp2"])
def test_products_stop_at_the_residual_region(kp, most, monkeypatch):
    # each product is formed only through the residual's reliable weight and
    # u_hi; formed through its own region instead, KP1 and KP2 visit 540 and
    # 352 monomial pairs on this tau
    pairs = []
    mono_mul = exactalg.mono_mul

    def counting(a, b):
        pairs.append(1)
        return mono_mul(a, b)

    tau = to_hirota_vars(assemble_tau_exponential(UPOLY_ONE, 8))
    monkeypatch.setattr(exactalg, "mono_mul", counting)
    hirota_apply(kp, tau)
    assert 0 < len(pairs) <= most


@pytest.mark.parametrize("run, partials", [
    (lambda tau: hirota_apply(KP1, tau), 8),
    (lambda tau: hirota_apply(KP2, tau), 11),
    (check_linearized_kp, 7),
], ids=["kp1", "kp2", "linearized_kp1"])
def test_each_derivative_is_one_partial_of_a_memoised_one(run, partials, monkeypatch):
    # every distinct derivative d^k tau with k != 0 costs one partial: KP1
    # needs d1..d1^4, d2, d2^2, d3 and d1 d3
    calls = []
    partial = TruncatedSeries.partial

    def counting(self, i):
        calls.append(i)
        return partial(self, i)

    tau = to_hirota_vars(assemble_tau_exponential(UPOLY_ONE, 6))
    monkeypatch.setattr(TruncatedSeries, "partial", counting)
    run(tau)
    assert len(calls) == partials


def test_products_are_summed_in_one_accumulator(monkeypatch):
    # no running residual rebuilt by __add__, no scaled copy of a product
    tau = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    calls = []
    for name in ("__add__", "scale"):
        def counting(self, *a, _name=name, _method=getattr(TruncatedSeries, name)):
            calls.append(_name)
            return _method(self, *a)

        monkeypatch.setattr(TruncatedSeries, name, counting)
    r = hirota_apply(KP1, tau)
    assert calls == []
    assert (r.reliable, r.u_hi) == (2, 6)


def test_all_odd_monomials_give_an_exact_zero():
    # every odd D-monomial cancels before any product is formed, so the
    # zero residual certifies no weight and bounds no u
    tau = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    assert tau.u_hi == 6
    P = HirotaPolynomial("odd", ((F(1), (1, 0, 0)), (F(-2), (1, 1, 1)),
                                 (F(5), (0, 3, 0))))
    r = hirota_apply(P, tau)
    assert r.is_zero()
    assert (r.reliable, r.u_hi) == (-1, None)


@pytest.mark.parametrize("P", [
    HirotaPolynomial("empty", ()),
    # D1^4 - D1^4 as two terms: each pair's coefficients sum to zero
    HirotaPolynomial("cancelling", ((F(1), (4, 0, 0)), (F(-1), (4, 0, 0)))),
], ids=["empty", "cancelling"])
def test_a_polynomial_that_forms_no_product_is_vacuous(P):
    tau = to_hirota_vars(assemble_tau_exponential(UPOLY_ONE, 8))
    rep = check_kp(tau, P)
    assert (rep.status, rep.reliable_weight) == ("vacuous", -1)


# ---------------------------------------------------------------------------
# variable convention
# ---------------------------------------------------------------------------


def test_convention_is_recorded():
    assert T_CONVENTION == "x_i = i*t_i"


def test_scaled_vs_direct():
    p2 = TruncatedSeries.variable("p", 4, 2)
    assert str(to_hirota_vars(p2)) == "2*t2"
    assert str(TruncatedSeries("t", p2.W, p2.terms, **p2._meta())) == "t2"
    with pytest.raises(FamilyError):
        to_hirota_vars(to_hirota_vars(p2))


def test_direct_convention_fails_kp():
    # adjudication record: without the i-fold rescale the series is not a
    # tau function, first residual already in the constant term
    s = cutjoin_series(6, 3, UPOLY_ONE)
    bad = TruncatedSeries("t", s.W, s.terms, **s._meta())
    rep = check_kp(bad)
    assert rep.status == "fail"
    assert rep.first_failure == "1"


# ---------------------------------------------------------------------------
# the three tau families
# ---------------------------------------------------------------------------


def test_kp_on_linear_tau():
    lin = t_series({mono_var(1): UPOLY_ONE}) + TruncatedSeries.const(
        "t", 6, UPOLY_ONE
    )
    rep = check_kp(lin, tau_label="linear")
    assert (rep.status, rep.reliable_weight) == ("pass", 6)


def test_kp_on_cutjoin_tau():
    cut = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    rep = check_kp(cut, tau_label="cutjoin")
    assert (rep.status, rep.reliable_weight) == ("pass", 2)
    assert rep.detail["u_hi"] == 6


def test_kp_on_closed_form_tau():
    cl = to_hirota_vars(assemble_tau_exponential(UPOLY_ONE, 6))
    rep = check_kp(cl, tau_label="closedform")
    assert (rep.status, rep.reliable_weight) == ("pass", 2)


def test_kp2_too():
    cut = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    rep = check_kp(cut, KP2, tau_label="cutjoin")
    assert (rep.status, rep.reliable_weight) == ("pass", 1)


def test_linearized_kp():
    rep = check_linearized_kp(to_hirota_vars(exp_join_of_q1(6)))
    assert (rep.status, rep.reliable_weight) == ("pass", 2)


def test_kp_catches_a_corrupted_tau():
    cut = to_hirota_vars(cutjoin_series(6, 3, UPOLY_ONE))
    bad = cut + TruncatedSeries.monomial(
        "t", 6, mono((1, 1), (3, 1)), UPoly.const(F(1, 7))
    )
    rep = check_kp(bad, tau_label="corrupt")
    assert rep.status == "fail"
    assert rep.first_failure == "1"


def test_kp_reports_do_not_depend_on_the_product_cut(monkeypatch):
    # hirota_apply forms each product only through the residual's reliable
    # weight and u_hi, the region the reports read, so products taken through
    # W and every u-exponent must give the same reports
    closed = to_hirota_vars(assemble_tau_exponential(UPOLY_ONE, 8))
    taus = {
        "linear": TruncatedSeries("t", 8, {mono_var(1): UPOLY_ONE, (): UPOLY_ONE}),
        "cutjoin": to_hirota_vars(cutjoin_series(8, 4, UPOLY_ONE)),
        "closedform": closed,
        "perturbed": closed + TruncatedSeries.monomial(
            "t", 8, mono((1, 1), (3, 1)), UPoly.const(F(1, 7))),
    }
    cut = {(kp.name, label): check_kp(tau, kp, tau_label=label).to_json_obj()
           for kp in (KP1, KP2) for label, tau in taus.items()}
    mul = TruncatedSeries.mul
    above = []

    def full_mul(self, other, _region=None, **kw):
        got = mul(self, other, **kw)
        full = mul(self.with_reliable(self.W), other.with_reliable(other.W), **kw)
        above.append(len(full.rows) > len(got.rows))
        return full.with_reliable(got.reliable)

    monkeypatch.setattr(TruncatedSeries, "mul", full_mul)
    full = {(kp.name, label): check_kp(tau, kp, tau_label=label).to_json_obj()
            for kp in (KP1, KP2) for label, tau in taus.items()}
    assert any(above)
    assert full == cut
    assert {k: r["status"] for k, r in cut.items()} == {
        (kp, label): "fail" if label == "perturbed" else "pass"
        for kp in ("kp1", "kp2") for label in taus}
