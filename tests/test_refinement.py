"""Refinement oracle for the exactness bookkeeping.

An object built at (W, caps) certifies its entries of weight <= reliable
and u-exponent <= u_hi.  Built again at (W + 2, caps + 2), every such entry
must come out the same, an absent entry counting as zero: an entry that
changes when the truncation grows was never exact.  The share of entries
beyond the certified region that the larger object confirms is printed as
the bookkeeping's tightness; it is a figure, not a gate.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjvtau.exactalg import (
    TruncatedSeries,
    UPOLY_ZERO,
    UPoly,
    band_for_weight,
    mono_weight,
    monomials_up_to_weight,
)
from gjvtau.gjv import (
    assemble_tau_exponential,
    change_of_variables,
    exp_join_of_q1,
    extract_G,
)
from gjvtau.hirota import KP1, hirota_apply, to_hirota_vars
from gjvtau.hurwitz import cutjoin_series
from gjvtau.operators import (
    CutJoin,
    Lambda,
    Sum,
    conjugate,
    conjugation_cases,
    exponential_apply,
    o_actions,
    scaled,
)

W_SMALL, CAP_SMALL = 6, 4
C = UPoly.parse("u^-1+2")


def refinement(small: TruncatedSeries, big: TruncatedSeries):
    """(disagreements, certified cells, stored entries beyond the certified
    region, how many of those the big object confirms) over the cells inside
    small's W and band."""
    top = small.umax if small.u_hi is None else min(small.umax, small.u_hi)
    bad, certified, beyond, confirmed = [], 0, 0, 0
    for m in set(small.terms) | set(big.terms):
        w = mono_weight(m)
        if w > small.W:
            continue
        a, b = small.terms.get(m, UPOLY_ZERO), big.terms.get(m, UPOLY_ZERO)
        for e in sorted({e for e, _ in a.terms} | {e for e, _ in b.terms}):
            if not small.umin <= e <= small.umax:
                continue
            if w <= small.reliable and e <= top:
                certified += 1
                if a.coeff(e) != b.coeff(e):
                    bad.append((m, e, a.coeff(e), b.coeff(e)))
            elif a.coeff(e):
                beyond += 1
                confirmed += a.coeff(e) == b.coeff(e)
    return bad, certified, beyond, confirmed


# each builder takes (W, cap); the closed-form objects ignore the cap
BUILDERS = {
    "cutjoin_series": lambda W, M: cutjoin_series(W, M),
    "cutjoin_series_c": lambda W, M: cutjoin_series(W, M, C),
    "assemble_tau_exponential": lambda W, M: assemble_tau_exponential(UPoly.const(1), W),
    "assemble_tau_exponential_c": lambda W, M: assemble_tau_exponential(C, W),
    "exp_join_of_q1": lambda W, M: exp_join_of_q1(W),
    "change_of_variables": lambda W, M: change_of_variables(cutjoin_series(W, M, C)),
    "extract_G": extract_G,
    "kp1_residual": lambda W, M: hirota_apply(
        KP1, to_hirota_vars(assemble_tau_exponential(UPoly.const(1), W))),
}


def disagreeing_builders() -> set[str]:
    """The builders whose certified entries move from (W, caps) to
    (W + 2, caps + 2); prints each one's tightness."""
    out = set()
    for name, build in BUILDERS.items():
        small = build(W_SMALL, CAP_SMALL)
        big = build(W_SMALL + 2, CAP_SMALL + 2)
        bad, certified, beyond, confirmed = refinement(small, big)
        print(f"refinement {name}: {len(bad)} of {certified} certified cells disagree; "
              f"{confirmed} of {beyond} uncertified entries confirmed")
        if bad:
            out.add(name)
    return out


def test_certified_entries_survive_refinement():
    assert disagreeing_builders() == set()


# (W, n) -> seed: x1 with the headroom verify_O_operators gives it, and a
# non-monomial seed at W, on which o_actions is exact only through W - n
O_SEEDS = {
    "q1": lambda W, n: TruncatedSeries.variable("q", W + n, 1),
    "mixed": lambda W, n: (TruncatedSeries.monomial("q", W, ((1, 1), (3, 1)))
                           + TruncatedSeries.monomial("q", W, ((2, 2),))),
}


@pytest.mark.parametrize("seed", list(O_SEEDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_o_actions_survive_refinement(n, seed):
    small, big = (o_actions(n, O_SEEDS[seed](W, n), W) for W in (W_SMALL, W_SMALL + 2))
    assert len(small) <= len(big)
    for i, layer in enumerate(small):
        bad, certified, beyond, confirmed = refinement(layer, big[i])
        print(f"refinement o_actions {seed} n={n} i={i}: {len(bad)} of {certified} certified "
              f"cells disagree; {confirmed} of {beyond} uncertified entries confirmed")
        assert bad == [], i


def cut_symbol(sym, N):
    """The terms of a Symbol with d-weight <= N, as Fractions."""
    return {k: Fraction(n, sym.den) for k, n in sym.terms.items() if mono_weight(k[1]) <= N}


@pytest.mark.parametrize("name", list(conjugation_cases()))
def test_conjugate_symbol_survives_refinement(name):
    x, a, _ = conjugation_cases()[name]
    small = conjugate(x, a, W=W_SMALL)
    assert cut_symbol(small, W_SMALL) == cut_symbol(conjugate(x, a, W=W_SMALL + 2), W_SMALL)


def _clip_keeping_u_hi(clip):
    def faulty(self, hi):
        return clip(self, hi).with_u_hi(self.u_hi)
    return faulty


def _partial_keeping_reliable(partial):
    def faulty(self, i):
        return partial(self, i).with_reliable(self.reliable)
    return faulty


@pytest.mark.parametrize("method,fault,fails", [
    # no summand of the closed-form exponential lowers u, so what its box
    # clip drops never comes back: only the products read off it see the fault
    pytest.param("clip_u_above", _clip_keeping_u_hi, {"kp1_residual"},
                 id="clip_keeps_u_hi"),
    pytest.param("partial", _partial_keeping_reliable, {"kp1_residual"},
                 id="partial_keeps_reliable"),
])
def test_planted_bookkeeping_fault_fails_the_oracle(monkeypatch, method, fault, fails):
    monkeypatch.setattr(TruncatedSeries, method, fault(getattr(TruncatedSeries, method)))
    assert disagreeing_builders() == fails


# ---------------------------------------------------------------------------
# exponential_apply on random inputs that carry their own reliable and u_hi
# ---------------------------------------------------------------------------

# the two truncation gradings, and capped operators that lower no weight;
# a cap defines the capped sum, so it stays fixed while W and the band grow
GRADED = [
    CutJoin(2),
    scaled(Lambda(1), UPoly.u(-1)),
    scaled(Lambda(0), UPoly.u(1)),
    scaled(CutJoin(0), UPoly.u(2)),
    Sum(CutJoin(2), scaled(CutJoin(1), UPoly.u(1, 2)), scaled(CutJoin(0), UPoly.u(2))),
]
CAPPED = [
    Lambda(0),
    scaled(Lambda(0), UPoly.u(-1)),
    Sum(CutJoin(0), scaled(Lambda(1), UPoly.parse("u^-1+1/3"))),
]

COEFS = [Fraction(1, 3), Fraction(5, 4), Fraction(-7, 6), Fraction(2), Fraction(-1)]
EXPS = range(-2, 5)


@st.composite
def refined_inputs(draw):
    """The same series at W and at W + 2 with one reliable weight and u_hi:
    equal on the certified cells, each with its own entries beyond them."""
    W = W_SMALL
    reliable = draw(st.integers(W - 2, W))
    u_hi = draw(st.none() | st.integers(0, 2))
    top = EXPS[-1] if u_hi is None else u_hi

    def cells(max_weight):
        return draw(st.dictionaries(
            st.tuples(st.sampled_from(list(monomials_up_to_weight(max_weight))),
                      st.sampled_from(EXPS)),
            st.sampled_from(COEFS), max_size=4))

    sure = {k: v for k, v in cells(W).items()
            if mono_weight(k[0]) <= reliable and k[1] <= top}
    return tuple(
        _series(W + grow, {**{k: v for k, v in cells(W + grow).items()
                              if mono_weight(k[0]) > reliable or k[1] > top}, **sure},
                reliable, u_hi)
        for grow in (0, 2))


def _series(W, cells, reliable, u_hi):
    terms: dict = {}
    for (m, e), v in cells.items():
        terms.setdefault(m, {})[e] = v
    lo, hi = band_for_weight(W)
    return TruncatedSeries("q", W, {m: UPoly(c) for m, c in terms.items()},
                           umin=lo, umax=hi, reliable=reliable, u_hi=u_hi)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(op, None) for op in GRADED] + [(op, 3) for op in CAPPED]),
       refined_inputs())
def test_exponential_certifies_only_what_refinement_keeps(op_cap, pair):
    op, cap = op_cap
    small, big = (exponential_apply(op, s, max_order=cap) for s in pair)
    assert refinement(small, big)[0] == []
