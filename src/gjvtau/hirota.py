"""Bilinear (Hirota-form) derivative checks for the tau families.

The bracket D^a tau.tau expands binomially with alternating signs; a tau
passes when the residual of the bilinear form vanishes on every certified cell
of (weight, u-exponent).  The t-identification is x_i = i * t_i for both
source families; the bare identification t_i = x_i fails the checks, which
the adjudication tests pin down, so exactly one convention ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import comb, prod
from operator import itemgetter

from .exactalg import (
    FamilyError,
    Rat,
    TruncatedSeries,
    combine_rows,
    convolve,
    derivative,
    product_bounds,
    summed_rows,
    unpack,
)
from .report import CheckReport, residual_report

T_CONVENTION = "x_i = i*t_i"


@dataclass(frozen=True)
class HirotaPolynomial:
    """Sum of coef * D_1^a1 D_2^a2 ... with positional exponent tuples."""

    name: str
    terms: tuple[tuple[Rat, tuple[int, ...]], ...]


KP1 = HirotaPolynomial(
    "kp1",
    (
        (Fraction(1), (4, 0, 0)),
        (Fraction(-4), (1, 0, 1)),
        (Fraction(3), (0, 2, 0)),
    ),
)

# next equation of the hierarchy, optional in the CLI
KP2 = HirotaPolynomial(
    "kp2",
    (
        (Fraction(1), (3, 1, 0, 0)),
        (Fraction(2), (0, 1, 1, 0)),
        (Fraction(-3), (1, 0, 0, 1)),
    ),
)


def to_hirota_vars(s: TruncatedSeries) -> TruncatedSeries:
    """Rename a p- or q-series into the t-family, reading the source variable
    x_i as i * t_i (each monomial picks up prod i^e_i); the packed monomials
    are kept."""
    if s.family == "t":
        raise FamilyError("series is already in the t-family")
    rows = []
    for m, w, r in s.rows:
        k = prod(i**e for i, e in unpack(m))
        rows.append((m, w, tuple((e, k * n) for e, n in r)))
    return s._with(rows, family="t")


def _multi_partial(s: tuple[list, int], kvec: tuple[int, ...],
                   memo: dict) -> tuple[list, int]:
    """d^kvec s for s = (rows in ascending weight, reliable weight),
    in the same form: one derivative of the memoised one step below (kvec
    with its last nonzero exponent lowered by one), over the same
    denominator."""
    got = memo.get(kvec)
    if got is None:
        i = max((i for i, k in enumerate(kvec) if k), default=None)
        if i is None:
            got = s
        else:
            below = kvec[:i] + (kvec[i] - 1,) + kvec[i + 1:]
            got = derivative(*_multi_partial(s, below, memo), i + 1)
        memo[kvec] = got
    return got


def hirota_apply(P: HirotaPolynomial, tau: TruncatedSeries) -> TruncatedSeries:
    """Evaluate P(D) tau.tau, forming one product per shared factor.

    The signed binomial coefficients are summed per unordered pair {k, a - k}.
    An odd D-monomial cancels there: |k| and |a - k| differ in parity, so the
    pair's two coefficients have opposite signs.  The pairs are grouped
    greedily by a factor d^k tau they share, the one in the most remaining
    pairs first, and each group forms the one product
    d^k tau * Sum_pair c * partner.  The result carries the lowest reliable
    weight R and u_hi U among the pairs' products, read off the factors
    before any product is formed, and each product is formed only through
    (R, U): the result stores no entry above weight R or above u^U.
    A P that forms no product certifies nothing: R is -1.

    The derivatives, the partner sums and the products stay integer rows
    on tau's packed monomials (see exactalg.pack), as the residual, the one
    series built, stores them."""
    pairs: dict = {}
    for coef, avec in P.terms:
        for kvec in iproduct(*(range(a + 1) for a in avec)):
            rest = tuple(a - k for a, k in zip(avec, kvec))
            c = coef * prod(comb(a, k) for a, k in zip(avec, kvec))
            if sum(rest) % 2:
                c = -c
            key = (min(kvec, rest), max(kvec, rest))
            pairs[key] = pairs.get(key, 0) + c
    pairs = {key: c for key, c in pairs.items() if c}
    memo: dict = {}
    base = (tau.rows, tau.reliable)

    def d(kvec: tuple[int, ...]) -> tuple[list, int]:
        return _multi_partial(base, kvec, memo)

    R, U = tau.W if pairs else -1, None
    for kvec, rest in pairs:
        rel, u_hi = product_bounds(tau.W, (*d(kvec), tau.u_hi), (*d(rest), tau.u_hi))
        R, U = min(R, rel), TruncatedSeries._merge_u_hi(U, u_hi)
    products = []  # (c, the product's rows, their denominator)
    while pairs:
        counts: dict = {}
        for pair in pairs:
            for kvec in set(pair):
                counts[kvec] = counts.get(kvec, 0) + 1
        shared = max(counts, key=counts.get)
        partners = [(pairs.pop(pair), d(pair[pair[0] == shared])[0], tau.den)
                    for pair in [pair for pair in pairs if shared in pair]]
        if len(partners) == 1:
            c, g, den = partners[0]
        else:
            acc, den = combine_rows(partners)
            c, g = 1, sorted(summed_rows(acc), key=itemgetter(1))
        products.append((c, summed_rows(convolve(d(shared)[0], g, R, U)), tau.den * den))
    acc, den = combine_rows(products)
    # products can reach twice the factor's extremes, so widen up front
    return TruncatedSeries._built(family=tau.family, W=tau.W, rows=summed_rows(acc), den=den,
                                  umin=2 * tau.umin, umax=2 * tau.umax, reliable=R, u_hi=U)


def check_kp(
    tau: TruncatedSeries,
    kp: HirotaPolynomial = KP1,
    *,
    tau_label: str = "tau",
) -> CheckReport:
    """Residual of kp(D) tau.tau, certified up to the residual's own u_hi."""
    r = hirota_apply(kp, tau)
    if r.u_hi is not None:
        r = r.clip_u_above(r.u_hi)
    return residual_report(
        kp.name,
        r,
        detail={
            "tau": tau_label,
            "W": r.W,
            "convention": T_CONVENTION,
            "u_hi": r.u_hi,
        },
    )


def check_linearized_kp(s: TruncatedSeries, *, tau_label: str = "tau") -> CheckReport:
    """The single-function shadow: KP1 with D_i read as plain d/dt_i."""
    memo: dict = {}
    base = (s.rows, s.reliable)
    parts = [(coef, *_multi_partial(base, avec, memo)) for coef, avec in KP1.terms]
    acc, den = combine_rows((coef, rows, s.den) for coef, rows, _ in parts)
    residual = TruncatedSeries._built(
        family=s.family, W=s.W, rows=summed_rows(acc), den=den,
        umin=s.umin, umax=s.umax, reliable=min([s.W] + [rel for _, _, rel in parts]),
        u_hi=s.u_hi)
    return residual_report(
        "linearized_" + KP1.name,
        residual,
        detail={"tau": tau_label, "W": s.W, "convention": T_CONVENTION},
    )
