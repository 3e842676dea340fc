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

from .exactalg import FamilyError, Rat, TruncatedSeries
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
    x_i as i * t_i (each monomial picks up prod i^e_i)."""
    if s.family == "t":
        raise FamilyError("series is already in the t-family")
    rows = []
    for m, w, r in s.rows:
        k = prod(i**e for i, e in m)
        rows.append((m, w, tuple((e, k * n) for e, n in r)))
    return s._with(rows, family="t")


def _multi_partial(s: TruncatedSeries, kvec: tuple[int, ...],
                   memo: dict) -> TruncatedSeries:
    """d^kvec s, as one partial of the memoised derivative one step below
    (kvec with its last nonzero exponent lowered by one)."""
    got = memo.get(kvec)
    if got is None:
        i = max((i for i, k in enumerate(kvec) if k), default=None)
        if i is None:
            got = s
        else:
            below = kvec[:i] + (kvec[i] - 1,) + kvec[i + 1:]
            got = _multi_partial(s, below, memo).partial(i + 1)
        memo[kvec] = got
    return got


def hirota_apply(P: HirotaPolynomial, tau: TruncatedSeries) -> TruncatedSeries:
    """Evaluate P(D) tau.tau, forming each product d^k tau * d^(a-k) tau once.

    The signed binomial coefficients are summed per unordered pair {k, a - k}.
    An odd D-monomial cancels there: |k| and |a - k| differ in parity, so the
    pair's two coefficients have opposite signs.  The result carries the
    lowest reliable weight R and u_hi U among the products, read off the
    factors before any product is formed, and each product is formed only
    through (R, U): the result stores no entry above weight R or above u^U.
    A P that forms no product certifies nothing: R is -1."""
    pairs: dict = {}
    for coef, avec in P.terms:
        for kvec in iproduct(*(range(a + 1) for a in avec)):
            rest = tuple(a - k for a, k in zip(avec, kvec))
            c = coef * prod(comb(a, k) for a, k in zip(avec, kvec))
            if sum(rest) % 2:
                c = -c
            key = (min(kvec, rest), max(kvec, rest))
            pairs[key] = pairs.get(key, 0) + c
    memo: dict = {}
    factors = [(c, _multi_partial(tau, kvec, memo), _multi_partial(tau, rest, memo))
               for (kvec, rest), c in pairs.items() if c]
    R, U = tau.W if factors else -1, None
    for _, a, b in factors:
        rel, u_hi = a.product_bounds(b)
        R, U = min(R, rel), TruncatedSeries._merge_u_hi(U, u_hi)
    # products can reach twice the factor's extremes, so widen up front
    lo, hi = 2 * tau.umin, 2 * tau.umax
    zero = TruncatedSeries.zero(tau.family, tau.W, umin=lo, umax=hi, reliable=R)
    return zero.add_scaled((c, a.mul(b, umin=lo, umax=hi, _region=(R, U)))
                           for c, a, b in factors)


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
    residual = TruncatedSeries.zero(s.family, s.W, umin=s.umin, umax=s.umax).add_scaled(
        (coef, _multi_partial(s, avec, memo)) for coef, avec in KP1.terms)
    return residual_report(
        "linearized_" + KP1.name,
        residual,
        detail={"tau": tau_label, "W": s.W, "convention": T_CONVENTION},
    )
