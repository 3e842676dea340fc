"""Transposition-factorisation counts, the cut-and-join series, and the
Goulden-Jackson-Vakil closed form.

The brute-force route fixes a base permutation and counts tuples of
transpositions whose product with it is a full cycle; the series route reads
the same numbers off exp(beta*M0) applied to sum(p_i).  Both normalisations
are frozen against the anchor values h_{0,(1)} = 1 and h_{0,(2)} = 1/2 and
must stay in exact agreement (the tests enforce this on a d <= 5 grid).  The
closed form is the one count the intersection grids read; the other two
routes anchor it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Iterator

from .exactalg import (
    Rat,
    TruncatedSeries,
    TruncationError,
    UPoly,
    UPOLY_ZERO,
    mono,
)
from .operators import CutJoin, exponential_apply, scaled

DCAP_HARD = 7


@dataclass(frozen=True)
class HurwitzIndex:
    """Genus g and ramification profile ``parts`` over the marked point."""

    g: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("genus must be >= 0")
        parts = tuple(sorted(self.parts))
        if not parts or any(b < 1 for b in parts):
            raise ValueError("profile parts must be positive integers")
        object.__setattr__(self, "parts", parts)
        if self.m < 0:
            raise ValueError("negative transposition count")

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def m(self) -> int:
        # one full cycle over the second fixed point, so 2g - 1 + n simple
        # branch points close the Riemann-Hurwitz count
        return 2 * self.g - 1 + self.n

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.g, self.parts)


def profiles(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing profiles of n parts with degree <= d, in the order of
    combinations_with_replacement over 1..d."""
    for parts in combinations_with_replacement(range(1, d + 1), n):
        if sum(parts) <= d:
            yield parts


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens: list[int] = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, size = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            size += 1
        lens.append(size)
    return tuple(sorted(lens))


def _perm_of_type(parts: tuple[int, ...]) -> tuple[int, ...]:
    perm: list[int] = []
    base = 0
    for b in parts:
        perm.extend([base + (i + 1) % b for i in range(b)])
        base += b
    return tuple(perm)


def _count_factorisations(parts: tuple[int, ...], m: int) -> int:
    """Tuples (t_1..t_m) of transpositions with t_1...t_m*sigma a d-cycle."""
    d = sum(parts)
    swaps = [(a, b) for a in range(d) for b in range(a + 1, d)]
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def count(perm: tuple[int, ...], left: int) -> int:
        # a transposition moves the cycle count by exactly one, so the
        # distance to a single cycle prunes both by size and by parity
        need = len(_cycle_type(perm)) - 1
        if need > left or (left - need) % 2:
            return 0
        if left == 0:
            return 1
        key = (_cycle_type(perm), left)
        got = memo.get(key)
        if got is not None:
            return got
        total = 0
        for a, b in swaps:
            child = list(perm)
            for i, v in enumerate(perm):
                if v == a:
                    child[i] = b
                elif v == b:
                    child[i] = a
            total += count(tuple(child), left - 1)
        memo[key] = total
        return total

    return count(_perm_of_type(parts), m)


def hurwitz_bruteforce(idx: HurwitzIndex) -> Rat:
    """Count weighted covers with profile idx.parts over the marked point.

    The tuple count N is taken with one fixed base permutation; h is then
    N * |C(sigma)| / d! * |Aut(parts)|, which collapses to N / prod(parts).
    The normalisation was frozen empirically against the anchor identities
    (see the tests); do not retune it here.
    """
    if idx.d > DCAP_HARD:
        raise ValueError(f"degree {idx.d} over brute-force cap {DCAP_HARD}")
    n = _count_factorisations(idx.parts, idx.m)
    return Fraction(n, prod(idx.parts))


def hurwitz_number(
    idx: HurwitzIndex,
    table: dict[tuple[int, tuple[int, ...]], Rat] | None = None,
) -> Rat:
    if table is not None:
        got = table.get(idx.key())
        if got is not None:
            return got
    h = hurwitz_bruteforce(idx)
    if table is not None:
        table[idx.key()] = h
    return h


def hurwitz_closed_form(idx: HurwitzIndex) -> Rat:
    """h = r! * d^(r-1) * [t^(2g)] prod_i S(b_i t) / S(t), with r = 2g-1+n and
    S(t) = sinh(t/2)/(t/2): the one-part double Hurwitz numbers of
    Goulden-Jackson-Vakil (Thm 3.1, arXiv:math/0309440), in exact arithmetic
    (d^(r-1) is 1/d at g = 0, n = 1)."""
    g = idx.g

    def sinhc(b: int) -> list[Rat]:
        # S(b t) in powers of t^2, through t^(2g)
        return [Fraction(b ** (2 * k), 4 ** k * factorial(2 * k + 1))
                for k in range(g + 1)]

    num = [Fraction(1)] + [Fraction(0)] * g
    for b in idx.parts:
        sb = sinhc(b)
        num = [sum(num[j] * sb[k - j] for j in range(k + 1)) for k in range(g + 1)]
    s1, quot = sinhc(1), []
    for k in range(g + 1):  # S(t) has constant term 1
        quot.append(num[k] - sum(quot[j] * s1[k - j] for j in range(k)))
    r = idx.m
    return factorial(r) * Fraction(idx.d) ** (r - 1) * quot[g]


# ---------------------------------------------------------------------------
# Series route
# ---------------------------------------------------------------------------


def cutjoin_series(W: int, Mmax: int, c: UPoly = UPOLY_ZERO) -> TruncatedSeries:
    """c + sum_{k<=Mmax} beta^k M0^k (p_1+...+p_W) / k!, with beta kept as u^2."""
    if W < 1:
        raise ValueError("need W >= 1")
    if Mmax < 0:
        raise ValueError("need Mmax >= 0")
    umin = min(0, c.min_exp() if c else 0)
    umax = max(2 * Mmax, c.max_exp() if c else 0)
    seed = TruncatedSeries(
        "p",
        W,
        {mono((i, 1)): UPoly.const(1) for i in range(1, W + 1)},
        umin=umin,
        umax=umax,
    )
    if c:
        seed = seed + TruncatedSeries.const("p", W, c, umin=umin, umax=umax)
    out = exponential_apply(scaled(CutJoin(0), UPoly.u(2)), seed, max_order=Mmax)
    # orders beyond Mmax are cut, so nothing above u^(2*Mmax) is trustworthy
    hi = 2 * Mmax if out.u_hi is None else min(out.u_hi, 2 * Mmax)
    return out.with_u_hi(hi)


def extract_hurwitz(series: TruncatedSeries, idx: HurwitzIndex) -> Rat:
    """Read h off the series: undo Lambda_0^2, then unscale by Aut, d and m!."""
    if series.family != "p":
        raise ValueError("expected a p-family series")
    d, m = idx.d, idx.m
    if series.u_hi is not None and 2 * m > series.u_hi:
        raise TruncationError(f"beta^{m} is beyond the series' trusted order")
    mults: dict[int, int] = {}
    for b in idx.parts:
        mults[b] = mults.get(b, 0) + 1
    coeff = series.coefficient_of(mono(*mults.items()))
    aut = prod(factorial(r) for r in mults.values())
    return coeff.coeff(2 * m) / Fraction(d * d) * aut * d * factorial(m)


def h01_h02_closed_forms(W: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two unstable legs of H, assembled from brute-force values.

    Coefficient of p_(b1..bn) * beta^m is h / (|Aut| * d * m!); the first
    series sits at beta^0, the second at beta^1 (kept as u^2).
    """
    if W < 2:
        raise ValueError("need W >= 2")
    h01: dict = {}
    for d in range(1, W + 1):
        h = hurwitz_number(HurwitzIndex(0, (d,)))
        h01[mono((d, 1))] = UPoly.const(h / d)
    h02: dict = {}
    for b1 in range(1, W):
        for b2 in range(b1, W - b1 + 1):
            h = hurwitz_number(HurwitzIndex(0, (b1, b2)))
            aut = 2 if b1 == b2 else 1
            m = mono((b1, 2)) if b1 == b2 else mono((b1, 1), (b2, 1))
            h02[m] = UPoly.u(2, h / (aut * (b1 + b2)))
    band = dict(umin=0, umax=2)
    return (
        TruncatedSeries("p", W, h01, **band),
        TruncatedSeries("p", W, h02, **band),
    )
