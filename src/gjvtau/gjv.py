"""Tau assemblies, the triangular T-basis, and intersection-number extraction.

Two independent routes build the same tau: a closed-form operator exponential
acting on c(u) + q_1/u, and a head plus (Lambda_0 + Lambda_1/u)^2 G, where G
is the change of variables of the count series' stable part over Lambda_0^2.
Each route certifies a region of (weight, u-exponent) pairs; every equality
is asserted coefficient by coefficient where both certificates overlap.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import itemgetter
from typing import Iterable

from .exactalg import (
    UPOLY_ZERO,
    FamilyError,
    Rat,
    TruncatedSeries,
    UBandError,
    UPoly,
    _band_error,
    band_for_weight,
    convolve,
    mono,
    mono_str,
    mono_var,
    summed_rows,
    unpack,
)
from .hurwitz import HurwitzIndex, cutjoin_series, hurwitz_closed_form, profiles
from .operators import (
    CutJoin,
    Lambda,
    Sum,
    exp_join_power,
    exponential_apply,
    scaled,
)
from .report import CheckReport, residual_report

_U = UPoly.u()
_U_INV = UPoly.u(-1)


def _tau_head(W: int, lo: int, hi: int) -> TruncatedSeries:
    """(q_1 + q_1 q_2)/u + q_1^2, the part of tau outside the G image."""
    return TruncatedSeries(
        "q",
        W,
        {
            mono_var(1): _U_INV,
            mono((1, 1), (2, 1)): _U_INV,
            mono((1, 2)): UPoly.const(1),
        },
        umin=lo,
        umax=hi,
    )


# ---------------------------------------------------------------------------
# Change of variables between the p- and q-families
# ---------------------------------------------------------------------------


def change_of_variables(s: TruncatedSeries) -> TruncatedSeries:
    """p_b -> sum_{i>=b} u^-i (-1)^(i-b) C(i-1, b-1) q_i, truncated at s.W.

    Computed as the conjugating map: rename p^m u^e -> q^m u^(e-|m|), then
    apply exp(-Lambda_1/u), the X of conjugation_cases().  Both sides are
    ring homomorphisms (exp of a derivation obeys Leibniz) and they agree on
    each p_b, since (-Lambda_1)^k / k! sends q_b to (-1)^k C(b+k-1, k) q_{b+k}.
    The exponential raises weight by one per order, so it takes at most W
    stencil passes and forms no series product.

    Exact on the truncation: every image term has weight >= b, so dropped
    source monomials only touch weights beyond W.  beta is already carried
    as u^2 in the coefficients, so no rewriting is needed here.  An image
    lowers the u-exponent by at most one per unit of weight, so the band is
    widened by W below the operand's range; an output entry at weight w and
    u^e reads the source at u^(e+w), so it is exact up to u_hi - W.
    """
    if s.family != "p":
        raise FamilyError(
            f"change of variables from the p-family got a {s.family}-family series"
        )
    W = s.W
    lo, hi = band_for_weight(W)
    lo = min(lo, s.min_u_exp() - W)
    hi = max(hi, max((r[-1][0] for _, _, r in s.rows), default=0))
    rows = [(m, w, tuple((e - w, n) for e, n in r)) for m, w, r in s.rows]
    renamed = s._with(rows, family="q", umin=lo, umax=hi, u_hi=None)
    out = exponential_apply(scaled(Lambda(1), UPoly.u(-1, -1)), renamed)
    return out.with_u_hi(None if s.u_hi is None else s.u_hi - W)


# ---------------------------------------------------------------------------
# T-basis and the two tau assemblies
# ---------------------------------------------------------------------------


def build_tbasis(K: int, W: int) -> list[TruncatedSeries]:
    """T_0 = q_1, T_{k+1} = (u*Lambda_0 + Lambda_1) T_k, up to index K."""
    if K + 1 > W:
        raise ValueError("need K + 1 <= W so the leading term stays in truncation")
    step = Sum(scaled(Lambda(0), _U), Lambda(1))
    basis = [TruncatedSeries.variable("q", W, 1)]
    for _ in range(K):
        basis.append(step.apply(basis[-1]))
    return basis


def assemble_tau_exponential(c: UPoly, W: int) -> TruncatedSeries:
    """exp(M2 + 2u*M1 + u^2*M0) applied to c(u) + q_1/u, in the default band
    widened to c.

    Every summand raises weight + u-exponent by exactly 2 and lowers neither,
    so the expansion terminates inside the weight x band box and the top of
    the band is clipped (recorded in u_hi).  Every summand kills constants,
    so this is c + tau_0 with tau_0 = exp(...)(q_1/u) in the same band: the
    same rows, denominator, band and bookkeeping as the exponential of
    c + q_1/u.  tau_0 is memoised per (W, band), so the tau routes and the
    KP checks form it once for every c that leaves the band alone.
    """
    lo, hi = _widened(band_for_weight(W), c)
    tau0 = _tau_zero(W, lo, hi)
    return tau0 + TruncatedSeries.const("q", W, c, umin=lo, umax=hi) if c else tau0


@functools.lru_cache(maxsize=4)
def _tau_zero(W: int, lo: int, hi: int) -> TruncatedSeries:
    """exp(M2 + 2u*M1 + u^2*M0) q_1/u at truncation W, in the band [lo, hi]."""
    seed = TruncatedSeries("q", W, {mono_var(1): _U_INV}, umin=lo, umax=hi)
    mixed = Sum(
        CutJoin(2),
        scaled(CutJoin(1), UPoly.u(1, 2)),
        scaled(CutJoin(0), UPoly.u(2)),
    )
    return exponential_apply(mixed, seed)


def _widened(band: tuple[int, int], c: UPoly) -> tuple[int, int]:
    """The band [lo, hi] widened to hold every exponent of c."""
    lo, hi = band
    return (min(lo, c.min_exp()), max(hi, c.max_exp())) if c else (lo, hi)


def assemble_tau_from_g(c: UPoly, G: TruncatedSeries) -> TruncatedSeries:
    """c + (q_1 + q_1 q_2)/u + q_1^2 + (Lambda_0 + Lambda_1/u)^2 G, in G's
    band widened to [-1, 0] and to c."""
    W = G.W
    lo, hi = _widened((min(G.umin, -1), max(G.umax, 0)), c)
    g = G.with_band(lo, hi)
    head = _tau_head(W, lo, hi)
    if c:
        head = head + TruncatedSeries.const("q", W, c, umin=lo, umax=hi)
    square = Sum(Lambda(0), scaled(Lambda(1), _U_INV))
    return head + square.apply(square.apply(g))


def extract_G(W: int, Mmax: int) -> TruncatedSeries:
    """G = change_of_variables(Lambda_0^-2 S), with S the stable part of
    H = cutjoin_series(W, Mmax): H less its cut-and-join orders 0 and 1.

    H is built with c = 0, so order k sits at u^(2k): S is H without its
    layers u^0 and u^2, which are Lambda_0^2 (h01 + h02) and map onto the
    head that assemble_tau_from_g adds (hurwitz_anchor_images checks this).
    H has no weight-0 row, so Lambda_0^-2 is defined on S.

    Lambda_0 + Lambda_1/u = exp(-X) Lambda_0 exp(X) with X = Lambda_1/u (the
    conj_l0 case divided by u), and change_of_variables is exp(-X) after a
    rename that commutes with Lambda_0.  So (Lambda_0 + Lambda_1/u)^-2 o
    change_of_variables = change_of_variables o Lambda_0^-2, which divides
    each weight-w row by w^2.

    The recorded u_hi is the flat 2*Mmax - W.  That entries are complete on
    weight + u-exponent <= 2*Mmax is a tested property, not a recorded one.
    """
    H = cutjoin_series(W, Mmax)
    # Lambda_0^-2 on the layers above u^2, over one common denominator
    stable = [(m, w, kept) for m, w, r in H.rows
              if (kept := tuple(en for en in r if en[0] > 2))]
    scale = lcm(*(w * w for _, w, _ in stable))
    rows = [(m, w, tuple((e, n * (scale // (w * w))) for e, n in r)) for m, w, r in stable]
    return change_of_variables(H._with(rows, H.den * scale))


def tau_route_reports(
    cs: Iterable[UPoly], W: int, *, G: TruncatedSeries | None = None
) -> list[CheckReport]:
    """For each c, exact per-coefficient equality of the two tau assemblies
    at weight W, with the G-route's tau_0 formed once: each c that leaves
    its band alone reads c + tau_0 on both routes, which is the tau at c
    (test_taus_are_affine_in_c); any other c is built directly.

    G defaults to extract_G(W, Mmax=W + 1).  With that Mmax the G-route is
    complete on weight + u-exponent <= 2W + 2, which covers the whole
    default band box {w <= W, e <= W+2}; clipping both routes to that band
    makes them exact on everything stored, also when c reaches above it and
    widens the exponential's band.
    """
    if G is None:
        G = extract_G(W, Mmax=W + 1)
    _, hi = band_for_weight(W)
    g_tau0 = assemble_tau_from_g(UPOLY_ZERO, G)
    out = []
    for c in cs:
        if _widened((g_tau0.umin, g_tau0.umax), c) == (g_tau0.umin, g_tau0.umax):
            t1 = g_tau0 + TruncatedSeries.const("q", W, c, umin=g_tau0.umin,
                                                umax=g_tau0.umax) if c else g_tau0
        else:
            t1 = assemble_tau_from_g(c, G)
        t2 = assemble_tau_exponential(c, W)
        out.append(residual_report("tau_routes", t1.clip_u_above(hi) - t2.clip_u_above(hi),
                                   reliable=W, detail={"c": str(c), "W": W}))
    return out


# ---------------------------------------------------------------------------
# Intersection numbers, two extraction routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionNumber:
    """<lambda_{2j} tau_{d_1} ... tau_{d_n}> with sorted degree multiset."""

    j: int
    degrees: tuple[int, ...]
    value: Rat

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("lambda-index must be >= 0")
        degrees = tuple(sorted(self.degrees))
        if not degrees or any(d < 0 for d in degrees):
            raise ValueError("degrees must be a nonempty tuple of ints >= 0")
        object.__setattr__(self, "degrees", degrees)
        num = 2 * self.j + sum(degrees) + 3 - len(degrees)
        if num % 4:
            raise ValueError(
                f"no integer genus for j={self.j}, degrees={degrees}"
            )
        if num < 0:
            raise ValueError("negative genus")

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def g(self) -> int:
        return (2 * self.j + sum(self.degrees) + 3 - self.n) // 4

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.j, self.degrees)

    def to_json_obj(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "g": self.g,
            "j": self.j,
            "value": str(self.value),
        }


def _record_sort_key(r: IntersectionNumber) -> tuple:
    return (2 * r.j + sum(r.degrees), r.n, r.j, r.degrees)


def extract_intersections_tbasis(G: TruncatedSeries) -> list[IntersectionNumber]:
    """Triangular reduction of G against T-monomials, one weight layer at a
    time from the top.  The top-weight part of T_{k1}...T_{kr} is
    prod(k_i!) q_{k1+1}...q_{kr+1} alone, so a layer's blocks change only
    lower weights and each layer's coefficients are read once.

    An emitted record reads the u^(2j+1) layer of a weight-w coefficient with
    2j + w <= W, the emit region w + e <= W + 1, W here G's reliable weight;
    entries beyond it are skipped and form no block.  An entry of
    extract_G(W, Mmax) has even weight + u-exponent, twice its cut-and-join
    order, and is complete once that is <= 2*Mmax; each T_k is homogeneous
    in w + e, so no block moves an entry into or out of the region.  So G
    needs Mmax >= (W + 1) // 2, and a larger Mmax only adds entries that
    are skipped (see tbasis_records).  An entry
    in the region at an even or negative power of u, or at one that gives
    its record no whole genus >= 0, is not a T-monomial term: it raises
    ArithmeticError naming the monomial and the power.

    The residue is one integer accumulator, {packed monomial: {u-exp: n}}
    per weight, every n over one denominator; the monomials of a layer are
    read in the order G's rows and then the products first list them.
    Before a layer subtracts its blocks, the layers below it and the
    denominator are multiplied by the lcm of the layer's prod(k_i!), so
    every block coefficient is an integer.  The T-monomial products are
    packed integer rows that share one memo across all layers, keyed by the
    sorted word (k1, ..., kr): tprod(word) = tprod(word[:-1]) * T_{kr}, so
    each distinct prefix costs one convolve for the whole reduction and no
    series is built.  A word's leading weight is sum(k_i + 1), and layer w
    reads only words of that weight and their prefixes, so products of
    weight >= w are dropped once layer w is done.  Band and family faults
    raise as a reduction through series products would.
    """
    if G.family != "q":
        raise FamilyError(f"T-basis reduction of a {G.family}-family series")
    W, lo, hi = G.W, G.umin, G.umax
    basis = [t.rows for t in build_tbasis(W - 1, W)]
    one = [(0, 0, ((0, 1),))]
    memo = {(): (one, _u_span(one, lo, hi))}

    def tprod(word: tuple[int, ...]) -> tuple[list, tuple[int, int]]:
        got = memo.get(word)
        if got is None:
            rows = summed_rows(convolve(tprod(word[:-1])[0], basis[word[-1]], W))
            span = _u_span(rows, lo, hi)
            rows.sort(key=itemgetter(1))
            got = memo[word] = (rows, span)
        return got

    layers: list[dict[int, dict[int, int]]] = [{} for _ in range(W + 1)]
    for m, w, r in G.rows:
        layers[w][m] = dict(r)
    den = G.den
    records: list[IntersectionNumber] = []
    for w in range(W, -1, -1):
        blocks = []
        for m, row in layers[w].items():
            # only entries inside the emit region are certified; beyond it the
            # coefficients may be truncation artifacts and are dropped
            r = sorted(en for en in row.items() if en[1] and en[0] + w - 1 <= G.reliable)
            if not r:
                continue
            pairs = unpack(m)
            ks = tuple(i - 1 for i, e in pairs for _ in range(e))
            k_fact = prod(factorial(k) for k in ks)
            blocks.append((ks, k_fact, r))
            aut = prod(factorial(e) for _, e in pairs)
            for exp, n in r:
                # u^(2j+1) carries <lambda_2j tau_d1..tau_dn>, whose genus
                # (2j + sum d + 3 - n) / 4 is (exp + w + 2 - 2n) / 4
                g4 = exp + w + 2 - 2 * len(ks)
                if exp < 1 or exp % 2 == 0 or g4 % 4 or g4 < 0:
                    raise ArithmeticError(
                        f"residue not expressible in T-monomials: {mono_str(pairs)} "
                        f"carries u^{exp}"
                    )
                j = (exp - 1) // 2
                records.append(IntersectionNumber(
                    j, ks, Fraction((-1) ** j * n * aut, den * k_fact)))
        scale = lcm(*(k_fact for _, k_fact, _ in blocks))
        if scale > 1:
            den *= scale
            for layer in layers[:w]:
                for row in layer.values():
                    for e in row:
                        row[e] *= scale
        for ks, k_fact, r in blocks:
            # minus the entry over prod(k_i!), now an integer over den
            f = -(scale // k_fact)
            c = [(e, f * n) for e, n in r]
            rows, (slo, shi) = tprod(ks)
            ulo, uhi = c[0][0], c[-1][0]
            if (ulo or uhi) and (slo + ulo < lo or shi + uhi > hi):
                coef = UPoly({e: Fraction(n, den) for e, n in c})
                raise UBandError(f"{coef} times a series escapes its band [{lo}, {hi}]")
            for m2, w2, r2 in rows:
                # the product's one row of weight w is the entry's own monomial
                if w2 < w:
                    got = layers[w2].get(m2)
                    if got is None:
                        got = layers[w2][m2] = {}
                    for ce, cn in c:
                        for e, n in r2:
                            got[e + ce] = got.get(e + ce, 0) + cn * n
        for word in [word for word in memo if sum(word) + len(word) >= w]:
            del memo[word]
    return sorted(records, key=_record_sort_key)


def _u_span(rows: list, lo: int, hi: int) -> tuple[int, int]:
    """The lowest and highest u-exponent of nonempty rows; the first row
    outside [lo, hi] raises UBandError, as a series built from them would."""
    span = min(r[0][0] for _, _, r in rows), max(r[-1][0] for _, _, r in rows)
    if span[0] < lo or span[1] > hi:
        r = next(r for _, _, r in rows if r[0][0] < lo or r[-1][0] > hi)
        raise _band_error(r[0][0], r[-1][0], lo, hi)
    return span


def _monomial_symmetric(lam: tuple[int, ...], b: tuple[int, ...]) -> Rat:
    return Fraction(
        sum(
            prod(bi**d for bi, d in zip(b, perm))
            for perm in set(itertools.permutations(lam))
        )
    )


def hurwitz_grid(g: int, n: int, *, dmax: int) -> dict[tuple[int, tuple[int, ...]], Rat]:
    """Closed-form counts for every nondecreasing profile of length n with
    sum <= dmax; brute force and the cut-and-join series anchor the closed
    form in the tests, so this route shares no code with the T-basis one."""
    return {(g, parts): hurwitz_closed_form(HurwitzIndex(g, parts))
            for parts in profiles(n, dmax)}


def extract_intersections_polyfit(
    g: int,
    n: int,
    hvalues: dict[tuple[int, tuple[int, ...]], Rat],
    *,
    dmax: int,
) -> list[IntersectionNumber]:
    """Solve for the numbers from counts on a profile grid, exactly.

    h_{g,b} / (d * m!) is a polynomial in b with homogeneous layers of degree
    4g - 3 + n - 2j carrying sign (-1)^j; the unknowns are its coefficients
    on monomial symmetric functions.  The system must be uniquely solvable
    and exactly consistent, anything else is reported, not patched.
    """
    D = 4 * g - 3 + n
    if D < 0:
        return []
    unknowns: list[tuple[int, tuple[int, ...]]] = []
    for j in range(g + 1):
        if D - 2 * j < 0:
            break
        # degree multisets of sum D - 2j: the n-part profiles of sum D - 2j + n, less 1
        top = D - 2 * j + n
        unknowns.extend((j, tuple(b - 1 for b in parts))
                        for parts in profiles(n, top) if sum(parts) == top)
    m = 2 * g - 1 + n
    rows: list[tuple[tuple[int, ...], list[Rat], Rat]] = []
    for parts in profiles(n, dmax):
        h = hvalues.get((g, parts))
        if h is None:
            raise KeyError(f"missing count for g={g}, profile {parts}")
        coeffs = [
            (-1) ** j * _monomial_symmetric(lam, parts) for j, lam in unknowns
        ]
        rows.append((parts, coeffs, h / (sum(parts) * factorial(m))))
    work = [coeffs + [rhs] for _, coeffs, rhs in rows]
    ncols = len(unknowns)
    for col in range(ncols):
        hit = next((i for i in range(col, len(work)) if work[i][col]), None)
        if hit is None:
            raise ValueError(
                f"underdetermined grid for g={g}, n={n}: no pivot in column {col}"
            )
        work[col], work[hit] = work[hit], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(len(work)):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    solution = {unknowns[c]: work[c][-1] for c in range(ncols)}
    for parts, coeffs, rhs in rows:
        lhs = sum(cf * solution[u] for cf, u in zip(coeffs, unknowns))
        if lhs != rhs:
            raise ValueError(
                f"inconsistent system at profile {parts}: fit gives {lhs}, "
                f"counts give {rhs}"
            )
    return sorted(
        (IntersectionNumber(j, lam, v) for (j, lam), v in solution.items()),
        key=_record_sort_key,
    )


# ---------------------------------------------------------------------------
# F and its identities
# ---------------------------------------------------------------------------


def exp_join_of_q1(W: int) -> TruncatedSeries:
    """exp(M2) q_1 at truncation W; the right-hand side of the F identities."""
    return exp_join_power(1, W)


def extract_F(records, W: int) -> TruncatedSeries:
    """Assemble F from the j = 0 records: tau_d becomes d! * q_{d+1}.

    The term for a degree multiset {d^k_d} is value * prod (d!)^{k_d} / k_d!
    on prod q_{d+1}^{k_d}.  The records are tbasis_records(W)'s: one j = 0
    record per monomial, each of weight <= W.
    """
    terms: dict = {}
    for rec in records:
        if rec.j != 0:
            continue
        mults: dict[int, int] = {}
        for d in rec.degrees:
            mults[d] = mults.get(d, 0) + 1
        coef = rec.value * prod(
            Fraction(factorial(d) ** k, factorial(k)) for d, k in mults.items()
        )
        terms[mono(*((d + 1, k) for d, k in mults.items()))] = UPoly.const(coef)
    return TruncatedSeries("q", W, terms)


def verify_string(F: TruncatedSeries) -> CheckReport:
    """dF/dq_1 = Lambda_1 F + q_1^2 / 2, to reliable weight W - 1."""
    half_sq = TruncatedSeries.monomial(
        F.family, F.W, mono((1, 2)), UPoly.const(Fraction(1, 2)),
        umin=F.umin, umax=F.umax,
    )
    residual = F.partial(1) - Lambda(1).apply(F) - half_sq
    return residual_report("string_equation", residual, detail={"W": F.W})


def verify_lambda_square(F: TruncatedSeries) -> CheckReport:
    """Lambda_1^2 F + q_1 + q_1 q_2 = exp(M2) q_1."""
    head = TruncatedSeries(
        F.family, F.W, {mono_var(1): UPoly.const(1),
                        mono((1, 1), (2, 1)): UPoly.const(1)},
        umin=F.umin, umax=F.umax,
    )
    residual = Lambda(1).apply(Lambda(1).apply(F)) + head - exp_join_of_q1(F.W)
    return residual_report("lambda_square", residual, detail={"W": F.W})


def verify_second_derivative(F: TruncatedSeries) -> CheckReport:
    """d^2 F / dq_1^2 = exp(M2) q_1, to reliable weight W - 2."""
    residual = F.partial(1).partial(1) - exp_join_of_q1(F.W)
    return residual_report("q1_second_derivative", residual, detail={"W": F.W})


def faber_pandharipande(g: int, degrees: tuple[int, ...]) -> Rat:
    """<tau_d1..tau_dn lambda_g>_g = C(2g-3+n; d_1..d_n) * b_g for g >= 1, with
    b_g = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!) (Faber-Pandharipande,
    arXiv:math/9810173)."""
    bern = [Fraction(1)]  # B_k from sum_{i<=k} C(k+1, i) B_i = 0
    for k in range(1, 2 * g + 1):
        bern.append(-sum(comb(k + 1, i) * bern[i] for i in range(k)) / (k + 1))
    p = 2 ** (2 * g - 1)
    top = factorial(2 * g - 3 + len(degrees)) // prod(factorial(d) for d in degrees)
    return top * Fraction(p - 1, p) * abs(bern[2 * g]) / factorial(2 * g)


def lambda_g_mismatches(records) -> list[IntersectionNumber]:
    """The records with j = g >= 1 that disagree with faber_pandharipande."""
    return [r for r in records
            if r.j == r.g >= 1 and r.value != faber_pandharipande(r.g, r.degrees)]


@functools.lru_cache(maxsize=1)
def tbasis_records(W: int) -> tuple[IntersectionNumber, ...]:
    """The T-basis records to weight W, computed once per W and shared by
    every check that reads them.

    Built at W' = W - 1 + W % 2, the largest odd weight <= W, and cut-and-join
    order (W' + 1) // 2.  A record has odd 2j + w (2j + sum d = 4g - 3 + n,
    w = sum(d_i + 1)), so the records to W are those to W'.  An entry of G
    has even weight + u-exponent, twice its cut-and-join order (H sits at
    u^(2k), the rename sends (w, e) to (w, e - w), exp(-Lambda_1/u) keeps
    w + e), so that order is the smallest making every record exact, and G
    holds nothing outside the reduction's emit region w + e <= W' + 1.
    """
    odd = W - 1 + W % 2
    return tuple(extract_intersections_tbasis(extract_G(odd, (odd + 1) // 2)))


def intersection_F(W: int) -> TruncatedSeries:
    """F to weight W via the count series, the G solve and the T-reduction."""
    return extract_F(tbasis_records(W), W)


def verify_proposition(n: int, W: int) -> CheckReport:
    """n * d/dq_n exp(M2) q_1 = Lambda_{2-n} exp(M2) q_1 + exp(M2) q_1^{n-1}.

    Reported to the reliable weight of the n-th derivative, W - n.  The
    n = 1 case carries the string equation's content, n = 2 the dilaton one.

    The derivation rests on [n d/dq_n, M] = n Lambda_{2-n}.  With M the linear
    (cut) part of M2 that bracket, and so the identity, holds for every n.
    This check uses the full M2, whose join sum adds the two-derivative term
    (n/2) Sum_{i+j=n-2} ij d/dq_i d/dq_j to the bracket; it is nonzero from
    n = 4 on, so the identity holds only for n <= 3 and the report fails for
    n >= 4 (first residuals 3*q3 at n = 4 and the constant 5 at n = 5).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if W < n + 2:
        raise ValueError("need W >= n + 2 to see anything")
    E = exp_join_of_q1(W)
    lhs = E.partial(n).scale(n)
    rhs = Lambda(2 - n).apply(E) + exp_join_power(n - 1, W)
    return residual_report(
        f"proposition_n{n}", lhs - rhs, detail={"n": n, "W": W}
    )
