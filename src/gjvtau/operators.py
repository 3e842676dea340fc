"""Weight-graded differential operators on :class:`TruncatedSeries`.

Operators are immutable AST nodes: the single-variable derivative, the
lowering family Lambda(a), the three cut-and-join operators, multiplication by
a variable, Compose, and Sum, a linear combination whose coefficients are
Laurent polynomials in u.  A scalar is a coefficient: scaled(op, c) is a
one-part Sum, and add_scaled applies every coefficient.  A leaf that maps
monomials to monomials declares only a stencil: the (target monomial, integer
multiplier) pairs of one source monomial, over a class-level denominator,
memoised per (leaf, monomial) since it does not depend on the truncation.
One kernel, :meth:`Operator.apply`, applies every stencil to the input's
integer rows and writes the output's rows.

Every leaf declares its exact weight shift and keeps u-exponents.
Application propagates the reliability metadata of the series: an operator
whose weight shift is negative (a derivative) lowers the weight up to which
the result is exact, and a coefficient with negative u-powers lowers ``u_hi``.

Operator equality is extensional: two operators are considered equal at
truncation W iff their actions agree on every monomial of weight <= W,
compared over the common reliable region.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from gjvtau.exactalg import (
    Monomial,
    Rat,
    TruncatedSeries,
    UPoly,
    mono,
    mono_div_var,
    mono_mul,
    mono_var,
    monomials_up_to_weight,
    summed_rows,
)


class OperatorGradingError(ValueError):
    """An operator exponential cannot be truncated soundly as requested."""


@functools.cache
def _stencil(op: Operator, m: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """op's stencil at m with repeated targets merged, memoised per (leaf,
    monomial); it holds no W, so it serves every truncation."""
    merged: dict[Monomial, int] = {}
    for target, k in op.stencil(m):
        merged[target] = merged.get(target, 0) + k
    return tuple((t, k) for t, k in merged.items() if k)


class Operator:
    """Base class.  A stencil leaf implements stencil, den and weight_shift
    and acts through apply; Partial, Sum and Compose act their own way."""

    # the stencil multipliers are integers over this denominator
    den = 1

    def stencil(self, m: Monomial) -> Iterator[tuple[Monomial, int]]:
        """(target monomial, multiplier over den) pairs of the action on m."""
        raise NotImplementedError

    def weight_shift(self) -> int:
        """The exact weight shift; a Sum has none."""
        raise NotImplementedError(f"{type(self).__name__} has no single weight shift")

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        shift = self.weight_shift()
        acc: dict[Monomial, tuple[int, dict[int, int]]] = {}
        for m, w, c in s.rows:
            if w + shift > s.W:
                break
            for target, k in _stencil(self, m):
                got = acc.get(target)
                if got is None:
                    got = acc[target] = (w + shift, {})
                row = got[1]
                for e, n in c:
                    row[e] = row.get(e, 0) + k * n
        return s._with(summed_rows(acc), s.den * self.den, reliable=s.reliable + shift)

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        return self.apply(s)


@dataclass(frozen=True)
class Partial(Operator):
    """d/dx_n; weight shift -n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("derivative index must be >= 1")

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        return s.partial(self.n)

    def weight_shift(self):
        return -self.n


@dataclass(frozen=True)
class Lambda(Operator):
    """Sum_i x_{i+a} * i * d/dx_i over i >= 1 with i + a >= 1; requires a <= 1.

    a = 0 is the weight (Euler) operator, a = 1 raises every index by one.
    """

    a: int

    def __post_init__(self):
        if self.a > 1:
            raise ValueError("index shift must be <= 1")

    def stencil(self, m):
        for v, e in m:
            if v + self.a >= 1:
                yield mono_mul(mono_div_var(m, v), mono_var(v + self.a)), v * e

    def weight_shift(self):
        return self.a


@dataclass(frozen=True)
class CutPart(Operator):
    """First (two-x, one-derivative) sum of the cut-and-join operator:
    (1/2) Sum_{i,j>=1} x_i x_j (i+j-k) d/dx_{i+j-k}."""

    k: int
    den = 2

    def stencil(self, m):
        for v, e in m:
            # derivative slot v, replaced by all ordered (i, j), i+j = v+k
            base = mono_div_var(m, v)
            for i in range(1, v + self.k):
                yield mono_mul(base, mono((i, 1), (v + self.k - i, 1))), v * e

    def weight_shift(self):
        return self.k


@dataclass(frozen=True)
class JoinPart(Operator):
    """Second (one-x, two-derivative) sum of the cut-and-join operator:
    (1/2) Sum_{i,j>=1} x_{i+j+k} * ij * d2/dx_i dx_j."""

    k: int
    den = 2

    def stencil(self, m):
        for vi, ei in m:
            for vj, ej in m:
                n = ei * (ej - 1) if vi == vj else ei * ej
                if n > 0:
                    base = mono_div_var(mono_div_var(m, vi), vj)
                    yield mono_mul(base, mono_var(vi + vj + self.k)), vi * vj * n

    def weight_shift(self):
        return self.k


@dataclass(frozen=True)
class CutJoin(Operator):
    """Full cut-and-join operator of shift k in {0, 1, 2}."""

    k: int
    den = 2

    def __post_init__(self):
        if self.k not in (0, 1, 2):
            raise ValueError("cut-and-join shift must be 0, 1 or 2")

    def stencil(self, m):
        yield from CutPart(self.k).stencil(m)
        yield from JoinPart(self.k).stencil(m)

    def weight_shift(self):
        return self.k


@dataclass(frozen=True)
class MulVar(Operator):
    """Multiplication by the variable x_i (used to spell out closed forms)."""

    i: int

    def stencil(self, m):
        yield mono_mul(m, mono_var(self.i)), 1

    def weight_shift(self):
        return self.i


class Sum(Operator):
    """The linear combination Sum_i c_i * op_i, with UPoly coefficients c_i
    (each 1 unless coeffs gives it); the empty sum is the zero operator.
    A nested Sum is flattened when built, its coefficients multiplied by the
    outer one, so parts holds no Sum and one add_scaled applies them all."""

    __slots__ = ("parts",)

    def __init__(self, *ops: Operator, coeffs: Iterable[UPoly | Rat | int] | None = None):
        parts: list[tuple[UPoly, Operator]] = []
        for c, op in zip((1,) * len(ops) if coeffs is None else coeffs, ops, strict=True):
            c = c if isinstance(c, UPoly) else UPoly.const(c)
            parts += [(c * ci, o) for ci, o in op.parts] if isinstance(op, Sum) else [(c, op)]
        object.__setattr__(self, "parts", tuple(parts))

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        return s._with([], 1).add_scaled((c, op.apply(s)) for c, op in self.parts)


class Compose(Operator):
    """Composition, applied right to left: Compose(a, b)(s) = a(b(s))."""

    __slots__ = ("ops",)

    def __init__(self, *ops: Operator):
        if not ops:
            raise ValueError("composition of zero operators is not defined")
        object.__setattr__(self, "ops", tuple(ops))

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        # step by step: an intermediate that leaves the truncation box and
        # would be pulled back by a later derivative must cost reliability,
        # which the total weight shift cannot see
        for op in reversed(self.ops):
            s = op.apply(s)
        return s

    def weight_shift(self):
        return sum(op.weight_shift() for op in self.ops)


ZERO_OP = Sum()


def scaled(op: Operator, c: Rat | int | UPoly) -> Operator:
    return Sum(op, coeffs=(c,))


def commutator(a: Operator, b: Operator) -> Operator:
    return Sum(Compose(a, b), Compose(b, a), coeffs=(1, -1))


def ops_equal(
    f: Callable[[TruncatedSeries], TruncatedSeries],
    g: Callable[[TruncatedSeries], TruncatedSeries],
    *,
    W: int,
    headroom: int = 0,
) -> bool:
    """Extensional equality on every monomial of weight <= W, compared over
    the common reliable weight of the two results.

    headroom widens the internal truncation so that operators whose composites
    dip through derivatives still compare at full strength up to W: pass the
    largest single-step weight raise that precedes a derivative.
    """
    Wi = W + headroom
    for m in monomials_up_to_weight(W):
        s = TruncatedSeries.monomial("q", Wi, m)
        fa, fb = f(s), g(s)
        rel = min(fa.reliable, fb.reliable)
        if fa.up_to_weight(rel) != fb.up_to_weight(rel):
            return False
    return True


# ---------------------------------------------------------------------------
# Graded exponentials
# ---------------------------------------------------------------------------


def exponential_apply(
    op: Operator,
    s: TruncatedSeries,
    *,
    max_order: int | None = None,
) -> TruncatedSeries:
    """Apply exp(op) to s, summing op^k(s)/k! until the term vanishes.

    Truncation is sound without an order cap in two gradings: every summand
    raises weight + u-degree by >= 1 while lowering neither (terms leave the
    finite weight x u-band box, and the high u side is clipped, recorded in
    u_hi), or every summand raises weight by >= 1 without raising u (terms
    leave through the weight ceiling).  Anything else needs max_order.
    """
    # a summand's u-shift is the exponent range of its coefficient: no
    # operator that has a weight shift moves u
    shifts = [(p.weight_shift(), (c.min_exp(), c.max_exp()) if c else (0, 0))
              for c, p in Sum(op).parts]
    clip = False
    if max_order is None:
        box = all(w >= 0 and ul >= 0 and w + ul >= 1 for w, (ul, _) in shifts)
        raising = all(w >= 1 and uh <= 0 for w, (_, uh) in shifts)
        if not (box or raising):
            probe = op.apply(s)
            if probe.is_zero():
                return s
            raise OperatorGradingError(
                "exponential needs an explicit order cap: summand shifts "
                f"{shifts} give no sound truncation grading"
            )
        clip = box and any(uh > 0 for _, (_, uh) in shifts)
        cap = s.W + (s.umax - s.umin) + 2
    else:
        cap = max_order
    step_up = max((uh for _, (_, uh) in shifts), default=0)

    def powers():  # (1/k!, op^k(s)) until op^k(s) vanishes
        cur = s
        for k in range(1, cap + 1):
            if clip:
                wide = cur.with_band(s.umin, s.umax + step_up)
                cur = op.apply(wide).clip_u_above(s.umax)
            else:
                cur = op.apply(cur)
            if cur.is_zero():
                return
            yield Fraction(1, factorial(k)), cur
        if max_order is None:
            raise OperatorGradingError("exponential did not terminate within the box cap")

    total = s.add_scaled(powers())
    wlo = min((w for w, _ in shifts), default=0)
    rel = s.reliable if wlo >= 0 else s.reliable + wlo * cap
    if clip:
        total = total.clip_u_above(s.umax)
    return total.with_reliable(min(rel, total.reliable))


def bracket_chain(x: Operator, a: Operator, s: TruncatedSeries) -> Iterator[TruncatedSeries]:
    """[(ad_X)^r(a)](s) for r = 0, 1, ... with ad_X(y) = [y, X], expanded as
    Sum_j C(r, j) (-1)^j X^j a X^(r-j) s over one row, row[j] = X^j a X^(r-j) s,
    so each such term is formed once."""
    xs, row = s, [a.apply(s)]
    for r in itertools.count():
        yield s._with([], 1).add_scaled(((-1) ** j * comb(r, j), t) for j, t in enumerate(row))
        xs = x.apply(xs)
        row = [a.apply(xs)] + [x.apply(t) for t in row]


# the longest bracket chain conjugate expands before giving up
CONJUGATE_DEPTH = 8


def conjugate(x: Operator, a: Operator, *, W: int) -> Callable[[TruncatedSeries], TruncatedSeries]:
    """exp(-X) a exp(X) as the map s -> Sum_{k<depth} [(ad_X)^k(a)](s) / k!,
    where depth is the first k >= 1 at which the chain term vanishes over its
    reliable weight on every monomial of weight <= W (at truncation W + 2);
    it must come within CONJUGATE_DEPTH."""
    chains = [bracket_chain(x, a, TruncatedSeries.monomial("q", W + 2, m))
              for m in monomials_up_to_weight(W)]
    for c in chains:
        next(c)
    for depth in range(1, CONJUGATE_DEPTH + 1):
        # a list, not a generator: every chain advances, in lockstep
        if not any([t.up_to_weight(t.reliable) for t in map(next, chains)]):
            return lambda s: s._with([], 1).add_scaled(
                (Fraction(1, factorial(k)), t)
                for k, t in enumerate(itertools.islice(bracket_chain(x, a, s), depth)))
    raise OperatorGradingError(
        f"conjugation bracket chain did not vanish within depth {CONJUGATE_DEPTH}"
    )


# ---------------------------------------------------------------------------
# Linear part and the iterated-bracket machinery
# ---------------------------------------------------------------------------


def linear_part(op: Operator) -> Operator:
    """The two-x one-derivative sum of a cut-and-join operator.

    Adjudicated by machine check: of the two sums, only this one satisfies the
    closed form that iterated brackets against n*d/dx_n are required to
    reproduce (see bracket_closed_form and the tests), so it is the "linear
    part" in the sense that downstream derivations rely on.
    """
    if isinstance(op, CutJoin):
        return CutPart(op.k)
    raise ValueError("linear part is defined for cut-and-join operators only")


def n_partial(n: int) -> Operator:
    """n * d/dx_n, the basic block of the proposition machinery."""
    return scaled(Partial(n), n)


def bracket_closed_form(n: int, i: int, W: int) -> Operator:
    """Claimed closed form of the i-fold bracket of n*d/dx_n with the linear
    part of the shift-2 cut-and-join operator:

        prod_{j<i}(n-j) * Sum_{k_1..k_i >= 1} x_{k_1}..x_{k_i} * (K+n-2i) d/dx_{K+n-2i}

    with K = k_1+..+k_i, spelled out over all index tuples with K <= W (terms
    with larger K cannot act below the truncation).
    """
    pref = 1
    for j in range(i):
        pref *= n - j
    if pref == 0:
        return ZERO_OP
    parts: list[Operator] = []
    for ks in itertools.product(range(1, W + 1), repeat=i):
        K = sum(ks)
        idx = K + n - 2 * i
        if K > W or idx < 1:
            continue
        muls = [MulVar(k) for k in ks]
        parts.append(Compose(*muls, scaled(Partial(idx), pref * idx)))
    return Sum(*parts)


def bracket_order_bound(n: int, W: int) -> int:
    """Largest r for which (ad M)^r(n d/dx_n) can act nontrivially at
    truncation W: the net weight shift is 2r - n and constants are killed."""
    return (W + n - 1) // 2


def o_actions(n: int, s: TruncatedSeries, W_out: int) -> list[TruncatedSeries]:
    """[O_i](s) for i = 0..bracket_order_bound(n, W_out), each exact to the
    reliable weight it reports (truncated to W_out)."""
    rmax = bracket_order_bound(n, W_out)
    acts = list(itertools.islice(bracket_chain(CutJoin(2), n_partial(n), s), rmax + 1))
    zero = TruncatedSeries.zero(s.family, s.W, umin=s.umin, umax=s.umax)
    return [zero.add_scaled((Fraction((-1) ** k, factorial(k) * factorial(i)),
                             acts[i + k]) for k in range(rmax - i + 1)).truncate(W_out)
            for i in range(rmax + 1)]


def verify_O_operators(n: int, W: int) -> dict[str, bool]:
    """Machine checks for the O-operator family at truncation W.

    Returns named booleans:
      * action_vanishes_off_peak: O_i applied to exp(M2)x1 is zero for every
        i not in {n-1, n} (all orders that can act at weight <= W);
      * penultimate_action: O_{n-1} exp(M2)x1 = n * exp(M2) x1^(n-1);
      * weighted_sum_is_bracket: Sum_i i*O_i = [n d/dx_n, M2] on exp(M2)x1;
      * weighted_sum_is_lambda_shift: [n d/dx_n, M2] = n*Lambda(2-n)
        extensionally, hence Sum_i i*O_i = n*Lambda(2-n) given the bracket
        form.  This is the form the derivation quotes; it is strictly
        weaker than the bracket form and fails for n >= 4, where the bracket
        picks up the two-derivative term (n/2) Sum_{i+j=n-2} ij d/dx_i d/dx_j.

    Actions are computed at internal truncation W + n so that the reported
    comparisons are exact through weight W despite the derivative dip.
    """
    m2 = CutJoin(2)
    Wi = W + n
    e_full = exponential_apply(m2, TruncatedSeries.variable("q", Wi, 1))
    acts = o_actions(n, e_full, W)

    vanish = True
    for i, act in enumerate(acts):
        if i in (n - 1, n):
            continue
        vanish = vanish and act.up_to_weight(act.reliable).is_zero()

    lhs = acts[n - 1]
    rhs = exponential_apply(
        m2, TruncatedSeries.monomial("q", W, mono_var(1, n - 1))
    ).scale(n)
    rel = min(lhs.reliable, rhs.reliable)
    penult = lhs.up_to_weight(rel) == rhs.up_to_weight(rel)

    # Sum_i i*O_i = Sum_r B_r Sum_{i+k=r} i*(-1)^k/(k!*i!) with B_r the r-fold
    # bracket, and the inner sum is delta_{r,1}: the weighted sum is the single
    # bracket B_1 as an operator identity, so comparing both on one input
    # tests the o_actions coefficients
    weighted = TruncatedSeries.zero("q", W).add_scaled(
        (i, act) for i, act in enumerate(acts))
    bracket = commutator(n_partial(n), m2)
    direct = bracket.apply(e_full).truncate(W)
    rel = min(weighted.reliable, direct.reliable)
    return {
        "action_vanishes_off_peak": vanish,
        "penultimate_action": penult,
        "weighted_sum_is_bracket": weighted.up_to_weight(rel) == direct.up_to_weight(rel),
        "weighted_sum_is_lambda_shift": ops_equal(
            bracket, scaled(Lambda(2 - n), n), W=W, headroom=n),
    }


# ---------------------------------------------------------------------------
# Named identity suites
# ---------------------------------------------------------------------------


def verify_commutators(W: int) -> dict[str, bool]:
    """The bracket identities the conjugation trick rests on, extensionally."""
    l0, l1 = Lambda(0), Lambda(1)
    m0, m1, m2 = CutJoin(0), CutJoin(1), CutJoin(2)
    # headroom 2: the d/dx_1 bracket dips through a weight-2 raise
    return {
        "m0_l1_is_2m1": ops_equal(commutator(m0, l1), scaled(m1, 2), W=W, headroom=2),
        "m1_l1_is_m2": ops_equal(commutator(m1, l1), m2, W=W, headroom=2),
        "m2_l1_is_zero": ops_equal(commutator(m2, l1), ZERO_OP, W=W, headroom=2),
        "l0_l1_is_l1": ops_equal(commutator(l0, l1), l1, W=W, headroom=2),
        "d1_m2_is_l1": ops_equal(commutator(Partial(1), m2), l1, W=W, headroom=2),
        "m0_l0_is_zero": ops_equal(commutator(m0, l0), ZERO_OP, W=W, headroom=2),
    }


def verify_conjugations(W: int) -> dict[str, bool]:
    """exp(-L1/u) (.) exp(L1/u) moves u^2*M0 onto M2 + 2u*M1 + u^2*M0 and
    u*Lambda0 onto u*Lambda0 + Lambda1; checked both through the bracket
    chain and by direct three-step application to every basis monomial."""
    x = scaled(Lambda(1), UPoly.u(-1))
    xm = scaled(Lambda(1), UPoly.u(-1, -1))
    m0c = conjugate(x, scaled(CutJoin(0), UPoly.u(2)), W=W)
    l0c = conjugate(x, scaled(Lambda(0), UPoly.u(1)), W=W)
    target_m = Sum(scaled(CutJoin(0), UPoly.u(2)), scaled(CutJoin(1), UPoly.u(1, 2)),
                   CutJoin(2))
    target_l = Sum(scaled(Lambda(0), UPoly.u(1)), Lambda(1))

    def sandwich(op: Operator) -> Callable[[TruncatedSeries], TruncatedSeries]:
        def go(s: TruncatedSeries) -> TruncatedSeries:
            return exponential_apply(xm, op.apply(exponential_apply(x, s)))
        return go

    return {
        "conj_m0_chain": ops_equal(m0c, target_m, W=W),
        "conj_l0_chain": ops_equal(l0c, target_l, W=W),
        "conj_m0_sandwich": ops_equal(sandwich(scaled(CutJoin(0), UPoly.u(2))),
                                      target_m, W=W),
        "conj_l0_sandwich": ops_equal(sandwich(scaled(Lambda(0), UPoly.u(1))),
                                      target_l, W=W),
    }
