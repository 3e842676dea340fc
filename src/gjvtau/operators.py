"""Weight-graded differential operators on :class:`TruncatedSeries`.

Operators are immutable AST nodes: the single-variable derivative, the
lowering family Lambda(a), the three cut-and-join operators, Compose, and
Sum, a linear combination whose coefficients are Laurent polynomials in u.
A scalar is a coefficient: scaled(op, c) is a one-part Sum.  A leaf, the
derivative included, declares only a stencil: the (target monomial, integer
multiplier) pairs of one source monomial, over a class-level denominator,
memoised per (leaf, monomial) since it does not depend on the truncation.
One stencil kernel applies a leaf, and every leaf part of a Sum at once: in
one pass over the input's integer rows it sums c_i * leaf_i(s) into one
integer accumulator and writes the output's rows.  Only a Sum's Compose
parts are summed through add_scaled.

Every leaf declares its exact weight shift and keeps u-exponents.
Application propagates the reliability metadata of the series: an operator
whose weight shift is negative (a derivative) lowers the weight up to which
the result is exact, and a coefficient with negative u-powers lowers ``u_hi``.

Operator equality has two routes.  ops_equal is extensional: two maps are
equal at truncation W iff their actions agree on every monomial of weight
<= W, compared over the common reliable region.  symbol(op, N) is the
normal-ordered form: op's terms c * x^alpha d^beta with d-weight <= N, each
leaf's read off its own stencil, composed by the Leibniz rule; two
operators act equally on every monomial of weight <= N iff their symbols at
N are equal.  Identities between operators compare symbols; the
conjugation sandwich, which acts on series, compares with ops_equal.  The
O-operator actions are the u-layers of one conjugation by exp((1-u)M2),
formed by two exponentials, with no bracket expanded.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, inf, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from gjvtau.exactalg import (
    Monomial,
    Rat,
    TruncatedSeries,
    UBandError,
    UPOLY_ONE,
    UPoly,
    mono,
    mono_div_var,
    mono_exp,
    mono_mul,
    mono_var,
    mono_weight,
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


def _stencil_sum(s: TruncatedSeries, parts: list[tuple[UPoly, Operator]],
                 reliable: int) -> TruncatedSeries:
    """Sum_i c_i * leaf_i(s) over stencil leaves, in one pass over the rows of
    s into one integer accumulator over s.den * lcm_i(den(c_i) * leaf_i.den).

    The result keeps the W and band of s, is exact through reliable, and
    lowers u_hi by the lowest u-power of any c_i, as add_scaled on the
    c_i * leaf_i(s) would.  A c_i that moves u raises :class:`UBandError` if
    it moves the u-range of the rows of s that reach one of leaf_i's targets
    out of the band: that range covers leaf_i(s)'s, so the check is never
    looser than add_scaled's, also when another part cancels the escape."""
    den = lcm(*(op.den * v.denominator for c, op in parts for _, v in c.terms))
    # per nonzero part: c_i, its leaf, its weight shift, its (u-power, integer
    # factor) pairs, and if c_i moves u, the [lowest, highest] u-exponent of
    # the rows that reach a target
    legs = [(c, op, op.weight_shift(),
             [(e, v.numerator * (den // (op.den * v.denominator))) for e, v in c.terms],
             [inf, -inf] if c.min_exp() or c.max_exp() else None)
            for c, op in parts if c]
    # the rows are in ascending weight: none past top reaches the truncation
    top = s.W - min((shift for _, _, shift, _, _ in legs), default=0)
    acc: dict[Monomial, tuple[int, dict[int, int]]] = {}
    for m, w, r in s.rows:
        if w > top:
            break
        for _, op, shift, fs, span in legs:
            if w + shift > s.W or not (targets := _stencil(op, m)):
                continue
            if span:
                span[0], span[1] = min(span[0], r[0][0]), max(span[1], r[-1][0])
            for target, k in targets:
                got = acc.get(target)
                if got is None:
                    got = acc[target] = (w + shift, {})
                row = got[1]
                for ce, f in fs:
                    kf = k * f
                    for e, n in r:
                        row[e + ce] = row.get(e + ce, 0) + kf * n
    for c, _, _, _, span in legs:
        if span and span[0] <= span[1] and (
                span[0] + c.min_exp() < s.umin or span[1] + c.max_exp() > s.umax):
            raise UBandError(f"{c} times a series escapes its band [{s.umin}, {s.umax}]")
    u_hi = s.u_hi
    if u_hi is not None:
        u_hi += min([0] + [c.min_exp() for c, *_ in legs])
    return s._with(summed_rows(acc), s.den * den, reliable=reliable, u_hi=u_hi)


class Operator:
    """Base class.  A stencil leaf implements stencil, den and weight_shift
    and acts through apply; Sum and Compose act their own way."""

    # the stencil multipliers are integers over this denominator
    den = 1

    def stencil(self, m: Monomial) -> Iterator[tuple[Monomial, int]]:
        """(target monomial, multiplier over den) pairs of the action on m."""
        raise NotImplementedError

    def weight_shift(self) -> int:
        """The exact weight shift; a Sum has none."""
        raise NotImplementedError(f"{type(self).__name__} has no single weight shift")

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        return _stencil_sum(s, [(UPOLY_ONE, self)], s.reliable + self.weight_shift())

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        return self.apply(s)


@dataclass(frozen=True)
class Partial(Operator):
    """d/dx_n; weight shift -n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("derivative index must be >= 1")

    def stencil(self, m):
        if e := mono_exp(m, self.n):
            yield mono_div_var(m, self.n), e

    def weight_shift(self):
        return -self.n


def _lower(exps: dict[int, int], v: int) -> None:
    """Divide the monomial held as {index: exponent} by x_v, in place."""
    if exps[v] == 1:
        del exps[v]
    else:
        exps[v] -= 1


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
            if (t := v + self.a) >= 1:
                acc = dict(m)
                _lower(acc, v)
                acc[t] = acc.get(t, 0) + 1
                yield tuple(sorted(acc.items())), v * e

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
            # derivative slot v, replaced by each unordered split {i, j} of
            # v + k; a split with i != j stands for the two ordered ones
            base = dict(m)
            _lower(base, v)
            n = v + self.k
            for i in range(1, n // 2 + 1):
                acc = base.copy()
                acc[i] = acc.get(i, 0) + 1
                acc[n - i] = acc.get(n - i, 0) + 1
                yield tuple(sorted(acc.items())), v * e if 2 * i == n else 2 * v * e

    def weight_shift(self):
        return self.k


@dataclass(frozen=True)
class JoinPart(Operator):
    """Second (one-x, two-derivative) sum of the cut-and-join operator:
    (1/2) Sum_{i,j>=1} x_{i+j+k} * ij * d2/dx_i dx_j."""

    k: int
    den = 2

    def stencil(self, m):
        # each unordered pair of derivative slots {vi, vj} once; a pair with
        # vi != vj stands for the two ordered ones
        for a, (vi, ei) in enumerate(m):
            for vj, ej in m[a:]:
                n = vi * vi * ei * (ei - 1) if vi == vj else 2 * vi * vj * ei * ej
                if n:
                    acc = dict(m)
                    _lower(acc, vi)
                    _lower(acc, vj)
                    t = vi + vj + self.k
                    acc[t] = acc.get(t, 0) + 1
                    yield tuple(sorted(acc.items())), n

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
        # the bookkeeping of the chain s._with([], 1) + c_1 op_1(s) + ...,
        # which reports no weight above s.reliable as exact
        leaves = [(c, op) for c, op in self.parts if not isinstance(op, Compose)]
        shift = min((op.weight_shift() for _, op in leaves), default=0)
        out = _stencil_sum(s, leaves, s.reliable + min(shift, 0))
        composed = [(c, op.apply(s)) for c, op in self.parts if isinstance(op, Compose)]
        return out.add_scaled(composed) if composed else out


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
# Normal-ordered symbols
# ---------------------------------------------------------------------------

SymbolKey = tuple[Monomial, Monomial, int]


@dataclass(frozen=True)
class Symbol:
    """Normal-ordered terms n/den * u^e * x^alpha d^beta as integer numerators
    {(alpha, beta, e): n} over one positive denominator, reduced, with no zero
    numerator, so equal symbols compare equal; the zero symbol has no terms."""

    terms: Mapping[SymbolKey, int]
    den: int


def _reduced(acc: dict[SymbolKey, int], den: int) -> Symbol:
    terms = {k: n for k, n in acc.items() if n}
    g = gcd(den, *terms.values())
    if g > 1:
        terms = {k: n // g for k, n in terms.items()}
    return Symbol(MappingProxyType(terms), den // g)


def symbol(op: Operator, N: int) -> Symbol:
    """op's normal-ordered terms c * u^e * x^alpha d^beta of d-weight
    (the weight of beta) <= N, each exact.

    A term of d-weight above N kills every monomial of weight <= N, and the
    lowest-beta term of a nonzero symbol acts nonzero on x^beta, so two
    operators act equally on every monomial of weight <= N exactly when
    their symbols at N are equal.
    """
    if isinstance(op, Sum):
        return _linear((c, symbol(part, N)) for c, part in op.parts)
    if isinstance(op, Compose):
        out = symbol(op.ops[-1], N)
        for left in reversed(op.ops[:-1]):
            out = _compose(symbol(left, N + _raise(out)), out, N)
        return out
    return _leaf_symbol(op, N)


@functools.cache
def _leaf_symbol(op: Operator, N: int) -> Symbol:
    """A stencil leaf's symbol, read off its actions on 1, q_v and q_v q_w:
    every leaf has order <= 2, so peeling the lower-order terms off each
    action leaves the coefficient of d^beta times beta!.  Numerators are
    over 2 * op.den, so the beta! = 2 of d_v^2 divides."""
    def act(m: Monomial) -> dict[Monomial, int]:
        return {t: 2 * k for t, k in _stencil(op, m)}

    zero = act(())
    acc = {(t, (), 0): n for t, n in zero.items()}
    first = {}
    for v in range(1, N + 1):
        qv = mono_var(v)
        first[v] = _peel(act(qv), zero, qv)
        acc.update(((t, qv, 0), n) for t, n in first[v].items())
    for v in range(1, N // 2 + 1):
        for w in range(v, N - v + 1):
            beta = mono((v, 1), (w, 1))
            rest = _peel(act(beta), zero, beta)
            if v == w:  # d_v q_v^2 = 2 q_v, d_v^2 q_v^2 = 2
                rest = _peel(rest, first[v], mono_var(v), 2)
                acc.update(((t, beta, 0), n // 2) for t, n in rest.items())
            else:
                rest = _peel(_peel(rest, first[v], mono_var(w)), first[w], mono_var(v))
                acc.update(((t, beta, 0), n) for t, n in rest.items())
    return _reduced(acc, 2 * op.den)


def _peel(acted: dict, terms: dict, factor: Monomial, mult: int = 1) -> dict:
    """acted - mult * factor * terms, with no zero entries."""
    out = dict(acted)
    for t, n in terms.items():
        t = mono_mul(t, factor)
        out[t] = out.get(t, 0) - mult * n
    return {t: n for t, n in out.items() if n}


@functools.cache
def _leibniz(beta: Monomial, gamma: Monomial) -> tuple[tuple[Monomial, Monomial, int, int], ...]:
    """d^beta x^gamma in normal order: (gamma - kappa, beta - kappa, weight of
    beta - kappa, C(beta, kappa) C(gamma, kappa) kappa!) over kappa <= beta, gamma."""
    g = dict(gamma)
    shared = [(v, e, g[v]) for v, e in beta if v in g]
    out = []
    for kappa in itertools.product(*(range(min(e, f) + 1) for _, e, f in shared)):
        b_left, g_left, mult = dict(beta), dict(g), 1
        for (v, e, f), k in zip(shared, kappa):
            b_left[v] -= k
            g_left[v] -= k
            mult *= comb(e, k) * comb(f, k) * factorial(k)
        b_rest = tuple((v, e) for v, e in b_left.items() if e)
        out.append((tuple((v, e) for v, e in g_left.items() if e), b_rest,
                    mono_weight(b_rest), mult))
    return tuple(out)


def _compose(a: Symbol, b: Symbol, N: int) -> Symbol:
    """The symbol of a.b through d-weight N, by the multi-index Leibniz rule
    x^alpha d^beta . x^gamma d^delta
        = Sum_kappa C(beta, kappa) C(gamma, kappa) kappa!
                    x^(alpha+gamma-kappa) d^(beta+delta-kappa).
    A product term's d-weight is at least beta's minus b's raise, so a must
    be exact through N + _raise(b) and b through N."""
    right = [(x, d, e, n, mono_weight(x), mono_weight(d)) for (x, d, e), n in b.terms.items()]
    acc: dict[SymbolKey, int] = {}
    for (xa, da, ea), na in a.terms.items():
        wa = mono_weight(da)
        for xb, db, eb, nb, wx, wd in right:
            if wa + wd - wx > N:
                continue
            n = na * nb
            for x_rest, d_rest, wr, mult in _leibniz(da, xb):
                if wr + wd <= N:
                    key = (mono_mul(xa, x_rest), mono_mul(d_rest, db), ea + eb)
                    acc[key] = acc.get(key, 0) + mult * n
    return _reduced(acc, a.den * b.den)


def _bracket(y: Symbol, x: Operator, N: int) -> Symbol:
    """[y, X] through d-weight N; y must be exact through N + the raise of X."""
    return _linear(((UPOLY_ONE, _compose(y, symbol(x, N), N)),
                    (UPoly.const(-1), _compose(symbol(x, N + _raise(y)), y, N))))


def _raise(s: Symbol) -> int:
    """The largest weight shift of a term of s, or 0 if none raises."""
    return max((mono_weight(x) - mono_weight(d) for x, d, _ in s.terms), default=0)


def _linear(parts: Iterable[tuple[UPoly, Symbol]], N: int | None = None) -> Symbol:
    """Sum_i c_i * s_i over UPoly coefficients c_i, cut at d-weight N if given."""
    parts = [(c, s) for c, s in parts if c and s.terms]
    den = lcm(*(s.den * cc.denominator for c, s in parts for _, cc in c.terms))
    acc: dict[SymbolKey, int] = {}
    for c, s in parts:
        terms = [(k, n) for k, n in s.terms.items() if N is None or mono_weight(k[1]) <= N]
        for ce, cc in c.terms:
            f = cc.numerator * (den // (s.den * cc.denominator))
            for (x, d, e), n in terms:
                key = (x, d, e + ce)
                acc[key] = acc.get(key, 0) + f * n
    return _reduced(acc, den)


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
    leave through the weight ceiling).  Anything else needs max_order, and
    a capped exponential takes no summand that lowers weight, so its sum is
    exact wherever s is.
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
            raise OperatorGradingError(
                "exponential needs an explicit order cap: summand shifts "
                f"{shifts} give no sound truncation grading"
            )
        clip = box and any(uh > 0 for _, (_, uh) in shifts)
        cap = s.W + (s.umax - s.umin) + 2
    elif any(w < 0 for w, _ in shifts):
        raise OperatorGradingError(
            f"a capped exponential takes no summand that lowers weight: shifts {shifts}")
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
    ulo = min((ul for _, (ul, _) in shifts), default=0)
    if ulo < 0 and s.u_hi is not None:
        # an inexact entry above s.u_hi moves down at every order that can act
        # on it, also past the last order formed here: at most max_order, or
        # W in the raising grading
        steps = s.W if max_order is None else max_order
        total = total.with_u_hi(min(total.u_hi, s.u_hi + ulo * steps))
    return total.clip_u_above(s.umax) if clip else total


# the longest bracket chain conjugate expands before giving up
CONJUGATE_DEPTH = 8


def conjugate(x: Operator, a: Operator, *, W: int) -> Symbol:
    """The symbol at W of exp(-X) a exp(X) = Sum_k (ad_X)^k(a) / k!, with
    ad_X(y) = [y, X], summed below the first k >= 1 at which the chain term's
    symbol at W vanishes; that must come within CONJUGATE_DEPTH.

    Each bracket needs its left factor exact through the raise of X more
    than its result, so a chain tried to depth d starts from a's symbol at
    W + d * raise(X)."""
    step = _raise(symbol(x, W))
    for depth in range(1, CONJUGATE_DEPTH + 1):
        top = W + depth * step
        chain = [symbol(a, top)]
        for _ in range(depth):
            top -= step
            chain.append(_bracket(chain[-1], x, top))
        if not chain[-1].terms:
            return _linear(((UPoly.const(Fraction(1, factorial(k))), t)
                            for k, t in enumerate(chain[:-1])), W)
    raise OperatorGradingError(
        f"conjugation bracket chain did not vanish within depth {CONJUGATE_DEPTH}"
    )


# ---------------------------------------------------------------------------
# Linear part and the O-operators
# ---------------------------------------------------------------------------


def linear_part(op: Operator) -> Operator:
    """The two-x one-derivative sum of a cut-and-join operator.

    Adjudicated by machine check: of the two sums, only this one brackets
    against n*d/dx_n to n*Lambda(2-n) for every n (the join sum adds
    (n/2) Sum_{i+j=n-2} ij d/dx_i d/dx_j from n = 4 on; see the tests), so it
    is the "linear part" in the sense that downstream derivations rely on.
    """
    if isinstance(op, CutJoin):
        return CutPart(op.k)
    raise ValueError("linear part is defined for cut-and-join operators only")


def n_partial(n: int) -> Operator:
    """n * d/dx_n, the basic block of the proposition machinery."""
    return scaled(Partial(n), n)


def o_actions(n: int, seed: TruncatedSeries, W_out: int) -> list[TruncatedSeries]:
    """O_i(exp(M2) seed) for i = 0, 1, ..., for a seed with u-free
    coefficients, truncated to W_out, each exact to the reliable weight it
    reports.

    With B_r = (ad M2)^r(n d/dx_n) and O_i = Sum_k (-1)^k B_{i+k} / (k! i!),
        Sum_i O_i u^i = Sum_r B_r (u-1)^r / r! = exp((1-u)M2) n d/dx_n exp((u-1)M2),
    so O_i(exp(M2) seed) is the u^i layer of exp((1-u)M2) n d/dx_n exp(uM2) seed.
    Both exponentials are in the box grading, so their clip records a u_hi:
    the layers run up to the highest u-exponent stored, and no index above
    the series' u_hi is returned."""
    m2 = CutJoin(2)
    lifted = exponential_apply(scaled(m2, UPoly.u(1)), seed)
    # M2 only raises weight, so cutting before the second exponential loses nothing
    lowered = n_partial(n).apply(lifted).truncate(W_out)
    series = exponential_apply(scaled(m2, UPoly.parse("1 - u")), lowered)
    top = min(series.u_hi, max((r[-1][0] for _, _, r in series.rows), default=-1))
    return [series.u_layer(i) for i in range(top + 1)]


def verify_O_operators(n: int, W: int) -> dict[str, bool]:
    """Machine checks for the O-operator family at truncation W.

    Returns named booleans:
      * action_vanishes_off_peak: O_i applied to exp(M2)x1 is zero for every
        i not in {n-1, n} (all orders that can act at weight <= W);
      * penultimate_action: O_{n-1} exp(M2)x1 = n * exp(M2) x1^(n-1);
      * weighted_sum_is_bracket: Sum_i i*O_i = [n d/dx_n, M2] on exp(M2)x1;
      * weighted_sum_is_lambda_shift: [n d/dx_n, M2] = n*Lambda(2-n)
        as symbols at W, hence Sum_i i*O_i = n*Lambda(2-n) given the bracket
        form.  This is the form the derivation quotes; it is strictly
        weaker than the bracket form and fails for n >= 4, where the bracket
        picks up the two-derivative term (n/2) Sum_{i+j=n-2} ij d/dx_i d/dx_j.

    Actions are computed at internal truncation W + n so that the reported
    comparisons are exact through weight W despite the derivative dip.
    """
    m2 = CutJoin(2)
    q1 = TruncatedSeries.variable("q", W + n, 1)
    acts = o_actions(n, q1, W)

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

    # Sum_i i*O_i is d/du of the generating series at u = 1, the single
    # bracket [n d/dx_n, M2] as an operator identity; applied to exp(M2)x1
    # built on its own, it checks the conjugation o_actions reads off
    weighted = TruncatedSeries.zero("q", W).add_scaled(
        (i, act) for i, act in enumerate(acts))
    bracket = commutator(n_partial(n), m2)
    direct = bracket.apply(exponential_apply(m2, q1)).truncate(W)
    rel = min(weighted.reliable, direct.reliable)
    return {
        "action_vanishes_off_peak": vanish,
        "penultimate_action": penult,
        "weighted_sum_is_bracket": weighted.up_to_weight(rel) == direct.up_to_weight(rel),
        "weighted_sum_is_lambda_shift": symbol(bracket, W) == symbol(scaled(Lambda(2 - n), n), W),
    }


# ---------------------------------------------------------------------------
# Named identity suites
# ---------------------------------------------------------------------------


def commutator_identities() -> dict[str, tuple[Operator, Operator]]:
    """The bracket identities the conjugation trick rests on, as (lhs, rhs)."""
    l0, l1 = Lambda(0), Lambda(1)
    m0, m1, m2 = CutJoin(0), CutJoin(1), CutJoin(2)
    return {
        "m0_l1_is_2m1": (commutator(m0, l1), scaled(m1, 2)),
        "m1_l1_is_m2": (commutator(m1, l1), m2),
        "m2_l1_is_zero": (commutator(m2, l1), ZERO_OP),
        "l0_l1_is_l1": (commutator(l0, l1), l1),
        "d1_m2_is_l1": (commutator(Partial(1), m2), l1),
        "m0_l0_is_zero": (commutator(m0, l0), ZERO_OP),
    }


def verify_commutators(W: int) -> dict[str, bool]:
    """The commutator identities, as symbols at W."""
    return {name: symbol(lhs, W) == symbol(rhs, W)
            for name, (lhs, rhs) in commutator_identities().items()}


def conjugation_cases() -> dict[str, tuple[Operator, Operator, Operator]]:
    """(X, a, exp(-X) a exp(X)): X = L1/u moves u^2*M0 onto
    M2 + 2u*M1 + u^2*M0 and u*Lambda0 onto u*Lambda0 + Lambda1."""
    x = scaled(Lambda(1), UPoly.u(-1))
    m0, l0 = scaled(CutJoin(0), UPoly.u(2)), scaled(Lambda(0), UPoly.u(1))
    return {
        "conj_m0": (x, m0, Sum(m0, scaled(CutJoin(1), UPoly.u(1, 2)), CutJoin(2))),
        "conj_l0": (x, l0, Sum(l0, Lambda(1))),
    }


def verify_conjugations(W: int) -> dict[str, bool]:
    """Each conjugation exp(-X) a exp(X) = T checked through the bracket
    chain, as symbols at W, and in intertwining form a exp(X) = exp(X) T on
    every basis monomial: exp(X) is unipotent on weight <= W, so both forms
    give the same verdict.  exp(X) acts through its columns exp(X) m, one
    exponential per basis monomial m, shared by the cases with the same X:
    the left side applies a to the column of m, the right side reads T m as
    a combination of columns."""
    cases = conjugation_cases()

    @functools.cache
    def column(x: Operator, m: Monomial) -> TruncatedSeries:
        return exponential_apply(x, TruncatedSeries.monomial("q", W, m))

    def intertwines(x: Operator, a: Operator, target: Operator) -> bool:
        def exp_x(s: TruncatedSeries) -> TruncatedSeries:
            return s._with([], 1).add_scaled((c, column(x, m)) for m, c in s.terms.items())
        return ops_equal(lambda s: a.apply(column(x, s.rows[0][0])),
                         lambda s: exp_x(target.apply(s)), W=W)

    return {
        **{f"{name}_chain": conjugate(x, a, W=W) == symbol(target, W)
           for name, (x, a, target) in cases.items()},
        **{f"{name}_sandwich": intertwines(*case) for name, case in cases.items()},
    }
