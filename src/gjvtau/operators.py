"""Weight-graded differential operators on :class:`TruncatedSeries`.

Operators are immutable AST nodes: the single-variable derivative, the
lowering family Lambda(a), the three cut-and-join operators, Compose, and
Sum, a linear combination whose coefficients are Laurent polynomials in u;
a Bracket is the Sum a.b - b.a.  A scalar is a coefficient: scaled(op, c)
is a one-part Sum.  A leaf, the derivative included, declares only a
stencil: the (target, integer multiplier) pairs of one source monomial, over
a class-level denominator.  Source and targets are packed monomials, one int
each (see exactalg.pack), and a stencil writes its targets by integer
arithmetic; it is memoised in one dict per leaf, keyed by the packed
source, since it does not depend on the truncation.
One stencil pass applies a leaf, and every leaf part of a Sum at once: over
the input's integer rows, packed once on entry, it sums c_i * leaf_i(s) into
one integer accumulator keyed by packed target.  apply unpacks the output's
rows and writes them as a series; a Sum sums its Compose parts into it
through add_scaled.  An exponential packs its seed once, runs the same pass
once per order on the packed rows of the order before, and unpacks and
builds one series, its sum.  The symbol route reads a leaf's stencil on a
few monomials and keeps its targets packed.

Every leaf declares its exact weight shift and keeps u-exponents.
Application propagates the reliability metadata of the series: an operator
whose weight shift is negative (a derivative) lowers the weight up to which
the result is exact, and a coefficient with negative u-powers lowers ``u_hi``.

Operator equality has two routes.  ops_equal is extensional: two maps are
equal at truncation W iff their actions agree on every monomial of weight
<= W, compared over the common reliable region.  Each map acts once, on a
probe that tags the i-th monomial with u^(i K), K twice the width of a
monomial's band: the maps must act u-linearly and keep each monomial's
image inside that band, and an image that leaves it raises.
symbol(op, N) is the normal-ordered form: op's terms c * x^alpha d^beta
with d-weight <= N, each leaf's read off its own stencil one d-weight layer
at a time, each layer once for every N, composed by the Leibniz rule; a
bracket sums only the contractions, the Leibniz terms with kappa != 0, as
its uncontracted terms cancel.  A Symbol and the leaf layers key alpha and
beta as packed monomials, so the Leibniz rule and the peeling of layers
multiply monomials by + and read d-weights from a memo; Symbol.terms, keyed
by tuple monomials, is a view built on first read.  Two operators act
equally on every monomial of weight <= N iff their symbols at N are
equal.  Identities between
operators compare symbols; the conjugation sandwich, which acts on series,
compares with ops_equal.  The O-operator actions are the u-layers of one
conjugation by exp((1-u)M2), formed by two exponentials, with no bracket
expanded.  The exponentials of q_1 that several verify checks read are
memoised.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, inf, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from gjvtau.exactalg import (
    Monomial,
    Rat,
    TruncatedSeries,
    UBandError,
    UPOLY_ONE,
    UPoly,
    band_for_weight,
    check_packable,
    combine_rows,
    mono_var,
    mono_weight,
    monomials_up_to_weight,
    packed_rows,
    summed_rows,
    unpack,
    unpacked_rows,
)


class OperatorGradingError(ValueError):
    """An operator exponential cannot be truncated soundly as requested."""


# per leaf, {packed monomial: its merged stencil}: a stencil holds no W, so
# one entry serves every truncation.  The stencil kernel fetches a leaf's
# dict once per pass, so the leaf is hashed once per pass, not once per row.
_STENCILS: dict[Operator, dict[int, tuple[tuple[int, int], ...]]] = {}


def _stencil(op: Operator, p: int) -> tuple[tuple[int, int], ...]:
    """op's stencil at the packed monomial p with repeated targets merged,
    in the order the leaf first emits them, memoised per (leaf, monomial)."""
    memo = _STENCILS.setdefault(op, {})
    got = memo.get(p)
    if got is None:
        merged: dict[int, int] = {}
        for target, k in op.stencil(p):
            merged[target] = merged.get(target, 0) + k
        got = memo[p] = tuple((t, k) for t, k in merged.items() if k)
    return got


def clear_stencils() -> None:
    """Drop every memoised stencil, as a changed leaf needs."""
    _STENCILS.clear()


def _stencil_rows(rows: list, W: int, parts: list[tuple[UPoly, Operator]],
                  umin: int, umax: int) -> tuple[dict, int]:
    """The one stencil pass: Sum_i c_i * leaf_i over packed rows in ascending
    weight at truncation W, into one integer accumulator, {packed target:
    (weight, {u-exp: n})} over the rows' denominator times lcm_i(den(c_i) *
    leaf_i.den), and that lcm.  A c_i that moves u raises
    :class:`UBandError` if it moves the u-range of the rows that reach one
    of leaf_i's targets out of [umin, umax]: that range covers leaf_i's
    image's, so the check is never looser than add_scaled's on
    c_i * leaf_i(s), also when another part cancels the escape."""
    check_packable(W)
    den = lcm(*(op.den * v.denominator for c, op in parts for _, v in c.terms))
    # per nonzero part: c_i, its leaf, its stencil memo, its weight shift, its
    # (u-power, integer factor) pairs, and if c_i moves u, the [lowest,
    # highest] u-exponent of the rows that reach a target
    legs = [(c, op, _STENCILS.setdefault(op, {}), op.weight_shift(),
             [(e, v.numerator * (den // (op.den * v.denominator))) for e, v in c.terms],
             [inf, -inf] if c.min_exp() or c.max_exp() else None)
            for c, op in parts if c]
    # the rows are in ascending weight: none past top reaches the truncation
    top = W - min((shift for _, _, _, shift, _, _ in legs), default=0)
    acc: dict[int, tuple[int, dict[int, int]]] = {}
    for m, w, r in rows:
        if w > top:
            break
        for _, op, memo, shift, fs, span in legs:
            if w + shift > W:
                continue
            targets = memo.get(m)
            if targets is None:
                targets = _stencil(op, m)
            if not targets:
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
    for c, _, _, _, _, span in legs:
        if span and span[0] <= span[1] and (
                span[0] + c.min_exp() < umin or span[1] + c.max_exp() > umax):
            raise UBandError(f"{c} times a series escapes its band [{umin}, {umax}]")
    return acc, den


def _u_drop(parts: list[tuple[UPoly, Operator]]) -> int:
    """How far the stencil pass of parts lowers u_hi: the lowest u-power of
    a nonzero c_i, or 0 if none lowers u, as add_scaled on the c_i * leaf_i(s)
    would."""
    return min([0] + [c.min_exp() for c, _ in parts if c])


def _stencil_sum(s: TruncatedSeries, parts: list[tuple[UPoly, Operator]],
                 reliable: int) -> TruncatedSeries:
    """Sum_i c_i * leaf_i(s) over stencil leaves, as one stencil pass over the
    rows of s.  The result keeps the W and band of s, is exact through
    reliable, and lowers u_hi by _u_drop(parts)."""
    acc, den = _stencil_rows(packed_rows(s.rows), s.W, parts, s.umin, s.umax)
    u_hi = None if s.u_hi is None else s.u_hi + _u_drop(parts)
    return s._with(unpacked_rows(summed_rows(acc)), s.den * den, reliable=reliable,
                   u_hi=u_hi)


class Operator:
    """Base class.  A stencil leaf implements stencil, den and weight_shift
    and acts through apply; Sum and Compose act their own way.  A stencil
    reads and writes packed monomials (see exactalg.pack): x_v is
    1 << 8 (v - 1), so moving a unit of exponent from x_v to x_t adds
    (1 << 8 (t - 1)) - (1 << 8 (v - 1))."""

    # the stencil multipliers are integers over this denominator
    den = 1

    def stencil(self, p: int) -> Iterator[tuple[int, int]]:
        """(packed target, multiplier over den) pairs of the action on the
        packed monomial p."""
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

    def stencil(self, p):
        shift = 8 * (self.n - 1)
        if e := p >> shift & 255:
            yield p - (1 << shift), e

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

    def stencil(self, p):
        for v, e in unpack(p):
            if (t := v + self.a) >= 1:
                yield p + (1 << 8 * (t - 1)) - (1 << 8 * (v - 1)), v * e

    def weight_shift(self):
        return self.a


@dataclass(frozen=True)
class CutPart(Operator):
    """First (two-x, one-derivative) sum of the cut-and-join operator:
    (1/2) Sum_{i,j>=1} x_i x_j (i+j-k) d/dx_{i+j-k}."""

    k: int
    den = 2

    def stencil(self, p):
        for v, e in unpack(p):
            # derivative slot v, replaced by each unordered split {i, j} of
            # v + k; a split with i != j stands for the two ordered ones
            base = p - (1 << 8 * (v - 1))
            n = v + self.k
            for i in range(1, n // 2 + 1):
                yield (base + (1 << 8 * (i - 1)) + (1 << 8 * (n - i - 1)),
                       v * e if 2 * i == n else 2 * v * e)

    def weight_shift(self):
        return self.k


@dataclass(frozen=True)
class JoinPart(Operator):
    """Second (one-x, two-derivative) sum of the cut-and-join operator:
    (1/2) Sum_{i,j>=1} x_{i+j+k} * ij * d2/dx_i dx_j."""

    k: int
    den = 2

    def stencil(self, p):
        # each unordered pair of derivative slots {vi, vj} once; a pair with
        # vi != vj stands for the two ordered ones
        m = unpack(p)
        for a, (vi, ei) in enumerate(m):
            for vj, ej in m[a:]:
                n = vi * vi * ei * (ei - 1) if vi == vj else 2 * vi * vj * ei * ej
                if n:
                    yield (p - (1 << 8 * (vi - 1)) - (1 << 8 * (vj - 1))
                           + (1 << 8 * (vi + vj + self.k - 1))), n

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

    def stencil(self, p):
        # the two parts' stencils read only k, which this leaf shares
        yield from CutPart.stencil(self, p)
        yield from JoinPart.stencil(self, p)

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


class Bracket(Sum):
    """The commutator [a, b]: it acts as the Sum a.b - b.a, and its symbol
    is formed from the contractions of the two products alone (see
    _contracted)."""

    __slots__ = ("pair",)

    def __init__(self, a: Operator, b: Operator):
        super().__init__(Compose(a, b), Compose(b, a), coeffs=(1, -1))
        object.__setattr__(self, "pair", (a, b))


def commutator(a: Operator, b: Operator) -> Bracket:
    return Bracket(a, b)


def _probe_windows(W: int, headroom: int) -> tuple[int, int, int]:
    """(lo, hi, K): the band [lo, hi] of a monomial built at W + headroom,
    and the u-spacing K = 2 (hi - lo + 1) of tagged_probe(W, headroom)."""
    lo, hi = band_for_weight(W + headroom)
    return lo, hi, 2 * (hi - lo + 1)


def tagged_probe(W: int, headroom: int = 0) -> TruncatedSeries:
    """Sum_i u^(i K) m_i over the N monomials m_0, m_1, ... of weight <= W,
    at truncation W + headroom, in the band [lo, (N - 1) K + hi] that holds
    each block's window [i K + lo, i K + hi] (see _probe_windows).

    A map that acts u-linearly sends block i to u^(i K) times its image of
    m_i, so the blocks of two results agree exactly when the two maps agree
    on every m_i; the windows are disjoint, so no two blocks can cancel."""
    lo, hi, K = _probe_windows(W, headroom)
    rows = [(m, mono_weight(m), ((i * K, 1),))
            for i, m in enumerate(monomials_up_to_weight(W))]
    return TruncatedSeries._built(family="q", W=W + headroom, rows=rows, den=1, umin=lo,
                                  umax=(len(rows) - 1) * K + hi, reliable=None, u_hi=None)


def ops_equal(
    f: Callable[[TruncatedSeries], TruncatedSeries],
    g: Callable[[TruncatedSeries], TruncatedSeries],
    *,
    W: int,
    headroom: int = 0,
) -> bool:
    """Extensional equality on every monomial of weight <= W, compared over
    the common reliable weight of the two results, on one probe: f and g
    each act once, on tagged_probe(W, headroom).

    f and g must act u-linearly, as every operator and every exponential in
    the weight-raising grading does, and keep the image of each monomial in
    the band [lo, hi] it would have alone.  A result exponent farther than
    that from its nearest multiple of K left its block's window, where the
    monomial's own band check would have raised: that raises
    :class:`UBandError` here too.  A result that records a u_hi was clipped
    in u, as a box-grading exponential clips, at the probe's top instead of
    each block's: that raises :class:`OperatorGradingError`.

    headroom widens the internal truncation so that operators whose composites
    dip through derivatives still compare at full strength up to W: pass the
    largest single-step weight raise that precedes a derivative.
    """
    probe = tagged_probe(W, headroom)
    fa, fb = f(probe), g(probe)
    lo, hi, K = _probe_windows(W, headroom)
    for s in (fa, fb):
        if s.u_hi is not None:
            raise OperatorGradingError(
                f"a map clipped the tagged probe at u^{s.u_hi}, not at each block's top")
        for _, _, r in s.rows:
            for e, _ in r:
                if not lo <= e - (e + K // 2) // K * K <= hi:
                    raise UBandError(f"u^{e} leaves its block's window [{lo}, {hi}] "
                                     f"around a multiple of {K}")
    rel = min(fa.reliable, fb.reliable)
    return fa.up_to_weight(rel) == fb.up_to_weight(rel)


# ---------------------------------------------------------------------------
# Normal-ordered symbols
# ---------------------------------------------------------------------------

# (x^alpha, d^beta, u-exponent), alpha and beta packed monomials
SymbolKey = tuple[int, int, int]

# the weight of each packed monomial the symbol route has met, filled on
# first use: no weight is summed over exponents twice
_WEIGHTS: dict[int, int] = {}


def _weight(p: int) -> int:
    w = _WEIGHTS.get(p)
    if w is None:
        w = _WEIGHTS[p] = mono_weight(unpack(p))
    return w


@dataclass(frozen=True)
class Symbol:
    """Normal-ordered terms n/den * u^e * x^alpha d^beta as integer numerators
    {(alpha, beta, e): n} over one positive denominator, reduced, with no zero
    numerator, so equal symbols compare equal; the zero symbol has no terms.
    The store, packed, keys alpha and beta as packed monomials (see
    exactalg.pack); terms, the same numerators keyed by tuple monomials, is
    a view built on first read."""

    packed: Mapping[SymbolKey, int]
    den: int
    _terms: Mapping[tuple[Monomial, Monomial, int], int] | None = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def terms(self) -> Mapping[tuple[Monomial, Monomial, int], int]:
        if self._terms is None:
            object.__setattr__(self, "_terms", MappingProxyType({
                (unpack(x), unpack(d), e): n for (x, d, e), n in self.packed.items()}))
        return self._terms


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
    their symbols at N are equal.  A symbol holds packed monomials, so N
    at or above PACK_LIMIT raises PackCapacityError, as a stencil pass
    truncated there does.
    """
    check_packable(N)
    if isinstance(op, Bracket):
        a, b = op.pair
        sa, sb = symbol(a, N), symbol(b, N)
        return _contracted(symbol(a, N + _raise(sb)), sa, symbol(b, N + _raise(sa)), sb, N)
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
    """A stencil leaf's symbol at N: its layers of d-weight 0..N, over
    2 * op.den (see _leaf_layer)."""
    acc = {(t, beta, 0): n for d in range(N + 1)
           for beta, terms in _leaf_layer(op, d).items() for t, n in terms.items()}
    return _reduced(acc, 2 * op.den)


@functools.cache
def _leaf_layer(op: Operator, d: int) -> dict[int, dict[int, int]]:
    """A stencil leaf's symbol terms of d-weight d, as {beta: {alpha: n}}
    on packed monomials, with numerators n over 2 * op.den, read off its
    actions on q_d and on q_v q_w with v + w = d: every leaf has order <= 2,
    so peeling the terms of the lower layers off each action leaves the
    coefficient of d^beta times beta!, and the beta! = 2 of d_v^2 divides.
    Layer 0 is the action on 1.  Each layer is read once, for every N that
    reaches it."""
    def act(p: int) -> dict[int, int]:
        return {t: 2 * k for t, k in _stencil(op, p)}

    if d == 0:
        zero = act(0)
        return {0: zero} if zero else {}
    zero = _leaf_layer(op, 0).get(0, {})

    def first(v: int) -> dict[int, int]:
        return _leaf_layer(op, v).get(1 << 8 * (v - 1), {})

    qd = 1 << 8 * (d - 1)
    out = {qd: _peel(act(qd), zero, qd)}
    for v in range(1, d // 2 + 1):
        w = d - v
        qv, qw = 1 << 8 * (v - 1), 1 << 8 * (w - 1)
        beta = qv + qw
        rest = _peel(act(beta), zero, beta)
        if v == w:  # d_v q_v^2 = 2 q_v, d_v^2 q_v^2 = 2
            rest = {t: n // 2 for t, n in _peel(rest, first(v), qv, 2).items()}
        else:
            rest = _peel(_peel(rest, first(v), qw), first(w), qv)
        out[beta] = rest
    return {beta: terms for beta, terms in out.items() if terms}


def _peel(acted: dict, terms: dict, factor: int, mult: int = 1) -> dict:
    """acted - mult * factor * terms on packed monomials, with no zero
    entries."""
    out = dict(acted)
    for t, n in terms.items():
        t += factor
        out[t] = out.get(t, 0) - mult * n
    return {t: n for t, n in out.items() if n}


@functools.cache
def _leibniz(beta: int, gamma: int) -> tuple[tuple[int, int, int, int], ...]:
    """d^beta x^gamma in normal order on packed monomials: (gamma - kappa,
    beta - kappa, weight of beta - kappa, C(beta, kappa) C(gamma, kappa)
    kappa!) over kappa <= beta, gamma, kappa = 0 first."""
    g = dict(unpack(gamma))
    shared = [(v, e, g[v]) for v, e in unpack(beta) if v in g]
    w_beta = _weight(beta)
    out = []
    for kappa in itertools.product(*(range(min(e, f) + 1) for _, e, f in shared)):
        k_packed, k_weight, mult = 0, 0, 1
        for (v, e, f), k in zip(shared, kappa):
            k_packed += k << 8 * (v - 1)
            k_weight += v * k
            mult *= comb(e, k) * comb(f, k) * factorial(k)
        out.append((gamma - k_packed, beta - k_packed, w_beta - k_weight, mult))
    return tuple(out)


def _compose(a: Symbol, b: Symbol, N: int, *, free: bool = True) -> Symbol:
    """The symbol of a.b through d-weight N, by the multi-index Leibniz rule
    x^alpha d^beta . x^gamma d^delta
        = Sum_kappa C(beta, kappa) C(gamma, kappa) kappa!
                    x^(alpha+gamma-kappa) d^(beta+delta-kappa).
    A product term's d-weight is at least beta's minus b's raise, so a must
    be exact through N + _raise(b) and b through N.  On packed monomials
    a product is +.

    With free=False, only the contractions, the terms with kappa != 0, are
    summed, so only the pairs in which beta shares a variable with gamma
    are visited: b's terms are indexed by the variables of gamma."""
    right = [(x, d, e, n, _weight(x), _weight(d)) for (x, d, e), n in b.packed.items()]
    by_var: dict[int, list[int]] = {}
    if not free:
        for i, (x, *_) in enumerate(right):
            for v, _ in unpack(x):
                by_var.setdefault(v, []).append(i)
    skip = 0 if free else 1  # _leibniz lists kappa = 0 first
    acc: dict[SymbolKey, int] = {}
    for (xa, da, ea), na in a.packed.items():
        wa = _weight(da)
        pairs = right if free else [right[i] for i in set().union(
            *(by_var.get(v, ()) for v, _ in unpack(da)))]
        for xb, db, eb, nb, wx, wd in pairs:
            if wa + wd - wx > N:
                continue
            n = na * nb
            for x_rest, d_rest, wr, mult in _leibniz(da, xb)[skip:]:
                if wr + wd <= N:
                    key = (xa + x_rest, d_rest + db, ea + eb)
                    acc[key] = acc.get(key, 0) + mult * n
    return _reduced(acc, a.den * b.den)


def _contracted(a_hi: Symbol, a: Symbol, b_hi: Symbol, b: Symbol, N: int) -> Symbol:
    """[a, b] through d-weight N, from a and b at N and from a_hi and b_hi,
    the same symbols exact through N plus the other one's raise.  The
    kappa = 0 term x^(alpha+gamma) d^(beta+delta) of a.b is that of b.a and
    passes the same cut, so the two cancel: the bracket is the difference
    of the two products' contractions alone."""
    return _linear(((UPOLY_ONE, _compose(a_hi, b, N, free=False)),
                    (UPoly.const(-1), _compose(b_hi, a, N, free=False))))


def _bracket(y: Symbol, x: Operator, N: int) -> Symbol:
    """[y, X] through d-weight N; y must be exact through N + the raise of X."""
    return _contracted(y, y, symbol(x, N + _raise(y)), symbol(x, N), N)


def _raise(s: Symbol) -> int:
    """The largest weight shift of a term of s, or 0 if none raises."""
    return max((_weight(x) - _weight(d) for x, d, _ in s.packed), default=0)


def _linear(parts: Iterable[tuple[UPoly, Symbol]], N: int | None = None) -> Symbol:
    """Sum_i c_i * s_i over UPoly coefficients c_i, cut at d-weight N if given."""
    parts = [(c, s) for c, s in parts if c and s.packed]
    den = lcm(*(s.den * cc.denominator for c, s in parts for _, cc in c.terms))
    acc: dict[SymbolKey, int] = {}
    for c, s in parts:
        terms = [(k, n) for k, n in s.packed.items() if N is None or _weight(k[1]) <= N]
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

    Every order stays integer rows: order k is one stencil pass over the
    rows of order k - 1, clipped and band-checked as it is formed, with 1/k
    folded into its denominator, and the orders are summed once, over the
    last denominator, into the one series built.  An exponent with a
    Compose part (none in this package) acts on each order as op.apply
    does, on a series of that order.  The result has the rows, denominator,
    band and bookkeeping of s + Sum_k op^k(s)/k! formed through add_scaled,
    each order through op.apply.
    """
    # a summand's u-shift is the exponent range of its coefficient: no
    # operator that has a weight shift moves u
    parts = Sum(op).parts
    shifts = [(p.weight_shift(), (c.min_exp(), c.max_exp()) if c else (0, 0))
              for c, p in parts]
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
    # an order's rows pass the band check in the band the clip then cuts back
    top = s.umax + step_up if clip else s.umax
    composed = isinstance(op, Compose) or any(isinstance(p, Compose) for _, p in parts)
    # how op.apply moves the reliable weight: a leaf by its shift, a Sum of
    # leaves by its lowest shift if negative
    lift = (min([0] + [shift for shift, _ in shifts]) if isinstance(op, Sum)
            else 0 if composed else op.weight_shift())
    drop = _u_drop(parts)
    # the rows of order k are op^k(s) / k! over den: each order runs op on
    # the rows of the one before and folds 1/k into its denominator
    rows, den, rel, u_hi = packed_rows(s.rows), s.den, s.reliable, s.u_hi
    held = [(UPOLY_ONE, rows, den)]
    total_rel, total_u_hi = rel, u_hi
    for k in range(1, cap + 1):
        if composed:
            # a Compose part acts on this order as a series, as Sum.apply
            # adds it, and so does a Compose exponent
            out = op.apply(TruncatedSeries._built(
                family=s.family, W=s.W, rows=unpacked_rows(rows), den=den, umin=s.umin,
                umax=top, reliable=rel, u_hi=u_hi))
            rows, den, rel, u_hi = packed_rows(out.rows), out.den, out.reliable, out.u_hi
        else:
            acc, f = _stencil_rows(rows, s.W, parts, s.umin, top)
            rows, den = summed_rows(acc), den * f
            rel = min(rel + lift, s.W)
            u_hi = None if u_hi is None else u_hi + drop
        if clip:
            # the clip records no u_hi here: no summand lowers u in the box
            # grading, so the clip of the sum below records the same
            rows = [(m, w, kept) for m, w, r in rows
                    if (kept := tuple(en for en in r if en[0] <= s.umax))]
        if not rows:
            break
        rows.sort(key=itemgetter(1))
        den *= k
        held.append((UPOLY_ONE, rows, den))
        total_rel = min(total_rel, rel)
        total_u_hi = TruncatedSeries._merge_u_hi(total_u_hi, u_hi)
    else:
        if max_order is None:
            raise OperatorGradingError("exponential did not terminate within the box cap")
    ulo = min((ul for _, (ul, _) in shifts), default=0)
    if ulo < 0 and s.u_hi is not None:
        # an inexact entry above s.u_hi moves down at every order that can act
        # on it, also past the last order formed here: at most max_order, or
        # W in the raising grading
        steps = s.W if max_order is None else max_order
        total_u_hi = min(total_u_hi, s.u_hi + ulo * steps)
    acc, den = combine_rows(held)
    total = TruncatedSeries._built(family=s.family, W=s.W,
                                   rows=unpacked_rows(summed_rows(acc)), den=den,
                                   umin=s.umin, umax=s.umax, reliable=total_rel,
                                   u_hi=total_u_hi)
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
        if not chain[-1].packed:
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


def exp_u_join(seed: TruncatedSeries) -> TruncatedSeries:
    """exp(uM2) seed, in the box grading: its clip records a u_hi."""
    return exponential_apply(scaled(CutJoin(2), UPoly.u(1)), seed)


def o_actions(n: int, lifted: TruncatedSeries, W_out: int) -> list[TruncatedSeries]:
    """O_i(exp(M2) seed) for i = 0, 1, ..., given lifted = exp_u_join(seed)
    for a seed with u-free coefficients, truncated to W_out, each exact to
    the reliable weight it reports.

    With B_r = (ad M2)^r(n d/dx_n) and O_i = Sum_k (-1)^k B_{i+k} / (k! i!),
        Sum_i O_i u^i = Sum_r B_r (u-1)^r / r! = exp((1-u)M2) n d/dx_n exp((u-1)M2),
    so O_i(exp(M2) seed) is the u^i layer of exp((1-u)M2) n d/dx_n exp(uM2) seed.
    Both exponentials are in the box grading, so their clip records a u_hi:
    the layers run up to the highest u-exponent stored, and no index above
    the series' u_hi is returned; a u_hi of None bounds nothing."""
    # M2 only raises weight, so cutting before the second exponential loses nothing
    lowered = n_partial(n).apply(lifted).truncate(W_out)
    series = exponential_apply(scaled(CutJoin(2), UPoly.parse("1 - u")), lowered)
    top = max((r[-1][0] for _, _, r in series.rows), default=-1)
    if series.u_hi is not None:
        top = min(top, series.u_hi)
    return [series.u_layer(i) for i in range(top + 1)]


# Memoised builds that several verify checks read, each formed once per
# argument and immutable: exp(M2) q_1^k, and exp(uM2) q_1 for the
# O-operators.  The O-operator checks build both q_1 exponentials once, at
# W + O_HEADROOM, the headroom of their largest n, and cut them to W + n.
O_HEADROOM = 5


@functools.lru_cache(maxsize=8)
def exp_join_power(k: int, W: int) -> TruncatedSeries:
    """exp(M2) q_1^k at truncation W: k = n - 1 for the propositions and
    the O-operators, k = 1 for the F identities, the linearized KP and the
    O-operators' bracket side."""
    return exponential_apply(CutJoin(2), TruncatedSeries.monomial("q", W, mono_var(1, k)))


@functools.lru_cache(maxsize=1)
def _exp_u_join_of_q1(W: int) -> TruncatedSeries:
    return exp_u_join(TruncatedSeries.variable("q", W, 1))


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
    comparisons are exact through weight W despite the derivative dip.  The
    two q_1 exponentials there are the memoised ones at W + O_HEADROOM (or
    W + n if larger), cut to W + n: both only raise weight, so the rows to
    W + n are the same, and the cut restores the band, reliable weight and
    u_hi of a build at W + n.
    """
    m2 = CutJoin(2)
    Wn, top = W + n, W + max(n, O_HEADROOM)
    lo, hi = band_for_weight(Wn)
    lifted = _exp_u_join_of_q1(top).truncate(Wn).clip_u_above(hi).with_band(lo, hi)
    acts = o_actions(n, lifted, W)

    vanish = True
    for i, act in enumerate(acts):
        if i in (n - 1, n):
            continue
        vanish = vanish and act.up_to_weight(act.reliable).is_zero()

    lhs = acts[n - 1]
    rhs = exp_join_power(n - 1, W).scale(n)
    rel = min(lhs.reliable, rhs.reliable)
    penult = lhs.up_to_weight(rel) == rhs.up_to_weight(rel)

    # Sum_i i*O_i is d/du of the generating series at u = 1, the single
    # bracket [n d/dx_n, M2] as an operator identity; applied to exp(M2)x1
    # built on its own, it checks the conjugation o_actions reads off
    weighted = TruncatedSeries.zero("q", W).add_scaled(
        (i, act) for i, act in enumerate(acts))
    bracket = commutator(n_partial(n), m2)
    joined = exp_join_power(1, top).truncate(Wn).with_band(lo, hi)
    direct = bracket.apply(joined).truncate(W)
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
    give the same verdict.  A chain that does not vanish within
    CONJUGATE_DEPTH is a False chain verdict, not a crash.  The intertwining
    form is one ops_equal per case, on tagged_probe(W): X = L1/u, a and T act
    u-linearly, exp(X) is in the weight-raising grading, and each monomial's
    images stay in its band (exp(X) lowers u by at most W, a and T raise it
    by at most 2).  The left side applies a to exp(X) probe, formed once for
    the cases that share X; the right side forms exp(X) T probe, once per
    case."""
    cases = conjugation_cases()
    probe = tagged_probe(W)
    lifted = {x: exponential_apply(x, probe)
              for x in dict.fromkeys(x for x, _, _ in cases.values())}

    def intertwines(x: Operator, a: Operator, target: Operator) -> bool:
        # ops_equal hands both sides a probe equal to this one
        return ops_equal(lambda s: a.apply(lifted[x]),
                         lambda s: exponential_apply(x, target.apply(s)), W=W)

    def chain(x: Operator, a: Operator, target: Operator) -> bool:
        # a chain that does not vanish within CONJUGATE_DEPTH fails its own
        # report; the other chain and the sandwiches still run
        try:
            return conjugate(x, a, W=W) == symbol(target, W)
        except OperatorGradingError:
            return False

    return {
        **{f"{name}_chain": chain(*case) for name, case in cases.items()},
        **{f"{name}_sandwich": intertwines(*case) for name, case in cases.items()},
    }
