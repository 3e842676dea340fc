"""Exact weight-graded series algebra.

Everything downstream works over one concrete representation:

* coefficients are Laurent polynomials in a single parameter ``u`` with
  ``fractions.Fraction`` entries (:class:`UPoly`) -- no floating point anywhere;
* a monomial in the variables ``q_1, q_2, ...`` (or ``p_i``, ``t_i``) is a
  sorted tuple of ``(index, exponent)`` pairs, ``weight = sum(i * e)``;
* a :class:`TruncatedSeries` is a sparse ``monomial -> UPoly`` map truncated at
  a fixed total weight ``W``, tagged with the variable family so that ``q``-,
  ``p``- and ``t``-series can never be combined by accident.

Truncation discards weights above ``W`` silently (that is the ring we compute
in); the ``u``-exponent band, by contrast, is a hard error when exceeded,
because silently dropping ``u`` powers would corrupt the ``1/u`` structure the
downstream identities depend on.  Operations that *can* clip the band soundly
(graded exponentials) do so explicitly through
:meth:`TruncatedSeries.clip_u_above`, which records the clip in ``u_hi``.

Each series also carries ``reliable``: the weight up to which its entries are
known to be exact.  Operations that shift weight downward (derivatives by a
high-index variable) lower it; verification code compares series only up to the
minimum reliable weight of the operands.

A series stores its coefficients as integer rows over one denominator:
``(monomial, weight, ((u-exp, n), ...))`` per nonzero coefficient, each entry
``n / den``.  The exact kernels read and write those rows and never do
``Fraction`` arithmetic term by term; their outputs go through one internal
constructor that checks weight and band on the rows.  ``terms``, the
``monomial -> UPoly`` map, is a view built on first read.  Each kernel has
one core that works on rows alone, so a caller can keep its intermediates
as rows and build only its result: :func:`convolve` is the product
(:meth:`TruncatedSeries.mul` runs it), :func:`derivative` the derivative
(:meth:`~TruncatedSeries.partial` runs it) and :func:`combine_rows` the sum
of scaled rows over one common denominator.
:meth:`~TruncatedSeries.add_scaled`, which ``+``, ``-``,
:meth:`~TruncatedSeries.scale` and the linear substitution go through, runs
the last one; so do the operator exponential and the Hirota residual, which
sum rows they never build as series.

Inside the kernels a monomial is packed into one int, one byte per
exponent (:func:`pack`): a product of monomials is ``+`` and a division by
a variable is ``-``, with no tuple built.  :func:`convolve`,
:func:`derivative` and the operators' stencil pass work on packed rows;
``mul`` and ``partial`` pack on entry and unpack on exit through two memo
dicts, one per direction.  ``rows``, ``terms``, every artifact and every
public signature hold tuple monomials.  A byte holds an exponent through
255, so a kernel that forms monomials by ``+`` refuses a truncation of
:data:`PACK_LIMIT` = 256 or more with :class:`PackCapacityError`, and
packing a larger exponent raises it too.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

Rat = Fraction

FAMILIES = ("q", "p", "t")

# Band default: weight-W data in these pipelines never legitimately needs
# u-exponents outside [-(W+2), W+2] unless a caller widens on purpose.
BAND_MARGIN = 2


class FamilyError(ValueError):
    """Two different variable families were mixed."""


class UBandError(ArithmeticError):
    """A coefficient escaped the configured u-exponent band."""


class TruncationError(ValueError):
    """A query or operation reached beyond the truncation order."""


def band_for_weight(W: int) -> tuple[int, int]:
    return (-(W + BAND_MARGIN), W + BAND_MARGIN)


def _band_error(lo: int, hi: int, umin: int, umax: int) -> UBandError:
    return UBandError(f"u-exponent range [{lo}, {hi}] escapes band [{umin}, {umax}]")


# ---------------------------------------------------------------------------
# Laurent polynomials in u
# ---------------------------------------------------------------------------

_UPOLY_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)(?:\s*\*?\s*u(?:\^(?P<exp1>-?\d+))?)?
          | u(?:\^(?P<exp2>-?\d+))?
        )\s*""",
    re.VERBOSE,
)


class UPoly:
    """Immutable Laurent polynomial in u over exact rationals.

    Stored as a tuple of (exponent, Fraction) pairs, ascending exponent, no
    zero entries.  Zero is the empty tuple.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Rat]):
        entries = ((e, c if type(c) is Fraction else Fraction(c))
                   for e, c in terms.items())
        object.__setattr__(self, "terms", tuple(sorted((e, c) for e, c in entries if c)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("UPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c: Rat | int | str) -> UPoly:
        return UPoly({0: Fraction(c)})

    @staticmethod
    def u(exp: int = 1, coef: Rat | int = 1) -> UPoly:
        return UPoly({exp: Fraction(coef)})

    @staticmethod
    def parse(text: str) -> UPoly:
        """Parse '2', 'u^-1+2', '3/2*u^2 - u', ...  Raises ValueError on junk."""
        text = text.strip()
        if not text:
            raise ValueError("empty UPoly literal")
        pos = 0
        acc: dict[int, Rat] = {}
        first = True
        while pos < len(text):
            m = _UPOLY_TERM_RE.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse UPoly literal at: {text[pos:]!r}")
            sign = m.group("sign")
            if sign is None and not first:
                raise ValueError(f"missing +/- between terms in {text!r}")
            s = -1 if sign == "-" else 1
            coef = m.group("coef")
            has_u = ("u" in m.group(0)) or m.group("exp1") is not None
            exp_s = m.group("exp1") or m.group("exp2")
            try:
                c = Fraction(coef) if coef else Fraction(1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in UPoly literal {text!r}") from None
            e = int(exp_s) if exp_s is not None else (1 if has_u else 0)
            if not has_u:
                e = 0
            acc[e] = acc.get(e, Fraction(0)) + s * c
            pos = m.end()
            first = False
        return UPoly(acc)

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero UPoly has no exponents")
        return self.terms[0][0]

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero UPoly has no exponents")
        return self.terms[-1][0]

    def coeff(self, exp: int) -> Rat:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: UPoly) -> UPoly:
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return UPoly(acc)

    def __mul__(self, other: UPoly) -> UPoly:
        acc: dict[int, Rat] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return UPoly(acc)

    def scale(self, c: Rat) -> UPoly:
        if not c:
            return UPOLY_ZERO
        return UPoly({e: v * c for e, v in self.terms})

    def check_band(self, umin: int, umax: int) -> None:
        if self.terms and (self.terms[0][0] < umin or self.terms[-1][0] > umax):
            raise _band_error(self.terms[0][0], self.terms[-1][0], umin, umax)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                body = str(c)
            else:
                ustr = "u" if e == 1 else f"u^{e}"
                body = ustr if c == 1 else (f"-{ustr}" if c == -1 else f"{c}*{ustr}")
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"UPoly({str(self)})"

    def to_json(self) -> list[list]:
        return [[e, str(c)] for e, c in self.terms]


UPOLY_ZERO = UPoly({})
UPOLY_ONE = UPoly.const(1)


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

# A monomial is a tuple of (variable index, exponent) pairs, ascending index,
# all indices >= 1 and exponents >= 1.  The empty tuple is the constant.
Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


def mono(*pairs: tuple[int, int]) -> Monomial:
    """Build a monomial from (index, exponent) pairs, merging duplicates."""
    acc: dict[int, int] = {}
    for i, e in pairs:
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        if e:
            acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def mono_var(i: int, e: int = 1) -> Monomial:
    return mono((i, e))


def mono_weight(m: Monomial) -> int:
    return sum(i * e for i, e in m)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def mono_div_var(m: Monomial, i: int) -> Monomial:
    """Divide by x_i; the variable must be present."""
    acc = dict(m)
    if not acc.get(i):
        raise ValueError(f"monomial {m} not divisible by variable {i}")
    acc[i] -= 1
    if acc[i] == 0:
        del acc[i]
    return tuple(sorted(acc.items()))


def mono_key(m: Monomial) -> tuple:
    """Canonical sort key: ascending weight, then lexicographic on the
    (index, exponent) pairs read from the highest index down."""
    return (mono_weight(m), tuple(reversed(m)))


def mono_str(m: Monomial, family: str = "q") -> str:
    if not m:
        return "1"
    return "*".join(
        f"{family}{i}" if e == 1 else f"{family}{i}^{e}" for i, e in m
    )


def monomials_of_weight(w: int) -> Iterator[Monomial]:
    """All monomials of total weight exactly w (partitions of w)."""

    def gen(remaining: int, max_part: int) -> Iterator[list[int]]:
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield [part] + rest

    for parts in gen(w, w):
        acc: dict[int, int] = {}
        for p in parts:
            acc[p] = acc.get(p, 0) + 1
        yield tuple(sorted(acc.items()))


def monomials_up_to_weight(W: int) -> Iterator[Monomial]:
    for w in range(W + 1):
        yield from monomials_of_weight(w)


# ---------------------------------------------------------------------------
# Packed monomials
# ---------------------------------------------------------------------------

# Inside the kernels a monomial is one int, its exponent vector packed one
# byte per variable: x_i's exponent is byte i - 1.  Multiplying two packed
# monomials is +, dividing by x_i subtracts 1 << 8 (i - 1), and x_i's
# exponent is p >> 8 (i - 1) & 255.  A byte holds exponents through 255, and
# no monomial of weight below PACK_LIMIT has a larger one, so a kernel that
# forms monomials by + refuses a truncation at or above it.
PACK_LIMIT = 256


class PackCapacityError(OverflowError):
    """A monomial's exponent would not fit in its byte of a packed monomial."""


# one memo per direction, filled on first use; pack fills both
_PACKED: dict[Monomial, int] = {}
_UNPACKED: dict[int, Monomial] = {}


def check_packable(W: int) -> None:
    """Raise :class:`PackCapacityError` if a packed kernel truncated at W
    could form an exponent that carries into the next variable's byte."""
    if W >= PACK_LIMIT:
        raise PackCapacityError(
            f"truncation W={W} reaches exponents a byte cannot hold (limit {PACK_LIMIT})")


def pack(m: Monomial) -> int:
    """m as one int, x_i's exponent in byte i - 1."""
    p = _PACKED.get(m)
    if p is None:
        p = 0
        for i, e in m:
            if e >= PACK_LIMIT:
                raise PackCapacityError(f"exponent {e} of variable {i} does not fit a byte")
            p += e << 8 * (i - 1)
        _PACKED[m] = p
        _UNPACKED.setdefault(p, m)
    return p


def unpack(p: int) -> Monomial:
    """The monomial a packed int holds."""
    m = _UNPACKED.get(p)
    if m is None:
        m = _UNPACKED[p] = tuple(
            (i, e) for i, e in enumerate(p.to_bytes((p.bit_length() + 7) // 8, "little"), 1)
            if e)
    return m


def packed_rows(rows: list) -> list:
    """rows with each monomial packed."""
    return [(pack(m), w, r) for m, w, r in rows]


def unpacked_rows(rows: list) -> list:
    """Packed rows with each monomial unpacked."""
    return [(unpack(p), w, r) for p, w, r in rows]


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------


def numerators(terms: Mapping[Monomial, UPoly]) -> tuple[list, int]:
    """The nonzero terms as rows (monomial, weight, ((u-exp, n), ...)), each
    entry n / den over one den: the lcm of their denominators, so no prime
    divides den and every n."""
    den = math.lcm(*(v.denominator for c in terms.values() for _, v in c.terms))
    return [(m, mono_weight(m), tuple((e, v.numerator * (den // v.denominator))
                                      for e, v in c.terms))
            for m, c in terms.items() if c], den


def convolve(left: list, right: list, W: int,
             U: int | None = None) -> dict[int, tuple[int, dict]]:
    """The product of two packed row lists through weight W and, unless U is
    None, u-exponent U, as (weight, {u-exp: n}) per packed monomial; right
    must be sorted by weight.  No pair above W is visited, so a negative W
    gives an empty product.  A row's exponents ascend, so a pair whose two
    lowest exponents sum above U is not visited, and each inner u-loop stops
    at U: no u-product above U is formed.  Rows whose monomials are not
    packed ints raise TypeError: tuples would concatenate under +."""
    check_packable(W)
    if any(rows and not isinstance(rows[0][0], int) for rows in (left, right)):
        raise TypeError("convolve takes packed rows, each monomial one int (see pack)")
    if U is None:
        # no exponent sum reaches past the two highest exponents
        U = (max((r[-1][0] for _, _, r in left), default=0)
             + max((r[-1][0] for _, _, r in right), default=0))
    acc: dict[int, tuple[int, dict[int, int]]] = {}
    for m1, w1, c1 in left:
        top = U - c1[0][0]
        for m2, w2, c2 in right:
            if w1 + w2 > W:
                break
            low = c2[0][0]
            if low > top:
                continue
            m = m1 + m2
            got = acc.get(m)
            if got is None:
                got = acc[m] = (w1 + w2, {})
            row = got[1]
            for e1, n1 in c1:
                if e1 + low > U:
                    break
                for e2, n2 in c2:
                    e = e1 + e2
                    if e > U:
                        break
                    row[e] = row.get(e, 0) + n1 * n2
    return acc


def summed_rows(acc: Mapping) -> list:
    """A kernel's (weight, {u-exp: n}) sums per monomial as rows, zeros
    dropped; the monomials stay as the kernel keyed them."""
    rows = []
    for m, (w, row) in acc.items():
        r = sorted(row.items())
        if not all(row.values()):
            r = [kv for kv in r if kv[1]]
        if r:
            rows.append((m, w, tuple(r)))
    return rows


def combine_rows(parts: Iterable[tuple[UPoly | Rat | int, list, int]]
                 ) -> tuple[dict[Monomial, tuple[int, dict[int, int]]], int]:
    """Sum_i c_i * rows_i / den_i over one common denominator, the lcm of
    the den(c_i) * den_i, taken once, as ((weight, {u-exp: n}) per monomial,
    den); c_i is a rational or a UPoly, whose powers of u shift exponents.
    A monomial takes its place in the sum where a part first lists it."""
    parts = [(c.terms if isinstance(c, UPoly) else ((0, Fraction(c)),) if c else (),
              rows, d) for c, rows, d in parts]
    den = math.lcm(*(v.denominator * d for cs, _, d in parts for _, v in cs))
    acc: dict[Monomial, tuple[int, dict[int, int]]] = {}
    for cs, rows, d in parts:
        fs = [(k, v.numerator * (den // (v.denominator * d))) for k, v in cs]
        for m, w, row_in in rows:
            got = acc.get(m)
            if got is None:
                got = acc[m] = (w, {})
            row = got[1]
            for k, f in fs:
                for e, n in row_in:
                    row[e + k] = row.get(e + k, 0) + f * n
    return acc, den


def derivative(rows: list, reliable: int, i: int) -> tuple[list, int]:
    """d/dx_i of packed rows in ascending weight, over the same denominator
    and in ascending weight, with the reliable weight of the result: the
    weight drops by i, so the reliable weight drops too."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    shift = 8 * (i - 1)
    step = 1 << shift
    # dividing by x_i is one-to-one, so no two rows meet; an exponent of 1
    # keeps the row's numerators
    return [(m - step, w - i, r if k == 1 else tuple([(e, k * n) for e, n in r]))
            for m, w, r in rows if (k := m >> shift & 255)], reliable - i


def product_bounds(W: int, a: tuple[list, int, int | None],
                   b: tuple[list, int, int | None]) -> tuple[int, int | None]:
    """The reliable weight and u_hi of the product through W of a and b,
    each (rows in ascending weight, reliable weight, u_hi): the reliable
    weight is min(W, a.reliable + b's lowest weight, b.reliable + a's); a
    product layer is complete up to each factor's u_hi plus the lowest
    exponent the other factor can supply, the lower of the two (None if
    neither factor has a u_hi)."""
    (ra, rel_a, hi_a), (rb, rel_b, hi_b) = a, b
    rel = W
    if ra and rb:
        rel = min(W, rel_a + rb[0][1], rel_b + ra[0][1])
    u_hi = None
    if hi_a is not None and rb:
        u_hi = hi_a + min(r[0][0] for _, _, r in rb)
    if hi_b is not None and ra:
        u_hi = TruncatedSeries._merge_u_hi(u_hi, hi_b + min(r[0][0] for _, _, r in ra))
    return rel, u_hi


class TruncatedSeries:
    """Sparse weight-truncated series with UPoly coefficients.

    Immutable after construction.  The store is ``rows``: one (monomial,
    weight, ((u-exp, n), ...)) entry per nonzero coefficient in ascending
    weight, each n over the one denominator ``den``, which shares no prime
    with all of them; ``terms`` is the read-only monomial -> UPoly view,
    built on first read.  ``reliable`` is the weight up to which the entries
    are exact; ``u_hi`` is the u-exponent up to which they are exact (None =
    exact at every stored exponent).  Entries of weight > W are rejected,
    u-exponents outside [umin, umax] raise :class:`UBandError`.  Rows between
    ``reliable`` and W may be inexact, except in a product: :meth:`mul` stores
    no rows above its reliable weight.
    """

    __slots__ = ("family", "W", "rows", "den", "umin", "umax", "reliable", "u_hi",
                 "_terms")

    def __init__(
        self,
        family: str,
        W: int,
        terms: Mapping[Monomial, UPoly],
        *,
        umin: int | None = None,
        umax: int | None = None,
        reliable: int | None = None,
        u_hi: int | None = None,
    ):
        if family not in FAMILIES:
            raise FamilyError(f"unknown variable family {family!r}")
        if W < 0:
            raise ValueError("truncation weight must be >= 0")
        lo, hi = band_for_weight(W)
        clean = {m: c for m, c in terms.items() if c}
        self._store(family, W, *numerators(clean), lo if umin is None else umin,
                    hi if umax is None else umax, reliable, u_hi)
        object.__setattr__(self, "_terms", MappingProxyType(clean))

    @staticmethod
    def _built(*, family: str, W: int, rows: list, den: int, umin: int, umax: int,
               reliable: int | None, u_hi: int | None) -> TruncatedSeries:
        """The constructor of kernel outputs: rows over den, in any order,
        with no zero entry and no empty row; checked like the public
        constructor's terms, then reduced and sorted."""
        s = object.__new__(TruncatedSeries)
        s._store(family, W, rows, den, umin, umax, reliable, u_hi)
        return s

    def _store(self, family, W, rows, den, umin, umax, reliable, u_hi) -> None:
        if den > 1 and (g := math.gcd(den, *(n for _, _, r in rows for _, n in r))) > 1:
            rows = [(m, w, tuple((e, n // g) for e, n in r)) for m, w, r in rows]
            den //= g
        for m, w, r in rows:
            if w > W:
                raise TruncationError(f"monomial {mono_str(m, family)} has weight > W={W}")
            if r[0][0] < umin or r[-1][0] > umax:
                raise _band_error(r[0][0], r[-1][0], umin, umax)
        put = object.__setattr__
        put(self, "family", family)
        put(self, "W", W)
        put(self, "rows", sorted(rows, key=itemgetter(1)))
        put(self, "den", den)
        put(self, "umin", umin)
        put(self, "umax", umax)
        put(self, "reliable", W if reliable is None else min(reliable, W))
        put(self, "u_hi", u_hi)
        put(self, "_terms", None)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def terms(self) -> Mapping[Monomial, UPoly]:
        if self._terms is None:
            object.__setattr__(self, "_terms", MappingProxyType({
                m: UPoly({e: Fraction(n, self.den) for e, n in r})
                for m, _, r in self.rows}))
        return self._terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(family: str, W: int, **kw) -> TruncatedSeries:
        return TruncatedSeries(family, W, {}, **kw)

    @staticmethod
    def monomial(
        family: str, W: int, m: Monomial, coef: UPoly = UPOLY_ONE, **kw
    ) -> TruncatedSeries:
        return TruncatedSeries(family, W, {m: coef}, **kw)

    @staticmethod
    def variable(family: str, W: int, i: int, **kw) -> TruncatedSeries:
        return TruncatedSeries.monomial(family, W, mono_var(i), **kw)

    @staticmethod
    def const(family: str, W: int, c: UPoly, **kw) -> TruncatedSeries:
        return TruncatedSeries(family, W, {MONO_ONE: c}, **kw)

    # -- bookkeeping helpers -------------------------------------------------

    def _meta(self) -> dict:
        return dict(umin=self.umin, umax=self.umax, reliable=self.reliable,
                    u_hi=self.u_hi)

    def _with(self, rows: list | None = None, den: int | None = None,
              **fields) -> TruncatedSeries:
        """This series with new rows over den and the given fields replaced."""
        return TruncatedSeries._built(**{
            "family": self.family, "W": self.W, **self._meta(), **fields,
            "rows": self.rows if rows is None else rows,
            "den": self.den if den is None else den})

    def with_band(self, umin: int, umax: int) -> TruncatedSeries:
        """Re-declare the band (widening is lossless; narrowing re-validates)."""
        return self._with(umin=umin, umax=umax)

    def with_reliable(self, reliable: int) -> TruncatedSeries:
        return self._with(reliable=reliable)

    def with_u_hi(self, u_hi: int | None) -> TruncatedSeries:
        return self._with(u_hi=u_hi)

    def clip_u_above(self, hi: int) -> TruncatedSeries:
        """Drop u-exponents above hi: the band top becomes hi, and the entries
        are exact at most up to u^hi."""
        rows = [(m, w, kept) for m, w, r in self.rows
                if (kept := tuple(en for en in r if en[0] <= hi))]
        return self._with(rows, umax=hi, u_hi=self._merge_u_hi(self.u_hi, hi))

    def _check_family(self, other: TruncatedSeries) -> None:
        if self.family != other.family:
            raise FamilyError(
                f"cannot combine {self.family}-series with {other.family}-series"
            )

    @staticmethod
    def _merge_u_hi(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other) -> bool:
        # the reduced denominator makes the rows of equal series equal
        return (
            isinstance(other, TruncatedSeries)
            and self.family == other.family
            and self.den == other.den
            and len(self.rows) == len(other.rows)
            and {m: r for m, _, r in self.rows} == {m: r for m, _, r in other.rows}
        )

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def coefficient_of(self, m: Monomial) -> UPoly:
        if mono_weight(m) > self.W:
            raise TruncationError(
                f"coefficient of {mono_str(m, self.family)} lies beyond W={self.W}"
            )
        return self.terms.get(m, UPOLY_ZERO)

    def min_weight(self) -> int | None:
        return self.rows[0][1] if self.rows else None

    def min_u_exp(self) -> int:
        """Smallest u-exponent appearing anywhere (0 for the zero series)."""
        return min((r[0][0] for _, _, r in self.rows), default=0)

    def canonical_items(self) -> list[tuple[Monomial, UPoly]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def weight_slice(self, w: int) -> TruncatedSeries:
        return self._with([row for row in self.rows if row[1] == w])

    def up_to_weight(self, w: int) -> TruncatedSeries:
        """Restrict to weight <= w (keeps W and band unchanged)."""
        if not self.rows or self.rows[-1][1] <= w:
            return self
        return self._with([row for row in self.rows if row[1] <= w])

    def u_layer(self, e: int) -> TruncatedSeries:
        """The coefficient-of-u^e layer, as a series with rational coefficients."""
        return self._with([(m, w, ((0, n),)) for m, w, r in self.rows for k, n in r if k == e])

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.add_scaled([(1, other)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.add_scaled([(-1, other)])

    def scale(self, c: UPoly | Rat | int) -> TruncatedSeries:
        return self._with([], 1).add_scaled([(c, self)])

    def add_scaled(
        self, parts: Iterable[tuple[UPoly | Rat | int, TruncatedSeries]]
    ) -> TruncatedSeries:
        """self + the sum of c * s over the (c, s) parts, with the bookkeeping
        of that chain of ``+``; c is a rational or a UPoly, and each c * s
        must stay inside the band of s (else :class:`UBandError`), checked
        part by part as the parts arrive.  The parts' rows are summed over
        one common denominator, the lcm of all of theirs, taken once."""
        held: list[tuple[UPoly, TruncatedSeries]] = []
        W, lo, hi, rel, u_hi = self.W, self.umin, self.umax, self.reliable, self.u_hi
        for c, s in itertools.chain([(1, self)], parts):
            self._check_family(s)
            c = c if isinstance(c, UPoly) else UPoly.const(c)
            # c moves u-exponents unless it is constant; a product's extreme
            # exponents are the sums of its factors', so c * s is exact up to
            # s's u_hi plus the lowest exponent of c
            ulo, uhi = (c.min_exp(), c.max_exp()) if c else (0, 0)
            if s.rows and (ulo or uhi) and (
                    s.min_u_exp() + ulo < s.umin
                    or max(r[-1][0] for _, _, r in s.rows) + uhi > s.umax):
                raise UBandError(f"{c} times a series escapes its band "
                                 f"[{s.umin}, {s.umax}]")
            held.append((c, s))
            W, lo, hi = min(W, s.W), min(lo, s.umin), max(hi, s.umax)
            rel = min(rel, s.reliable)
            u_hi = self._merge_u_hi(u_hi, None if s.u_hi is None else s.u_hi + ulo)
        acc, den = combine_rows((c, s.rows, s.den) for c, s in held)
        return TruncatedSeries._built(
            family=self.family, W=W, rows=[r for r in summed_rows(acc) if r[1] <= W],
            den=den, umin=lo, umax=hi, reliable=rel, u_hi=u_hi)

    def mul(self, other: TruncatedSeries, *,
            umin: int | None = None, umax: int | None = None) -> TruncatedSeries:
        """Truncated product.  The result is validated against the union of the
        operand bands unless a wider band is requested explicitly; escaping it
        is a :class:`UBandError`, never a silent clip.

        The product holds its exact terms through its reliable weight (see
        :func:`product_bounds`) and no rows above it: no report reads an
        entry above that weight, which could not be certified, so its pairs
        are not formed.  W, the band and u_hi are as for a full product
        through W."""
        self._check_family(other)
        lo = min(self.umin, other.umin) if umin is None else umin
        hi = max(self.umax, other.umax) if umax is None else umax
        rel, u_hi = product_bounds(min(self.W, other.W), (self.rows, self.reliable, self.u_hi),
                                   (other.rows, other.reliable, other.u_hi))
        return TruncatedSeries._built(
            family=self.family, W=min(self.W, other.W),
            rows=unpacked_rows(summed_rows(
                convolve(packed_rows(self.rows), packed_rows(other.rows), rel))),
            den=self.den * other.den, umin=lo, umax=hi, reliable=rel, u_hi=u_hi)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.mul(other)

    def partial(self, i: int) -> TruncatedSeries:
        """d/dx_i.  Weight drops by i, so the reliable weight drops too."""
        rows, reliable = derivative(packed_rows(self.rows), self.reliable, i)
        return self._with(unpacked_rows(rows), reliable=reliable)

    def truncate(self, W: int) -> TruncatedSeries:
        if W >= self.W:
            return self
        return self._with([row for row in self.rows if row[1] <= W], W=W,
                          reliable=min(self.reliable, W))

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        bits = []
        for m, c in self.canonical_items():
            cs = str(c)
            if "+" in cs or " - " in cs or (cs.startswith("-") and m):
                cs = f"({cs})"
            bits.append(cs if not m else (mono_str(m, self.family) if cs == "1"
                                          else f"{cs}*{mono_str(m, self.family)}"))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return (f"TruncatedSeries({self.family!r}, W={self.W}, "
                f"{len(self.rows)} terms)")

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "W": self.W,
            "terms": [
                {"mono": [list(p) for p in m], "coef": c.to_json()}
                for m, c in self.canonical_items()
            ],
        }


# ---------------------------------------------------------------------------
# Linear substitution
# ---------------------------------------------------------------------------


def prefix_products(words: Iterable, factors: Mapping[int, TruncatedSeries],
                    one: TruncatedSeries, *, umin: int, umax: int) -> Iterator:
    """For each (word, x), yield (x, one times factors[i] over the word's
    letters i), the products taken in [umin, umax].

    Visited in sorted order, the words walk their prefix trie depth first;
    path[k] is the product over the current word's first k letters, so each
    distinct prefix costs one mul, not each word.
    """
    path = [one]
    prev: tuple[int, ...] = ()
    for word, x in sorted(words, key=lambda wx: wx[0]):
        k = 0
        while k < min(len(prev), len(word)) and prev[k] == word[k]:
            k += 1
        del path[k + 1:]
        for i in word[k:]:
            if i not in factors:
                raise KeyError(f"missing variable {i}")
            path.append(path[-1].mul(factors[i], umin=umin, umax=umax))
        prev = word
        yield x, path[-1]


def substitute_linear(
    s: TruncatedSeries,
    rule: Mapping[int, TruncatedSeries],
    *,
    umin: int | None = None,
    umax: int | None = None,
) -> TruncatedSeries:
    """Substitute each source variable by a linear series in a target family.

    Every image must be linear (each monomial a single first-power variable)
    and weight-compatible: the image of variable ``b`` may only contain target
    weights >= b.  That makes the substitution exact on a weight-W truncation.
    """
    W = s.W
    target_family: str | None = None
    # slope: most negative u-exponent per unit of image weight, across all
    # image terms; a degree-d product then shifts u by >= slope * weight, and
    # the product weight is capped at W, so u_hi degrades by at most slope * W.
    slope = Fraction(0)
    for b, img in rule.items():
        if target_family is None:
            target_family = img.family
        elif img.family != target_family:
            raise FamilyError("substitution images mix variable families")
        for m, c in img.terms.items():
            if mono_degree(m) != 1:
                raise ValueError(
                    f"image of variable {b} is not linear: contains {mono_str(m)}"
                )
            w = mono_weight(m)
            if w < b:
                raise ValueError(
                    f"image of variable {b} contains weight {w} < {b}; "
                    "substitution would not respect truncation"
                )
            slope = min(slope, Fraction(c.min_exp(), w))
    if target_family is None:
        target_family = s.family
    lo, hi = band_for_weight(W)
    lo = lo if umin is None else umin
    hi = hi if umax is None else umax
    images = {
        b: TruncatedSeries(target_family, W,
                           {m: c for m, c in img.terms.items()
                            if mono_weight(m) <= W},
                           umin=lo, umax=hi)
        for b, img in rule.items()
    }
    rel = min(s.reliable, min((img.reliable for img in rule.values()), default=W), W)
    u_hi = s.u_hi
    if u_hi is not None:
        u_hi += math.floor(slope * W)  # slope <= 0, so this only lowers it
    # q1^2 q3 is spelled (1, 1, 3)
    words = ((tuple(i for i, e in m for _ in range(e)), c) for m, c in s.terms.items())
    one = TruncatedSeries.const(target_family, W, UPOLY_ONE, umin=lo, umax=hi)
    zero = TruncatedSeries.zero(target_family, W, umin=lo, umax=hi,
                                reliable=rel, u_hi=u_hi)
    return zero.add_scaled(prefix_products(words, images, one, umin=lo, umax=hi))
