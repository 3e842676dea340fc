"""Tuple-monomial references the tests check the packed kernels against.

A series stores each monomial packed into one int, x_i's exponent in byte
i - 1 (gjvtau.exactalg.pack).  The references here spell a monomial as the
sorted tuple of its (index, exponent) pairs, as the public constructor's
terms do, and convert a packed int by their own base-256 arithmetic: they
share no code with the packed kernels, so a kernel checked against them is
not checked against itself.
"""


def mono_mul(a, b):
    """The product of two tuple monomials."""
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def mono_div_var(m, i):
    """m divided by x_i; the variable must be present."""
    acc = dict(m)
    if not acc.get(i):
        raise ValueError(f"monomial {m} not divisible by variable {i}")
    acc[i] -= 1
    if acc[i] == 0:
        del acc[i]
    return tuple(sorted(acc.items()))


def monomial_of(p):
    """The tuple monomial whose exponents are the base-256 digits of p."""
    pairs, i = [], 1
    while p:
        p, e = divmod(p, 256)
        if e:
            pairs.append((i, e))
        i += 1
    return tuple(pairs)


def packed_of(m):
    """The int whose base-256 digits are the exponents of the tuple monomial m."""
    return sum(e * 256 ** (i - 1) for i, e in m)


def tuple_rows(s):
    """s's rows, (monomial, weight, ((u-exp, n), ...)) in stored order, with
    each monomial as a tuple."""
    return [(monomial_of(p), w, r) for p, w, r in s.rows]
