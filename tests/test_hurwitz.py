"""Branched-cover counts: brute force against the cut-and-join evolution."""

import itertools
from fractions import Fraction

import pytest

from gjvtau.exactalg import TruncationError
from gjvtau.hurwitz import (
    HurwitzIndex,
    cutjoin_series,
    extract_hurwitz,
    h01_h02_closed_forms,
    hurwitz_bruteforce,
    hurwitz_closed_form,
    hurwitz_number,
    profiles,
)
from gjvtau.operators import Lambda

F = Fraction

# hand-countable covers; the two genus-1 entries pin the normalisation
ANCHORS = {
    (0, (1,)): F(1),
    (0, (2,)): F(1, 2),
    (0, (3,)): F(1, 3),
    (0, (4,)): F(1, 4),
    (0, (1, 1)): F(1),
    (0, (1, 2)): F(1),
    (0, (1, 1, 1)): F(6),
    (1, (1,)): F(0),
    (1, (2,)): F(1, 2),
    (1, (3,)): F(2),
}


def test_index_normalisation():
    idx = HurwitzIndex(0, (3, 1))
    assert idx.parts == (1, 3)
    assert (idx.d, idx.n, idx.m) == (4, 2, 1)
    assert idx.key() == (0, (1, 3))


@pytest.mark.parametrize("g,parts", sorted(ANCHORS))
def test_bruteforce_anchors(g, parts):
    assert hurwitz_bruteforce(HurwitzIndex(g, parts)) == ANCHORS[(g, parts)]


def test_part_order_is_immaterial():
    a = hurwitz_bruteforce(HurwitzIndex(1, (1, 2, 3)))
    b = hurwitz_bruteforce(HurwitzIndex(1, (3, 2, 1)))
    assert a == b


def test_profiles_are_bounded_and_in_grid_order():
    # polyfit rows follow this order, so it decides which profile an
    # inconsistent-system error names
    assert list(profiles(2, 4)) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    assert list(profiles(3, 3)) == [(1, 1, 1)]
    assert list(profiles(2, 1)) == []


def test_routes_agree_on_a_grid():
    series = cutjoin_series(5, 4)
    for n in range(1, 5):
        for parts in itertools.combinations_with_replacement(range(1, 6), n):
            if sum(parts) > 5:
                continue
            for g in (0, 1, 2):
                idx = HurwitzIndex(g, parts)
                if idx.m > 4:
                    continue
                assert extract_hurwitz(series, idx) == hurwitz_number(idx), idx


def test_series_layers_match_closed_forms():
    S = cutjoin_series(5, 3)
    h01, h02 = h01_h02_closed_forms(5)
    l0 = Lambda(0)
    assert S.u_layer(0) == l0.apply(l0.apply(h01)).u_layer(0)
    assert S.u_layer(2) == l0.apply(l0.apply(h02)).u_layer(2)


def test_series_has_even_u_powers_only():
    S = cutjoin_series(5, 3)
    assert all(e % 2 == 0 for c in S.terms.values() for e, _ in c.terms)


def test_brute_force_degree_cap():
    with pytest.raises(ValueError):
        hurwitz_bruteforce(HurwitzIndex(0, (5, 3)))


def test_extraction_beyond_trusted_order():
    S = cutjoin_series(5, 3)
    with pytest.raises(TruncationError):
        extract_hurwitz(S, HurwitzIndex(2, (1, 1)))  # needs beta^5


def test_memo_table_is_used(tmp_path):
    table = {}
    idx = HurwitzIndex(1, (2, 2))
    first = hurwitz_number(idx, table)
    # poison the table; a second lookup must come from it, not a recount
    table[idx.key()] = F(7)
    assert hurwitz_number(idx, table) == F(7)
    assert first != F(7)


def test_closed_form_matches_bruteforce():
    # Goulden-Jackson-Vakil's one-part double Hurwitz formula, on every
    # profile with n <= 4 parts and degree <= 6, genus <= 2, m <= 6
    cases = [HurwitzIndex(g, parts) for n in range(1, 5) for parts in profiles(n, 6)
             for g in range(3) if 2 * g - 1 + n <= 6]
    assert len(cases) == 74
    for idx in cases:
        assert hurwitz_closed_form(idx) == hurwitz_number(idx), idx
