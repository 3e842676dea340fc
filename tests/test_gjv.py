"""Change of variables, tau assemblies, and the two intersection routes."""

import json
import random
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from gjvtau.exactalg import (
    MONO_ONE,
    FamilyError,
    TruncatedSeries,
    UPOLY_ONE,
    UPOLY_ZERO,
    UPoly,
    band_for_weight,
    mono,
    mono_key,
    mono_str,
    mono_var,
    mono_weight,
)
from gjvtau import cli, gjv, hurwitz, operators
from gjvtau.gjv import (
    IntersectionNumber,
    assemble_tau_exponential,
    assemble_tau_from_g,
    build_tbasis,
    change_of_variables,
    extract_G,
    extract_intersections_polyfit,
    extract_intersections_tbasis,
    faber_pandharipande,
    hurwitz_grid,
    intersection_F,
    lambda_g_mismatches,
    tau_route_reports,
    tbasis_records,
    verify_lambda_square,
    verify_proposition,
    verify_second_derivative,
    verify_string,
)
from gjvtau.cli import INTERSECTION_GRIDS, main
from gjvtau.operators import CutJoin, Lambda, Sum, scaled
from gjvtau.report import FAIL
from gjvtau.hurwitz import (
    DCAP_HARD,
    HurwitzIndex,
    cutjoin_series,
    extract_hurwitz,
    h01_h02_closed_forms,
    hurwitz_number,
)

F = Fraction


def test_tbasis_table():
    t = build_tbasis(3, 6)
    assert [str(x) for x in t] == [
        "q1",
        "u*q1 + q2",
        "u^2*q1 + 3*u*q2 + 2*q3",
        "u^3*q1 + 7*u^2*q2 + 12*u*q3 + 6*q4",
    ]


def test_tbasis_needs_room():
    with pytest.raises(ValueError):
        build_tbasis(6, 6)  # T_6 starts at q7


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


def test_variable_image():
    p1 = TruncatedSeries.variable("p", 3, 1)
    assert str(change_of_variables(p1)) == "u^-1*q1 + (-u^-2)*q2 + u^-3*q3"


def test_u_times_full_sum_collapses():
    allp = sum(
        (TruncatedSeries.variable("p", 3, i) for i in (1, 2, 3)),
        TruncatedSeries.zero("p", 3),
    ).scale(UPoly.u(1))
    assert str(change_of_variables(allp)) == "q1"


def test_change_rejects_wrong_family():
    with pytest.raises(FamilyError):
        change_of_variables(TruncatedSeries.variable("q", 3, 1))


# the operator change_of_variables exponentiates: -X, with X = Lambda_1/u
X_PARTS = ((UPoly.u(-1, -1), Lambda(1)),)


def _rename_shift_off_by_one(s):
    """The renamed series at u^(e-w+1) instead of u^(e-w)."""
    return s._with([(m, w, tuple((e + 1, n) for e, n in r)) for m, w, r in s.rows])


@pytest.mark.parametrize("fault", [
    pytest.param(lambda op, s: (op, _rename_shift_off_by_one(s)), id="rename_shift_off_by_one"),
    pytest.param(lambda op, s: (scaled(Lambda(1), UPoly.u(-1)), s), id="x_sign_flipped"),
])
def test_planted_change_of_variables_fault_fails_by_name(tmp_path, monkeypatch, fresh_memos,
                                                         fresh_records, fault):
    real = gjv.exponential_apply

    def faulty(op, s, **kw):
        if isinstance(op, operators.Sum) and op.parts == X_PARTS:
            op, s = fault(op, s)
        return real(op, s, **kw)
    monkeypatch.setattr(gjv, "exponential_apply", faulty)
    assert main(["verify", "--W", "8", "--out", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "verify.json").read_text())
    failed = {r["check"] for r in rows if r["status"] == FAIL}
    # g_structure reports the residue error as its verdict; the other entries
    # that read the T-basis records end in that error, so they are not required
    assert {"hurwitz_anchor_images", "tau_routes_c0", "tau_routes_c1",
            "tau_routes_c2", "g_structure"} <= failed


def _verify_w8_statuses(tmp_path) -> dict:
    assert main(["verify", "--W", "8", "--out", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "verify.json").read_text())
    return {r["check"]: r["status"] for r in rows}


TAU_ROUTES = {"tau_routes_c0", "tau_routes_c1", "tau_routes_c2"}
# the reports of f_identities, g_structure and intersections_routes, the
# entries that read the T-basis records of G
TBASIS_REPORTS = {"string_equation", "lambda_square", "q1_second_derivative",
                  "g_structure", "intersections_routes"}


def test_planted_head_fault_fails_the_tau_routes_only(tmp_path, monkeypatch, fresh_memos,
                                                      fresh_records):
    # a head with q1^2 twice over: G does not read the head, so the T-basis
    # entries stay healthy and only the assembly that adds it back fails
    real = gjv._tau_head

    def faulty(W, lo, hi):
        return real(W, lo, hi) + TruncatedSeries.monomial(
            "q", W, mono((1, 2)), umin=lo, umax=hi)
    monkeypatch.setattr(gjv, "_tau_head", faulty)
    status = _verify_w8_statuses(tmp_path)
    assert {name for name, st in status.items() if st == FAIL} >= TAU_ROUTES
    assert {name: status.get(name) for name in TBASIS_REPORTS} == dict.fromkeys(
        TBASIS_REPORTS, "pass")


def _order_one_image(W):
    """change_of_variables of Lambda_0^-2 applied to order 1 of the count
    series, its u^2 layer: the image of the h02 leg."""
    leg = cutjoin_series(W, 1).u_layer(2)
    return change_of_variables(TruncatedSeries(
        "p", W, {m: UPoly.u(2, c.coeff(0) / mono_weight(m) ** 2) for m, c in leg.terms.items()},
        umin=0, umax=2))


def test_planted_unstable_part_fault_fails_the_tau_routes(tmp_path, monkeypatch,
                                                          fresh_memos, fresh_records):
    # G keeps the image of the h02 leg, as if extract_G dropped order 0 of the
    # count series only: extract_G, in gjv for the records (built at W' = 7)
    # and in the cli for the tau routes, returns the healthy G plus that image
    real = gjv.extract_G

    def faulty(W, Mmax):
        return real(W, Mmax) + _order_one_image(W)
    monkeypatch.setattr(gjv, "extract_G", faulty)
    monkeypatch.setattr(cli, "extract_G", faulty)
    status = _verify_w8_statuses(tmp_path)
    assert {name for name, st in status.items() if st == FAIL} >= TAU_ROUTES | {
        "g_structure"}


def test_planted_entry_with_no_integer_genus_fails_g_structure_by_name(
        tmp_path, monkeypatch, fresh_memos, fresh_records):
    # u/13 on q5 asks for <tau_4>_g with 4g = 0 + 4 + 3 - 1: no whole genus.
    # The reduction names the entry, as it names an even power of u, so
    # g_structure reports it as its verdict instead of crashing
    real = gjv.extract_G

    def faulty(W, Mmax):
        return perturbed(real(W, Mmax), mono_var(5), UPoly.u(1, F(1, 13)))
    monkeypatch.setattr(gjv, "extract_G", faulty)
    assert main(["verify", "--W", "8", "--out", str(tmp_path)]) == 1
    rows = {r["check"]: r for r in json.loads((tmp_path / "verify.json").read_text())}
    row = rows["g_structure"]
    assert (row["status"], row["reliable_weight"]) == (FAIL, 8)
    assert row["error"] == "residue not expressible in T-monomials: q5 carries u^1"


# ---------------------------------------------------------------------------
# G and the two tau assemblies
# ---------------------------------------------------------------------------


def test_extract_G_bookkeeping():
    assert extract_G(6, 4).u_hi == 2
    assert extract_G(8, 5).u_hi == 2


def two_build_G(W, Mmax):
    """Reference: G from H less a second count series of orders 0 and 1."""
    H = cutjoin_series(W, Mmax)
    stable = (H - cutjoin_series(W, 1)).with_u_hi(H.u_hi)
    scale = lcm(*(w * w for _, w, _ in stable.rows))
    rows = [(m, w, tuple((e, n * (scale // (w * w))) for e, n in r))
            for m, w, r in stable.rows]
    return change_of_variables(stable._with(rows, stable.den * scale)).with_reliable(W)


def _layout(s):
    return (s.family, s.W, s.den, s.umin, s.umax, s.reliable, s.u_hi, s.rows)


@pytest.mark.parametrize("W", range(3, 17))
def test_extract_G_matches_the_two_build_reference(W):
    # dropping H's layers u^0 and u^2 is subtracting its orders 0 and 1: the
    # same rows, denominator, band and bookkeeping
    for Mmax in sorted({1, 2, 3, (W + 1) // 2, W // 2 + 1, W + 1, W + 3}):
        assert _layout(extract_G(W, Mmax)) == _layout(two_build_G(W, Mmax)), Mmax


def test_extract_G_builds_one_count_series(monkeypatch):
    calls = []
    real = gjv.cutjoin_series

    def spy(W, Mmax):
        calls.append((W, Mmax))
        return real(W, Mmax)
    monkeypatch.setattr(gjv, "cutjoin_series", spy)
    extract_G(9, 6)
    assert calls == [(9, 6)]


@pytest.mark.parametrize("W, Mmax", [(8, 5), (14, 8)])
def test_extract_G_is_one_change_of_variables(monkeypatch, W, Mmax):
    # Mmax orders of the cut-and-join exponential; W - 1 orders of
    # exp(-Lambda_1/u) in the change of variables, on a series that starts at
    # weight 2: Mmax + W - 1 stencil passes over rows, and no series product
    calls = {"pass": 0, "mul": 0}
    rows_pass, mul = operators._stencil_rows, TruncatedSeries.mul

    def counting_pass(*a):
        calls["pass"] += 1
        return rows_pass(*a)

    def counting_mul(self, other, **kw):
        calls["mul"] += 1
        return mul(self, other, **kw)

    monkeypatch.setattr(operators, "_stencil_rows", counting_pass)
    monkeypatch.setattr(TruncatedSeries, "mul", counting_mul)
    extract_G(W, Mmax)
    assert calls == {"pass": Mmax + W - 1, "mul": 0}


@pytest.mark.parametrize("W", range(3, 13))
def test_G_solves_its_defining_equation(W):
    # the c = 0 assembly, head + (Lambda_0 + Lambda_1/u)^2 G, is the change of
    # variables of the whole count series, on every stored row and not only
    # where G is complete
    for Mmax in sorted({1, 2, W // 2 + 1, W + 1}):
        G = extract_G(W, Mmax)
        want = change_of_variables(cutjoin_series(W, Mmax))
        assert assemble_tau_from_g(UPOLY_ZERO, G) == want, Mmax
        assert (G.umin, G.umax, G.reliable, G.u_hi) == (
            -(W + 2), max(W + 2, 2 * Mmax), W, 2 * Mmax - W), Mmax


@pytest.mark.parametrize("W", range(3, 15))
def test_G_entries_sit_at_even_weight_plus_u_exponent(W):
    # H sits at u^(2k), the rename sends (w, e) to (w, e - w) and
    # exp(-Lambda_1/u) keeps w + e: an entry's w + e is twice its cut-and-join
    # order, so at Mmax = (W + 1) // 2 all of G lies in the T-basis reduction's
    # emit region w + e <= W + 1
    for Mmax in sorted({1, 2, (W + 1) // 2, W // 2 + 1, W + 1}):
        sums = {w + e for _, w, r in extract_G(W, Mmax).rows for e, _ in r}
        assert all(x % 2 == 0 for x in sums), (Mmax, sums)
        if Mmax == (W + 1) // 2:
            assert max(sums) <= W + 1, sums


@pytest.mark.parametrize("W", range(2, 7))
def test_unstable_part_is_the_two_brute_force_legs(W):
    # orders 0 and 1 of the cut-and-join exponential are Lambda_0^2 (h01 + h02)
    h01, h02 = h01_h02_closed_forms(W)
    l0 = Lambda(0)
    assert cutjoin_series(W, 1) == l0.apply(l0.apply(h01 + h02))


def test_extract_G_is_stable_in_Mmax():
    # entries on the certified diagonal w + e <= 2*Mmax must not move
    a, b = extract_G(6, 4), extract_G(6, 7)
    for m, c in a.terms.items():
        w = sum(i * e for i, e in m)
        for exp, val in c.terms:
            if w + exp <= 8:
                assert b.coefficient_of(m).coeff(exp) == val, (m, exp)


@pytest.mark.parametrize("c", [UPOLY_ZERO, UPOLY_ONE, UPoly.parse("u^-1+2")])
def test_tau_routes_agree(c):
    (rep,) = tau_route_reports((c,), 6)
    assert rep.status == "pass"
    assert rep.reliable_weight == 6


def test_tau_routes_agree_when_c_reaches_above_the_band():
    # u^9 and u^10 lie above the W = 6 band top u^8, where G is not complete,
    # so both routes are compared below that top
    W = 6
    G = extract_G(W, W + 1)
    for c in (UPoly.u(W + 3), UPoly.parse("u^10 + 1")):
        assert tau_route_reports((c,), W, G=G)[0].status == "pass", c
        planted = G + TruncatedSeries.monomial("q", W, mono_var(2), UPoly.u(1, F(1, 7)),
                                               umin=G.umin, umax=G.umax)
        assert tau_route_reports((c,), W, G=planted)[0].status == "fail", c


def _draw_c(rng, W):
    """A nonzero c(u) of one to three terms, inside the band [-(W+2), W+2]."""
    exps = rng.sample(range(-(W + 2), W + 3), rng.randint(1, 3))
    return UPoly({e: F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7])) for e in exps})


def _tau_builders(W):
    G = extract_G(W, W + 1)
    return {
        "exponential": lambda c: assemble_tau_exponential(c, W),
        "from_g": lambda c: assemble_tau_from_g(c, G),
        "cutjoin": lambda c: cutjoin_series(W, cli.DEFAULT_MMAX, c),
        "linear": lambda c: cli._tau("linear", c, W, cli.DEFAULT_MMAX),
    }


@pytest.mark.parametrize("W", range(4, 11))
def test_taus_are_affine_in_c(W):
    # every operator in exp(M2 + 2uM1 + u^2 M0), in Lambda_0 + Lambda_1/u and
    # in u^2 M0 kills constants, so tau_c is tau_0 in the band widened to c,
    # plus c: the same rows, denominator, band and bookkeeping.  The draws
    # stay inside the band: a c above u^(W+2) widens the closed form's band,
    # and the closed form then keeps more of tau_0 instead of clipping it at
    # W + 2.  tau_route_reports clips both routes at W + 2, so its residual is
    # the c = 0 one for every c, and the battery's VERIFY_C choices certify
    # no more than c = 0 does.
    rng = random.Random(W)
    for name, build in _tau_builders(W).items():
        tau0 = build(UPOLY_ZERO)
        for _ in range(6):
            c = _draw_c(rng, W)
            lo, hi = min(tau0.umin, c.min_exp()), max(tau0.umax, c.max_exp())
            want = tau0.with_band(lo, hi) + TruncatedSeries.const(
                tau0.family, W, c, umin=lo, umax=hi)
            assert _layout(build(c)) == _layout(want), (name, str(c))


def direct_closed_form(c, W):
    """exp(M2 + 2uM1 + u^2 M0) applied to c + q1/u itself, in the default
    band widened to c."""
    lo, hi = band_for_weight(W)
    if c:
        lo, hi = min(lo, c.min_exp()), max(hi, c.max_exp())
    seed = TruncatedSeries("q", W, {mono_var(1): UPoly.u(-1), MONO_ONE: c}, umin=lo, umax=hi)
    closed = Sum(CutJoin(2), scaled(CutJoin(1), UPoly.u(1, 2)), scaled(CutJoin(0), UPoly.u(2)))
    return operators.exponential_apply(closed, seed)


@pytest.mark.parametrize("W", range(4, 13))
def test_closed_form_tau_is_c_plus_the_memoised_tau0(W, fresh_memos):
    # the choices in VERIFY_C leave the band alone; u^(W + 4) widens it, and
    # tau_0 is then formed in the widened band
    for c in (*cli.VERIFY_C, UPoly.parse(f"u^{W + 4} + 1")):
        got, want = assemble_tau_exponential(c, W), direct_closed_form(c, W)
        assert (got.family, got.W, got.den, got.umin, got.umax, got.reliable, got.u_hi) == \
            (want.family, want.W, want.den, want.umin, want.umax, want.reliable, want.u_hi)
        assert {m: (w, r) for m, w, r in got.rows} == {m: (w, r) for m, w, r in want.rows}


def test_tau_assemblies_share_the_singular_head():
    tau = assemble_tau_exponential(UPOLY_ZERO, 5)
    assert tau.coefficient_of(mono_var(1)).coeff(-1) == 1
    alt = assemble_tau_from_g(UPOLY_ZERO, extract_G(5, 6))
    assert alt.coefficient_of(mono_var(1)).coeff(-1) == 1


# ---------------------------------------------------------------------------
# intersection records
# ---------------------------------------------------------------------------

# complete extraction at W=8; genus 2 appears through the u^5 layer
RECORDS_W8 = {
    (0, (0, 0, 0)): F(1),
    (0, (0, 0, 0, 1)): F(1),
    (0, (0, 0, 0, 0, 2)): F(1),
    (0, (0, 0, 0, 1, 1)): F(2),
    (0, (2,)): F(1, 24),
    (1, (0,)): F(1, 24),
    (0, (0, 3)): F(1, 24),
    (0, (1, 2)): F(1, 24),
    (1, (0, 1)): F(1, 24),
    (0, (0, 0, 4)): F(1, 24),
    (0, (0, 1, 3)): F(1, 12),
    (0, (0, 2, 2)): F(1, 12),
    (0, (1, 1, 2)): F(1, 12),
    (1, (0, 0, 2)): F(1, 24),
    (1, (0, 1, 1)): F(1, 12),
    (0, (6,)): F(1, 1920),
    (1, (4,)): F(1, 576),
    (2, (2,)): F(7, 5760),
}


def test_tbasis_extraction_full_table():
    got = {(r.j, r.degrees): r.value for r in
           extract_intersections_tbasis(extract_G(8, 5))}
    assert got == RECORDS_W8


def greedy_tbasis(G):
    """Reference: the greedy reduction, one T-monomial block per step for the
    residue's highest monomial, each block multiplied out from the constant;
    entries beyond the emit region are dropped and form no block.  Returns
    the records and the monomials visited, in order."""
    W = G.W
    basis = build_tbasis(W - 1, W)
    residue = G
    records, visited = [], []
    while residue:
        m, coef = max(residue.terms.items(), key=lambda mc: mono_key(mc[0]))
        # an entry beyond the emit region is dropped with no block
        beyond = UPoly({e: v for e, v in coef.terms if e + mono_weight(m) - 1 > G.reliable})
        residue = residue - TruncatedSeries.monomial("q", W, m, beyond, umin=G.umin,
                                                     umax=G.umax)
        coef = coef + beyond.scale(-1)
        if not coef:
            continue
        visited.append(m)
        ks = tuple(sorted(i - 1 for i, e in m for _ in range(e)))
        c_k = coef.scale(Fraction(1, prod(factorial(k) for k in ks)))
        block = TruncatedSeries.const("q", W, UPOLY_ONE, umin=G.umin, umax=G.umax)
        for k in ks:
            block = block.mul(basis[k], umin=G.umin, umax=G.umax)
        residue = residue - block.scale(c_k)
        aut = prod(factorial(ks.count(k)) for k in set(ks))
        for exp, val in c_k.terms:
            if exp < 1 or exp % 2 == 0:
                raise ArithmeticError(
                    f"residue not expressible in T-monomials: {mono_str(m)} "
                    f"carries u^{exp}"
                )
            j = (exp - 1) // 2
            records.append(IntersectionNumber(j, ks, (-1) ** j * val * aut))
    return sorted(records, key=gjv._record_sort_key), visited


def perturbed(G, m, coef):
    return G + TruncatedSeries.monomial("q", G.W, m, coef, umin=G.umin, umax=G.umax)


def outcome(reduce, G):
    try:
        return reduce(G)
    except ArithmeticError as e:
        return str(e)


@pytest.mark.parametrize("W", [*range(4, 12), 13])
def test_layer_reduction_matches_the_greedy_one(W):
    G = extract_G(W, W // 2 + 1)
    assert extract_intersections_tbasis(G) == greedy_tbasis(G)[0]
    # one perturbed entry: on q1^3 it moves <tau_0^3> and nothing else; on
    # q1*q2 its block carries u^4 onto q1^2, an error once that is in the
    # emit region (W >= 5); on q2*q3*q4, whose word (1, 2, 3) has
    # prod(k_i!) = 12, its layer scales the residue below it, and its block
    # carries u^4 onto q1*q3*q4, an error once that is in the region (W >= 11)
    off_unit = mono((2, 1), (3, 1), (4, 1))
    for m, coef in ((mono((1, 3)), UPoly.u(1, F(1, 7))),
                    (mono((1, 1), (2, 1)), UPoly.u(3, F(1, 7))),
                    (off_unit, UPoly.u(3, F(5, 11)))):
        if mono_weight(m) > W:
            continue
        bad = perturbed(G, m, coef)
        got = outcome(extract_intersections_tbasis, bad)
        assert got == outcome(lambda g: greedy_tbasis(g)[0], bad)
        if m == off_unit and W < 11:
            assert isinstance(got, list), W
        elif m == off_unit:
            assert got.endswith("q1*q3*q4 carries u^4"), W


def test_even_u_power_raises_inside_the_emit_region_only():
    G = extract_G(8, 5)
    bad = perturbed(G, mono((1, 1), (2, 1)), UPoly.u(2, F(1, 7)))
    for reduce in (extract_intersections_tbasis, greedy_tbasis):
        with pytest.raises(ArithmeticError, match=r"q1\*q2 carries u\^2"):
            reduce(bad)
    # with reliable weight 3, u^2 on a weight-3 monomial lies outside the
    # region 2 + 3 - 1 <= 3 and is dropped
    got = extract_intersections_tbasis(bad.with_reliable(3))
    assert got == greedy_tbasis(bad.with_reliable(3))[0]
    assert got == extract_intersections_tbasis(G.with_reliable(3))


@pytest.mark.parametrize("W", range(7, 14))
def test_entries_beyond_the_emit_region_form_no_block(W):
    # u^(W+1)/2 on q3 sits at weight + u-exponent W + 4, beyond the emit
    # region w + e <= W + 1; every T-product keeps w + e, so its block could
    # not reach the region, and subtracting it would leave G's band
    G = extract_G(W, W // 2 + 1)
    planted = perturbed(G, mono_var(3), UPoly.u(W + 1, F(1, 2)))
    assert extract_intersections_tbasis(planted) == extract_intersections_tbasis(G)
    assert extract_intersections_tbasis(planted) == greedy_tbasis(planted)[0]


def test_layer_reduction_folds_each_layer_once(monkeypatch):
    # entries beyond the emit region form no block, so no prefix of theirs
    for W, Mmax, products in ((10, 6, 47), (13, 7, 184), (14, 8, 184)):
        G = extract_G(W, Mmax)
        _, visited = greedy_tbasis(G)
        words = {tuple(i - 1 for i, e in m for _ in range(e)) for m in visited}
        # all layers' blocks share one prefix memo; each distinct prefix is
        # one convolve, and the residue is summed with no series built
        prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
        assert len(prefixes) == products
        basis = build_tbasis(W - 1, W)
        calls = dict.fromkeys(["convolve", "mul", "add_scaled", "__sub__", "scale"], 0)
        with monkeypatch.context() as mp:
            mp.setattr(gjv, "build_tbasis", lambda K, W: basis)

            def counting_convolve(*a, _f=gjv.convolve, **kw):
                calls["convolve"] += 1
                return _f(*a, **kw)
            mp.setattr(gjv, "convolve", counting_convolve)
            for name in list(calls)[1:]:
                def counting(self, *a, _name=name, _f=getattr(TruncatedSeries, name), **kw):
                    calls[_name] += 1
                    return _f(self, *a, **kw)
                mp.setattr(TruncatedSeries, name, counting)
            extract_intersections_tbasis(G)
        assert calls == {"convolve": products, "mul": 0, "add_scaled": 0, "__sub__": 0,
                         "scale": 0}, W


def full_build_records(W):
    """Reference: the records reduced off G at W itself and order W // 2 + 1,
    one weight layer and, at even W, one cut-and-join order more than any
    record reads."""
    return tuple(extract_intersections_tbasis(extract_G(W, W // 2 + 1)))


@pytest.mark.parametrize("W", range(4, 17))
def test_tbasis_records_match_the_full_build(W, fresh_records):
    records = tbasis_records(W)
    assert records == full_build_records(W)
    # 2j + sum d = 4g - 3 + n, so 2j + w = 4g - 3 + 2n with w = sum(d_i + 1)
    assert all((2 * r.j + sum(r.degrees) + r.n) % 2 == 1 for r in records)


def test_tbasis_records_build_one_G_at_the_odd_weight(monkeypatch, fresh_records):
    calls = []
    real = gjv.extract_G

    def spy(W, Mmax):
        calls.append((W, Mmax))
        return real(W, Mmax)
    monkeypatch.setattr(gjv, "extract_G", spy)
    tbasis_records(14)
    assert calls == [(13, 7)]


def test_lambda_g_records_match_faber_pandharipande():
    # b_1, b_2, b_3 are the values <tau_{2g-2} lambda_g>_g of the literature
    assert [faber_pandharipande(g, (2 * g - 2,)) for g in (1, 2, 3)] == [
        F(1, 24), F(7, 5760), F(31, 967680)]
    records = tbasis_records(10)
    anchored = [r for r in records if r.j == r.g >= 1]
    assert len(anchored) == 10 and {r.g for r in anchored} == {1, 2}
    assert lambda_g_mismatches(records) == []
    bad = IntersectionNumber(anchored[-1].j, anchored[-1].degrees,
                             anchored[-1].value + F(1, 5760))
    assert lambda_g_mismatches([*records, bad]) == [bad]


def test_record_validation():
    r = IntersectionNumber(0, (1, 0, 0, 0), F(1))
    assert r.degrees == (0, 0, 0, 1)
    assert (r.g, r.n) == (0, 4)
    with pytest.raises(ValueError):
        IntersectionNumber(0, (1, 1), F(1))  # 2j + sum(d) + 3 - n not div by 4


def test_polyfit_route():
    grid = hurwitz_grid(0, 3, dmax=6)
    recs = extract_intersections_polyfit(0, 3, grid, dmax=6)
    assert [(r.j, r.degrees, r.value) for r in recs] == [(0, (0, 0, 0), F(1))]


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2)])
def test_routes_cross_check(g, n):
    # the cli fits at one count degree; any from 4 to 8 gives the same
    # records, each one the T-basis reduction gives at W = 12
    fits = [{r.key(): r.value for r in extract_intersections_polyfit(
        g, n, hurwitz_grid(g, n, dmax=degree), dmax=degree)} for degree in range(4, 9)]
    by_fit = fits[0]
    assert by_fit and all(fit == by_fit for fit in fits)
    tbasis = {r.key(): r.value for r in tbasis_records(12)}
    assert all(tbasis[key] == val for key, val in by_fit.items())
    for key, val in by_fit.items():
        if key in RECORDS_W8:
            assert RECORDS_W8[key] == val, key


def test_grids_match_bruteforce_and_series():
    # the closed form fills every grid; the two older count sources stay the
    # reference wherever they reach
    for g, n in INTERSECTION_GRIDS:
        series = cutjoin_series(8, 2 * g - 1 + n)
        grid = hurwitz_grid(g, n, dmax=8)
        assert grid
        for (_, parts), h in grid.items():
            idx = HurwitzIndex(g, parts)
            assert h == extract_hurwitz(series, idx), idx
            if idx.d <= DCAP_HARD:
                assert h == hurwitz_number(idx), idx


def test_grids_use_neither_bruteforce_nor_series(monkeypatch):
    def crash(*args, **kwargs):
        raise AssertionError("a grid count left the closed form")

    want = {(g, n): hurwitz_grid(g, n, dmax=8) for g, n in INTERSECTION_GRIDS}
    monkeypatch.setattr(hurwitz, "hurwitz_bruteforce", crash)
    monkeypatch.setattr(gjv, "cutjoin_series", crash)
    assert {(g, n): hurwitz_grid(g, n, dmax=8) for g, n in INTERSECTION_GRIDS} == want


def test_polyfit_underdetermined():
    with pytest.raises(ValueError, match="underdetermined"):
        extract_intersections_polyfit(1, 2, hurwitz_grid(1, 2, dmax=3), dmax=3)


def test_polyfit_inconsistent():
    grid = dict(hurwitz_grid(0, 3, dmax=6))
    k = next(iter(grid))
    grid[k] = grid[k] + 1
    with pytest.raises(ValueError, match="inconsistent"):
        extract_intersections_polyfit(0, 3, grid, dmax=6)


# ---------------------------------------------------------------------------
# the generating series and its identities
# ---------------------------------------------------------------------------


def test_F_head():
    Fser = intersection_F(8)
    assert Fser.coefficient_of(mono((1, 3))) == UPoly.const(F(1, 6))
    assert Fser.coefficient_of(mono((3, 1))) == UPoly.const(F(1, 12))
    assert Fser.coefficient_of(mono((1, 1), (2, 1))) == UPOLY_ZERO
    assert Fser.coefficient_of(mono((1, 4))) == UPOLY_ZERO


def test_identities_at_W8():
    Fser = intersection_F(8)
    string = verify_string(Fser)
    assert (string.status, string.reliable_weight) == ("pass", 7)
    lsq = verify_lambda_square(Fser)
    assert (lsq.status, lsq.reliable_weight) == ("pass", 8)
    dd = verify_second_derivative(Fser)
    assert (dd.status, dd.reliable_weight) == ("pass", 6)


def test_identities_catch_corruption():
    Fser = intersection_F(6) + TruncatedSeries.monomial(
        "q", 6, mono((2, 2)), UPoly.const(F(1, 97))
    )
    assert verify_string(Fser).status == "fail"
    assert verify_string(Fser).first_failure is not None


# ---------------------------------------------------------------------------
# the derivative proposition
# ---------------------------------------------------------------------------


def test_proposition_low_n_passes():
    for n in (1, 2, 3):
        rep = verify_proposition(n, 8)
        assert rep.status == "pass", (n, rep.first_failure)


def test_proposition_n4_fails_with_witness():
    rep = verify_proposition(4, 8)
    assert rep.status == "fail"
    assert rep.first_failure == "q3"
    assert rep.detail["first_coefficient"] == "3"


def test_proposition_n5_fails_with_witness():
    rep = verify_proposition(5, 8)
    assert rep.status == "fail"
    assert rep.first_failure == "1"
    assert rep.detail["first_coefficient"] == "5"


def test_proposition_precondition():
    with pytest.raises(ValueError):
        verify_proposition(5, 6)
