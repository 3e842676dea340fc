"""Acceptance battery: ten criteria, one test and one printed verdict each.

Everything is exact rational arithmetic, so every comparison below is exact
equality; runtime bounds are asserted where the criterion names one and the
measured time is printed either way.  Criterion 7 checks the derivative
proposition in the form that holds: for the linear (cut) part of M2 it holds
for every n = 1..5, and for the full M2 it holds for n <= 3 and fails at
n = 4 and 5 with the hand-derived residuals 3*q3 and 5, both asserted.  The
README discusses the finding.
"""

import itertools
import time
from fractions import Fraction

from gjvtau.exactalg import TruncatedSeries, UPOLY_ONE, UPOLY_ZERO, UPoly, mono
from gjvtau.gjv import (
    IntersectionNumber,
    assemble_tau_exponential,
    assemble_tau_from_g,
    build_tbasis,
    change_of_variables,
    exp_join_of_q1,
    extract_G,
    extract_intersections_polyfit,
    extract_intersections_tbasis,
    hurwitz_grid,
    intersection_F,
    verify_lambda_square,
    verify_proposition,
    verify_second_derivative,
    verify_string,
)
from gjvtau.hirota import KP1, T_CONVENTION, check_kp, check_linearized_kp, hirota_apply, to_hirota_vars
from gjvtau.hurwitz import (
    HurwitzIndex,
    cutjoin_series,
    extract_hurwitz,
    h01_h02_closed_forms,
    hurwitz_number,
)
from gjvtau.operators import (
    Compose,
    CutJoin,
    Lambda,
    Partial,
    Sum,
    commutator,
    exponential_apply,
    linear_part,
    n_partial,
    ops_equal,
    scaled,
    verify_commutators,
    verify_conjugations,
    verify_O_operators,
)
from gjvtau.report import residual_report

F = Fraction


def verdict(num, ok, t0, note=""):
    secs = time.perf_counter() - t0
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {tag} ({secs:.2f}s){'  ' + note if note else ''}")
    return secs


def test_criterion_01_tbasis_table():
    t0 = time.perf_counter()
    got = [str(x) for x in build_tbasis(3, 6)]
    ok = got == [
        "q1",
        "u*q1 + q2",
        "u^2*q1 + 3*u*q2 + 2*q3",
        "u^3*q1 + 7*u^2*q2 + 12*u*q3 + 6*q4",
    ]
    secs = verdict(1, ok, t0)
    assert ok, got
    assert secs < 1.0


def test_criterion_02_commutators_W10():
    t0 = time.perf_counter()
    res = verify_commutators(10)
    needed = ["m0_l1_is_2m1", "m1_l1_is_m2", "m2_l1_is_zero",
              "l0_l1_is_l1", "d1_m2_is_l1"]
    ok = all(res[k] for k in needed)
    secs = verdict(2, ok, t0)
    assert ok, res
    assert secs < 10.0


def test_criterion_03_conjugations_W8():
    t0 = time.perf_counter()
    res = verify_conjugations(8)
    ok = all(res.values())
    verdict(3, ok, t0)
    assert ok, res


def test_criterion_04_hurwitz_routes():
    t0 = time.perf_counter()
    series = cutjoin_series(5, 5)
    ok = True
    for n in range(1, 6):
        for parts in itertools.combinations_with_replacement(range(1, 6), n):
            if sum(parts) > 5:
                continue
            g = 0
            while 2 * g - 1 + n <= 5:
                idx = HurwitzIndex(g, parts)
                ok = ok and extract_hurwitz(series, idx) == hurwitz_number(idx)
                g += 1
    for d in range(1, 6):
        ok = ok and hurwitz_number(HurwitzIndex(0, (d,))) == F(1, d)
    h01, h02 = h01_h02_closed_forms(5)
    l0 = Lambda(0)
    img1 = change_of_variables(l0.apply(l0.apply(h01)))
    img2 = change_of_variables(l0.apply(l0.apply(h02)))
    ok = ok and img1 == TruncatedSeries("q", 5, {mono((1, 1)): UPoly.u(-1)})
    ok = ok and img2 == TruncatedSeries(
        "q", 5, {mono((1, 1), (2, 1)): UPoly.u(-1), mono((1, 2)): UPOLY_ONE}
    )
    secs = verdict(4, ok, t0)
    assert ok
    assert secs < 300.0


def test_criterion_05_tau_assemblies_agree():
    t0 = time.perf_counter()
    W = 8
    G = extract_G(W, W + 1)  # complete on the whole band box w<=8, e<=10
    ok = True
    for c in (UPOLY_ZERO, UPOLY_ONE, UPoly.parse("u^-1+2")):
        t1 = assemble_tau_from_g(c, G).clip_u_above(W + 2)
        t2 = assemble_tau_exponential(c, W)
        ok = ok and t1 == t2
    secs = verdict(5, ok, t0)
    assert ok
    assert secs < 120.0


def test_criterion_06_generating_series_identities():
    t0 = time.perf_counter()
    Fser = intersection_F(10)
    reps = [verify_lambda_square(Fser), verify_string(Fser),
            verify_second_derivative(Fser)]
    ok = all(r.status == "pass" and r.reliable_weight >= 8 for r in reps)
    verdict(6, ok, t0, note=" ".join(f"{r.name}:{r.reliable_weight}" for r in reps))
    assert ok, [(r.name, r.status, r.reliable_weight) for r in reps]


def test_criterion_07_proposition_suite():
    # n d/dq_n e^M q1 = Lambda(2-n) e^M q1 + e^M q1^(n-1) rests on the bracket
    # [n d/dq_n, M] = n Lambda(2-n), which holds for the cut part C of M2 at
    # every n.  For the full M2 the join sum adds
    # (n/2) Sum_{i+j=n-2} ij d/dq_i d/dq_j, nonzero from n = 4 on.  By hand:
    # E = exp(M2) q1 has weight-5 part q1*q2^2 + q1^2*q3 + q5 (q5 from the
    # join acting on q1*q2), so 5 d/dq_5 E has the constant 5 that the
    # right-hand side lacks; its weight-7 part holds 2*q3*q4 + q1^3*q4, so
    # 4 d/dq_4 E reads 8*q3 + 4*q1^3 at weight 3 against 5*q3 + 4*q1^3 on the
    # right: residual 3*q3.
    t0 = time.perf_counter()
    W = 10
    witnesses = {4: ("q3", "3"), 5: ("1", "5")}
    C = linear_part(CutJoin(2))
    e_cut = exponential_apply(C, TruncatedSeries.variable("q", W, 1))
    notes = []
    ok = True
    for n in range(1, 6):
        # (a) the linear part: the proposition and its bracket, for all n
        power = TruncatedSeries.monomial(
            "q", W, mono((1, n - 1)) if n > 1 else (), UPOLY_ONE)
        lin = residual_report(
            f"linear_n{n}",
            e_cut.partial(n).scale(n) - Lambda(2 - n).apply(e_cut)
            - exponential_apply(C, power))
        ok = ok and lin.status == "pass" and lin.reliable_weight == W - n
        ok = ok and ops_equal(commutator(n_partial(n), C),
                              scaled(Lambda(2 - n), n), W=W, headroom=n)

        # (b) the full operator: the bracket is n Lambda(2-n) plus the join
        # correction, so the proposition holds up to n = 3 only
        join = [scaled(Compose(Partial(i), Partial(n - 2 - i)), F(n * i * (n - 2 - i), 2))
                for i in range(1, n - 2)]
        ok = ok and ops_equal(commutator(n_partial(n), CutJoin(2)),
                              Sum(scaled(Lambda(2 - n), n), *join), W=W, headroom=n)
        rep = verify_proposition(n, W)
        facts = verify_O_operators(n, W)
        if n <= 3:
            ok = ok and rep.status == "pass" and all(facts.values())
        else:
            got = (rep.first_failure, rep.detail.get("first_coefficient"))
            notes.append(f"n={n}: {got[1]}*{got[0]}")
            ok = ok and rep.status == "fail" and got == witnesses[n]
            ok = ok and facts["weighted_sum_is_bracket"]
            ok = ok and not facts["weighted_sum_is_lambda_shift"]
    verdict(7, ok, t0, note="full M2 residuals " + "; ".join(notes))
    assert ok, "; ".join(notes)


def test_criterion_08_hirota_suite():
    t0 = time.perf_counter()
    W, c = 8, UPOLY_ONE
    lin = TruncatedSeries("t", W, {mono((1, 1)): UPOLY_ONE}) + \
        TruncatedSeries.const("t", W, c)
    rep_a = check_kp(lin, tau_label="linear")
    ok = rep_a.status == "pass" and rep_a.reliable_weight >= 4

    cut = to_hirota_vars(cutjoin_series(W, 4, c))
    rep_b = check_kp(cut, tau_label="cutjoin")
    ok = ok and rep_b.status == "pass" and rep_b.reliable_weight >= 4
    res_b = hirota_apply(KP1, cut)
    res_b = res_b.clip_u_above(res_b.u_hi)
    for m in range(5):  # beta-layer by beta-layer, m <= 4
        ok = ok and res_b.u_layer(2 * m).up_to_weight(4).is_zero()

    closed = to_hirota_vars(assemble_tau_exponential(c, W))
    rep_c = check_kp(closed, tau_label="closedform")
    ok = ok and rep_c.status == "pass" and rep_c.reliable_weight >= 4
    res_c = hirota_apply(KP1, closed)
    hi_c = res_c.u_hi  # one below the tau's certified top: a 1/u head shifts it
    res_c = res_c.clip_u_above(hi_c)
    for e in range(res_c.min_u_exp(), hi_c + 1):  # u-layer by u-layer
        ok = ok and res_c.u_layer(e).up_to_weight(4).is_zero()

    rep_lin = check_linearized_kp(to_hirota_vars(exp_join_of_q1(10)))
    ok = ok and rep_lin.status == "pass" and rep_lin.reliable_weight >= 6

    # exactly one variable convention survives, and it is on record
    assert T_CONVENTION == "x_i = i*t_i"
    s = cutjoin_series(W, 4, c)
    wrong = check_kp(TruncatedSeries("t", s.W, s.terms, **s._meta()))
    ok = ok and wrong.status == "fail"

    verdict(8, ok, t0,
            note=f"rel a={rep_a.reliable_weight} b={rep_b.reliable_weight} "
                 f"c={rep_c.reliable_weight} lin={rep_lin.reliable_weight}")
    assert ok


def test_criterion_09_two_route_agreement():
    t0 = time.perf_counter()
    by_t = {(r.g, r.j, r.degrees): r.value
            for r in extract_intersections_tbasis(extract_G(8, 5))}
    shared = 0
    ok = True
    for g, n in ((0, 3), (0, 4), (1, 1), (1, 2)):
        grid = hurwitz_grid(g, n, dmax=6)
        for r in extract_intersections_polyfit(g, n, grid, dmax=6):
            key = (r.g, r.j, r.degrees)
            if key in by_t:
                shared += 1
                ok = ok and by_t[key] == r.value
            ok = ok and r.degrees == tuple(sorted(r.degrees))
    # symmetry: a permuted degree list is the same index
    a = IntersectionNumber(0, (1, 0, 0, 0), F(1))
    b = IntersectionNumber(0, (0, 0, 1, 0), F(1))
    ok = ok and a.key() == b.key() and shared >= 7
    verdict(9, ok, t0, note=f"shared={shared}")
    assert ok


def test_criterion_10_truncation_stability():
    t0 = time.perf_counter()
    small = {(r.g, r.j, r.degrees): r.value
             for r in extract_intersections_tbasis(extract_G(6, 4))}
    big = {(r.g, r.j, r.degrees): r.value
           for r in extract_intersections_tbasis(extract_G(8, 5))}
    ok = bool(small) and set(small) <= set(big)
    ok = ok and all(big[k] == v for k, v in small.items())
    verdict(10, ok, t0, note=f"shared={len(small)}")
    assert ok
