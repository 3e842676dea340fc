"""Output checks for the three workloads, computed by the benchmark itself.

Each function takes what one round left behind and returns
(attempted, failed, problems): one operation per check verdict, record or KP
report, and a short text for each operation that failed its check.  Nothing
here imports gjvtau; the anchors (Bernoulli numbers, multinomials) are
computed independently of the package.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

# --- verify-w8 ---------------------------------------------------------------

VERIFY_CHECKS = (
    [f"commutator_{n}" for n in ("d1_m2_is_l1", "l0_l1_is_l1", "m0_l0_is_zero",
                                 "m0_l1_is_2m1", "m1_l1_is_m2", "m2_l1_is_zero")]
    + [f"conjugation_conj_{n}" for n in ("l0_chain", "l0_sandwich", "m0_chain",
                                          "m0_sandwich")]
    + ["g_structure", "hurwitz_anchor_images", "hurwitz_anchor_layer0",
       "hurwitz_route_agreement", "intersections_routes", "kp1_closedform",
       "kp1_cutjoin", "kp1_linear", "lambda_square", "linearized_kp1"]
    + [f"o_operators_n{n}" for n in range(1, 6)]
    + [f"proposition_n{n}" for n in range(1, 6)]
    + ["q1_second_derivative", "string_equation"]
    + [f"tau_routes_c{i}" for i in range(3)]
    + ["tbasis_table"]
)

# the derivative proposition is false for the full M2 from n = 4 on; these
# are the hand-derived first residuals (README, acceptance criterion 7)
PROPOSITION_WITNESS = {"proposition_n4": ("q3", "3"), "proposition_n5": ("1", "5")}


def _verify_report_ok(r: dict) -> bool:
    name = r["check"]
    if name in PROPOSITION_WITNESS:
        monomial, coef = PROPOSITION_WITNESS[name]
        return (r["status"] == "fail" and r["first_failure"] == monomial
                and r.get("first_coefficient") == coef)
    if name in ("o_operators_n4", "o_operators_n5"):
        return (r["status"] == "fail" and r.get("weighted_sum_is_bracket") is True
                and r.get("weighted_sum_is_lambda_shift") is False)
    return r["status"] == "pass" and r["reliable_weight"] >= 1


def check_verify(exit_code: int, out: Path):
    """The 36 verdicts of `gjvtau verify --W 8`; exit code 1 is correct."""
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, want 1")
    try:
        reports = {r["check"]: r for r in json.loads((out / "verify.json").read_text())}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return len(VERIFY_CHECKS), len(VERIFY_CHECKS), problems + [f"verify.json: {e!r}"]
    extra = sorted(set(reports) - set(VERIFY_CHECKS))
    if extra:
        problems.append(f"unexpected checks {extra}")
    broken, failed = bool(problems), 0
    for name in VERIFY_CHECKS:
        r = reports.get(name)
        if broken or r is None or not _verify_report_ok(r):
            failed += 1
            problems.append(f"{name}: {r}")
    return len(VERIFY_CHECKS), failed, problems


# --- intersections-w14 -----------------------------------------------------------

# relation counts found on the W = 14 table; fewer means records went missing
MIN_LAMBDA_G, MIN_STRING, MIN_DILATON = 36, 111, 84


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def lambda_g_value(g: int, degrees: tuple[int, ...]) -> Fraction:
    """<tau_d1..tau_dn lambda_g>_g = C(2g-3+n; d) * b_g (Faber-Pandharipande),
    b_g = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!)."""
    top = 2 * g - 3 + len(degrees)
    multinomial = factorial(top)
    for d in degrees:
        multinomial //= factorial(d)
    p = 2 ** (2 * g - 1)
    return multinomial * Fraction(p - 1) * abs(bernoulli(2 * g)) / (p * factorial(2 * g))


def _drop_one(degrees: tuple[int, ...], d: int) -> tuple[int, ...]:
    i = degrees.index(d)
    return degrees[:i] + degrees[i + 1:]


def check_intersections(exit_code: int, out: Path):
    """Every record of `gjvtau intersections --W 14` is one operation.  A
    record fails when its fields disagree with each other, or when a relation
    with it on the left fails: the lambda_g formula (j = g >= 1), the string
    equation (contains tau_0) or the dilaton equation (contains tau_1), each
    against the records of the same j.  An absent record of lower weight is
    zero: the T-basis route emits every nonzero one below an emitted one."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, want 0")
    if (out / "intersections_diff.json").exists():
        problems.append("intersections_diff.json written")
    try:
        raw = json.loads((out / "intersections.json").read_text())
        records = {(r["j"], tuple(r["degrees"])): (r["g"], Fraction(r["value"]), r)
                   for r in raw}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return 1, 1, problems + [f"intersections.json: {e!r}"]
    if len(records) != len(raw):
        problems.append("duplicate records")

    def value(j, degrees):
        got = records.get((j, tuple(sorted(degrees))))
        return got[1] if got else Fraction(0)

    tally = {"lambda_g": 0, "string": 0, "dilaton": 0}
    broken, failed = bool(problems), 0
    for (j, degrees), (g, v, r) in sorted(records.items()):
        n = len(degrees)
        bad = []
        if 4 * g != 2 * j + sum(degrees) + 3 - n or not r.get("routes"):
            bad.append("fields")
        if j == g >= 1:
            tally["lambda_g"] += 1
            if v != lambda_g_value(g, degrees):
                bad.append("lambda_g")
        if 0 in degrees and n > 1 and (g, n) != (0, 3):
            tally["string"] += 1
            rest = _drop_one(degrees, 0)
            want = sum(value(j, rest[:i] + (rest[i] - 1,) + rest[i + 1:])
                       for i in range(len(rest)) if rest[i] > 0)
            if v != want:
                bad.append("string")
        if 1 in degrees and n > 1:
            tally["dilaton"] += 1
            rest = _drop_one(degrees, 1)
            if v != (2 * g - 2 + len(rest)) * value(j, rest):
                bad.append("dilaton")
        if broken or bad:
            failed += 1
            problems.append(f"<lambda_{2 * j} tau{list(degrees)}>_{g} = {v}: {bad}")
    for name, least in (("lambda_g", MIN_LAMBDA_G), ("string", MIN_STRING),
                        ("dilaton", MIN_DILATON)):
        if tally[name] < least:
            problems.append(f"{tally[name]} {name} relations, want >= {least}")
            failed = len(records)
    return len(records), failed, problems


# --- kp-w12 ----------------------------------------------------------------------

KP_REPORTS = [f"{kp}_{tau}" for kp in ("kp1", "kp2")
              for tau in ("linear", "cutjoin", "closedform")] + ["linearized_kp1"]


def check_kp(exit_code: int, out: Path):
    """Seven KP reports that pass with reliable weight >= 1, and one check of
    a perturbed tau that must fail (else a pass would say nothing)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, want 0"]
    try:
        data = json.loads((out / "kp.json").read_text())
        reports = {r["check"]: r for r in data["reports"]}
        perturbed = data["perturbed"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return len(KP_REPORTS) + 1, len(KP_REPORTS) + 1, problems + [f"kp.json: {e!r}"]
    broken, failed = bool(problems), 0
    for name in KP_REPORTS:
        r = reports.get(name)
        if broken or r is None or r["status"] != "pass" or r["reliable_weight"] < 1:
            failed += 1
            problems.append(f"{name}: {r}")
    if broken or perturbed["status"] != "fail":
        failed += 1
        problems.append(f"perturbed tau not caught: {perturbed}")
    return len(KP_REPORTS) + 1, failed, problems


CHECKS = {
    "verify-w8": check_verify,
    "intersections-w14": check_intersections,
    "kp-w12": check_kp,
}
