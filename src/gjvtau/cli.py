"""Batch front end: compute tables, run the verification battery, emit artifacts.

All JSON artifacts are canonical (sorted keys, fixed separators), so identical
configurations produce byte-identical files; the CSVs mirror them for human
reading.  Exit codes: 0 all checks pass or are vacuous, 1 any verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .exactalg import (MONO_ONE, TruncatedSeries, UPoly, UPOLY_ONE, band_for_weight, mono,
                       mono_str)
from .gjv import (
    assemble_tau_exponential,
    build_tbasis,
    exp_join_of_q1,
    change_of_variables,
    extract_G,
    extract_intersections_polyfit,
    hurwitz_grid,
    intersection_F,
    tbasis_records,
    verify_lambda_square,
    verify_proposition,
    verify_second_derivative,
    verify_string,
    verify_tau_routes,
)
from .hirota import KP1, KP2, check_kp, check_linearized_kp, to_hirota_vars
from .hurwitz import (
    DCAP_HARD,
    HurwitzIndex,
    cutjoin_series,
    extract_hurwitz,
    h01_h02_closed_forms,
    hurwitz_number,
    profiles,
)
from .operators import Lambda, verify_commutators, verify_conjugations, verify_O_operators
from .report import FAIL, VACUOUS, CheckReport, boolean_report

INTERSECTION_GRIDS = ((0, 3), (0, 4), (1, 1), (1, 2))
# the count degree of the intersection fits; from 4 to 8 each grid gives the
# same records, at 3 the (1, 2) fit has 2 rows for 3 unknowns
FIT_DEGREE = 6
# the battery's cut-and-join tau order
VERIFY_MMAX = 4
# --mmax when not given; tau takes it only for the cutjoin route
DEFAULT_MMAX = 4
# the taus: t_1 + c, the cut-and-join series and the closed-form exponential
ROUTES = ("linear", "cutjoin", "closedform")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([str(x) for x in row] for row in rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _hurwitz_routes(series: TruncatedSeries, dmax: int, Mmax: int):
    """(index, brute-force count, series count) for every profile of degree
    <= dmax and every genus with m = 2g - 1 + n <= Mmax, the series counts
    read off a cutjoin_series through at least weight dmax and order Mmax."""
    for n in range(1, dmax + 1):
        for parts in profiles(n, dmax):
            for g in range((Mmax + 1 - n) // 2 + 1):
                idx = HurwitzIndex(g, parts)
                yield idx, hurwitz_number(idx), extract_hurwitz(series, idx)


def cmd_hurwitz(cfg: argparse.Namespace) -> int:
    rows = [
        {
            "g": idx.g,
            "parts": list(idx.parts),
            "m": idx.m,
            "h_bruteforce": str(hb),
            "h_series": str(hs),
            "agree": hb == hs,
        }
        for idx, hb, hs in _hurwitz_routes(cutjoin_series(cfg.dmax, cfg.mmax),
                                           cfg.dmax, cfg.mmax)
    ]
    rows.sort(key=lambda r: (sum(r["parts"]), len(r["parts"]), r["parts"], r["g"]))
    _write_json(cfg.out / "hurwitz.json", rows)
    _write_csv(
        cfg.out / "hurwitz.csv",
        ["g", "parts", "m", "h_bruteforce", "h_series", "agree"],
        [
            [r["g"], " ".join(map(str, r["parts"])), r["m"], r["h_bruteforce"],
             r["h_series"], r["agree"]]
            for r in rows
        ],
    )
    return 0 if all(r["agree"] for r in rows) else 1


def cmd_tbasis(cfg: argparse.Namespace) -> int:
    basis = build_tbasis(cfg.W - 1, cfg.W)
    _write_json(
        cfg.out / "tbasis.json",
        [{"k": k, "series": t.to_json_obj()} for k, t in enumerate(basis)],
    )
    _write_csv(
        cfg.out / "tbasis.csv",
        ["k", "series"],
        [[k, str(t)] for k, t in enumerate(basis)],
    )
    return 0


def _tau(route: str, c: UPoly, W: int, mmax: int) -> TruncatedSeries:
    """One of the ROUTES' taus at weight W, in Hirota variables; mmax is the
    series order of the cutjoin route."""
    if route == "linear":
        # t_1 + c, in the default band widened to c, as the other routes do
        lo, hi = band_for_weight(W)
        if c:
            lo, hi = min(lo, c.min_exp()), max(hi, c.max_exp())
        return TruncatedSeries("t", W, {mono((1, 1)): UPOLY_ONE, MONO_ONE: c},
                               umin=lo, umax=hi)
    if route == "cutjoin":
        return to_hirota_vars(cutjoin_series(W, mmax, c))
    return to_hirota_vars(assemble_tau_exponential(c, W))


def cmd_tau(cfg: argparse.Namespace) -> int:
    route = cfg.route
    tau = _tau(route, cfg.c, cfg.W, cfg.mmax)
    _write_json(cfg.out / f"tau_{route}.json", tau.to_json_obj())
    _write_csv(
        cfg.out / f"tau_{route}.csv",
        ["monomial", "coefficient"],
        [[mono_str(m, "t"), str(cf)] for m, cf in tau.canonical_items()],
    )
    return 0


def _two_route_records(W: int):
    """Both extraction routes; returns (merged records, mismatches).

    A fit record the T-basis reaches, 2j + sum(d_i + 1) <= W, must carry its
    T-basis value, an absent one read as 0: the reduction emits every nonzero
    record it reaches.
    """
    merged: dict = {}
    for rec in tbasis_records(W):
        merged[rec.key()] = {"rec": rec, "routes": ["tbasis"]}
    mismatches = []
    for g, n in INTERSECTION_GRIDS:
        grid = hurwitz_grid(g, n, dmax=FIT_DEGREE)
        for rec in extract_intersections_polyfit(g, n, grid, dmax=FIT_DEGREE):
            got = merged.get(rec.key())
            if got is None:
                merged[rec.key()] = {"rec": rec, "routes": ["polyfit"]}
                reached = 2 * rec.j + sum(rec.degrees) + rec.n <= W
                tbasis = 0 if reached else rec.value
            else:
                got["routes"].append("polyfit")
                tbasis = got["rec"].value
            if tbasis != rec.value:
                mismatches.append({"degrees": list(rec.degrees), "j": rec.j,
                                   "tbasis": str(tbasis), "polyfit": str(rec.value)})
    return merged, mismatches


def cmd_intersections(cfg: argparse.Namespace) -> int:
    merged, mismatches = _two_route_records(cfg.W)
    if mismatches:
        # a finding, not a crash: write the diff and signal failure
        _write_json(cfg.out / "intersections_diff.json", mismatches)
        for mm in mismatches:
            print(f"route disagreement at {mm}", file=sys.stderr)
        return 1
    records = sorted(
        merged.values(),
        key=lambda e: (e["rec"].g, e["rec"].n, e["rec"].j, e["rec"].degrees),
    )
    out = []
    for e in records:
        obj = e["rec"].to_json_obj()
        obj["routes"] = sorted(e["routes"])
        out.append(obj)
    _write_json(cfg.out / "intersections.json", out)
    _write_csv(
        cfg.out / "intersections.csv",
        ["g", "n", "j", "degrees", "value", "routes"],
        [
            [o["g"], len(o["degrees"]), o["j"],
             " ".join(map(str, o["degrees"])), o["value"], "+".join(o["routes"])]
            for o in out
        ],
    )
    return 0


# ---------------------------------------------------------------------------
# The verification battery
# ---------------------------------------------------------------------------

_T_TABLE = {
    0: "q1",
    1: "u*q1 + q2",
    2: "u^2*q1 + 3*u*q2 + 2*q3",
    3: "u^3*q1 + 7*u^2*q2 + 12*u*q3 + 6*q4",
}


def _check_tbasis_table(cfg: argparse.Namespace) -> list[CheckReport]:
    basis = build_tbasis(3, max(cfg.W, 6))
    ok = all(str(basis[k]) == want for k, want in _T_TABLE.items())
    return [boolean_report("tbasis_table", ok, min(cfg.W, 6))]


def _check_commutators(cfg: argparse.Namespace) -> list[CheckReport]:
    return [
        boolean_report(f"commutator_{name}", ok, cfg.W)
        for name, ok in verify_commutators(cfg.W).items()
    ]


def _check_conjugations(cfg: argparse.Namespace) -> list[CheckReport]:
    return [
        boolean_report(f"conjugation_{name}", ok, cfg.W)
        for name, ok in verify_conjugations(cfg.W).items()
    ]


def _check_tau_routes(cfg: argparse.Namespace) -> list[CheckReport]:
    G = extract_G(cfg.W, cfg.W + 1)
    out = []
    for i, c in enumerate(cfg.c_list):
        rep = verify_tau_routes(c, cfg.W, G=G)
        rep.name = f"tau_routes_c{i}"
        out.append(rep)
    return out


def _check_f_identities(cfg: argparse.Namespace) -> list[CheckReport]:
    F = intersection_F(cfg.W)
    return [verify_string(F), verify_lambda_square(F), verify_second_derivative(F)]


def _check_propositions(cfg: argparse.Namespace) -> list[CheckReport]:
    out = []
    for n in range(1, 6):
        if cfg.W < n + 2:
            out.append(
                CheckReport(f"proposition_n{n}", VACUOUS, 0,
                            detail={"skipped": "W too small"})
            )
        else:
            out.append(verify_proposition(n, cfg.W))
    return out


def _check_o_operators(cfg: argparse.Namespace) -> list[CheckReport]:
    out = []
    for n in range(1, 6):
        res = verify_O_operators(n, cfg.W)
        ok = res["action_vanishes_off_peak"] and res["penultimate_action"]
        out.append(boolean_report(f"o_operators_n{n}", ok, cfg.W, **res))
    return out


def _check_hurwitz_anchors(cfg: argparse.Namespace) -> list[CheckReport]:
    W = min(cfg.W, 6)
    h01, h02 = h01_h02_closed_forms(W)
    l0 = Lambda(0)
    l0h01 = l0.apply(l0.apply(h01))
    img1 = change_of_variables(l0h01)
    img2 = change_of_variables(l0.apply(l0.apply(h02)))
    want1 = TruncatedSeries("q", W, {mono((1, 1)): UPoly.u(-1)})
    want2 = TruncatedSeries(
        "q", W, {mono((1, 1), (2, 1)): UPoly.u(-1), mono((1, 2)): UPOLY_ONE}
    )
    # W >= 4, so this series holds the degree <= 4 counts the routes compare
    series = cutjoin_series(W, 4)
    layer0 = series.u_layer(0) == l0h01.u_layer(0)
    agree = all(hb == hs for _, hb, hs in _hurwitz_routes(series, 4, 4))
    return [
        boolean_report("hurwitz_anchor_images", img1 == want1 and img2 == want2, W),
        boolean_report("hurwitz_anchor_layer0", layer0, W),
        boolean_report("hurwitz_route_agreement", agree, W),
    ]


def _check_g_structure(cfg: argparse.Namespace) -> list[CheckReport]:
    # certified layers of G must reduce to u^(2j+1) * T-monomials; the
    # reduction raises on any even or negative u-power it is asked to emit
    try:
        n = len(tbasis_records(cfg.W))
        return [boolean_report("g_structure", True, cfg.W, records=n)]
    except ArithmeticError as e:
        return [boolean_report("g_structure", False, cfg.W, error=str(e))]


def _check_kp(cfg: argparse.Namespace) -> list[CheckReport]:
    c = next((x for x in cfg.c_list if x), UPOLY_ONE)
    taus = [(route, _tau(route, c, cfg.W, VERIFY_MMAX)) for route in ROUTES]
    polys = [KP1] + ([KP2] if cfg.kp2 else [])
    out = []
    for kp in polys:
        for label, tau in taus:
            rep = check_kp(tau, kp, tau_label=label)
            rep.name = f"{kp.name}_{label}"
            out.append(rep)
    lin = check_linearized_kp(
        to_hirota_vars(exp_join_of_q1(max(cfg.W, 6))), tau_label="join_exponential"
    )
    out.append(lin)
    return out


def _check_intersection_routes(cfg: argparse.Namespace) -> list[CheckReport]:
    _, mismatches = _two_route_records(cfg.W)
    return [
        boolean_report(
            "intersections_routes", not mismatches, cfg.W,
            mismatches=len(mismatches),
        )
    ]


def _battery():
    """The verify battery as (name, report-name prefixes, check) entries: each
    report a check returns starts with one of its prefixes, and a check that
    crashes yields one failed report under the entry's name instead."""
    return [
        ("tbasis_table", ("tbasis_table",), _check_tbasis_table),
        ("commutators", ("commutator_",), _check_commutators),
        ("conjugations", ("conjugation_",), _check_conjugations),
        ("tau_routes", ("tau_routes_",), _check_tau_routes),
        ("f_identities", ("string_equation", "lambda_square", "q1_second_derivative"),
         _check_f_identities),
        ("propositions", ("proposition_",), _check_propositions),
        ("o_operators", ("o_operators_",), _check_o_operators),
        ("hurwitz_anchors", ("hurwitz_anchor_", "hurwitz_route_agreement"),
         _check_hurwitz_anchors),
        ("g_structure", ("g_structure",), _check_g_structure),
        ("kp", ("kp1_", "kp2_", "linearized_kp"), _check_kp),
        ("intersections_routes", ("intersections_routes",), _check_intersection_routes),
    ]


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Run the battery.  With --checks, a comma-separated list of keys, run
    only the entries with a report name that can start with a key, and keep
    the reports that do, plus the report of any such entry that crashed."""
    keys = cfg.checks or ()

    def unmatched(found) -> bool:
        missing = [k for k in keys if k not in found]
        if missing:
            print(f"--checks matches no check: {', '.join(missing)}", file=sys.stderr)
        return bool(missing)

    entries = []
    for name, prefixes, fn in _battery():
        chosen = {k for k in keys
                  if any(p.startswith(k) or k.startswith(p) for p in prefixes)}
        if chosen or not keys:
            entries.append((name, fn, chosen))
    if unmatched(set().union(*(chosen for _, _, chosen in entries))):
        return 2
    reports, matched = [], set()
    for name, fn, chosen in entries:
        try:
            got = fn(cfg)
        except Exception as e:  # a crashed check is a failed check
            reports.append(CheckReport(name, FAIL, 0, detail={"error": repr(e)}))
            matched |= chosen
            continue
        for r in got:
            hits = {k for k in chosen if r.name.startswith(k)}
            if hits or not keys:
                reports.append(r)
                matched |= hits
    # a key can select an entry that writes no report starting with it,
    # such as kp2 without --kp2
    if unmatched(matched):
        return 2
    reports.sort(key=lambda r: r.name)
    _write_json(cfg.out / "verify.json", [r.to_json_obj() for r in reports])
    _write_csv(
        cfg.out / "verify.csv",
        ["check", "status", "reliable_weight", "first_failure"],
        [[r.name, r.status, r.reliable_weight, r.first_failure or ""] for r in reports],
    )
    for r in reports:
        extra = f"  [{r.first_failure}]" if r.status == FAIL and r.first_failure else ""
        print(f"{r.status.upper():8} {r.name}{extra}")
    failed = [r for r in reports if r.status == FAIL]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks ok")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is one stderr line and exit 2; --help lists the flags
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an int >= lo, and <= hi unless hi is None."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _parse_c_list(text: str) -> tuple[UPoly, ...]:
    """An argparse type: pipe-separated c(u) choices, at least one."""
    try:
        c_list = tuple(UPoly.parse(part) for part in text.split("|") if part.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not c_list:
        raise argparse.ArgumentTypeError(f"{text!r} names no c(u)")
    return c_list


def _parse_c(text: str) -> UPoly:
    """An argparse type: exactly one c(u)."""
    if "|" in text:
        raise argparse.ArgumentTypeError(f"{text!r} is a list; tau takes one c(u)")
    (c,) = _parse_c_list(text)
    return c


def _parse_checks(text: str) -> tuple[str, ...]:
    """An argparse type: comma-separated check-name prefixes, at least one."""
    checks = tuple(k.strip() for k in text.split(",") if k.strip())
    if not checks:
        raise argparse.ArgumentTypeError(f"{text!r} names no check")
    return checks


# every flag once, keyed by the attribute it sets: (option, add_argument keywords)
FLAGS = {
    "W": ("--W", dict(type=_int_in(4), default=8, help="truncation weight")),
    "mmax": ("--mmax", dict(type=_int_in(1), help=f"series order in beta = u^2 (default "
                            f"{DEFAULT_MMAX}); tau reads it only on the cutjoin route")),
    "dmax": ("--dmax", dict(type=_int_in(1, DCAP_HARD), default=5,
                            help="largest degree of the table")),
    "c": ("--c", dict(type=_parse_c, default="0", help="the constant c(u), one choice")),
    "c_list": ("--c", dict(type=_parse_c_list, default="0|1|u^-1+2", metavar="C",
                           help="pipe-separated c(u) choices, at least one")),
    "route": ("--route", dict(choices=ROUTES, default="closedform")),
    "kp2": ("--kp2", dict(action="store_true", help="also run the next bilinear equation")),
    "checks": ("--checks", dict(type=_parse_checks,
                                help="comma-separated check-name prefixes to run")),
    "out": ("--out", dict(type=Path, default=".", help="artifact directory")),
}

# each subcommand's runner and the flags it reads
SUBCOMMANDS = {
    "hurwitz": (cmd_hurwitz, ("dmax", "mmax", "out")),
    "intersections": (cmd_intersections, ("W", "out")),
    "tbasis": (cmd_tbasis, ("W", "out")),
    "tau": (cmd_tau, ("W", "mmax", "c", "route", "out")),
    "verify": (cmd_verify, ("W", "c_list", "kp2", "checks", "out")),
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gjvtau",
        description="exact verification runs for the tau-function package",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (run, flags) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(run=run)
        for dest in flags:
            option, kw = FLAGS[dest]
            cmd.add_argument(option, dest=dest, **kw)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "tau" and args.route != "cutjoin" and args.mmax is not None:
        print("tau reads --mmax only with --route cutjoin", file=sys.stderr)
        return 2
    if "mmax" in args and args.mmax is None:
        args.mmax = DEFAULT_MMAX
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        parser.error(f"cannot create output directory: {e}")
    try:
        return args.run(args)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
