"""End-to-end runs of the command line driver."""

import argparse
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gjvtau import cli, gjv, operators
from gjvtau.cli import main
from gjvtau.exactalg import TruncatedSeries, UPoly, mono, mono_var, pack, unpack
from gjvtau.hurwitz import HurwitzIndex
from gjvtau.operators import CutJoin, JoinPart, Sum, scaled


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_tbasis_artifacts(tmp_path):
    assert run(tmp_path, "tbasis", "--W", "4") == 0
    rows = json.loads((tmp_path / "tbasis.json").read_text())
    assert [r["k"] for r in rows] == [0, 1, 2, 3]
    assert (tmp_path / "tbasis.csv").read_text().splitlines()[1] == "0,q1"


def test_json_is_byte_stable(tmp_path):
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    run(tmp_path / "a", "tbasis", "--W", "6")
    run(tmp_path / "b", "tbasis", "--W", "6")
    assert (tmp_path / "a/tbasis.json").read_bytes() == (
        tmp_path / "b/tbasis.json"
    ).read_bytes()


def test_usage_errors_exit_2(tmp_path):
    for argv in (
        ["hurwitz", "--dmax", "20"],
        ["verify", "--W", "3"],
        ["tbasis", "--K", "0"],
        ["tau", "--c", "u^"],
        ["tau", "--c", "1/0"],
        ["tau", "--c", "2*"],
        ["verify", "--checks", ","],
        ["verify", "--checks", ""],
        ["verify", "--inject-corruption"],
        ["hurwitz", "--hurwitz-cache", "x.json"],
    ):
        with pytest.raises(SystemExit) as e:
            run(tmp_path, *argv)
        assert e.value.code == 2


def test_verify_only_flags_are_refused_elsewhere(tmp_path, capsys):
    for argv in (["tbasis", "--W", "4", "--checks", "nonexistent"],
                 ["hurwitz", "--W", "4", "--kp2"],
                 ["tau", "--W", "4", "--checks", "kp"]):
        with pytest.raises(SystemExit) as e:
            run(tmp_path, *argv)
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# the flags each subcommand reads; any other is a usage error
READS = {
    "hurwitz": {"--dmax", "--mmax", "--out"},
    "intersections": {"--W", "--out"},
    "tbasis": {"--W", "--out"},
    "tau": {"--W", "--mmax", "--c", "--route", "--out"},
    "verify": {"--W", "--kp2", "--checks", "--out"},
}


@pytest.mark.parametrize("command", list(READS))
def test_help_lists_exactly_the_flags_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == READS[command] | {"--help"}


@pytest.mark.parametrize("argv", [
    ("hurwitz", "--W", "8"), ("hurwitz", "--K", "3"), ("hurwitz", "--c", "1"),
    ("intersections", "--mmax", "3"), ("intersections", "--K", "3"),
    ("intersections", "--c", "1"), ("intersections", "--dmax", "3"),
    ("tbasis", "--mmax", "3"), ("tbasis", "--dmax", "3"), ("tbasis", "--c", "1"),
    ("tau", "--dmax", "3"), ("tau", "--K", "3"),
    ("tbasis", "--K", "3"),
    ("verify", "--K", "3"), ("verify", "--mmax", "3"), ("verify", "--dmax", "3"),
    ("verify", "--c", "1"),  # the battery's c(u) choices are fixed
    ("tau", "--c", "0|1"),  # tau builds one tau, from one c(u)
    # no abbreviation stands for a flag, even an unambiguous one
    ("verify", "--ch", "kp"), ("hurwitz", "--dm", "3"), ("tau", "--ro", "linear"),
], ids=" ".join)
def test_a_flag_the_subcommand_does_not_read_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        main([*argv, "--out", str(out)])
    assert e.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert argv[1] in line
    assert not out.exists()


def test_tau_default_c_is_zero(tmp_path):
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    assert run(tmp_path / "a", "tau", "--W", "5") == 0
    assert run(tmp_path / "b", "tau", "--W", "5", "--c", "0") == 0
    for name in ("tau_closedform.json", "tau_closedform.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_planted_genus_two_count_fails_both_hurwitz_tables(tmp_path, monkeypatch):
    # the battery's route check reads the table cmd_hurwitz writes, at
    # degree <= 4 and m <= 4, which holds g = 2 for one-part profiles
    hurwitz_number = cli.hurwitz_number
    planted = HurwitzIndex(2, (3,))

    def off(idx, *args, **kwargs):
        h = hurwitz_number(idx, *args, **kwargs)
        return h + Fraction(1, 97) if idx == planted else h

    monkeypatch.setattr(cli, "hurwitz_number", off)
    assert run(tmp_path, "verify", "--W", "4", "--checks", "hurwitz_route_agreement") == 1
    (row,) = json.loads((tmp_path / "verify.json").read_text())
    assert row["check"] == "hurwitz_route_agreement" and row["status"] == "fail"
    assert run(tmp_path, "hurwitz", "--dmax", "4", "--mmax", "4") == 1
    rows = json.loads((tmp_path / "hurwitz.json").read_text())
    assert [(r["g"], r["parts"]) for r in rows if not r["agree"]] == [(2, [3])]


def test_hurwitz_anchors_read_one_series(monkeypatch):
    # the layer-0 anchor and the route table read one cut-and-join series
    built = []
    cutjoin_series = cli.cutjoin_series

    def counting(*args, **kwargs):
        built.append(args)
        return cutjoin_series(*args, **kwargs)

    monkeypatch.setattr(cli, "cutjoin_series", counting)
    reports = cli._check_hurwitz_anchors(argparse.Namespace(W=8))
    assert [r.status for r in reports] == ["pass"] * 3
    assert built == [(6, 4)]


def test_hurwitz_run(tmp_path):
    assert run(tmp_path, "hurwitz", "--dmax", "4", "--mmax", "3") == 0
    rows = json.loads((tmp_path / "hurwitz.json").read_text())
    assert all(r["agree"] for r in rows)
    one = next(r for r in rows if r["parts"] == [3] and r["g"] == 1)
    assert one["h_bruteforce"] == "2"


def test_verify_battery_reports_the_known_failures(tmp_path, capsys):
    assert run(tmp_path, "verify", "--W", "6") == 1
    reports = {r["check"]: r for r in
               json.loads((tmp_path / "verify.json").read_text())}
    failed = {k for k, r in reports.items() if r["status"] == "fail"}
    assert failed == {"o_operators_n4", "o_operators_n5"}
    # n=5 needs W >= 7 and is skipped, not failed; the n=4 residual starts at
    # weight 3, outside the window this W can certify, so it passes honestly
    assert reports["proposition_n5"]["status"] == "vacuous"
    assert reports["proposition_n4"]["status"] == "pass"
    assert reports["proposition_n4"]["reliable_weight"] == 2
    # one tau_routes report per c(u) in cli.VERIFY_C: 0, 1 and u^-1+2
    assert {k for k in reports if k.startswith("tau_routes")} == {
        "tau_routes_c0", "tau_routes_c1", "tau_routes_c2"}
    assert "FAIL" in capsys.readouterr().out


# the four FAILs of every default verify run (ROADMAP item 1)
STANDING_FAILS = {"o_operators_n4", "o_operators_n5", "proposition_n4", "proposition_n5"}


def _join_with_a_cube_term(stencil):
    """JoinPart.stencil plus a spurious diagonal term v^2 x_v^(e-2) x_(2v+k)
    on each x_v^e with e >= 3, in packed arithmetic."""
    def faulty(self, p):
        yield from stencil(self, p)
        for v, e in unpack(p):
            if e >= 3:
                yield p - 2 * pack(mono_var(v)) + pack(mono_var(2 * v + self.k)), v * v
    return faulty


# (owner, attribute, fault made from the healthy attribute, reports it fails)
PLANTED_VERIFY_FAULTS = [
    pytest.param(cli, "to_hirota_vars", lambda real: lambda s: s._with(family="t"),
                 {"kp1_closedform", "kp1_cutjoin", "linearized_kp1"},
                 id="hirota_vars_without_i_power_scaling"),
    pytest.param(TruncatedSeries, "partial",
                 lambda real: lambda self, i: real(self, i).with_reliable(self.reliable),
                 {"proposition_n1", "proposition_n2", "proposition_n3", "string_equation",
                  "q1_second_derivative"},
                 id="partial_keeps_reliable"),
    pytest.param(JoinPart, "stencil", _join_with_a_cube_term,
                 {"conjugation_conj_m0_sandwich", "hurwitz_route_agreement",
                  "o_operators_n1", "o_operators_n2", "o_operators_n3"},
                 id="join_cube_term"),
    # o_actions reads the u_hi of None this leaves as exact at every stored
    # exponent, so the O-operator checks run; the tau's products see the fault
    pytest.param(TruncatedSeries, "clip_u_above",
                 lambda real: lambda self, hi: real(self, hi).with_u_hi(self.u_hi),
                 {"kp1_closedform"}, id="clip_keeps_u_hi"),
]


@pytest.mark.parametrize("owner,name,fault,fails", PLANTED_VERIFY_FAULTS)
def test_planted_fault_fails_verify_by_name(tmp_path, monkeypatch, fresh_memos,
                                            fresh_records, owner, name, fault, fails):
    # one fault at a time, in this process; the stencils, leaf symbols and
    # T-basis records are memoised, so the fixtures drop the healthy ones
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert run(tmp_path, "verify", "--W", "8") == 1
    rows = json.loads((tmp_path / "verify.json").read_text())
    assert fails | STANDING_FAILS <= {r["check"] for r in rows if r["status"] == "fail"}
    # none of these faults crashes the O-operator entry: each n has its report
    assert {f"o_operators_n{n}" for n in range(1, 6)} <= {r["check"] for r in rows}


def test_verify_builds_each_shared_exponential_once(tmp_path, monkeypatch, fresh_memos,
                                                    fresh_records):
    # exp(M2) q1 at W, the closed-form tau_0 and the two O-route
    # exponentials, exp(uM2) q1 and exp(M2) q1 at W + 5, are memoised builds
    # that several checks read: a run forms each once
    built = []
    for owner in (operators, gjv):
        def spy(op, s, real=owner.exponential_apply, **kw):
            built.append((Sum(op).parts, s))
            return real(op, s, **kw)
        monkeypatch.setattr(owner, "exponential_apply", spy)
    assert run(tmp_path, "verify", "--W", "8") == 1

    def count(op, seed):
        return sum(parts == Sum(op).parts and s == seed and s.W == seed.W
                   for parts, s in built)

    q1_at_8, q1_at_13 = (TruncatedSeries.variable("q", W, 1) for W in (8, 13))
    # the closed form's exponent, on tau_0's seed q1/u: each c in VERIFY_C
    # reads c + tau_0, so no seed q1/u + c is exponentiated
    closed_form = Sum(CutJoin(2), scaled(CutJoin(1), UPoly.u(1, 2)), scaled(CutJoin(0), UPoly.u(2)))
    tau0_seed = TruncatedSeries("q", 8, {mono_var(1): UPoly.u(-1)})
    assert count(closed_form, tau0_seed) == 1
    assert sum(parts == Sum(closed_form).parts for parts, _ in built) == 1
    lift = scaled(CutJoin(2), UPoly.u(1))
    assert count(CutJoin(2), q1_at_8) == 1
    assert count(lift, q1_at_13) == count(CutJoin(2), q1_at_13) == 1
    # and no O-route exponential is built at any other weight
    assert sum(parts == Sum(lift).parts for parts, _ in built) == 1


def test_a_shared_build_that_crashes_fails_each_reader_by_name(tmp_path, monkeypatch,
                                                               fresh_memos):
    # exp(M2) q1 at W is memoised for four entries; a crash is not memoised,
    # so each entry that reads the build fails under its own name
    real = operators.exponential_apply

    def crashing(op, s, **kw):
        if op == CutJoin(2) and s == TruncatedSeries.variable("q", 8, 1) and s.W == 8:
            raise ArithmeticError("planted crash")
        return real(op, s, **kw)
    monkeypatch.setattr(operators, "exponential_apply", crashing)
    assert run(tmp_path, "verify", "--W", "8") == 1
    rows = {r["check"]: r for r in json.loads((tmp_path / "verify.json").read_text())}
    crashed = {name for name, r in rows.items() if "planted crash" in r.get("error", "")}
    assert crashed == {"f_identities", "propositions", "o_operators", "kp"}


def test_verify_filter_can_go_green(tmp_path):
    assert run(tmp_path, "verify", "--W", "6", "--checks", "commutator") == 0
    rows = json.loads((tmp_path / "verify.json").read_text())
    assert len(rows) == 6 and all(r["pass"] for r in rows)


def test_a_run_that_certifies_nothing_exits_3(tmp_path, capsys):
    # at W = 4 every proposition from n = 3 on is vacuous: no report failed,
    # and none passed either
    assert run(tmp_path, "verify", "--W", "4", "--checks",
               "proposition_n3,proposition_n4,proposition_n5") == 3
    rows = json.loads((tmp_path / "verify.json").read_text())
    assert [r["status"] for r in rows] == ["vacuous"] * 3
    assert "certified nothing" in capsys.readouterr().err
    # one passing report among the vacuous ones is a run that certified it
    assert run(tmp_path, "verify", "--W", "4", "--checks",
               "proposition_n1,proposition_n3") == 0


def test_corruption_fixture_trips_the_battery(tmp_path, monkeypatch):
    intersection_F = cli.intersection_F

    def corrupted(W):
        return intersection_F(W) + TruncatedSeries.monomial(
            "q", W, mono((2, 2)), UPoly.const(Fraction(1, 97)))

    monkeypatch.setattr(cli, "intersection_F", corrupted)
    code = run(tmp_path, "verify", "--W", "6", "--checks", "string_equation")
    assert code == 1
    (row,) = json.loads((tmp_path / "verify.json").read_text())
    assert row["status"] == "fail" and row["first_failure"]


def test_intersections_stable_across_W(tmp_path):
    (tmp_path / "w6").mkdir(), (tmp_path / "w8").mkdir()
    assert run(tmp_path / "w6", "intersections", "--W", "6") == 0
    assert run(tmp_path / "w8", "intersections", "--W", "8") == 0

    def load(p):
        return {
            (r["g"], r["j"], tuple(r["degrees"])): r["value"]
            for r in json.loads((p / "intersections.json").read_text())
        }

    small, big = load(tmp_path / "w6"), load(tmp_path / "w8")
    assert set(small) <= set(big)
    assert all(big[k] == v for k, v in small.items())


def test_intersections_inconsistent_fit_raises(tmp_path, monkeypatch):
    # an inconsistent fit is a finding: it raises, so the process exits 1
    hurwitz_grid = cli.hurwitz_grid

    def off_by_one(g, n, *, dmax):
        grid = hurwitz_grid(g, n, dmax=dmax)
        k = next(iter(grid))
        return {**grid, k: grid[k] + 1}

    monkeypatch.setattr(cli, "hurwitz_grid", off_by_one)
    with pytest.raises(ValueError, match="inconsistent"):
        run(tmp_path, "intersections", "--W", "8")


def test_a_dropped_tbasis_record_is_a_route_mismatch(tmp_path, monkeypatch):
    # <lambda_2 tau_0>_1 = 1/24 lies in the T-basis reach at W = 8 (2j + w = 3)
    # and the (1, 1) fit computes it: without its T-basis record it is a
    # mismatch against 0, not a polyfit-only row
    tbasis_records = cli.tbasis_records
    monkeypatch.setattr(cli, "tbasis_records", lambda W: tuple(
        r for r in tbasis_records(W) if r.key() != (1, (0,))))
    assert run(tmp_path / "verify", "verify", "--W", "8") == 1
    rows = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert {r["check"] for r in rows if r["status"] == "fail"} == {
        "intersections_routes", "o_operators_n4", "o_operators_n5",
        "proposition_n4", "proposition_n5"}
    out = tmp_path / "intersections"
    assert run(out, "intersections", "--W", "8") == 1
    assert json.loads((out / "intersections_diff.json").read_text()) == [
        {"degrees": [0], "j": 1, "polyfit": "1/24", "tbasis": "0"}]
    assert not (out / "intersections.json").exists()


def test_fit_records_beyond_the_tbasis_reach_stay_polyfit_only(tmp_path):
    # at W = 4 the T-basis reaches 2j + w <= 4, and the (0, 4) and (1, 2) fits
    # give records at 2j + w = 5
    assert run(tmp_path, "intersections", "--W", "4") == 0
    rows = json.loads((tmp_path / "intersections.json").read_text())
    beyond = [r for r in rows if 2 * r["j"] + sum(r["degrees"]) + len(r["degrees"]) > 4]
    assert len(beyond) == 4 and all(r["routes"] == ["polyfit"] for r in beyond)


def test_tau_routes_write_series(tmp_path):
    for route in ("linear", "cutjoin", "closedform"):
        mmax = ["--mmax", "3"] if route == "cutjoin" else []
        assert run(tmp_path, "tau", "--route", route, "--W", "6", *mmax, "--c", "1") == 0
        data = json.loads((tmp_path / f"tau_{route}.json").read_text())
        assert data["family"] == "t" and data["terms"]


@pytest.mark.parametrize("route", [[], ["--route", "linear"], ["--route", "closedform"]],
                         ids=["default", "linear", "closedform"])
def test_tau_refuses_mmax_off_the_cutjoin_route(tmp_path, capsys, route):
    # only the cutjoin route reads --mmax; elsewhere it would be ignored
    assert run(tmp_path, "tau", "--W", "6", "--mmax", "1", *route) == 2
    assert "--mmax" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_linear_route_widens_its_band_to_c(tmp_path):
    # u^9 lies above the W = 4 band top u^6, as it may for the other routes
    assert run(tmp_path, "tau", "--route", "linear", "--c", "u^9", "--W", "4") == 0
    data = json.loads((tmp_path / "tau_linear.json").read_text())
    assert {"mono": [], "coef": [[9, "1"]]} in data["terms"]


def test_verify_filter_matching_nothing_is_a_usage_error(tmp_path, capsys, monkeypatch):
    assert run(tmp_path, "verify", "--W", "4", "--checks", "nonexistent") == 2
    assert "nonexistent" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()

    # a key that selects no entry is refused before any entry runs
    ran = []
    monkeypatch.setattr(cli, "_check_commutators", lambda cfg: ran.append(cfg) or [])
    assert run(tmp_path, "verify", "--W", "4", "--checks", "commutator,nonexistent") == 2
    assert not ran and not (tmp_path / "verify.json").exists()


def test_crashed_check_keeps_its_battery_name(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise ValueError("inconsistent system")

    monkeypatch.setattr(cli, "extract_intersections_polyfit", crash)
    code = run(tmp_path, "verify", "--W", "4", "--checks", "intersections")
    assert code == 1
    (row,) = json.loads((tmp_path / "verify.json").read_text())
    assert row["check"] == "intersections_routes"
    assert row["status"] == "fail" and "ValueError" in row["error"]


def test_verify_filter_runs_only_the_entries_it_selects(tmp_path, monkeypatch):
    (tmp_path / "all").mkdir(), (tmp_path / "kp").mkdir()
    run(tmp_path / "all", "verify", "--W", "5")
    full = json.loads((tmp_path / "all/verify.json").read_text())

    def crash(cfg):
        raise AssertionError("entry outside --checks ran")

    for name in list(vars(cli)):
        if name.startswith("_check_") and name != "_check_kp":
            monkeypatch.setattr(cli, name, crash)
    assert run(tmp_path / "kp", "verify", "--W", "5", "--checks", "kp") == 0
    rows = json.loads((tmp_path / "kp/verify.json").read_text())
    assert rows == [r for r in full if r["check"].startswith("kp")]
    assert len(rows) == 3


ROOT = Path(__file__).resolve().parents[1]

TRACED_VERIFY = """
import json, sys
src, bench, out = sys.argv[1:4]
sys.path[:0] = [src, bench]
import tracer
t = tracer.install()
from gjvtau import cli
code = cli.main(["verify", "--W", "4", "--out", out])
with open(out + "/traced.json", "w") as fh:
    json.dump({"exit": code, "metrics": t.metrics()}, fh)
"""


def test_benchmark_tracer_finds_every_layer(tmp_path):
    # the benchmark's tracer wraps package functions by name, so a renamed
    # function must fail here rather than only under a traced benchmark run
    (tmp_path / "plain").mkdir()
    run(tmp_path / "plain", "verify", "--W", "4")
    subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(tmp_path)],
        check=True, capture_output=True,
    )
    got = json.loads((tmp_path / "traced.json").read_text())
    assert got["exit"] == 1

    # and a wrapper whose signature drifted would crash a check only when traced
    def statuses(path):
        return {r["check"]: r["status"] for r in json.loads(path.read_text())}

    assert statuses(tmp_path / "verify.json") == statuses(tmp_path / "plain/verify.json")
    checks = [k for k in got["metrics"] if k.startswith("cli.check.")]
    assert len(checks) == 11 and all(got["metrics"][k] > 0 for k in checks)
    assert got["metrics"]["hirota.hirota_apply.calls"] > 0
    # the T-basis reduction forms its products through convolve, inside its
    # own traced span, which must be found
    assert got["metrics"]["gjv.tbasis_reduce.calls"] > 0
    assert got["metrics"]["gjv.tbasis_reduce.records"] > 0
    # and the operator kernel inside the traced apply and ops_equal spans
    assert got["metrics"]["operators.apply.calls"] > 0
    assert got["metrics"]["operators.ops_equal.probes"] > 0


@pytest.mark.parametrize("workload", ["verify-w8", "intersections-w14", "kp-w12"])
def test_benchmark_output_checks_pass(tmp_path, workload):
    # one plain round as perfbench/run.py starts it, then the benchmark's own
    # output check: a change it would refuse as incorrect fails here first
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "round.py"), workload, "plain", "1",
         str(tmp_path), repr(time.monotonic())],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    # run_path compiles checks.py without caching bytecode under perfbench/
    check = runpy.run_path(str(ROOT / "perfbench" / "checks.py"))["CHECKS"][workload]
    exit_code = json.loads((tmp_path / "round.json").read_text())["exit_code"]
    attempted, failed, problems = check(exit_code, tmp_path)
    assert attempted > 0 and (failed, problems) == (0, [])


def test_a_shadowed_package_stops_the_session(tmp_path):
    # pyproject.toml puts this checkout's src ahead of PYTHONPATH, so a copy
    # named there would go untested; tests/conftest.py stops such a session
    (tmp_path / "gjvtau").mkdir()
    (tmp_path / "gjvtau" / "__init__.py").write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
         str(ROOT / "tests" / "test_hurwitz.py")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == pytest.ExitCode.USAGE_ERROR
    [line] = [ln for ln in (proc.stdout + proc.stderr).splitlines() if ln.strip()]
    assert str(tmp_path / "gjvtau") in line


# SHA-256 of each run's canonical artifacts; a refactor that claims the same
# results must leave every one of them unchanged.  The CSVs print their
# coefficients through str(UPoly), so they pin the coefficient view too.
GOLDEN_DIGESTS = {
    ("verify", "--W", "8"): {
        "verify.json": "db8342f435cd3d1286c9927ecd73b77321b8a31e0ae23dd0f6af5f66f68250c0"},
    # the conjugation chains and the O-operator sums reach further than at 8
    ("verify", "--W", "10"): {
        "verify.json": "ecacc9a0bd663b5dee0c3b52a47ecc70c7e6be1f728a50280e4c4794c7ff89a9"},
    # the KP reports carry u_hi
    ("verify", "--W", "6", "--kp2"): {
        "verify.json": "125cc81257fcbde6bec16d2bcc6a96aca94c3b22e68190efca31b26727949605"},
    # KP1 and KP2 on the three taus, whose products stop below W
    ("verify", "--W", "8", "--kp2"): {
        "verify.json": "f54beaaf3911d6b700bcecced1048e562498cd136d0ab02e28a62d5535fb5aa7"},
    ("intersections", "--W", "10"): {
        "intersections.json":
            "bccbcd2938b2364761979e97ee5c41be1244eeb5dec4efb9a369f727c0a4abbd"},
    # the intersections-w14 benchmark's table
    ("intersections", "--W", "14"): {
        "intersections.json":
            "0497f924287f5d07308318cd987c7a2e3d394159ca2f72a410fa6772bf97214c",
        "intersections.csv":
            "b16a38564afe23866df558cab9d1c37873be6ca9d9523348a3b7f518062d2737"},
    ("tbasis", "--W", "8"): {
        "tbasis.json": "94bb491df4e5fff814c8fd271c174f55dcb76312ef9b10daceca78bc1c891c7e"},
    ("tau", "--route", "linear", "--c", "u^-1+2", "--W", "8"): {
        "tau_linear.json": "3932588baf6deeb0922af07c86ad33c5d0147f0733acebe00a3d73db7686440d",
        "tau_linear.csv": "20b9a281aabda258e46c4ec874e73689153d83902c156132efd93140f4089e6a"},
    ("tau", "--route", "cutjoin", "--c", "u^-1+2", "--W", "8"): {
        "tau_cutjoin.json": "49e66175fa74259f925fc2fe008898e383d7505214cf3c2c4ebf63142106154d",
        "tau_cutjoin.csv": "ba45e24cd622555c565a112adf4bf843f528081680a627786131fa82e3cd9d14"},
    ("tau", "--route", "closedform", "--c", "u^-1+2", "--W", "8"): {
        "tau_closedform.json":
            "ba5743d2ab97cb2b91b9e3093e076628373e226bb8af5a647dd39f908e7abc35",
        "tau_closedform.csv":
            "fab9507eaf50f1b700379c522fc2f7525ed12d22512f1c771321aa8ed9c5fad1"},
    ("hurwitz",): {
        "hurwitz.json": "e0e80dbfd3299317fe20a69bb9e690bd3ca8804123ffacc935e6fd67d2062f58"},
    # the largest brute-force table the CLI allows
    ("hurwitz", "--dmax", "7", "--mmax", "8"): {
        "hurwitz.json": "2eef879734ef721dadf4ae4350b5267dc0f10c0c6a003da34d6481e341b70ec0",
        "hurwitz.csv": "2217b6b8c30636c01b45668c82b722aff54438fb6c66ae4c1a91823783dc3d73"},
    # grids of degree 6; degree 8, above brute force's reach, gives the same table
    ("intersections", "--W", "12"): {
        "intersections.json":
            "47425f2d2452c1a040b66a16e6b09fb47bd07f59101b3cf8788eb144df894ba3",
        "intersections.csv":
            "34735f56afbe42403d8f29ea8c2a3abc7c86d0513bcf92920b66ad8c50ca8717"},
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS), ids=" ".join)
def test_artifact_matches_its_golden_digest(tmp_path, argv):
    run(tmp_path, *argv)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_DIGESTS[argv]}
    assert got == GOLDEN_DIGESTS[argv]
