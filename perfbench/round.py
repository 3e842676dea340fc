"""One round of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/round.py WORKLOAD MODE SEED OUT_DIR T_SPAWN

MODE is `setup` (import and prepare, then stop before the first call),
`plain` (timed call) or `trace` (timed call under the per-layer tracer).
T_SPAWN is run.py's `time.monotonic()` just before it started this process,
so setup_s covers interpreter start, imports and preparing the call.  The
round writes `round.json` into OUT_DIR, next to the program's artifacts.
"""

import sys
import time

WORKLOAD, MODE, SEED, OUT_DIR, T_SPAWN = sys.argv[1:6]

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
OUT = Path(OUT_DIR)

if WORKLOAD == "kp-w12":
    from fractions import Fraction

    from gjvtau import gjv, hirota, hurwitz
    from gjvtau.exactalg import UPOLY_ONE, TruncatedSeries, UPoly, mono, mono_weight
else:
    from gjvtau import cli

import gjvtau  # noqa: E402

if not Path(gjvtau.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"imported gjvtau from {gjvtau.__file__}, not from {SRC}")

KP_W = 12


def kp_taus(W: int, c):
    """The linear, cut-and-join and closed-form taus, in Hirota variables."""
    linear = TruncatedSeries("t", W, {mono((1, 1)): UPOLY_ONE})
    linear = linear + TruncatedSeries.const("t", W, c)
    cut = hirota.to_hirota_vars(hurwitz.cutjoin_series(W, 4, c))
    closed = hirota.to_hirota_vars(gjv.assemble_tau_exponential(c, W))
    return linear, cut, closed


def kp_battery():
    """KP1 and KP2 on each tau at W = 12, and the linearized check."""
    linear, cut, closed = kp_taus(KP_W, UPOLY_ONE)
    reports = []
    for kp in (hirota.KP1, hirota.KP2):
        for label, tau in (("linear", linear), ("cutjoin", cut), ("closedform", closed)):
            rep = hirota.check_kp(tau, kp, tau_label=label)
            rep.name = f"{kp.name}_{label}"
            reports.append(rep)
    reports.append(hirota.check_linearized_kp(
        hirota.to_hirota_vars(gjv.exp_join_of_q1(KP_W)), tau_label="join_exponential"))
    return reports


def kp_perturbed(seed: int):
    """KP1 on the closed-form tau at W = 6 with one low-weight coefficient
    moved by k/97; the seed picks the monomial and k."""
    closed = kp_taus(6, UPOLY_ONE)[2]
    spots = sorted((m for m in closed.terms if 1 <= mono_weight(m) <= 3),
                   key=lambda m: (mono_weight(m), m))
    m = spots[seed % len(spots)]
    k = 1 + (seed // len(spots)) % 8
    terms = dict(closed.terms)
    terms[m] = terms[m] + UPoly.const(Fraction(k, 97))
    tau = TruncatedSeries("t", closed.W, terms, **closed._meta())
    rep = hirota.check_kp(tau, hirota.KP1, tau_label="perturbed").to_json_obj()
    rep["perturbation"] = {"monomial": [list(p) for p in m], "delta": f"{k}/97"}
    return rep


def main() -> int:
    tracer = None
    if MODE == "trace":
        import tracer as tracing

        tracer = tracing.install()
    if WORKLOAD == "kp-w12":
        call = kp_battery
    else:
        argv = {"verify-w8": ["verify", "--W", "8"],
                "intersections-w14": ["intersections", "--W", "14"]}[WORKLOAD]
        argv = argv + ["--out", str(OUT)]

        def call():
            return cli.main(argv)

    t0 = time.monotonic()
    result = {"setup_s": t0 - float(T_SPAWN)}
    if MODE != "setup":
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        p0 = time.perf_counter()
        got = call()
        p1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            run_s=p1 - p0,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024,
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.span_count()
            tracer.dump(str(OUT / "trace.jsonl.gz"))
        if WORKLOAD == "kp-w12":
            result["exit_code"] = 0
            (OUT / "kp.json").write_text(json.dumps({
                "reports": [r.to_json_obj() for r in got],
                "perturbed": kp_perturbed(int(SEED)),
            }))
        else:
            result["exit_code"] = got
    (OUT / "round.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
