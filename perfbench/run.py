"""Benchmark for gjvtau: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify-w8 --seed 1 --seconds 25 --trace 0

Each round runs the workload once in a fresh interpreter (round.py), then
checks its outputs here, outside the timed interval.  Rounds repeat until
--seconds have passed; the run reports the median over its rounds.  setup_s
is the median over every round plus SETUP_PROBES processes that import and
prepare the call but stop before it.

With --trace 0 the last line of stdout is the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it is the per-layer
metrics (see README.md).  Each run also writes
perfbench/out/<workload>-seed<n>[-trace].json with every round, the Python
version, the CPU count and the source revision; a traced run keeps the spans
of its last traced round as perfbench/out/<workload>-seed<n>-spans.jsonl.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
RUN_BUDGET_S = 170  # a run must end within 180 s

TIMED = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    # a user's count cache or path must not change the work
    for key in ("GJV_CACHE", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    # compiled modules are cached under out/, whatever the caller's setting,
    # so setup_s measures imports rather than compiling
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_round(workload: str, mode: str, seed: int, timeout: float) -> tuple[dict, Path]:
    """One child process; returns its round.json and its output directory."""
    out = Path(tempfile.mkdtemp(prefix="round-", dir=OUT))
    cmd = [sys.executable, str(HERE / "round.py"), workload, mode, str(seed), str(out)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(t_spawn)], env=child_env(), cwd=out,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} round exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads((out / "round.json").read_text()), out


def source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), (".bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(CHECKS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "gjvtau" / "__init__.py").is_file():
        print(f"no gjvtau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    check = CHECKS[args.workload]
    started = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        result, out = run_round(args.workload, "setup", args.seed, RUN_BUDGET_S)
        shutil.rmtree(out)
        setups.append(result["setup_s"])

    rounds: list[dict] = []
    attempted = failed = 0
    correct = True
    mode = "plain"
    measuring = time.monotonic()
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    while True:
        left = RUN_BUDGET_S - (time.monotonic() - started)
        result, out = run_round(args.workload, mode, args.seed, left)
        try:
            result["mode"] = mode
            a, f, problems = check(result["exit_code"], out)
            result.update(attempted=a, failed=f)
            attempted, failed = attempted + a, failed + f
            correct = correct and f == 0
            for line in problems:
                print(f"{args.workload}: {line}", file=sys.stderr)
            if mode == "trace":
                shutil.move(str(out / "trace.jsonl.gz"),
                            str(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"))
        finally:
            shutil.rmtree(out)
        rounds.append(result)
        if args.trace:
            mode = "trace" if mode == "plain" else "plain"
        done = time.monotonic() - measuring >= args.seconds
        if done and (not args.trace or mode == "plain"):
            break

    plain = [r for r in rounds if r["mode"] == "plain"]
    if args.trace:
        traced = [r for r in rounds if r["mode"] == "trace"]
        # counts repeat exactly, so they come from the first traced round
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced)
                   if layer_unit(name) == "s" else value, "unit": layer_unit(name)}
            for name, value in traced[0]["layers"].items()
        }
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": traced[0]["spans"], "unit": "count"}
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in TIMED.items()}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), **source_revision(),
        "setup_probes_s": setups, "rounds": rounds, "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
