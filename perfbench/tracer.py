"""Per-layer tracing of gjvtau from outside the package.

`install()` replaces public functions and methods of the package's modules
with wrappers that open a span around each call.  Nothing under `src/` is
edited: a function imported by name into several modules is replaced in
every module that holds it.

A span records its name, start, end, parent span and thread.  Start and end
are read from the calling thread's CPU clock (`time.thread_time_ns`), so a
span on one of the verify pool's threads does not grow while another thread
holds the interpreter lock.  Spans nest per thread; a span's self time is its
duration minus the time its child spans cover, accumulated as each span
closes.  Spans stay in memory (compact per-thread arrays) until `dump()`.

Counts (calls, probes, records, terms, constructions) are kept per thread
and summed at the end, so they repeat exactly from run to run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import threading
from array import array
from time import thread_time_ns

# (span name, defining module, attribute path): the public calls each layer
# is measured at.  `Class.method` patches the class attribute.
SPANS = (
    ("operators.ops_equal", "gjvtau.operators", "ops_equal"),
    ("operators.o_actions", "gjvtau.operators", "o_actions"),
    ("operators.conjugate", "gjvtau.operators", "conjugate"),
    ("operators.apply", "gjvtau.operators", "Operator.apply"),
    ("operators.apply", "gjvtau.operators", "Sum.apply"),
    ("operators.apply", "gjvtau.operators", "Compose.apply"),
    ("operators.exponential_apply", "gjvtau.operators", "exponential_apply"),
    ("gjv.change_of_variables", "gjvtau.gjv", "change_of_variables"),
    ("exactalg.substitute_linear", "gjvtau.exactalg", "substitute_linear"),
    ("exactalg.mul", "gjvtau.exactalg", "TruncatedSeries.mul"),
    ("exactalg.add", "gjvtau.exactalg", "TruncatedSeries.__add__"),
    ("hirota.hirota_apply", "gjvtau.hirota", "hirota_apply"),
    ("hirota.check_kp", "gjvtau.hirota", "check_kp"),
    ("gjv.extract_G", "gjvtau.gjv", "extract_G"),
    ("gjv.tbasis_reduce", "gjvtau.gjv", "extract_intersections_tbasis"),
    ("gjv.polyfit", "gjvtau.gjv", "extract_intersections_polyfit"),
    ("gjv.assemble_tau", "gjvtau.gjv", "assemble_tau_exponential"),
    ("gjv.assemble_tau", "gjvtau.gjv", "assemble_tau_from_g"),
    ("hurwitz.number", "gjvtau.hurwitz", "hurwitz_number"),
    ("hurwitz.bruteforce", "gjvtau.hurwitz", "hurwitz_bruteforce"),
    ("hurwitz.cutjoin_series", "gjvtau.hurwitz", "cutjoin_series"),
    ("cli.write", "gjvtau.cli", "_write_json"),
    ("cli.write", "gjvtau.cli", "_write_csv"),
    ("report.residual_report", "gjvtau.report", "residual_report"),
)

# the verify battery's entries, each timed as its own span
CLI_CHECKS = (
    "tbasis_table", "commutators", "conjugations", "tau_routes",
    "f_identities", "propositions", "o_operators", "hurwitz_anchors",
    "g_structure", "kp", "intersection_routes",
)

# constructors counted without a span: every construction re-validates
BUILT = (
    ("exactalg.series_built", "gjvtau.exactalg", "TruncatedSeries.__init__"),
    ("exactalg.upoly_built", "gjvtau.exactalg", "UPoly.__init__"),
)


class _Thread:
    """One thread's open-span stack, its spans and its per-name totals."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # open spans: [span index, child ns]
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.threads: list[_Thread] = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.built = {name: itertools.count() for name, _, _ in BUILT}
        self.extract_G_args: set = set()

    # -- recording ------------------------------------------------------------

    def _thread(self) -> _Thread:
        t = getattr(self.local, "t", None)
        if t is None:
            with self.lock:
                t = _Thread(len(self.threads))
                self.threads.append(t)
            self.local.t = t
        return t

    def wrap(self, name: str, fn, after=None):
        """A wrapper that runs fn inside a span; after(t, args, kwargs,
        result) adds counts for the call."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        thread = self._thread

        def traced(*args, **kwargs):
            t = thread()
            stack = t.stack
            index = len(t.names)
            t.names.append(nid)
            start = thread_time_ns()
            t.starts.append(start)
            t.ends.append(start)
            t.parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time_ns()
                stack.pop()
                t.ends[index] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                t.calls[name] = t.calls.get(name, 0) + 1
                t.self_ns[name] = t.self_ns.get(name, 0) + dur - frame[1]
                t.total_ns[name] = t.total_ns.get(name, 0) + dur
            if after is not None:
                after(t, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        after = {
            "exactalg.mul": lambda t, a, k, r: _add(t, "exactalg.mul.terms_out", len(r.terms)),
            "gjv.tbasis_reduce": lambda t, a, k, r: _add(t, "gjv.tbasis_reduce.records", len(r)),
            "gjv.extract_G": lambda t, a, k, r: self.extract_G_args.add(
                (a, tuple(sorted(k.items())))),
            "cli.write": lambda t, a, k, r: _add(t, "cli.write.bytes", os.path.getsize(a[0])),
        }
        for name, modname, path in SPANS:
            _replace(modname, path, self.wrap(name, _resolve(modname, path), after.get(name)))
        for name, modname, path in BUILT:
            _replace(modname, path, _counted(self.built[name], _resolve(modname, path)))
        cli = sys.modules["gjvtau.cli"]
        for entry in CLI_CHECKS:
            attr = "_check_" + entry
            setattr(cli, attr, self.wrap("cli.check." + entry, getattr(cli, attr)))

        # outside the spans: ops_equal tries basis monomials until one differs,
        # so count the calls of its first operand; hurwitz_number may answer
        # from the caller's table
        ops_equal = sys.modules["gjvtau.operators"].ops_equal

        def counting_ops_equal(f, g, **kw):
            t = self._thread()

            def probe(s):
                _add(t, "operators.ops_equal.probes", 1)
                return f(s)

            return ops_equal(probe, g, **kw)

        hurwitz_number = sys.modules["gjvtau.hurwitz"].hurwitz_number

        def counting_hurwitz_number(idx, table=None, **kw):
            if table is not None and idx.key() in table:
                _add(self._thread(), "hurwitz.table_hits", 1)
            return hurwitz_number(idx, table, **kw)

        _replace("gjvtau.operators", "ops_equal", counting_ops_equal)
        _replace("gjvtau.hurwitz", "hurwitz_number", counting_hurwitz_number)

    # -- results ----------------------------------------------------------------

    def _sum(self, field: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.threads:
            for k, v in getattr(t, field).items():
                out[k] = out.get(k, 0) + v
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; names match BENCHMARK.json's per_layer."""
        calls, self_ns, counts = self._sum("calls"), self._sum("self_ns"), self._sum("counts")
        total_ns = self._sum("total_ns")
        out: dict[str, float] = {}
        for name in dict.fromkeys(n for n, _, _ in SPANS):
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_ns.get(name, 0) / 1e9
        for entry in CLI_CHECKS:
            out[f"cli.check.{entry}.cpu_s"] = total_ns.get("cli.check." + entry, 0) / 1e9
        out.update(counts)
        for name in ("operators.ops_equal.probes", "exactalg.mul.terms_out",
                     "gjv.tbasis_reduce.records", "cli.write.bytes"):
            out.setdefault(name, 0)
        n = calls.get("gjv.extract_G", 0)
        out["gjv.extract_G.distinct_ratio"] = len(self.extract_G_args) / n if n else 0.0
        n = calls.get("hurwitz.number", 0)
        out["hurwitz.table_hit_ratio"] = counts.get("hurwitz.table_hits", 0) / n if n else 0.0
        out.pop("hurwitz.table_hits", None)
        for name, counter in self.built.items():
            out[name] = _peek(counter)
        return out

    def span_count(self) -> int:
        return sum(len(t.names) for t in self.threads)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip): name, start_ns, end_ns,
        parent (span id or null), thread; a span id is "thread:index"."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for t in self.threads:
                for i in range(len(t.names)):
                    p = t.parents[i]
                    fh.write(json.dumps(
                        [f"{t.index}:{i}", self.names[t.names[i]], t.starts[i],
                         t.ends[i], None if p < 0 else f"{t.index}:{p}", t.index],
                        separators=(",", ":")) + "\n")


def _resolve(modname: str, path: str):
    obj = sys.modules[modname]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _replace(modname: str, path: str, new) -> None:
    """Put new in place of modname.path: on the class for a method, else in
    every gjvtau module that holds the same function."""
    owner, _, attr = path.rpartition(".")
    if owner:
        setattr(_resolve(modname, owner), attr, new)
        return
    old = getattr(sys.modules[modname], attr)
    for name, mod in list(sys.modules.items()):
        if name == "gjvtau" or name.startswith("gjvtau."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def _peek(counter) -> int:
    # itertools.count has no getter; its repr carries the next value
    return int(repr(counter)[len("count("):-1])


def _counted(counter, fn):
    bump = counter.__next__

    def counted(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)

    return counted


def _add(t: _Thread, key: str, n: int) -> None:
    t.counts[key] = t.counts.get(key, 0) + n


def install() -> Tracer:
    """Wrap the package's layers and return the tracer that records them."""
    import gjvtau.cli  # noqa: F401  (imports every module of the package)

    tracer = Tracer()
    tracer.install()
    return tracer
