"""Traced in-process run of CLI commands, and the per-layer metrics of its spans.

Usage: python traced.py PLAN_FILE SPANS_FILE RESULT_FILE

PLAN_FILE holds ``{"commands": [{"label", "argv"}, ...]}``.  After
``hapaxchain.cli`` is imported, every public function of the package's
modules is replaced, in every module namespace that bound it, by a
wrapper that records a span (name, start, end, parent) and a few counts.
Each command then runs in this process under a root ``cli.main`` span.
Spans are kept in memory and written to SPANS_FILE as JSON lines at the
end; RESULT_FILE gets each command's exit code and duration, and the
names of the functions that were wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
import traceback
import tracemalloc

import numpy as np

TRACED_MODULES = ("corpus", "ranksize", "markov", "mh_sampler", "stats", "persist")
MB = 1e6


def _elems(args, kwargs, result) -> dict:
    """Sample sizes of a two-sample statistic called as f(a, b)."""
    a = args[0] if len(args) > 0 else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return {"elems": int(np.size(a) + np.size(b))}


# Counts recorded on a span from the call's arguments and result.
COUNTERS = {
    "markov.estimate_order2": lambda a, k, r: {"matrix_mb": (r.counts.nbytes + r.probs.nbytes) / MB},
    "markov.simulate_order1": lambda a, k, r: {"steps": len(r)},
    "markov.simulate_order2": lambda a, k, r: {"steps": len(r)},
    "stats.ks_two_sample": _elems,
    "stats.wmw_test": _elems,
    "mh_sampler.run_chain": lambda a, k, r: {
        "steps": len(r.samples), "accepted": r.accepted, "proposed": len(r.samples) - 1},
    "corpus.tokenize": lambda a, k, r: {"tokens": len(r)},
    "corpus.build_rank_sequence": lambda a, k, r: {"occurrences": len(r)},
    "ranksize.fit_zm": lambda a, k, r: {"n_iter": r.n_iter, "points": r.n_points},
    "persist.atomic_write_text": lambda a, k, r: {"bytes": os.path.getsize(r)},
}


class AllocPeak:
    """tracemalloc peak over one call; started and stopped outside the span."""

    def before(self):
        if tracemalloc.is_tracing():
            return False
        tracemalloc.start()
        return True

    def after(self, started):
        if not started:
            return {}
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"alloc_peak_mb": peak / MB}


class RssGrowth:
    """Peak resident-set growth over one call, sampled from /proc/self/statm.

    Used where tracemalloc would trace tens of millions of small Python
    objects, which multiplies the call's time and memory several-fold.
    """

    interval_s = 0.002

    @staticmethod
    def _rss():
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def before(self):
        state = {"base": self._rss(), "peak": 0, "stop": threading.Event()}

        def sample():
            while not state["stop"].wait(self.interval_s):
                state["peak"] = max(state["peak"], self._rss())
        state["thread"] = threading.Thread(target=sample, daemon=True)
        state["thread"].start()
        return state

    def after(self, state):
        state["stop"].set()
        state["thread"].join()
        peak = max(state["peak"], self._rss())
        return {"rss_growth_mb": max(peak - state["base"], 0) / MB}


PROBES = {"markov.estimate_order2": AllocPeak, "markov.simulate_order2": RssGrowth}


class Tracer:
    """In-memory span recorder; one span stack, as the CLI is single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        probe = PROBES[name]() if name in PROBES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = probe.before() if probe else None
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if probe:
                    span["attrs"].update(probe.after(state))
            if counter:
                span["attrs"].update(counter(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> list[str]:
        """Wrap each public function in every hapaxchain namespace bound to it.

        Returns the wrapped names.  A function with a counter or probe that
        is no longer a public function of its module is an error, as its
        counts would otherwise read 0.
        """
        wrapped = []
        namespaces = [m for n, m in sys.modules.items() if n == "hapaxchain" or n.startswith("hapaxchain.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"hapaxchain.{short}"]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{fname}", fn)
                wrapped.append(f"{short}.{fname}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
        lost = sorted((set(COUNTERS) | set(PROBES)) - set(wrapped))
        if lost:
            raise RuntimeError(f"no public function to trace for {', '.join(lost)}")
        return wrapped


def run_plan(plan_file: str, spans_file: str, result_file: str) -> int:
    with open(plan_file, encoding="utf-8") as fh:
        plan = json.load(fh)
    import click
    import hapaxchain.cli

    tracer = Tracer()
    wrapped = tracer.install()
    results = []
    for cmd in plan["commands"]:
        span = tracer.open("cli.main", label=cmd["label"])
        code = 0
        try:
            hapaxchain.cli.main.main(args=cmd["argv"], prog_name="hapaxchain", standalone_mode=False)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            tracer.close(span)
        results.append({"label": cmd["label"], "exit": code,
                        "duration_s": span["end"] - span["start"]})
    with open(spans_file, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump({"commands": results, "wrapped": wrapped, "module": hapaxchain.cli.__file__}, fh)
    return 0


# -------------------------------------------------------------- aggregation


def layer_stats(spans: list[dict]) -> dict[str, float]:
    """Per-function totals: ``<name>.total_s``, ``.self_s``, ``.calls`` and
    the sum of each recorded count; self time is a span's duration minus
    the time its direct children cover (children never overlap, as the
    traced program is single-threaded)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[s["id"]]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key.endswith("_mb"):
                    out[f"{name}.{key}"] = max(out.get(f"{name}.{key}", 0.0), value)
                else:
                    out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    proposed = out.get("mh_sampler.run_chain.proposed", 0)
    out["mh_sampler.run_chain.accept_ratio"] = (
        out.get("mh_sampler.run_chain.accepted", 0) / proposed if proposed else 0.0)
    out["persist.bytes_written"] = out.get("persist.atomic_write_text.bytes", 0)
    return out


if __name__ == "__main__":
    sys.exit(run_plan(*sys.argv[1:4]))
