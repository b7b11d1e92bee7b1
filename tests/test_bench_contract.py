"""The benchmark's tracing contract holds on the package as it stands.

``bench/traced.py`` wraps every public function of the package's modules
and stops when a function it counts is no longer public; its counters
read attributes of the results.  These tests run it on an empty plan and
apply its counters to small real results, so a break shows in the test
suite and not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hapaxchain.markov import estimate_order2
from hapaxchain.mh_sampler import run_chain
from hapaxchain.ranksize import ZMParams, fit_zm, target_distribution, zm_eval

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "bench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_an_empty_plan(tmp_path):
    plan, spans, result = tmp_path / "plan.json", tmp_path / "spans.jsonl", tmp_path / "result.json"
    plan.write_text(json.dumps({"commands": []}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(TRACED), str(plan), str(spans), str(result)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    wrapped = json.loads(result.read_text(encoding="utf-8"))["wrapped"]
    assert set(load_traced().COUNTERS) <= set(wrapped)


def test_counters_read_real_results():
    counters = load_traced().COUNTERS
    f = target_distribution(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), 20)
    chain = run_chain(f, 500, seed=1)
    assert counters["mh_sampler.run_chain"]((f, 500), {}, chain) == {
        "steps": 500, "accepted": chain.accepted, "proposed": 499}

    points = [(r, zm_eval(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), r)) for r in range(1, 31)]
    fit = fit_zm(points)
    counts = counters["ranksize.fit_zm"]((points,), {}, fit)
    assert counts["points"] == 30 and counts["n_iter"] >= 1

    seq = np.random.default_rng(2).integers(1, 6, size=400)
    matrix_mb = counters["markov.estimate_order2"]((seq,), {}, estimate_order2(seq))["matrix_mb"]
    assert 0 < matrix_mb < 1


def test_per_layer_metrics_name_public_functions():
    # A per-layer metric module.function.stat of a traced module needs the
    # function to stay public, or the traced benchmark stops on it.
    modules = load_traced().TRACED_MODULES
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    named = {tuple(parts[:2]) for parts in (m["name"].split(".") for m in per_layer)
             if len(parts) == 3 and parts[0] in modules}
    assert len(named) > 20
    missing = [f"{module}.{function}" for module, function in sorted(named)
               if function not in importlib.import_module(f"hapaxchain.{module}").__all__]
    assert missing == []


def test_set_up_probes_run_on_the_package(tmp_path, monkeypatch):
    # bench/run.py measures set-up with two probes before any workload runs: a child
    # that only imports hapaxchain.cli, and -X importtime, which must list scipy.stats.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    times = run.importtime(tmp_path, 0)
    assert set(times) == {"setup.import.scipy_stats_s", "setup.import.hapaxchain_s"}
    assert all(t > 0 for t in times.values())
    wall, scaled = run.import_only(tmp_path)
    assert wall > 0 and scaled > 0
