"""Paper-scale benchmark of the hapaxchain CLI.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload builds its inputs from ``--seed`` (untimed), runs one
untimed checksum-gate ``pipeline`` on a small fixed corpus, then repeats
its job -- one fresh ``hapaxchain`` child process per CLI command --
for about ``--seconds`` seconds (BENCHMARK.json's ``run_seconds`` by
default; at least ``MIN_JOBS`` jobs), checking every command's outputs.
Import-only children between the jobs add set-up samples.  Set-up and
job times are scaled to a fixed machine speed by reference loops timed
inside each child (see ``speed_scaled``).  It prints each end-to-end
metric with its unit and sample count, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` it instead runs the job once
untraced and once traced in-process (see traced.py) and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json;
bench/NOTES.md describes them.

The exit status is 0 when every command ran and every check passed,
1 when a check failed, and 2 when the repository cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
EXPECTED = BENCH / "expected"
CHILD = BENCH / "child.py"
TRACED = BENCH / "traced.py"

MIN_JOBS = 3
# Set-up samples per job: a job of fewer commands is topped up with
# import-only children, so every workload gets enough set-up samples.
SETUP_PER_JOB = 2
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.005
# Reference speed: one run of child.py's reference loop takes REF_LOOP_S.
REF_LOOP_S = 0.0015
# An interval with fewer speed samples than this is scaled by all of its child's.
MIN_SPEED_SAMPLES = 3
# Share of the speed samples cut from each end before averaging.
SPEED_TRIM = 0.1


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a failed import or trace)."""


@dataclass
class Tally:
    """Command runs attempted and failed, with the failure messages."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, label: str, check) -> None:
        self.attempted += 1
        try:
            check()
        except wl.CheckFailure as exc:
            self.failures.append(str(exc))
            print(f"FAILED {label}: {exc}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # One BLAS thread per child: the children run one at a time on a small box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to completion; return (exit code, spawn time, max RSS in MB).

    The child is reaped with ``wait4`` so its own peak RSS is known; it is
    killed if it outlives ``CHILD_TIMEOUT_S``, and on any interruption.
    """
    with open(log, "wb") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    try:
        deadline = t_spawn + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, usage.ru_maxrss * 1024 / 1e6


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * SPEED_TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def speed_scaled(start: float, end: float, samples: list) -> tuple[float, float]:
    """Wall time of [start, end] without the reference loops that ran in it,
    and that time scaled to the reference speed.

    The machine's speed drifts by a third within seconds and between
    runs, for every process alike.  A reference loop timed in the same
    process during the same interval slows with it, so the wall time
    times ``REF_LOOP_S`` over the loop's trimmed mean duration is the
    time the interval would have taken at the reference speed.
    """
    inside = [d for t, d in samples if start <= t < end]
    wall = end - start - sum(inside)
    basis = inside if len(inside) >= MIN_SPEED_SAMPLES else [d for _, d in samples]
    if not basis:
        raise BenchError("a child recorded no speed samples")
    return wall, wall * REF_LOOP_S / trimmed_mean(basis)


def log_tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def read_stamp(stamp: Path) -> dict:
    data = json.loads(stamp.read_text(encoding="utf-8"))
    if not Path(data["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hapaxchain was imported from {data['module']}, not from {SRC}")
    return data


def load_expected(name: str) -> dict | None:
    path = EXPECTED / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


class OutputChecker:
    """Invariants on every output; bit-for-bit agreement between repeats;
    agreement with the committed reference when one exists for the seed."""

    def __init__(self, sizes: dict, reference: dict | None):
        self.sizes = sizes
        self.reference = reference
        self.first: dict[str, dict] = {}

    def __call__(self, label: str, out: Path) -> None:
        wl.INVARIANTS[label](out, self.sizes)
        sig = wl.command_signature(label, out)
        if label in self.first:
            wl.compare_repeats(label, sig, self.first[label])
        else:
            self.first[label] = sig
        if self.reference is not None:
            if self.reference["inputs_sha256"] != self.sizes["inputs_sha256"]:
                raise wl.CheckFailure(f"{label}: the generated inputs differ from those the reference was recorded on")
            wl.compare_to_reference(label, sig, self.reference["commands"][label])


def run_commands(commands, job_dir: Path, tally: Tally, checker: OutputChecker) -> dict:
    """One job: each command in a fresh child; returns its timings.

    ``setup_s`` and ``job_s`` are scaled to the reference speed,
    ``setup_wall_s`` and ``job_wall_s`` are the wall times they came from.
    """
    job_dir.mkdir(parents=True)
    setup, setup_wall, job_s, job_wall, rss = [], [], 0.0, 0.0, 0.0
    for label, argv in commands:
        stamp, log = job_dir / f"{label}.stamp.json", job_dir / f"{label}.log"
        code, t_spawn, maxrss = spawn([sys.executable, str(CHILD), str(stamp), *argv], log)
        out = Path(argv[argv.index("--output-dir") + 1])

        def check():
            if code != 0:
                raise wl.CheckFailure(f"{label} exited with status {code}: {log_tail(log)}")
            checker(label, out)
        tally.run(label, check)
        if stamp.is_file():
            st = read_stamp(stamp)
            wall, scaled = speed_scaled(t_spawn, st["ready"], st["speed_samples"])
            setup_wall.append(wall)
            setup.append(scaled)
            wall, scaled = speed_scaled(st["ready"], st["end"], st["speed_samples"])
            job_wall += wall
            job_s += scaled
        rss = max(rss, maxrss)
    return {"setup_s": setup, "setup_wall_s": setup_wall, "job_s": job_s, "job_wall_s": job_wall,
            "peak_rss_mb": rss}


def import_only(work: Path) -> tuple[float, float]:
    """Set-up time of a fresh child that only imports hapaxchain.cli: (wall, scaled)."""
    stamp, log = work / "import.stamp.json", work / "import.log"
    code, t_spawn, _ = spawn([sys.executable, str(CHILD), str(stamp)], log)
    if code != 0:
        raise BenchError(f"importing hapaxchain.cli failed: {log_tail(log)}")
    st = read_stamp(stamp)
    return speed_scaled(t_spawn, st["ready"], st["speed_samples"])


def importtime(work: Path, k: int) -> dict[str, float]:
    """Cumulative import times of scipy.stats and hapaxchain.cli, from -X importtime."""
    log = work / f"importtime{k}.log"
    code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import hapaxchain.cli"], log)
    if code != 0:
        raise BenchError(f"importing hapaxchain.cli failed: {log_tail(log)}")
    cumulative = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"setup.import.scipy_stats_s": cumulative["scipy.stats"],
            "setup.import.hapaxchain_s": cumulative["hapaxchain.cli"]}


def src_lines() -> dict[str, int]:
    counts = {}
    for path in sorted((SRC / "hapaxchain").glob("*.py")):
        counts[f"{path.stem}.src_lines"] = len(path.read_text(encoding="utf-8").splitlines())
    counts["hapaxchain.src_lines"] = sum(counts.values())
    counts.pop("__init__.src_lines", None)
    return counts


def summarize(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples),
            "min": min(samples), "max": max(samples)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    workload = wl.WORKLOADS[name]
    work = BUILD / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    sizes = workload.generate(work / "inputs", wl.rng_for(seed, workload.stream))
    sizes["cli_seed"] = wl.cli_seed(seed, workload.stream)
    gate_sizes = wl.write_gate_corpus(work / "gate" / "corpus")
    reference = None if record else load_expected(f"{name}-seed{seed}")
    gate_reference = None if record else load_expected("gate")
    tally = Tally()
    checker = OutputChecker(sizes, reference)
    gate_checker = OutputChecker(gate_sizes, gate_reference)

    def job_commands(job_dir: Path):
        return workload.commands(work / "inputs", job_dir / "out", sizes)

    result = {"workload": name, "seed": seed, "trace": int(trace), "sizes": sizes,
              "gate_sizes": gate_sizes, "work_items_per_job": workload.work(sizes)}
    # The untimed gate also warms the page cache and byte-code cache.
    gate_dir = work / "gate" / "run"
    run_commands([("pipeline", wl.gate_argv(work / "gate" / "corpus", gate_dir / "out"))],
                 gate_dir, tally, gate_checker)
    if trace:
        spans_copy = BUILD / "results" / f"{name}-seed{seed}-spans.jsonl"
        result["layers"] = traced_run(work, tally, checker, job_commands, spans_copy)
    else:
        jobs, setup, setup_wall = [], [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            job_dir = work / f"job{len(jobs)}"
            job = run_commands(job_commands(job_dir), job_dir, tally, checker)
            shutil.rmtree(job_dir)
            setup += job["setup_s"]
            setup_wall += job["setup_wall_s"]
            for _ in range(SETUP_PER_JOB - len(job["setup_s"])):
                import_wall, import_scaled = import_only(work)
                setup_wall.append(import_wall)
                setup.append(import_scaled)
            jobs.append(job)
            wall = time.monotonic() - t0
            # Start another job if at least half of it fits, so runs last ``seconds`` on average.
            if len(jobs) >= MIN_JOBS and time.monotonic() - start + wall / 2 > seconds:
                break
        job_s = [job["job_s"] for job in jobs]
        result["samples"] = {"setup_s": setup, "job_s": job_s,
                             "peak_rss_mb": [job["peak_rss_mb"] for job in jobs],
                             "setup_wall_s": setup_wall, "job_wall_s": [job["job_wall_s"] for job in jobs]}
        result["summary"] = summary = {k: summarize(v) for k, v in result["samples"].items()}
        job_median = summary["job_s"]["median"]
        result["end_to_end"] = {
            "setup_s": summary["setup_s"]["median"],
            "job_s": job_median,
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
            "work_per_s": workload.work(sizes) / job_median,
        }
        result["measured_s"] = time.monotonic() - start
    if record:
        record_reference(f"{name}-seed{seed}", sizes, checker)
        record_reference("gate", gate_sizes, gate_checker)
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    return result


def traced_run(work: Path, tally: Tally, checker: OutputChecker, job_commands,
               spans_copy: Path) -> dict[str, float]:
    """Per-layer values: import times, one untraced job, one traced job."""
    imports = [importtime(work, k) for k in range(IMPORTTIME_SAMPLES)]
    layers: dict[str, float] = {key: statistics.median(s[key] for s in imports) for key in imports[0]}
    untraced = run_commands(job_commands(work / "untraced"), work / "untraced", tally, checker)

    traced_dir = work / "traced"
    traced_dir.mkdir()
    commands = [{"label": label, "argv": argv} for label, argv in job_commands(traced_dir)]
    plan, spans_file, result_file = traced_dir / "plan.json", traced_dir / "spans.jsonl", traced_dir / "result.json"
    plan.write_text(json.dumps({"commands": commands}), encoding="utf-8")
    code, _, _ = spawn([sys.executable, str(TRACED), str(plan), str(spans_file), str(result_file)],
                       traced_dir / "traced.log")
    if code != 0 or not result_file.is_file():
        raise BenchError(f"traced run failed: {log_tail(traced_dir / 'traced.log')}")
    run = read_stamp(result_file)
    traced_job_s = 0.0
    for cmd, spec in zip(run["commands"], commands):
        out = Path(spec["argv"][spec["argv"].index("--output-dir") + 1])

        def verify():
            if cmd["exit"] != 0:
                raise wl.CheckFailure(f"traced {cmd['label']} exited with status {cmd['exit']}: "
                                      f"{log_tail(traced_dir / 'traced.log')}")
            checker(cmd["label"], out)
        tally.run(f"traced {cmd['label']}", verify)
        traced_job_s += cmd["duration_s"]

    spans = [json.loads(line) for line in spans_file.read_text(encoding="utf-8").splitlines()]
    shutil.copy(spans_file, spans_copy)
    layers.update(traced.layer_stats(spans))
    layers.update(src_lines())
    layers["trace.job_s"] = traced_job_s
    layers["trace.untraced_job_s"] = untraced["job_wall_s"]
    layers["trace.overhead_s"] = traced_job_s - untraced["job_wall_s"]
    layers["wrapped"] = run["wrapped"]
    return layers


def record_reference(name: str, sizes: dict, checker: OutputChecker) -> None:
    commands = {label: {file: {"exact": e["exact"], "approx": e["approx"]} for file, e in sig.items()}
                for label, sig in checker.first.items()}
    payload = {"inputs_sha256": sizes["inputs_sha256"], "sizes": sizes, "commands": commands}
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def layer_value(layers: dict, name: str):
    """A per-layer metric; 0 for a traced function the workload never called.

    A name that the traced run did not produce and whose function the
    tracer did not wrap means the function was renamed, moved or
    re-decorated past the tracer, and reading it as 0 would look like a
    gain, so the run stops instead.
    """
    if name in layers:
        return layers[name]
    module, _, rest = name.partition(".")
    function = f"{module}.{rest.split('.')[0]}"
    if module in traced.TRACED_MODULES and function in layers["wrapped"]:
        return 0
    raise BenchError(f"per-layer metric {name} was not measured (no traced function {function})")


def metric_values(result: dict, spec: dict, trace: bool) -> dict[str, dict]:
    if trace:
        return {m["name"]: {"value": layer_value(result["layers"], m["name"]), "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def print_report(result: dict, spec: dict) -> None:
    name, workload = result["workload"], wl.WORKLOADS[result["workload"]]
    failed = len(result["failures"])
    print(f"[{name}] seed {result['seed']}: sizes {json.dumps(result['sizes'], sort_keys=True)}")
    if "end_to_end" in result:
        for m in spec["end_to_end"]:
            key, value = m["name"], result["end_to_end"][m["name"]]
            if key == "work_per_s":
                print(f"  {workload.work_metric:<16} {value:>14.6g} {workload.work_unit:<9} "
                      f"{result['work_items_per_job']:g} items / median job_s")
                continue
            s = result["summary"][key]
            wall = result["summary"].get(f"{key[:-2]}_wall_s") if key in ("setup_s", "job_s") else None
            print(f"  {key:<16} {value:>14.6g} {m['unit']:<9} median of n={s['n']}; "
                  f"min {s['min']:.6g}, max {s['max']:.6g}"
                  + (f"; wall-clock median {wall['median']:.6g} s" if wall else ""))
    else:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<44} {result['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<16} {failed / result['attempted']:>14.6g} {'ratio':<9} "
          f"{failed} failed of {result['attempted']} command runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the outputs of this seed to bench/expected/ as the reference")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (SRC / "hapaxchain" / "cli.py").is_file():
            raise BenchError(f"no hapaxchain sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        (BUILD / "results").mkdir(parents=True, exist_ok=True)
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, seconds, bool(args.trace), args.record) for n in names]
        for result in results:
            result["metrics"] = metric_values(result, spec, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        (BUILD / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print_report(result, spec)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
