"""The forked map that loads the corpus and runs the order-test simulations
and the MH chains on every usable CPU: its results equal the serial loop's,
and no worker outlives a call, whether it ends in a result, an exception or
a dead worker, and each block starts on a CPU of its own.  The processes'
memory: the peak of saved chains, and the freed pages that ``mcmc`` keeps
for its chains."""

import dataclasses
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import corpus_reference
import markov_reference
import numpy as np
import pytest

from hapaxchain import markov, persist
from hapaxchain.corpus import IngestionError, load_documents
from hapaxchain.markov import order_test
from hapaxchain.mh_sampler import convergence_study, iid_sample, run_chain
from hapaxchain.ranksize import ZMParams, target_distribution
from hapaxchain.stats import _map_on_cpus, child_seed, ks_two_sample

SRC = str(Path(__file__).resolve().parents[1] / "src")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2 or "fork" not in multiprocessing.get_all_start_methods(),
                                    reason="the forked path needs two usable CPUs and fork")
on_linux = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's CPU placement")


def allow_one_cpu(patch) -> None:
    """Take the serial path: the process may run on one CPU only."""
    patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    patch.setattr(os, "cpu_count", lambda: 1)


@pytest.fixture
def one_cpu(monkeypatch):
    allow_one_cpu(monkeypatch)


@pytest.fixture(params=[pytest.param("serial"), pytest.param("forked", marks=needs_two_cpus)])
def each_path(request, monkeypatch):
    """Run the test once on one CPU and once on the CPUs this process has."""
    if request.param == "serial":
        allow_one_cpu(monkeypatch)


def run_python(script: str, *args: str, flags=(), env_drop=()) -> subprocess.CompletedProcess:
    """``python *flags -c script *args`` on the package's sources, bounded in time."""
    env = {k: v for k, v in os.environ.items() if k not in env_drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(script), *args], capture_output=True,
                          text=True, env=env, timeout=120)


def rank_sequence(n=3000, seed=3):
    return np.random.default_rng(seed).integers(1, 25, size=n)


LAW = target_distribution(ZMParams(alpha=1.0, beta=10.0, gamma=1.5), 40)


# ------------------------------------------------------------------ the map


def test_one_cpu_runs_in_this_process_in_item_order(one_cpu):
    pid = os.getpid()
    assert _map_on_cpus(lambda x: (os.getpid(), x * x), [5, 1, 4]) == [(pid, 25), (pid, 1), (pid, 16)]
    assert _map_on_cpus(lambda x: x, []) == []


@needs_two_cpus
def test_two_cpus_run_in_forked_workers_that_see_closed_over_arrays():
    big = np.arange(1_000_000)  # inherited at the fork, never pickled
    out = _map_on_cpus(lambda k: (os.getpid(), int(big[k])), [0, 999_999, 5])
    assert [v for _, v in out] == [0, 999_999, 5]
    assert os.getpid() not in {pid for pid, _ in out}
    assert multiprocessing.active_children() == []


def test_a_single_item_runs_in_this_process():
    assert _map_on_cpus(lambda _: os.getpid(), [0]) == [os.getpid()]


# On two CPUs, item 3 fails only in the later block, after the earlier one
# succeeded; items 1 and 4 fail one in each block, and the earlier wins, as in the loop.
@pytest.mark.parametrize("bad, first", [({3}, 3), ({1, 4}, 1)])
def test_an_exception_in_a_task_reaches_the_caller_as_it_was(bad, first, each_path):
    def task(x):
        if x in bad:
            raise ValueError(f"item {x} is bad")
        return x

    with pytest.raises(ValueError) as info:
        _map_on_cpus(task, range(6))
    assert str(info.value) == f"item {first} is bad"
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_each_block_runs_whole_in_one_worker(monkeypatch):
    # Two CPUs give blocks of 4 and 3 items.  Which worker takes a block is
    # the executor's choice: one worker may run both, so two pids are not asserted.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pids = _map_on_cpus(lambda k: os.getpid(), range(7))
    assert len(set(pids[:4])) == 1 and len(set(pids[4:])) == 1
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_no_more_workers_are_forked_than_blocks(monkeypatch):
    # Three CPUs and four items give blocks of 2, so two workers, not three.
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert _map_on_cpus(lambda k: k * k, range(4)) == [0, 1, 4, 9]
    assert len(forks) == 2 and multiprocessing.active_children() == []


def cpu_and_mask() -> tuple[int, set[int]]:
    """The CPU this process runs on (field 39 of ``/proc/self/stat``) and its affinity mask."""
    with open("/proc/self/stat", encoding="utf-8") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36]), os.sched_getaffinity(0)


@needs_two_cpus
@on_linux
def test_each_block_starts_on_a_cpu_of_its_own_and_keeps_every_cpu():
    # Forked workers would otherwise start, and stay, on this process's CPU.
    mask, items = os.sched_getaffinity(0), range(2 * CPUS)  # one block of 2 items per CPU
    out = _map_on_cpus(lambda k: (k * k, *cpu_and_mask()), items)
    assert [v for v, _, _ in out] == [k * k for k in items]
    assert [cpu for _, cpu, _ in out[::2]] == sorted(mask)
    assert all(got == mask for _, _, got in out)
    assert multiprocessing.active_children() == []


@needs_two_cpus
@on_linux
def test_a_cpu_the_process_cannot_take_leaves_the_results_alone(monkeypatch):
    # The last block is placed on a CPU id no machine has; the worker keeps its mask.
    mask, missing, getaffinity = os.sched_getaffinity(0), 1 << 16, os.sched_getaffinity
    with pytest.raises(OSError):
        os.sched_setaffinity(0, {missing})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask | {missing})
    items = range(2 * (CPUS + 1))
    assert _map_on_cpus(lambda k: (k * k, getaffinity(0)), items) == [(k * k, mask) for k in items]
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_a_platform_without_sched_setaffinity_maps_unplaced(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert _map_on_cpus(lambda k: k * k, range(7)) == [k * k for k in range(7)]
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_a_dead_worker_ends_in_an_error_not_a_hang():
    proc = run_python("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from hapaxchain.stats import _map_on_cpus
        parent = os.getpid()

        def task(x):
            if x == 2 and os.getpid() != parent:
                os._exit(7)
            return x

        try:
            _map_on_cpus(task, range(5))
        except BrokenProcessPool:
            print("broken")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "broken\n"


@needs_two_cpus
@pytest.mark.parametrize("command, patched", [
    (["ordertest", "--replicates", "2"], "markov.simulate_order1"),
    (["mcmc", "--alpha", "1", "--beta", "10", "--gamma", "1.5", "--rbar", "40", "--runs", "4", "--steps", "500"],
     "mh_sampler.run_chain"),
])
def test_the_cli_reports_a_dead_worker_as_an_error(tmp_path, command, patched):
    (tmp_path / "rank_sequence.txt").write_text("".join(f"{r}\n" for r in rank_sequence(500)), encoding="utf-8")
    module, name = patched.split(".")
    proc = run_python(f"""
        import os, sys
        from hapaxchain import {module}
        from hapaxchain.cli import main
        parent = os.getpid()

        def dies(*args):
            if os.getpid() != parent:
                os._exit(7)
            raise AssertionError("ran in the parent")

        {module}.{name} = dies
        main(args=sys.argv[1:], prog_name="hapaxchain")
    """, *command, "--output-dir", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("Error: A process in the process pool was terminated abruptly"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_forking_raises_no_threads_warning():
    # Python 3.12+ warns when a process that runs threads forks.  The OpenBLAS
    # threads numpy starts are left at their default; the warning is an error.
    proc = run_python("""
        import numpy as np
        from hapaxchain.markov import order_test
        from hapaxchain.mh_sampler import convergence_study, iid_sample
        from hapaxchain.ranksize import ZMParams, target_distribution
        np.ones((200, 200)) @ np.ones((200, 200))
        order_test(np.random.default_rng(1).integers(1, 20, 2000), replicates=2, seed=1)
        f = target_distribution(ZMParams(1.0, 10.0, 1.5), 40)
        convergence_study(f, 4, 1000, iid_sample(f, 500, 2), seed=3)
    """, flags=("-W", "error:This process:DeprecationWarning"),
        env_drop=("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------- forked equals serial


def write_documents(root: Path, count: int) -> None:
    """``count`` documents of 30 words drawn from 40, so most words are hapaxes of several."""
    rng = np.random.default_rng(5)
    for k in range(count):
        (root / f"doc{k:02d}.txt").write_text(" ".join(f"w{chr(97 + w // 26)}{chr(97 + w % 26)}"
                                                       for w in rng.integers(0, 40, 30)), encoding="utf-8")


def test_load_documents_gives_the_same_corpus_on_one_cpu_as_on_all(tmp_path, monkeypatch):
    write_documents(tmp_path, 9)
    every = load_documents(tmp_path)
    allow_one_cpu(monkeypatch)
    one = load_documents(tmp_path)
    assert multiprocessing.active_children() == []
    want = corpus_reference.load_documents(tmp_path)
    assert corpus_reference.documents(every) == corpus_reference.documents(one) == want
    assert every.words == one.words
    assert np.array_equal(every.codes, one.codes) and np.array_equal(every.ends, one.ends)


def test_bad_utf8_in_an_early_and_a_late_document_names_the_early_one(tmp_path, each_path):
    write_documents(tmp_path, 6)
    (tmp_path / "doc01.txt").write_bytes(b"fine \xff")
    (tmp_path / "doc05.txt").write_bytes(b"\x80 fine")
    with pytest.raises(IngestionError) as info:
        load_documents(tmp_path)
    assert str(info.value) == (f"invalid UTF-8 in {tmp_path / 'doc01.txt'}: 'utf-8' codec can't decode byte 0xff "
                               "in position 5: invalid start byte")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("replicates", [1, 3])
def test_order_test_equals_the_replicate_loop(replicates, each_path):
    values = rank_sequence()
    report = order_test(values, replicates=replicates, len1=2000, len2=1500, seed=17)
    assert multiprocessing.active_children() == []
    np.testing.assert_equal(dataclasses.asdict(report),
                            dataclasses.asdict(markov_reference.order_test(values, replicates, 2000, 1500, 17)))


@needs_two_cpus
@pytest.mark.parametrize("replicates", [1, 3])
def test_order2_is_built_in_the_workers_that_step_it(replicates, tmp_path, monkeypatch):
    # Each _order2 call appends its pid; the workers inherit the patch at the fork.
    log, order2 = tmp_path / "builds.txt", markov._order2

    def order2_logged(*args):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return order2(*args)

    def report_and_builds():
        log.unlink(missing_ok=True)
        report = order_test(rank_sequence(), replicates=replicates, len1=2000, len2=1500, seed=17)
        assert multiprocessing.active_children() == []
        return report, Counter(int(pid) for pid in log.read_text(encoding="utf-8").split())

    monkeypatch.setattr(markov, "_order2", order2_logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forked, builds = report_and_builds()
    assert os.getpid() not in builds and set(builds.values()) == {1}
    if replicates == 1:  # one task a worker: the order-1 worker builds none
        assert len(builds) == 1
    allow_one_cpu(monkeypatch)
    serial, builds = report_and_builds()
    assert builds == {os.getpid(): 1}
    assert forked == serial


def test_convergence_study_equals_the_chain_loop(each_path, tmp_path):
    reference = iid_sample(LAW, 800, 1)
    paths = [tmp_path / f"{k}.txt" for k in range(5)]
    report = convergence_study(LAW, 5, 3000, reference, seed=23, sample_paths=paths)
    assert multiprocessing.active_children() == []
    chains = [run_chain(LAW, 3000, child_seed(23, k)).samples for k in range(5)]
    assert report.ks_statistics == [ks_two_sample(c, reference) for c in chains]
    for path, chain in zip(paths, chains):
        assert np.array_equal(persist.read_rank_sequence(path), chain)


@needs_two_cpus
def test_saved_chains_are_the_same_bytes_on_one_cpu_and_on_all(tmp_path, monkeypatch):
    def study(name: str) -> list[bytes]:
        paths = [tmp_path / name / f"mh_samples_{k}.txt" for k in range(5)]
        convergence_study(LAW, 5, 3000, [1, 2, 3], seed=23, sample_paths=paths)
        assert multiprocessing.active_children() == []
        return [path.read_bytes() for path in paths]

    forked = study("all")
    allow_one_cpu(monkeypatch)
    serial = study("one")
    alone = [persist.write_rank_sequence(tmp_path / "alone" / f"{k}.txt",
                                         run_chain(LAW, 3000, child_seed(23, k)).samples).read_bytes() for k in range(5)]
    assert forked == serial == alone


@pytest.mark.parametrize("count", [4, 6])
def test_study_refuses_a_sample_path_count_other_than_runs(count, each_path, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match=rf"^sample_paths must hold one path per run \(5\), got {count}$"):
        convergence_study(LAW, 5, 300, [1, 2, 3], seed=23, sample_paths=[tmp_path / f"{k}.txt" for k in range(count)])
    assert list(tmp_path.iterdir()) == [] and multiprocessing.active_children() == []


def test_saving_samples_keeps_a_flat_memory_peak(tmp_path):
    # The peak of the CLI and its workers (RUSAGE_CHILDREN of a process that
    # runs only the CLI) must not grow with the number of chains it saves.
    peaks = {}
    for runs in (100, 400):
        out = tmp_path / str(runs)
        proc = run_python("""
            import resource, subprocess, sys
            subprocess.run([sys.executable, "-m", "hapaxchain.cli", *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """, "mcmc", "--alpha", "6.029e8", "--beta", "2540", "--gamma", "1.896", "--rbar", "300", "--steps", "50000",
            "--runs", str(runs), "--save-samples", "--output-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("mh_samples_*.txt"))) == runs
        shutil.rmtree(out)  # 0.2 MB a chain
        peaks[runs] = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peaks[400] - peaks[100] < 15, peaks


@pytest.mark.skipif(sys.platform == "win32", reason="ctypes.CDLL(None) opens no C library there")
def test_importing_the_package_leaves_the_allocator_alone():
    proc = run_python("""
        import ctypes
        looked_up = []
        class Spy(ctypes.CDLL):
            def __getattr__(self, name):
                looked_up.append(name)
                return super().__getattr__(name)
        ctypes.CDLL = Spy
        import hapaxchain, hapaxchain.mh_sampler
        print("mallopt" in looked_up)
        import hapaxchain.cli
        hapaxchain.cli._keep_freed_pages()
        print("mallopt" in looked_up)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]  # the spy sees the setup, and the import does not run it


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_mh_chains_reuse_freed_pages_after_the_setup():
    # Without the setup, glibc trims the ~800 KB temporaries of a 100 000-step
    # chain when they are freed, and each chain faults about 800 pages back in.
    proc = run_python("""
        import resource
        from hapaxchain.cli import _keep_freed_pages
        from hapaxchain.mh_sampler import run_chain
        from hapaxchain.ranksize import ZMParams, target_distribution
        _keep_freed_pages()
        _keep_freed_pages()  # a second call is harmless
        f = target_distribution(ZMParams(6.029e8, 2540.0, 1.896), 300)
        run_chain(f, 100_000, 0)
        for seed in range(1, 21):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_chain(f, 100_000, seed)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert proc.returncode == 0, proc.stderr
    faults = [int(n) for n in proc.stdout.split()]
    assert len(faults) == 20 and max(faults) < 50, faults
