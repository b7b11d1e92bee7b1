"""Workload definitions: seeded input generators, the CLI commands each
workload runs, and the checks applied to what those commands write.

Inputs are built here with numpy alone, so a change to the package
under test cannot change what it is fed.  Every command's outputs are
reduced to a *signature*: an exact part (digests of sampled and integer
content, which must match bit for bit) and an approximate part (derived
floats, compared at ``REL_TOL``/``ABS_TOL`` so that a reordered sum
moving the last ulp is not a failure).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Paper law and scale.
ZM_ALPHA, ZM_BETA, ZM_GAMMA = 6.029e8, 2540.0, 1.896
R_BAR = 300
SEQUENCE_LENGTH = 509_138
LEN2 = 100_000
ORDERTEST_REPLICATES = 1
MH_STEPS = 100_000
MH_RUNS = 100
REFERENCE_SIZE = 31_074

# extract-fit corpus: paper-length hapax sequence, alphabet in the few hundreds.
CORPUS_DOCS = 2_000
CORPUS_TOKENS_PER_DOC = 400
CORPUS_VOCAB = 200_000

# Checksum-gate corpus and pipeline settings (fixed; independent of --seed).
GATE_SEED = 20221013
GATE_DOCS = 30
GATE_TOKENS_PER_DOC = 200
GATE_VOCAB = 2_000
GATE_ARGS = ["--seed", "11", "--replicates", "3", "--len2", "2000", "--steps", "5000",
             "--runs", "5", "--reference-size", "2000"]

# Files whose whole content is sampled or integer data: compared by digest.
EXACT_FILES = {
    "rank_sequence.txt", "hapax_table.csv", "ks_statistics.csv",
    "ks_first_vs_second.csv", "ks_vs_empirical.csv",
    "fig2_ks_first_vs_second.csv", "fig5_ks_vs_empirical.csv", "fig6_ks_hist.csv",
}
# JSON keys holding KS statistics (ratios of integer counts): exact.
EXACT_JSON_KEYS = {"ks_stats_first_vs_second", "ks_stats_vs_empirical", "ks_statistics"}
# JSON keys that embed paths, package metadata or digests of float-bearing
# files; ``config_hash`` hashes input/output paths, so it is not comparable.
DROPPED_JSON_KEYS = {"config_hash", "config", "stages", "version", "outputs", "input_sha256"}

COMMAND_FILES = {
    "extract": ["hapax_table.csv", "rank_sequence.txt", "extract_meta.json"],
    "fit": ["fit_report.json"],
    "target": ["target_distribution.csv", "target_meta.json"],
    "ordertest": ["order_test_report.json", "ks_first_vs_second.csv", "wmw_pvalues.csv",
                  "chi_square.csv", "ks_vs_empirical.csv", "indicators.csv"],
    "mcmc": ["convergence_report.json", "ks_statistics.csv"],
}
COMMAND_FILES["pipeline"] = [
    *COMMAND_FILES["extract"], *COMMAND_FILES["fit"], *COMMAND_FILES["target"],
    *COMMAND_FILES["ordertest"], *COMMAND_FILES["mcmc"],
    "fig1_ranksize.csv", "fig2_ks_first_vs_second.csv", "fig3_wmw_pvalues.csv",
    "fig4_chi_square.csv", "fig5_ks_vs_empirical.csv", "fig6_ks_hist.csv",
    "fig7_indicators.csv", "manifest.json",
]


class CheckFailure(Exception):
    """An output differs from its reference or breaks an invariant."""


# ------------------------------------------------------------------ inputs


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def cli_seed(seed: int, stream: int) -> int:
    """The ``--seed`` handed to the CLI, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, stream, 1]).generate_state(1)[0] >> 1)


def zm_probs(r_bar: int) -> np.ndarray:
    """alpha / (beta + r)^gamma over ranks 1..r_bar, normalized."""
    f = ZM_ALPHA / (ZM_BETA + np.arange(1, r_bar + 1, dtype=float)) ** ZM_GAMMA
    return f / f.sum()


def write_rank_sequence(path: Path, rng: np.random.Generator) -> dict:
    ranks = rng.choice(R_BAR, size=SEQUENCE_LENGTH, p=zm_probs(R_BAR)) + 1
    data = ("\n".join(map(str, ranks.tolist())) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return {
        "sequence_length": int(ranks.size),
        "alphabet": int(np.unique(ranks).size),
        "sequence_mean": float(ranks.mean()),
        "inputs_sha256": sha256_bytes(data),
    }


def _word(i: int) -> str:
    """Distinct lowercase letter-only word for vocabulary index ``i``."""
    n, letters = i + 26 * 26, []
    while n:
        n, d = divmod(n, 26)
        letters.append(chr(97 + d))
    return "".join(reversed(letters))


def write_corpus(directory: Path, rng: np.random.Generator, docs: int, tokens_per_doc: int,
                 vocab: int) -> dict:
    """Documents of Zipf(1.0) tokens; returns sizes and the hapax oracle.

    The hapax counts are computed here independently of the package:
    a word is a hapax of a document when it occurs there exactly once,
    and its frequency is the number of documents where it is one.
    """
    directory.mkdir(parents=True, exist_ok=True)
    p = 1.0 / np.arange(1, vocab + 1)
    ids = rng.choice(vocab, size=(docs, tokens_per_doc), p=p / p.sum())
    words = [_word(i) for i in range(vocab)]
    digest = hashlib.sha256()
    hapax_ids = []
    for d in range(docs):
        row = ids[d].tolist()
        lines = [" ".join(words[w] for w in row[k:k + 16]) for k in range(0, len(row), 16)]
        data = ("\n".join(lines) + "\n").encode()
        (directory / f"doc{d:05d}.txt").write_bytes(data)
        digest.update(data)
        uniq, counts = np.unique(ids[d], return_counts=True)
        hapax_ids.append(uniq[counts == 1])
    freq = np.bincount(np.concatenate(hapax_ids), minlength=vocab)
    return {
        "documents": docs,
        "tokens": docs * tokens_per_doc,
        "hapax_words": int((freq > 0).sum()),
        "hapax_occurrences": int(freq.sum()),
        "alphabet": int(np.unique(freq[freq > 0]).size),
        "inputs_sha256": digest.hexdigest(),
    }


def write_gate_corpus(directory: Path) -> dict:
    return write_corpus(directory, rng_for(GATE_SEED, 0), GATE_DOCS, GATE_TOKENS_PER_DOC, GATE_VOCAB)


def gate_argv(corpus: Path, out: Path) -> list[str]:
    return ["pipeline", str(corpus), "--output-dir", str(out), *GATE_ARGS]


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its inputs and which commands it times.

    ``generate(inputs_dir, rng)`` writes the inputs and returns their
    sizes; ``commands(inputs_dir, out_dir, sizes)`` gives the
    ``(label, argv)`` pairs of one job; ``work(sizes)`` is the number
    of work items one job completes, in ``work_unit``.  ``stream``
    separates this workload's random streams from the others'.
    """

    name: str
    stream: int
    generate: Callable[[Path, np.random.Generator], dict]
    commands: Callable[[Path, Path, dict], list[tuple[str, list[str]]]]
    work: Callable[[dict], float]
    work_unit: str
    work_metric: str


def _ordertest_commands(inputs: Path, out: Path, sizes: dict) -> list[tuple[str, list[str]]]:
    return [("ordertest", [
        "ordertest", "--input", str(inputs / "rank_sequence.txt"),
        "--replicates", str(ORDERTEST_REPLICATES), "--len2", str(LEN2),
        "--seed", str(sizes["cli_seed"]), "--output-dir", str(out),
    ])]


def _mcmc_commands(inputs: Path, out: Path, sizes: dict) -> list[tuple[str, list[str]]]:
    return [("mcmc", [
        "mcmc", "--alpha", repr(ZM_ALPHA), "--beta", repr(ZM_BETA), "--gamma", repr(ZM_GAMMA),
        "--rbar", str(R_BAR), "--steps", str(MH_STEPS), "--runs", str(MH_RUNS),
        "--reference-size", str(REFERENCE_SIZE), "--seed", str(sizes["cli_seed"]),
        "--output-dir", str(out),
    ])]


def _extract_fit_commands(inputs: Path, out: Path, sizes: dict) -> list[tuple[str, list[str]]]:
    return [
        ("extract", ["extract", str(inputs / "corpus"), "--output-dir", str(out)]),
        ("fit", ["fit", "--output-dir", str(out)]),
        ("target", ["target", "--fit-json", str(out / "fit_report.json"),
                    "--rbar", str(R_BAR), "--output-dir", str(out)]),
    ]


def _no_inputs(inputs: Path, rng: np.random.Generator) -> dict:
    return {"inputs_sha256": sha256_bytes(b"")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ordertest-paper", stream=1,
            generate=lambda d, rng: write_rank_sequence(d / "rank_sequence.txt", rng),
            commands=_ordertest_commands,
            work=lambda sz: ORDERTEST_REPLICATES * (sz["sequence_length"] + LEN2),
            work_unit="steps/s", work_metric="sim_steps_per_s",
        ),
        Workload(
            name="mcmc-paper", stream=2,
            generate=_no_inputs,
            commands=_mcmc_commands,
            work=lambda sz: MH_RUNS * MH_STEPS,
            work_unit="steps/s", work_metric="mh_steps_per_s",
        ),
        Workload(
            name="extract-fit", stream=3,
            generate=lambda d, rng: write_corpus(
                d / "corpus", rng, CORPUS_DOCS, CORPUS_TOKENS_PER_DOC, CORPUS_VOCAB),
            commands=_extract_fit_commands,
            work=lambda sz: sz["tokens"],
            work_unit="tokens/s", work_metric="tokens_per_s",
        ),
    )
}


# -------------------------------------------------------------- signatures


def _is_float_text(cell: str) -> bool:
    try:
        int(cell)
        return False
    except ValueError:
        pass
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _flatten(value, path: str, out: list[tuple[str, object]]):
    if isinstance(value, dict):
        for key in sorted(value):
            if key not in DROPPED_JSON_KEYS:
                _flatten(value[key], f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out.append((path, value))


def file_signature(path: Path) -> tuple[str, list[tuple[str, float]]]:
    """(digest of the exact content, labelled derived floats) of one artifact."""
    name = path.name
    if name in EXACT_FILES:
        return sha256_file(path), []
    approx: list[tuple[str, float]] = []
    exact: list[str] = []
    if name.endswith(".json"):
        leaves: list[tuple[str, object]] = []
        _flatten(json.loads(path.read_text(encoding="utf-8")), "", leaves)
        for key, value in leaves:
            top = key.split(".")[0].split("[")[0]
            if isinstance(value, float) and top not in EXACT_JSON_KEYS:
                approx.append((key, value))
                exact.append(f"{key}=<float>")
            else:
                exact.append(f"{key}={value!r}")
    else:
        for r, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            cells = line.split(",")
            for c, cell in enumerate(cells):
                if _is_float_text(cell):
                    approx.append((f"row {r} col {c}", float(cell)))
                    cells[c] = "<float>"
            exact.append(",".join(cells))
    return sha256_bytes("\n".join(exact).encode()), approx


def command_signature(label: str, out: Path) -> dict:
    """Signature of every artifact a command writes, keyed by file name."""
    sig = {}
    for name in COMMAND_FILES[label]:
        path = out / name
        if not path.is_file():
            raise CheckFailure(f"{label}: missing output {name}")
        digest, approx = file_signature(path)
        sig[name] = {"exact": digest, "approx": [v for _, v in approx],
                     "labels": [k for k, _ in approx]}
    return sig


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_to_reference(label: str, sig: dict, ref: dict) -> None:
    """Exact parts must match; derived floats within REL_TOL/ABS_TOL."""
    for name, entry in ref.items():
        got = sig.get(name)
        if got is None:
            raise CheckFailure(f"{label}: {name} not produced")
        if got["exact"] != entry["exact"]:
            raise CheckFailure(f"{label}: {name} differs from the committed reference (exact content)")
        if len(got["approx"]) != len(entry["approx"]):
            raise CheckFailure(f"{label}: {name} has {len(got['approx'])} floats, reference {len(entry['approx'])}")
        for where, a, b in zip(got["labels"], got["approx"], entry["approx"]):
            if not _same_float(a, b):
                raise CheckFailure(f"{label}: {name} {where} = {a!r}, reference {b!r}")


def compare_repeats(label: str, sig: dict, first: dict) -> None:
    """Repeats of one command on one input must agree bit for bit."""
    for name, entry in first.items():
        got = sig[name]
        if got["exact"] != entry["exact"] or got["approx"] != entry["approx"]:
            raise CheckFailure(f"{label}: {name} differs between repeats of the same job")


# -------------------------------------------------------------- invariants


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _unit_interval(values, what: str) -> None:
    vals = list(values)
    _require(all(isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals),
             f"{what} must be finite and lie in [0, 1]")


def _finite(values, what: str) -> None:
    _require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{what} must be finite")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_ordertest(out: Path, sizes: dict) -> None:
    rep = _read_json(out / "order_test_report.json")
    n = rep["replicates"]
    for key in ("ks_stats_first_vs_second", "ks_stats_vs_empirical", "wmw_p_values"):
        _require(len(rep[key]) == n, f"ordertest: {key} has {len(rep[key])} entries, expected {n}")
        _unit_interval(rep[key], f"ordertest: {key}")
    _finite(rep["chi_square_stats"], "ordertest: chi_square_stats")
    for name, vals in rep["indicators"].items():
        _finite(vals, f"ordertest: indicator {name}")
    _finite(rep["indicators_observed"].values(), "ordertest: observed indicators")
    for battery, per_level in rep["pass_fractions"].items():
        _unit_interval(per_level.values(), f"ordertest: pass fractions of {battery}")
    if "sequence_length" in sizes:
        _require(rep["len1"] == sizes["sequence_length"], "ordertest: len1 is not the input length")
        _require(_same_float(rep["indicators_observed"]["mean"], sizes["sequence_mean"]),
                 "ordertest: observed mean differs from the input's mean")


def _check_mcmc(out: Path, sizes: dict) -> None:
    rep = _read_json(out / "convergence_report.json")
    _require(len(rep["ks_statistics"]) == rep["runs"], "mcmc: one KS statistic per run expected")
    _unit_interval(rep["ks_statistics"], "mcmc: ks_statistics")
    _unit_interval(rep["pass_fraction"].values(), "mcmc: pass fractions")


def _check_extract(out: Path, sizes: dict) -> None:
    meta = _read_json(out / "extract_meta.json")
    for key, size_key in (("documents", "documents"), ("hapaxes", "hapax_words"),
                          ("occurrences", "hapax_occurrences"), ("alphabet_size", "alphabet")):
        _require(meta[key] == sizes[size_key],
                 f"extract: {key} = {meta[key]}, the generated corpus has {sizes[size_key]}")
    ranks = np.loadtxt(out / "rank_sequence.txt", dtype=np.int64, ndmin=1)
    _require(ranks.size == sizes["hapax_occurrences"], "extract: rank sequence length != hapax occurrences")
    _require(bool(ranks.min() >= 1 and ranks.max() <= sizes["alphabet"]), "extract: rank outside 1..alphabet")


def _check_fit(out: Path, sizes: dict) -> None:
    rep = _read_json(out / "fit_report.json")
    p = rep["params"]
    _finite(p.values(), "fit: parameters")
    _require(p["alpha"] > 0 and p["gamma"] > 0 and p["beta"] > -1, "fit: parameters outside the law's domain")
    _require(rep["n_points"] == sizes["hapax_words"], "fit: n_points != number of hapax words")


def _check_target(out: Path, sizes: dict) -> None:
    rows = (out / "target_distribution.csv").read_text(encoding="utf-8").splitlines()[1:]
    probs = np.array([float(r.split(",")[1]) for r in rows])
    _require(probs.size == R_BAR, f"target: {probs.size} ranks, expected {R_BAR}")
    _require(bool(np.all(probs > 0) and np.all(np.diff(probs) < 0)), "target: probabilities not positive and decreasing")
    _require(abs(probs.sum() - 1.0) < 1e-9, "target: probabilities do not sum to one")


def _check_pipeline(out: Path, sizes: dict) -> None:
    for check in (_check_extract, _check_fit, _check_target, _check_ordertest, _check_mcmc):
        check(out, sizes)
    manifest = _read_json(out / "manifest.json")
    _require(sorted(manifest["stages"]) == sorted(["extract", "fit", "target", "ordertest", "mcmc", "report"]),
             "pipeline: manifest does not list every stage")


INVARIANTS = {
    "ordertest": _check_ordertest,
    "mcmc": _check_mcmc,
    "extract": _check_extract,
    "fit": _check_fit,
    "target": _check_target,
    "pipeline": _check_pipeline,
}
