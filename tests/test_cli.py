"""End-to-end tests of the command line interface."""

import builtins
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from corpus_reference import corpus_id
from markov_reference import from_dense

from hapaxchain import corpus, persist
from hapaxchain.cli import OPTIONS, PIPELINE, STAGES, _write_order_tables, main
from hapaxchain.markov import order_test, simulate_order1
from hapaxchain.mh_sampler import convergence_study
from hapaxchain.persist import read_hapax_table, write_csv, write_rank_sequence
from hapaxchain.ranksize import ZMParams, zm_eval

EXPECTED_TABLE = "word,frequency,dense_rank,ordinal_rank\na,2,1,1\nc,1,2,2\nd,1,2,3\n"
EXPECTED_SEQUENCE = "1\n2\n1\n2\n"


@pytest.fixture
def runner():
    return CliRunner()


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def write_sequence_file(tmp_path: Path, n=4000, seed=3) -> Path:
    probs = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]])
    tm = from_dense(np.array([1, 2, 3]), probs)
    seq = simulate_order1(tm, n, seed=seed)
    path = tmp_path / "rank_sequence.txt"
    write_rank_sequence(path, seq)
    return path


# ----------------------------------------------------------------- extract


def test_extract_toy_corpus(runner, toy_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", str(toy_corpus_dir), "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert "documents=2 hapaxes=3 occurrences=4 alphabet_size=2" in result.output
    assert read(out / "hapax_table.csv") == EXPECTED_TABLE
    assert read(out / "rank_sequence.txt") == EXPECTED_SEQUENCE
    meta = json.loads(read(out / "extract_meta.json"))
    assert meta["alphabet_size"] == 2
    assert set(meta["outputs"]) == {"hapax_table.csv", "rank_sequence.txt"}


def test_extract_rerun_byte_identical(runner, toy_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert runner.invoke(main, ["extract", str(toy_corpus_dir), "--output-dir", str(out)]).exit_code == 0
    first = snapshot(out)
    assert runner.invoke(main, ["extract", str(toy_corpus_dir), "--output-dir", str(out)]).exit_code == 0
    assert snapshot(out) == first


def test_extract_finds_each_documents_hapaxes_once(runner, rich_corpus_dir, tmp_path, monkeypatch):
    # Documents load on every usable CPU, so each call is noted in a file the workers share.
    calls = tmp_path / "calls"
    extract = corpus.extract_document_hapaxes

    def counted(tokens):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{len(tokens)}\n")
        return extract(tokens)

    monkeypatch.setattr(corpus, "extract_document_hapaxes", counted)
    result = runner.invoke(main, ["extract", str(rich_corpus_dir), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert len(calls.read_text(encoding="utf-8").splitlines()) == len(list(rich_corpus_dir.glob("*.txt"))) == 12


# Curly quotes and apostrophes, em dashes, accented and Cyrillic words ("й" and the
# accented letters decompose under NFD); "café" is a hapax of the first document only.
UNICODE_DOCUMENTS = ("“Don’t panic,” she said — naïve café, Москва.",
                     "Don't say café twice: café! Москва — привет, йод.")
UNICODE_TABLE = ("word,frequency,dense_rank,ordinal_rank\ndon't,2,1,1\nмосква,2,1,2\ncafé,1,2,3\nnaïve,1,2,4\n"
                 "panic,1,2,5\nsaid,1,2,6\nsay,1,2,7\nshe,1,2,8\ntwice,1,2,9\nйод,1,2,10\nпривет,1,2,11\n")


@pytest.mark.parametrize("form", ["NFC", "NFD"])
def test_extract_unicode_corpus_in_either_normal_form(runner, tmp_path, form):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for k, text in enumerate(UNICODE_DOCUMENTS):
        (corpus_dir / f"doc{k}.txt").write_text(unicodedata.normalize(form, text), encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", str(corpus_dir), "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert read(out / "hapax_table.csv") == UNICODE_TABLE
    assert read(out / "rank_sequence.txt") == "1\n2\n2\n2\n2\n2\n1\n1\n2\n2\n1\n2\n2\n"


def test_extract_empty_dir_fails(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(main, ["extract", str(empty), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "no documents" in result.output


def test_extract_invalid_utf8_names_file(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.txt").write_bytes(b"\xff\xfebroken\x80")
    result = runner.invoke(main, ["extract", str(corpus), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "bad.txt" in result.output


def test_extract_manifest_order(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "first.txt").write_text("unique1 shared shared", encoding="utf-8")
    (corpus / "second.txt").write_text("unique2 shared shared", encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("second.txt\nfirst.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["extract", str(corpus), "--manifest", str(manifest), "--output-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    # both hapaxes share frequency 1 => both dense rank 1; order follows manifest
    assert read(out / "rank_sequence.txt") == "1\n1\n"


def test_extract_manifest_naming_a_document_twice_is_an_error(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d0.txt").write_text("a b b", encoding="utf-8")
    (corpus / "d1.txt").write_text("c d d", encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("d0.txt\nd1.txt\nd0.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", str(corpus), "--manifest", str(manifest), "--output-dir", str(out)])
    assert result.exit_code == 1
    assert result.output == "Error: manifest names a file more than once: d0.txt\n"
    assert not out.exists()


def test_extract_manifest_invalid_utf8_names_the_manifest(runner, toy_corpus_dir, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"doc0.txt\xff\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", str(toy_corpus_dir), "--manifest", str(manifest), "--output-dir", str(out)])
    assert result.exit_code == 1
    assert result.output == (f"Error: invalid UTF-8 in manifest {manifest}: 'utf-8' codec can't decode byte 0xff "
                             "in position 8: invalid start byte\n")
    assert not out.exists()


@pytest.fixture
def opened(monkeypatch, tmp_path):
    """How often each file was opened, by resolved path, through ``open`` or pathlib, here
    or in a forked worker: each open appends its path to a log in one write, and calling
    the fixture's value counts them."""
    log = tmp_path / "opened.log"
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{Path(file).resolve()}\n".encode())
            finally:
                os.close(fd)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return lambda: Counter(map(Path, log.read_text(encoding="utf-8").splitlines()))


@pytest.mark.parametrize("with_manifest", [False, True])
def test_extract_reads_each_document_once(runner, rich_corpus_dir, tmp_path, opened, with_manifest):
    manifest = tmp_path / "order.txt"
    manifest.write_text("\n".join(sorted((p.name for p in rich_corpus_dir.iterdir()), reverse=True)), encoding="utf-8")
    flags = ["--manifest", str(manifest)] if with_manifest else []
    documents = sorted(p.resolve() for p in rich_corpus_dir.glob("*.txt"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", str(rich_corpus_dir), *flags, "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert {p: n for p, n in opened().items() if p.parent == rich_corpus_dir.resolve()} == dict.fromkeys(documents, 1)
    expected = corpus_id(rich_corpus_dir, manifest if with_manifest else None)
    assert json.loads(read(out / "extract_meta.json"))["config_hash"] == persist.config_hash(
        {"stage": "extract", **expected})


def test_extract_respects_output_dir_envvar(runner, toy_corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("HAPAXCHAIN_OUTPUT_DIR", str(out))
    result = runner.invoke(main, ["extract", str(toy_corpus_dir)])
    assert result.exit_code == 0, result.output
    assert (out / "hapax_table.csv").is_file()


# --------------------------------------------------------------------- fit


def test_fit_from_rank_size_csv(runner, tmp_path):
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    csv_path = tmp_path / "points.csv"
    write_csv(csv_path, ["rank", "size"], ((r, zm_eval(true, r)) for r in range(1, 151)))
    out = tmp_path / "out"
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(read(out / "fit_report.json"))
    assert payload["params"]["alpha"] == pytest.approx(100.0, rel=1e-3)
    assert payload["params"]["beta"] == pytest.approx(5.0, rel=1e-3)
    assert payload["params"]["gamma"] == pytest.approx(1.5, rel=1e-3)
    assert payload["rss"] < 1e-8
    assert set(payload["ci"]) == {"alpha", "beta", "gamma"}


def test_fit_accepts_hapax_table(runner, rich_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert runner.invoke(main, ["extract", str(rich_corpus_dir), "--output-dir", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit", "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "fit_report.json").is_file()


def test_fit_rank_size_csv_matches_hapax_table(runner, rich_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert runner.invoke(main, ["extract", str(rich_corpus_dir), "--output-dir", str(out)]).exit_code == 0
    points = enumerate(read_hapax_table(out / "hapax_table.csv").frequencies, 1)
    csv_path = write_csv(tmp_path / "points.csv", ["rank", "size"], points)
    reports = []
    for argv in (["--input", str(csv_path)], []):
        result = runner.invoke(main, ["fit", *argv, "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
        reports.append(json.loads(read(out / "fit_report.json")))
    for key in ("params", "ci", "rss", "r_squared", "n_points", "n_iter"):
        assert reports[0][key] == reports[1][key], key


@pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"), lambda text: text.replace("\n", "\n\n", 2),
                                  lambda text: text.rstrip("\n")], ids=["crlf", "blank-lines", "no-final-newline"])
def test_fit_reads_crlf_and_blank_line_tables_alike(runner, rich_corpus_dir, tmp_path, edit):
    plain, edited = tmp_path / "plain", tmp_path / "edited"
    assert runner.invoke(main, ["extract", str(rich_corpus_dir), "--output-dir", str(plain)]).exit_code == 0
    edited.mkdir()
    (edited / "hapax_table.csv").write_bytes(edit(read(plain / "hapax_table.csv")).encode("utf-8"))
    reports = []
    for out in (plain, edited):
        result = runner.invoke(main, ["fit", "--input", str(out / "hapax_table.csv"), "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(read(out / "fit_report.json"))
        reports.append({k: v for k, v in report.items() if k not in ("input_sha256", "config_hash")})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("row", ["2,4,1", "2,x"])
def test_fit_names_malformed_rank_size_line(runner, tmp_path, row):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text(f"rank,size\n1,5\n{row}\n3,2\n4,1\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert f"Error: {csv_path}, line 3: not a row of rank,size: '{row}'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("data, line", [(b"rank,size\n1,5\r\n2,4\n\n3,2\xff\n4,1\n", 5),
                                        (b"word,frequency,dense_rank,ordinal_rank\nab,2,1,1\nc\xff,1,2,2\n", 3)],
                         ids=["rank-size", "hapax-table"])
def test_fit_names_the_line_of_a_table_that_is_not_utf8(runner, tmp_path, data, line):
    # A rank,size CSV and a hapax table: both readers decode as rank files do.
    path = tmp_path / "points.csv"
    path.write_bytes(data)
    result = runner.invoke(main, ["fit", "--input", str(path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: {path}, line {line}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                             f"in position {data.index(0xff)}: invalid start byte\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", ["nan", "inf"])
def test_fit_rejects_a_non_finite_size(runner, tmp_path, size):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text(f"rank,size\n1,5\n2,{size}\n3,2\n4,1\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "Error: ranks and sizes must be finite, not nan or infinite\n"
    assert not (tmp_path / "out" / "fit_report.json").exists()


def test_fit_rejects_sizes_whose_squares_overflow(runner, tmp_path):
    csv_path = write_csv(tmp_path / "points.csv", ["rank", "size"], [(r, 1e160 / r) for r in range(1, 51)])
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert re.fullmatch(r"Error: sizes too large to fit: .* largest size 1e\+160\n", result.output)
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "fit_report.json").exists()


def test_fit_names_a_rank_size_file_without_rows(runner, tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("rank,size\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {csv_path} holds no rank,size rows\n"


def test_fit_on_the_beta_boundary_ends_in_an_error(runner, long_document_points, tmp_path):
    csv_path = tmp_path / "points.csv"
    points = long_document_points(2)
    write_csv(csv_path, ["rank", "size"], points.tolist())
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert re.fullmatch(rf"Error: the fit reached the beta = -1 boundary: 1 \+ beta = \S+ on {len(points)} points\n",
                        result.output)
    assert not (tmp_path / "out" / "fit_report.json").exists()


def test_fit_whose_trial_step_overflows_the_rss_exits_zero(runner, tmp_path):
    # A numpy RuntimeWarning fails the test: the rss of a rejected trial step reads as inf, silently.
    rng = np.random.default_rng(15)
    r = np.arange(1, 133)
    s = 1e4 / (34.1 + r) ** 2.66 * (1 + rng.normal(0, 0.05, 132))
    csv_path = write_csv(tmp_path / "points.csv", ["rank", "size"], zip(r.tolist(), s.tolist()))
    result = runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output


@pytest.fixture
def one_frequency_corpus(tmp_path):
    """Five two-word documents whose ten words are each a hapax of one document:
    every fit point has size 1."""
    corpus = tmp_path / "one_frequency"
    corpus.mkdir()
    for x in "abcde":
        (corpus / f"{x}.txt").write_text(f"w{x}a w{x}b", encoding="utf-8")
    return corpus


def test_fit_on_one_hapax_frequency_is_an_error(runner, one_frequency_corpus, tmp_path):
    out = tmp_path / "out"
    assert runner.invoke(main, ["extract", str(one_frequency_corpus), "--output-dir", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit", "--output-dir", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: {out / 'hapax_table.csv'}: every point has the same size (1); "
                             "the rank-size law cannot be fitted to constant sizes\n")
    assert not (out / "fit_report.json").exists()


def test_pipeline_on_one_hapax_frequency_stops_at_fit(runner, one_frequency_corpus, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["pipeline", str(one_frequency_corpus), "--output-dir", str(out),
                                  "--rbar", "10", "--steps", "100", "--runs", "1", "--replicates", "1"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.endswith(f"Error: stage 'fit' failed: {out / 'hapax_table.csv'}: "
                                  "every point has the same size (1); "
                                  "the rank-size law cannot be fitted to constant sizes\n")
    assert (out / "hapax_table.csv").is_file()
    assert not (out / "fit_report.json").exists()
    assert not (out / "target_distribution.csv").exists()


def test_fit_rejects_inconsistent_hapax_table(runner, tmp_path):
    table = tmp_path / "hapax_table.csv"
    table.write_text("word,frequency,dense_rank,ordinal_rank\na,5,1,1\nb,3,2,2\nc,2,7,3\nd,1,4,4\n",
                     encoding="utf-8")
    result = runner.invoke(main, ["fit", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert f"Error: {table}, line 4: dense_rank,ordinal_rank should read 3,3: 'c,2,7,3'" in result.output
    assert not (tmp_path / "fit_report.json").exists()


def test_fit_missing_input_fails(runner, tmp_path):
    result = runner.invoke(main, ["fit", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert "run 'extract' first" in result.output


# ------------------------------------------------------------------ target


def test_target_from_flags(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["target", "--alpha", "6.029e8", "--beta", "2540", "--gamma", "1.896",
         "--rbar", "300", "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = read(out / "target_distribution.csv").splitlines()
    assert lines[0] == "rank,prob"
    assert len(lines) == 301
    probs = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(np.diff(probs) < 0)


def test_target_from_fit_json(runner, tmp_path):
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    csv_path = tmp_path / "points.csv"
    write_csv(csv_path, ["rank", "size"], ((r, zm_eval(true, r)) for r in range(1, 101)))
    out = tmp_path / "out"
    assert runner.invoke(main, ["fit", "--input", str(csv_path), "--output-dir", str(out)]).exit_code == 0
    result = runner.invoke(
        main, ["target", "--fit-json", str(out / "fit_report.json"), "--rbar", "50", "--output-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert len(read(out / "target_distribution.csv").splitlines()) == 51


def test_target_overflow_ends_in_a_clean_error_under_warnings_as_errors(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hapaxchain.cli", "target", "--alpha", "1", "--beta", "0",
         "--gamma", "1e6", "--rbar", "10", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stderr.startswith("Error:"), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, problem", [("{not json", "Expecting property name"),
                                           ('{"params": {"alpha": 1.0, "beta": -2.0, "gamma": 1.0}}',
                                            "beta must exceed -1, got -2.0"),
                                           pytest.param('{"params": {"alpha": 1%s, "beta": 0, "gamma": 1}}' % ("0" * 400),
                                                        "int too large to convert to float", id="beyond-float"),
                                           pytest.param("[" * 100_000 + "]" * 100_000,
                                                        "maximum recursion depth exceeded", id="nested-too-deep")])
@pytest.mark.parametrize("command", ["target", "mcmc"])
def test_fit_json_not_json_or_outside_the_domain_names_the_file(runner, tmp_path, command, text, problem):
    fit_json = tmp_path / "fit_report.json"
    fit_json.write_text(text, encoding="utf-8")
    steps = ["--steps", "100", "--runs", "1"] if command == "mcmc" else []
    result = runner.invoke(main, [command, "--fit-json", str(fit_json), "--rbar", "5", *steps,
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert result.output.startswith(f"Error: {fit_json}: ") and problem in result.output
    assert not (tmp_path / "out").exists()


def test_target_requires_params(runner, tmp_path):
    result = runner.invoke(main, ["target", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert "--fit-json" in result.output


@pytest.mark.parametrize("report", [{"params": [1, 2, 3]}, {"params": {"alpha": "x", "beta": 0, "gamma": 1}},
                                    {"params": {"alpha": True, "beta": 0, "gamma": 1}}, {"rss": 0.5}, [1]])
@pytest.mark.parametrize("command", ["target", "mcmc"])
def test_malformed_fit_json_names_the_file(runner, tmp_path, command, report):
    fit_json = tmp_path / "fit_report.json"
    fit_json.write_text(json.dumps(report), encoding="utf-8")
    steps = ["--steps", "100", "--runs", "1"] if command == "mcmc" else []
    result = runner.invoke(main, [command, "--fit-json", str(fit_json), "--rbar", "5", *steps,
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert result.output.startswith(f"Error: {fit_json}: ")
    assert not (tmp_path / "out").exists()


ORDER_REPORT = {  # the fields of an order-test report that report's figures read: one replicate, one level
    "levels": [0.05], "ks_stats_first_vs_second": [0.1], "wmw_p_values": [0.5], "chi_square_stats": [1.0],
    "ks_stats_vs_empirical": [0.1], "indicators": {"mean": [1.5]}, "indicators_observed": {"mean": 1.5},
    "thresholds": dict.fromkeys(["ks_first_vs_second", "wmw", "chi_square", "ks_vs_empirical"], {"0.05": 0.2})}


def write_report_inputs(src: Path) -> None:
    """The stage outputs ``report`` reads, each stage report with one replicate and one level."""
    src.mkdir()
    (src / "hapax_table.csv").write_text(EXPECTED_TABLE, encoding="utf-8")
    persist.write_json(src / "fit_report.json", {"params": {"alpha": 1.0, "beta": 0.0, "gamma": 1.0}})
    persist.write_json(src / "order_test_report.json", ORDER_REPORT)
    persist.write_json(src / "convergence_report.json", {"levels": [0.05], "ks_statistics": [0.1],
                                                         "thresholds": {"0.05": 0.2}})


@pytest.mark.parametrize("command", ["target", "mcmc", "report"])
def test_json_input_that_is_not_utf8_names_the_file_and_line(runner, tmp_path, command):
    src, data = tmp_path / "in", b'{\n  "params": "\xff"\n}\n'
    write_report_inputs(src)
    path = src / ("order_test_report.json" if command == "report" else "fit_report.json")
    path.write_bytes(data)
    args = {"target": ["--fit-json", str(path), "--rbar", "5"],
            "mcmc": ["--fit-json", str(path), "--rbar", "5", "--steps", "100", "--runs", "1"],
            "report": ["--input-dir", str(src)]}[command]
    result = runner.invoke(main, [command, *args, "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert result.output == (f"Error: {path}, line 2: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                             f"in position {data.index(0xff)}: invalid start byte\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, payload, problem", [
    ("order_test_report.json", [1, 2], "must hold a JSON object"),
    ("convergence_report.json", [1, 2], "must hold a JSON object"),
    ("order_test_report.json", {}, "missing field 'ks_stats_first_vs_second'"),
    ("convergence_report.json", {}, "missing field 'ks_statistics'"),
    ("order_test_report.json", {**ORDER_REPORT, "thresholds": {"wmw": {"0.05": 0.2}}},
     "missing field 'thresholds.ks_first_vs_second'"),
    ("order_test_report.json", {**ORDER_REPORT, "levels": 5}, "field 'levels' must be a non-empty list of numbers"),
    ("order_test_report.json", {**ORDER_REPORT, "levels": []}, "field 'levels' must be a non-empty list of numbers"),
    ("order_test_report.json", {**ORDER_REPORT, "levels": ["0.05"]},
     "field 'levels' must be a non-empty list of numbers"),
    ("order_test_report.json", {**ORDER_REPORT, "wmw_p_values": 0.5}, "field 'wmw_p_values' must be a list"),
    ("order_test_report.json", {**ORDER_REPORT, "levels": [0.2]},
     "field 'thresholds.ks_first_vs_second' holds no threshold for level 0.2"),
    ("order_test_report.json", {**ORDER_REPORT, "thresholds": {**ORDER_REPORT["thresholds"], "chi_square": 0.2}},
     "field 'thresholds.chi_square' holds no threshold for level 0.05"),
    ("convergence_report.json", {"levels": [0.2], "ks_statistics": [0.1], "thresholds": {"0.05": 0.2}},
     "field 'thresholds' holds no threshold for level 0.2"),
    ("convergence_report.json", {"levels": [0.05], "ks_statistics": {"0": 0.1}, "thresholds": {"0.05": 0.2}},
     "field 'ks_statistics' must be a list")])
def test_report_names_a_stage_report_that_is_not_a_json_object(runner, tmp_path, name, payload, problem):
    # Every field the figures read is checked before the first figure is written: the
    # output directory is not even made.
    src = tmp_path / "in"
    write_report_inputs(src)
    (src / name).write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["report", "--input-dir", str(src), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {src / name}: {problem}\n"
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- ordertest


def test_ordertest_writes_report_and_csvs(runner, tmp_path):
    write_sequence_file(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"),
         "--replicates", "4", "--len1", "1500", "--len2", "1200",
         "--seed", "9", "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(read(out / "order_test_report.json"))
    assert payload["replicates"] == 4
    assert payload["seed"] == 9
    assert len(payload["ks_stats_first_vs_second"]) == 4
    assert payload["df"] == 2
    for name in ("ks_first_vs_second.csv", "wmw_pvalues.csv", "chi_square.csv",
                 "ks_vs_empirical.csv", "indicators.csv"):
        assert (out / name).is_file(), name
    header = read(out / "ks_first_vs_second.csv").splitlines()[0]
    assert header == "replicate,ks_stat,threshold_0.05,threshold_0.01,threshold_0.001"


def test_ordertest_names_levels_that_cannot_reject(runner, tmp_path):
    # Five observations give KS thresholds above 1 at 0.01 and 0.001; with two
    # states the chi-square statistic is unbounded, so it can always reject.
    seq = tmp_path / "two_states.txt"
    seq.write_text("1\n2\n1\n2\n1\n", encoding="utf-8")
    result = runner.invoke(main, ["ordertest", "--input", str(seq), "--replicates", "2",
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    notes = result.stderr.splitlines()
    for battery in ("ks_first_vs_second", "ks_vs_empirical"):
        assert [line.split(":")[1] for line in notes if battery in line] == [
            f" {battery} cannot reject at level {lv}" for lv in ("0.01", "0.001")]
    assert len(notes) == 4

    write_sequence_file(tmp_path)
    result = runner.invoke(main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--replicates", "2",
                                  "--len1", "1500", "--len2", "1200", "--output-dir", str(tmp_path / "out2")])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


def test_ordertest_deterministic(runner, tmp_path):
    write_sequence_file(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    args = ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"),
            "--replicates", "3", "--len1", "800", "--len2", "800", "--seed", "4"]
    assert runner.invoke(main, args + ["--output-dir", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--output-dir", str(out2)]).exit_code == 0
    r1 = json.loads(read(out1 / "order_test_report.json"))
    r2 = json.loads(read(out2 / "order_test_report.json"))
    assert r1["ks_stats_first_vs_second"] == r2["ks_stats_first_vs_second"]
    assert r1["wmw_p_values"] == r2["wmw_p_values"]


def test_ordertest_missing_sequence_fails(runner, tmp_path):
    result = runner.invoke(main, ["ordertest", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert "run 'extract' first" in result.output


def test_ordertest_config_file_flags_win(runner, tmp_path):
    write_sequence_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 2, "seed": 1, "len1": 500, "len2": 500}), encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"),
         "--config", str(cfg), "--replicates", "3", "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(read(out / "order_test_report.json"))
    assert payload["replicates"] == 3  # flag beats config
    assert payload["seed"] == 1       # config beats default
    assert payload["len1"] == 500


# -------------------------------------------------------------------- mcmc


def test_mcmc_writes_reports(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["mcmc", "--alpha", "6.029e8", "--beta", "2540", "--gamma", "1.896",
         "--rbar", "30", "--steps", "2000", "--runs", "3", "--seed", "12",
         "--reference-size", "500", "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(read(out / "convergence_report.json"))
    assert payload["runs"] == 3
    assert payload["n_steps"] == 2000
    assert payload["seed"] == 12
    assert len(payload["ks_statistics"]) == 3
    lines = read(out / "ks_statistics.csv").splitlines()
    assert lines[0] == "run,ks_stat,threshold_0.05,threshold_0.01,threshold_0.001"
    assert len(lines) == 4
    assert not (out / "mh_samples_0.txt").exists()


def test_mcmc_save_samples_and_determinism(runner, tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    args = ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.5",
            "--rbar", "10", "--steps", "500", "--runs", "2", "--seed", "5",
            "--reference-size", "200", "--save-samples"]
    assert runner.invoke(main, args + ["--output-dir", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--output-dir", str(out2)]).exit_code == 0
    assert read(out1 / "mh_samples_0.txt") == read(out2 / "mh_samples_0.txt")
    assert read(out1 / "mh_samples_1.txt") == read(out2 / "mh_samples_1.txt")
    r1 = json.loads(read(out1 / "convergence_report.json"))
    r2 = json.loads(read(out2 / "convergence_report.json"))
    assert r1["ks_statistics"] == r2["ks_statistics"]


def test_mcmc_uses_reference_file(runner, tmp_path):
    ref = tmp_path / "reference.txt"
    ref.write_text("\n".join(str(1 + i % 10) for i in range(400)) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0",
         "--rbar", "10", "--steps", "1000", "--runs", "2", "--seed", "3",
         "--reference", str(ref), "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(read(out / "convergence_report.json"))
    assert payload["reference_size"] == 400
    assert payload["reference"].endswith("reference.txt")


def test_mcmc_names_levels_that_cannot_reject(runner, tmp_path):
    ref = tmp_path / "reference.txt"
    ref.write_text("1\n2\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["mcmc", "--alpha", "6.029e8", "--beta", "2540", "--gamma", "1.896", "--rbar", "300",
         "--steps", "2000", "--runs", "2", "--reference", str(ref), "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines() == [
        "mcmc: ks cannot reject at level 0.01: threshold 1.15148, statistic at most 1",
        "mcmc: ks cannot reject at level 0.001: threshold 1.37918, statistic at most 1",
    ]
    # Every chain is far from the two-rank reference, yet passes both named levels.
    payload = json.loads(read(out / "convergence_report.json"))
    assert min(payload["ks_statistics"]) > 0.9
    assert payload["pass_fraction"] == {"0.05": 0.0, "0.01": 1.0, "0.001": 1.0}


def test_mcmc_reference_hashed_by_content(runner, tmp_path):
    def run(ref: Path, out: Path) -> dict:
        result = runner.invoke(
            main,
            ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "10", "--steps", "200",
             "--runs", "1", "--reference", str(ref), "--output-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        return json.loads(read(out / "convergence_report.json"))

    content = "\n".join(str(1 + i % 10) for i in range(300)) + "\n"
    refs = [tmp_path / side / "reference.txt" for side in ("a", "b")]
    for ref in refs:
        ref.parent.mkdir()
        ref.write_text(content, encoding="utf-8")
    first, copy = run(refs[0], tmp_path / "out1"), run(refs[1], tmp_path / "out2")
    assert first["config_hash"] == copy["config_hash"]
    assert first["reference"] == "reference.txt"
    assert first["reference_sha256"] == hashlib.sha256(content.encode()).hexdigest()

    refs[0].write_text(content.replace("\n1\n", "\n2\n", 1), encoding="utf-8")
    edited = run(refs[0], tmp_path / "out3")
    assert edited["config_hash"] != first["config_hash"]
    assert edited["reference_sha256"] != first["reference_sha256"]


def test_mcmc_rejects_reference_ranks_outside_rbar(runner, tmp_path):
    ref = tmp_path / "reference.txt"
    ref.write_text("9\n9\n9\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "5", "--steps", "100",
         "--runs", "1", "--reference", str(ref), "--output-dir", str(out)],
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error:")
    assert str(ref) in result.output and "1..5" in result.output
    assert not (out / "convergence_report.json").exists()


@pytest.mark.parametrize("bad", ["0", "-2", "x", "1.5"])
@pytest.mark.parametrize("command", ["ordertest", "mcmc"])
def test_rank_files_name_the_line_that_is_not_a_rank(runner, tmp_path, command, bad):
    path = tmp_path / "ranks.txt"
    path.write_text(f"1\n\n2\n{bad}\n3\n", encoding="utf-8")  # the blank line still counts
    args = (["ordertest", "--input", str(path)] if command == "ordertest" else
            ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "5", "--steps", "100",
             "--runs", "1", "--reference", str(path)])
    result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {path}, line 4: ")
    assert repr(bad) in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ordertest", "mcmc"])
def test_rank_files_name_the_line_that_is_not_utf8(runner, tmp_path, command):
    path = tmp_path / "ranks.txt"
    path.write_bytes(b"1\n\n2\n3\xff\n4\n")
    args = (["ordertest", "--input", str(path)] if command == "ordertest" else
            ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "5", "--steps", "100",
             "--runs", "1", "--reference", str(path)])
    result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: {path}, line 4: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                             "in position 6: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_option_defaults_equal_the_library_defaults():
    shared = {}
    for command, fn in (("ordertest", order_test), ("mcmc", convergence_study)):
        resolved = main.commands[command].make_context(command, []).params  # each default as click converts it
        for name, param in inspect.signature(fn).parameters.items():
            if name in resolved and param.default is not inspect.Parameter.empty:
                shared[name] = (resolved[name], param.default)
    assert set(shared) == {"replicates", "len1", "len2", "seed", "levels", "halve_alpha"}
    for name, (option, library) in shared.items():
        assert option == library, name


def test_reports_record_the_seed_flag(runner, tmp_path):
    write_sequence_file(tmp_path)
    out = tmp_path / "out"
    for argv in (["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--replicates", "2",
                  "--len1", "300", "--len2", "300"],
                 ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "5", "--steps", "300",
                  "--runs", "2", "--reference-size", "100"]):
        result = runner.invoke(main, [*argv, "--seed", "23", "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
    for name in ("order_test_report.json", "convergence_report.json"):
        payload = json.loads(read(out / name))
        assert payload["seed"] == 23 and type(payload["seed"]) is int, name
        assert payload["levels"] == [0.05, 0.01, 0.001] and payload["halve_alpha"] is True, name


def test_seed_flag_must_be_non_negative(runner, tmp_path):
    result = runner.invoke(
        main, ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.0", "--rbar", "5", "--steps", "100",
               "--runs", "1", "--seed", "-1", "--output-dir", str(tmp_path / "out")],
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "'--seed'" in result.output
    assert not (tmp_path / "out").exists()


def test_mcmc_requires_params(runner, tmp_path):
    result = runner.invoke(main, ["mcmc", "--rbar", "10", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0


# ------------------------------------------------------------------ report


def test_report_requires_stage_outputs(runner, tmp_path):
    result = runner.invoke(main, ["report", "--output-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert "run 'extract' first" in result.output


def test_version_comes_from_the_package(runner, rich_corpus_dir, tmp_path):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "hapaxchain, version 0.1.0"
    out = tmp_path / "out"
    args = ["pipeline", str(rich_corpus_dir), "--output-dir", str(out), "--rbar", "10", "--steps", "200",
            "--runs", "2", "--replicates", "1", "--reference-size", "50"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(read(out / "manifest.json"))["version"] == "0.1.0"


def test_report_after_pipeline_and_manifest_determinism(runner, rich_corpus_dir, tmp_path):
    out = tmp_path / "out"
    args = [
        "pipeline", str(rich_corpus_dir), "--output-dir", str(out),
        "--seed", "7", "--rbar", "10", "--steps", "1500", "--runs", "2",
        "--replicates", "2", "--reference-size", "400",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output

    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["seed"] == 7
    assert set(manifest["stages"]) == {"extract", "fit", "target", "ordertest", "mcmc", "report"}
    for fig in ("fig1_ranksize.csv", "fig2_ks_first_vs_second.csv", "fig3_wmw_pvalues.csv",
                "fig4_chi_square.csv", "fig5_ks_vs_empirical.csv", "fig6_ks_hist.csv",
                "fig7_indicators.csv"):
        assert (out / fig).is_file(), fig

    fig6 = read(out / "fig6_ks_hist.csv").splitlines()
    assert fig6[0] == "ks_stat,threshold_0.05,threshold_0.01,threshold_0.001"
    assert len(fig6) == 3  # one row per run

    first = snapshot(out)
    assert runner.invoke(main, args).exit_code == 0
    assert snapshot(out) == first  # same seed and config => byte-identical


def test_pipeline_rejects_small_rbar(runner, rich_corpus_dir, tmp_path):
    result = runner.invoke(
        main,
        ["pipeline", str(rich_corpus_dir), "--output-dir", str(tmp_path / "o"),
         "--rbar", "2", "--steps", "100", "--runs", "1", "--replicates", "1"],
    )
    assert result.exit_code != 0
    assert "alphabet size" in result.output
    assert (tmp_path / "o" / "extract_meta.json").is_file()  # checked right after extract
    assert not (tmp_path / "o" / "fit_report.json").exists()


def test_pipeline_names_failing_stage(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # only three hapaxes: the fit stage cannot run on three points
    (corpus / "d0.txt").write_text("a b c filler filler", encoding="utf-8")
    result = runner.invoke(
        main,
        ["pipeline", str(corpus), "--output-dir", str(tmp_path / "o"),
         "--rbar", "10", "--steps", "100", "--runs", "1", "--replicates", "1"],
    )
    assert result.exit_code != 0
    assert "stage 'fit' failed" in result.output
    # Standalone, the same stage fails with the same message, without the stage prefix.
    alone = runner.invoke(main, ["fit", "--input", str(tmp_path / "o" / "hapax_table.csv"),
                                 "--output-dir", str(tmp_path / "o")])
    assert alone.exit_code == 1 and isinstance(alone.exception, SystemExit)
    assert result.output.replace("stage 'fit' failed: ", "").endswith(alone.output)


# ------------------------------------------------------- options and config


def test_one_schema_spells_each_option_as_its_config_key():
    for name, opt in OPTIONS.items():
        flag = name.replace("_", "-")
        assert (opt.opts, opt.secondary_opts) == ([f"--{flag}"], [f"--no-{flag}"] if opt.is_bool_flag else []), name
    assert {name for stage in (*STAGES.values(), PIPELINE) for name in stage.options} == set(OPTIONS)
    assert list(main.commands) == ["extract", "fit", "target", "ordertest", "mcmc", "report", "pipeline"]


@pytest.mark.parametrize("argv", [["sequence", "."], ["extract", ".", "--table", "t.csv"],
                                  ["ordertest", "--alpha-levels", "0.2"]], ids=["sequence", "table", "alpha-levels"])
def test_retired_command_and_flags_are_usage_errors(runner, tmp_path, argv):
    result = runner.invoke(main, [*argv, "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg, key",
    [({"bogus": 1}, "bogus"), ({"alpha_levels": "0.2"}, "alpha_levels"), ({"table": "t.csv"}, "table"),
     ({"len1": "abc"}, "len1"),
     ({"replicates": 2.7}, "replicates"), ({"replicates": True}, "replicates"),
     ({"halve_alpha": "yes"}, "halve_alpha"), ({"levels": "0.2,x"}, "levels"), ({"seed": -1}, "seed"),
     ({"levels": ""}, "levels"), ({"levels": "0.05,0.05"}, "levels")],
)
def test_config_rejects_unknown_keys_and_wrong_types(runner, tmp_path, cfg, key):
    write_sequence_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    result = runner.invoke(
        main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--config", str(cfg_path),
               "--replicates", "1", "--output-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert result.output.startswith("Error:") and key in result.output
    assert not (tmp_path / "out" / "order_test_report.json").exists()


@pytest.mark.parametrize("data, problem", [(b"{replicates: 1}", "cannot read config file"),
                                           (b'{"seed": "\xff"}', "cannot read config file"),  # not UTF-8
                                           (b'[{"replicates": 1}]', "must hold a JSON object"),
                                           (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded")])
def test_config_file_must_be_a_json_object(runner, tmp_path, data, problem):
    write_sequence_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(data)
    result = runner.invoke(
        main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--config", str(cfg_path),
               "--output-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert result.output.startswith("Error: ") and problem in result.output and str(cfg_path) in result.output
    assert not (tmp_path / "out").exists()


def test_config_accepts_keys_of_other_commands(runner, tmp_path):
    write_sequence_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    # fit_json and reference are mcmc's: their missing files are not looked for here.
    cfg_path.write_text(json.dumps({"steps": 10, "rbar": 20, "replicates": 1, "len1": 300, "len2": 300, "seed": 3,
                                    "fit_json": "no-such.json", "reference": "no-such.txt"}), encoding="utf-8")
    result = runner.invoke(
        main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--config", str(cfg_path),
               "--output-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(read(tmp_path / "out" / "order_test_report.json"))["len1"] == 300
    assert json.loads(read(tmp_path / "out" / "order_test_report.json"))["seed"] == 3


@pytest.mark.parametrize("command, flag, shown", [
    ("fit", "--level", "0.95"), ("ordertest", "--replicates", "100"), ("ordertest", "--seed", "0; x>=0"),
    ("ordertest", "--levels", "0.05,0.01,0.001"), ("mcmc", "--rbar", "300"), ("mcmc", "--steps", "100000"),
    ("mcmc", "--runs", "100"), ("mcmc", "--reference-size", "31074"), ("mcmc", "--levels", "0.05,0.01,0.001")])
def test_help_shows_each_default(runner, command, flag, shown):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.output.split())  # click wraps long help lines
    assert re.search(rf"{flag}[ ,][^\[]*\[default: {re.escape(shown)}\]", text), text


def test_ordertest_takes_levels_from_config(runner, tmp_path):
    write_sequence_file(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"levels": "0.2"}), encoding="utf-8")
    result = runner.invoke(main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--replicates", "2",
                                  "--len1", "500", "--len2", "500", "--config", str(tmp_path / "cfg.json"),
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert json.loads(read(tmp_path / "out" / "order_test_report.json"))["levels"] == [0.2]
    assert read(tmp_path / "out" / "wmw_pvalues.csv").splitlines()[0] == "replicate,p_value,threshold_0.2"


LEVELS_ARGS = {
    "ordertest": lambda tmp_path: ["--input", str(write_sequence_file(tmp_path)), "--replicates", "1"],
    "mcmc": lambda tmp_path: ["--alpha", "1.0", "--beta", "0", "--gamma", "1.5", "--rbar", "10", "--steps", "100",
                              "--runs", "1", "--reference-size", "50"],
}


@pytest.mark.parametrize("command", sorted(LEVELS_ARGS))
@pytest.mark.parametrize("levels", ["", "0.05,0.05", "0.01,0.010"])
def test_levels_flag_must_be_non_empty_and_distinct(runner, tmp_path, command, levels):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, *LEVELS_ARGS[command](tmp_path), "--levels", levels,
                                  "--output-dir", str(out)])
    assert result.exit_code == 2  # a usage error, not a traceback
    assert "--levels" in result.output and "non-empty, distinct" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(LEVELS_ARGS))
@pytest.mark.parametrize("source, exit_code", [("flag", 2), ("config", 1)])
def test_levels_that_print_alike_are_rejected(runner, tmp_path, command, source, exit_code):
    # Output files key a level by format(lv, "g"): both of these would be threshold_0.05.
    out = tmp_path / "out"
    args = [command, *LEVELS_ARGS[command](tmp_path), "--output-dir", str(out)]
    if source == "flag":
        args += ["--levels", "0.05,0.05000001"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"levels": "0.05,0.05000001"}), encoding="utf-8")
        args += ["--config", str(tmp_path / "cfg.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert "levels 0.05 and 0.05000001 both print as 0.05" in result.output
    assert not (out / "ks_statistics.csv").exists() and not out.exists()


def test_ordertest_rejects_zero_replicates(runner, tmp_path):
    write_sequence_file(tmp_path)
    result = runner.invoke(
        main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--replicates", "0",
               "--output-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert "Error: replicates must be >= 1" in result.output
    assert not (tmp_path / "out").exists()


def test_ordertest_writes_strict_json_and_empty_cells_for_undefined_indicators(runner, tmp_path):
    # Rank 3 only ends the sequence, so its self-loop is absorbing: replicates that start
    # there stay constant, and their skewness and kurtosis are undefined.
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n1\n2\n1\n2\n1\n2\n1\n3\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["ordertest", "--input", str(seq), "--replicates", "30", "--output-dir", str(out)])
    assert result.exit_code == 0, result.output

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(read(out / "order_test_report.json"), parse_constant=reject)
    assert [payload["indicators"][name].count(None) for name in ("skewness", "kurtosis")] == [3, 3]
    # report renders the indicator table again from this JSON.
    _write_order_tables(payload, tmp_path, ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7_indicators.csv"))
    for table in (out / "indicators.csv", tmp_path / "fig7_indicators.csv"):
        rows = [line.split(",") for line in read(table).splitlines()]
        cells = dict(zip(rows[0], zip(*rows[1:])))
        assert cells["skewness"].count("") == cells["kurtosis"].count("") == 3
        assert not {"nan", "-nan", "inf", "-inf", "-0", "None"} & {cell for row in rows for cell in row}
        assert "0" in cells["entropy"]


def test_ordertest_on_one_distinct_rank_is_an_error(runner, tmp_path):
    # Skewness and kurtosis of a constant sample are NaN, which JSON cannot hold.
    seq = tmp_path / "const.txt"
    seq.write_text("1\n" * 5, encoding="utf-8")
    result = runner.invoke(main, ["ordertest", "--input", str(seq), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == f"Error: {seq} holds a single distinct rank; the order test needs at least two\n"
    assert not (tmp_path / "out").exists()


def test_ordertest_len1_below_two_names_it(runner, tmp_path):
    write_sequence_file(tmp_path)
    result = runner.invoke(main, ["ordertest", "--input", str(tmp_path / "rank_sequence.txt"), "--len1", "1",
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == "Error: len1 must be >= 2, got 1\n"
    assert not (tmp_path / "out").exists()


def test_mcmc_saved_samples_match_recorded_digests(runner, tmp_path):
    # Digests of the files written by the earlier implementation, which re-ran
    # every chain after the study, for exactly these arguments.
    expected = {
        "mh_samples_0.txt": "458f34c9797a1bad32e45fb4a879885c2a7328ba18b79e9506ca05a608432215",
        "mh_samples_1.txt": "3fc88cef7e490df20ba8fce0deedae69ac9e4ff2d2dd468a27604999f233a380",
        "mh_samples_2.txt": "c9f5e5a797686de31523152203276fe73187724e1a9160ad6f1df37457815c9e",
    }
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["mcmc", "--alpha", "1.0", "--beta", "0", "--gamma", "1.5", "--rbar", "10", "--steps", "500",
               "--runs", "3", "--seed", "5", "--reference-size", "200", "--save-samples", "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected} == expected


PIPELINE_ARGS = ["--seed", "7", "--rbar", "10", "--steps", "1500", "--runs", "2", "--replicates", "2",
                 "--reference-size", "400"]


def test_report_figures_share_the_stage_table_writers(runner, rich_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["pipeline", str(rich_corpus_dir), "--output-dir", str(out), *PIPELINE_ARGS])
    assert result.exit_code == 0, result.output
    for fig, table in (("fig2_ks_first_vs_second.csv", "ks_first_vs_second.csv"),
                       ("fig3_wmw_pvalues.csv", "wmw_pvalues.csv"),
                       ("fig4_chi_square.csv", "chi_square.csv"),
                       ("fig5_ks_vs_empirical.csv", "ks_vs_empirical.csv")):
        assert (out / fig).read_bytes() == (out / table).read_bytes(), fig
    ks_rows = [line.split(",", 1)[1] for line in read(out / "ks_statistics.csv").splitlines()]
    assert read(out / "fig6_ks_hist.csv").splitlines() == ks_rows
    params = ZMParams(**json.loads(read(out / "fit_report.json"))["params"])
    fig1 = read(out / "fig1_ranksize.csv").splitlines()
    assert fig1[0] == "rank,size_observed,size_fitted"
    assert [tuple(map(int, line.split(",")[:2])) for line in fig1[1:]] == \
        list(enumerate(read_hapax_table(out / "hapax_table.csv").frequencies, 1))
    for line in fig1[1:]:
        rank, _, fitted = line.split(",")
        assert float(fitted) == pytest.approx(zm_eval(params, int(rank)), rel=1e-12)


@pytest.mark.parametrize("with_manifest", [False, True])
def test_pipeline_records_the_corpus_read_by_extract(runner, rich_corpus_dir, tmp_path, opened, with_manifest):
    manifest = tmp_path / "order.txt"
    manifest.write_text("\n".join(sorted(p.name for p in rich_corpus_dir.iterdir())), encoding="utf-8")
    flags = ["--manifest", str(manifest)] if with_manifest else []
    out = tmp_path / "out"
    result = runner.invoke(main, ["pipeline", str(rich_corpus_dir), *flags, "--output-dir", str(out), *PIPELINE_ARGS])
    assert result.exit_code == 0, result.output
    documents = sorted(p.resolve() for p in rich_corpus_dir.glob("*.txt"))
    assert {p: n for p, n in opened().items() if p.parent == rich_corpus_dir.resolve()} == dict.fromkeys(documents, 1)
    recorded = json.loads(read(out / "manifest.json"))
    expected = corpus_id(rich_corpus_dir, manifest if with_manifest else None)
    assert recorded["config_hash"] == persist.config_hash({**recorded["config"], **expected})


def test_pipeline_output_is_independent_of_output_dir(runner, rich_corpus_dir, tmp_path):
    # The second run reads a copy of the corpus, and of its manifest, at another path.
    copy = shutil.copytree(rich_corpus_dir, tmp_path / "elsewhere" / "corpus")
    for corpus in (rich_corpus_dir, copy):
        (corpus.parent / "order.txt").write_text("\n".join(sorted(p.name for p in corpus.iterdir())), encoding="utf-8")
    for corpus, name in ((rich_corpus_dir, "a"), (copy, "deeper/b")):
        args = ["pipeline", str(corpus), "--manifest", str(corpus.parent / "order.txt"),
                "--output-dir", str(tmp_path / name), *PIPELINE_ARGS]
        assert runner.invoke(main, args).exit_code == 0
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "deeper" / "b")
    manifest = json.loads(read(tmp_path / "a" / "manifest.json"))
    assert "output_dir" not in manifest["config"]
    assert str(tmp_path) not in read(tmp_path / "a" / "manifest.json") + read(tmp_path / "a" / "extract_meta.json")
