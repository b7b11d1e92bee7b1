"""Subcommand front-end: every option is declared once, in ``OPTIONS``, and
every stage once, in ``STAGES``; the subcommands and ``pipeline`` are built
from them.  Stages communicate through files in the output directory and
record their configuration hash next to their outputs."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, NamedTuple

import click
import numpy as np

from . import __version__, persist
from . import corpus as corpus_mod
from .markov import order_test
from .mh_sampler import convergence_study, iid_sample
from .ranksize import ZMParams, fit_zm, target_distribution, zm_eval
from .stats import check_levels, child_seed

OUTPUT_DIR_ENVVAR = "HAPAXCHAIN_OUTPUT_DIR"


class _Levels(click.ParamType):
    """Comma-separated significance levels, as ``stats.check_levels`` admits them."""

    name = "levels"

    def convert(self, value, param, ctx):
        try:
            return check_levels(float(part) for part in value.split(",") if part.strip())
        except ValueError as exc:
            self.fail(f"invalid significance levels {value!r}: {exc}", param, ctx)


EXISTING_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
EXISTING_DIR = click.Path(exists=True, file_okay=False, path_type=Path)
ANY_PATH = click.Path(path_type=Path)


def _declare(name: str, type: click.ParamType, default: Any, help: str) -> click.Option:
    """The option ``name``: ``--name/--no-name`` for a boolean, else ``--name``."""
    flag = name.replace("_", "-")
    decl = f"--{flag}/--no-{flag}" if type is click.BOOL else f"--{flag}"
    return click.Option([decl, name], type=type, default=default, show_default=default is not None, help=help)


OPTIONS = {o.name: o for o in (
    _declare("manifest", EXISTING_FILE, None, "File listing document names, one per line, in order."),
    _declare("input", ANY_PATH, None, "fit: rank,size CSV or hapax table [default: <output-dir>/hapax_table.csv]; "
                                      "ordertest: rank sequence [default: <output-dir>/rank_sequence.txt]."),
    _declare("input_dir", EXISTING_DIR, None, "Directory holding the stage reports [default: --output-dir]."),
    _declare("level", click.FLOAT, 0.95, "Confidence level for the parameter intervals."),
    _declare("alpha", click.FLOAT, None, "Law parameter alpha (with --beta and --gamma, instead of --fit-json)."),
    _declare("beta", click.FLOAT, None, "Law parameter beta."),
    _declare("gamma", click.FLOAT, None, "Law parameter gamma."),
    _declare("fit_json", EXISTING_FILE, None, "Take the law parameters from a fit report."),
    _declare("rbar", click.INT, 300, "Number of ranks the distribution covers."),
    _declare("replicates", click.INT, 100, "Replicates per test battery."),
    _declare("len1", click.INT, None, "Length of first-order replicates [default: input length]."),
    _declare("len2", click.INT, None, "Length of second-order replicates [default: min(100000, input length)]."),
    _declare("seed", click.IntRange(min=0), 0, "Master seed of every random draw."),
    _declare("levels", _Levels(), "0.05,0.01,0.001", "Comma-separated significance levels."),
    _declare("halve_alpha", click.BOOL, True, "KS threshold parameterization: halve the level."),
    _declare("steps", click.INT, 100_000, "Chain length per run."),
    _declare("runs", click.INT, 100, "Number of chains."),
    _declare("reference", EXISTING_FILE, None, "Empirical rank sample; defaults to i.i.d. draws from the target."),
    _declare("reference_size", click.INT, 31074, "Size of the synthetic reference when --reference is absent."),
    _declare("save_samples", click.BOOL, False, "Also write mh_samples_<run>.txt per run."),
)}

# JSON types a config value may have, by option type name; any other option takes a string.
_JSON_TYPES = {"integer": int, "integer range": int, "float": (int, float), "boolean": bool}


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the config file's object the command's default map, so that click takes each
    value when its flag is not given.  Each key must be an option name, each value of that
    option's JSON type, and a value of the command's own option must convert as its flag would."""
    if path is None:
        return
    try:
        cfg = persist.read_json(path)
    except (OSError, ValueError) as exc:  # a ValueError names the file
        raise click.ClickException(f"cannot read config file: {exc}")
    unknown = sorted(set(cfg) - set(OPTIONS))
    if unknown:
        raise click.ClickException(
            f"config file {path}: unknown keys {', '.join(unknown)}; keys are option names: {', '.join(OPTIONS)}")
    for name, value in cfg.items():
        opt = OPTIONS[name]
        want = _JSON_TYPES.get(opt.type.name, str)
        if not (value is None and opt.default is None) and (
                not isinstance(value, want) or (isinstance(value, bool) and want is not bool)):
            raise click.ClickException(f"config key {name!r}: expected {opt.type.name}, got {json.dumps(value)}")
        if opt in ctx.command.params:  # a key of another command is only type-checked
            try:
                opt.type(value)  # passes None, which only an option without a default accepts
            except click.BadParameter as exc:
                raise click.ClickException(f"config key {name!r}: {exc.message}")
    ctx.default_map = cfg


def _require(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise click.ClickException(f"{path} not found; run '{producer}' first")
    return path


def _keyed(by_level: dict) -> dict:
    return {format(lv, "g"): v for lv, v in by_level.items()}


def _file_id(path: Path, key: str = "input") -> dict:
    """A stage input by file name and content, so hashes do not depend on where it lives."""
    return {key: path.name, f"{key}_sha256": persist.sha256_file(path)}


def _corpus_id(docs: corpus_mod.Corpus, manifest: Path | None) -> dict:
    """The loaded corpus by content, as ``_file_id`` gives a file: one SHA-256 over the
    file name and SHA-256 of each document, in reading order, and the manifest file, if any."""
    record = persist.config_hash({"documents": [list(doc) for doc in zip(docs.files, docs.digests)]})
    return {"corpus_sha256": record, **(_file_id(manifest, "manifest") if manifest else {"manifest": None})}


def _write_meta(out: Path, stage: str, config: dict, fields: dict, paths) -> Path:
    return persist.write_json(out / f"{stage}_meta.json", {
        "stage": stage, "seed": None, "config_hash": persist.config_hash({"stage": stage, **config}),
        **fields, "outputs": {p.name: persist.sha256_file(p) for p in paths}})


def _write_stat_table(path: Path, index: str | None, column: str, values, levels, thresholds: dict) -> Path:
    """One statistic per row (after its ``index`` column, if any), then its threshold
    per level; ``thresholds`` is keyed like ``_keyed``."""
    thr, skip = [thresholds[format(lv, "g")] for lv in levels], 0 if index else 1
    return persist.write_csv(path, [index, column, *(f"threshold_{lv:g}" for lv in levels)][skip:],
                             ([k, v, *thr][skip:] for k, v in enumerate(values)))


def _note_vacuous(stage: str, battery: str, thresholds: dict[float, float]) -> None:
    """One stderr line per level at which the KS ``battery`` cannot reject: its threshold
    is at or above 1, the largest value a KS statistic can take."""
    for lv, thr in thresholds.items():
        if thr >= 1.0:
            click.echo(f"{stage}: {battery} cannot reject at level {lv:g}: threshold {thr:.6g}, "
                       "statistic at most 1", err=True)


# payload series, statistic column and battery of each order-test battery table
BATTERIES = (("ks_stats_first_vs_second", "ks_stat", "ks_first_vs_second"), ("wmw_p_values", "p_value", "wmw"),
             ("chi_square_stats", "chi_square", "chi_square"), ("ks_stats_vs_empirical", "ks_stat", "ks_vs_empirical"))
# the fields of each stage report that report's figures read, as _read_stage_report takes them
ORDER_FIELDS = {"series": tuple(series for series, _, _ in BATTERIES),
                "thresholds": tuple(f"thresholds.{battery}" for _, _, battery in BATTERIES),
                "others": ("indicators", "indicators_observed")}
CONVERGENCE_FIELDS = {"series": ("ks_statistics",), "thresholds": ("thresholds",)}


def _write_order_tables(payload: dict, out: Path, names: tuple[str, ...]) -> dict[str, Path]:
    """The four battery tables, then the indicator table, of an order-test payload, under
    ``names``; the indicator columns follow the order of ``payload["indicators"]``."""
    written = {name: _write_stat_table(out / name, "replicate", column, payload[series], payload["levels"],
                                       payload["thresholds"][battery])
               for name, (series, column, battery) in zip(names, BATTERIES)}
    indicators, observed = payload["indicators"], payload["indicators_observed"]
    columns = list(indicators)
    written[names[4]] = persist.write_csv(
        out / names[4], ["replicate", *columns, *(f"observed_{c}" for c in columns)],
        ((k, *(indicators[c][k] for c in columns), *(observed[c] for c in columns))
         for k in range(len(indicators[columns[0]]))))
    return written


def _read_stage_report(path: Path, series: tuple[str, ...], thresholds: tuple[str, ...],
                       others: tuple[str, ...] = ()) -> dict:
    """The stage report at ``path``, checked before any figure is written: every field named
    is present (``"a.b"`` is field b of object a), ``levels`` is a non-empty list of numbers,
    each of ``series`` is a list and each of ``thresholds`` holds a threshold for every level,
    keyed as ``_keyed`` keys it.  An error names the file and the first field at fault."""
    report = persist.read_json(path)

    def field(name: str):
        node = report
        for key in name.split("."):
            if not isinstance(node, dict) or key not in node:
                raise click.ClickException(f"{path}: missing field {name!r}")
            node = node[key]
        return node

    values = {name: field(name) for name in (*series, "levels", *thresholds, *others)}
    levels = values["levels"]
    if not (isinstance(levels, list) and levels and all(type(lv) in (int, float) for lv in levels)):
        raise click.ClickException(f"{path}: field 'levels' must be a non-empty list of numbers")
    for name in series:
        if not isinstance(values[name], list):
            raise click.ClickException(f"{path}: field {name!r} must be a list")
    for name in thresholds:
        for lv in levels:
            if not isinstance(values[name], dict) or format(lv, "g") not in values[name]:
                raise click.ClickException(f"{path}: field {name!r} holds no threshold for level {lv:g}")
    return report


def _params(o: dict) -> ZMParams:
    """The law: from a fit report (``fit_json``), or the three flags."""
    if o.get("fit_json") is not None:
        path = o["fit_json"]
        p = persist.read_json(path).get("params")  # a ValueError names the file
        try:
            values = [p[name] for name in ("alpha", "beta", "gamma")]
            if not all(type(v) in (int, float) for v in values):
                raise TypeError
            return ZMParams(*values)
        except (ValueError, OverflowError) as exc:  # a law outside its domain, or beyond floats
            raise click.ClickException(f"{path}: {exc}")
        except (KeyError, TypeError):
            raise click.ClickException(f"{path}: 'params' must be an object holding the numbers alpha, beta and gamma")
    if None in (o.get("alpha"), o.get("beta"), o.get("gamma")):
        raise click.ClickException("provide --alpha, --beta and --gamma, or --fit-json")
    return ZMParams(alpha=o["alpha"], beta=o["beta"], gamma=o["gamma"])


def _run_extract(o: dict) -> dict[str, Path]:
    """Extract hapaxes: write hapax_table.csv and rank_sequence.txt."""
    out = o["output_dir"]
    docs = corpus_mod.load_documents(o["corpus"], o["manifest"])
    o["corpus_id"] = _corpus_id(docs, o["manifest"])  # the pipeline's manifest records it too
    table = corpus_mod.build_hapax_table(docs)
    seq = corpus_mod.build_rank_sequence(docs, table)
    counts = {"documents": len(docs), "hapaxes": len(table.words), "occurrences": table.total_occurrences,
              "alphabet_size": table.alphabet_size}
    outputs = {"hapax_table.csv": persist.write_hapax_table(out / "hapax_table.csv", table),
               "rank_sequence.txt": persist.write_rank_sequence(out / "rank_sequence.txt", seq)}
    outputs["extract_meta.json"] = _write_meta(out, "extract", o["corpus_id"], counts, outputs.values())
    click.echo("extract: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return outputs


def _run_fit(o: dict) -> dict[str, Path]:
    """Fit the rank-size law; write fit_report.json."""
    input_path = _require(o.get("input") or o["output_dir"] / "hapax_table.csv", "extract")
    points = persist.read_rank_size_csv(input_path)
    result = fit_zm(points, level=o["level"])
    if (points[:, 1] == points[0, 1]).all():  # checked after fit_zm has vetted the points
        raise click.ClickException(f"{input_path}: every point has the same size ({points[0, 1]:g}); "
                                   "the rank-size law cannot be fitted to constant sizes")
    p = result.params
    source = _file_id(input_path)
    config_hash = persist.config_hash({"stage": "fit", **source, "level": o["level"]})
    report_path = persist.write_json(o["output_dir"] / "fit_report.json", {
        "stage": "fit", "seed": None, "config_hash": config_hash, **source, "level": o["level"], **vars(result),
        "params": vars(p)})
    click.echo(f"fit: alpha={p.alpha:.6g} beta={p.beta:.6g} gamma={p.gamma:.6g} "
               f"rss={result.rss:.6g} r2={result.r_squared:.6f}")
    return {"fit_report.json": report_path}


def _run_target(o: dict) -> dict[str, Path]:
    """Discretize the law into target_distribution.csv."""
    out, r_bar = o["output_dir"], o["rbar"]
    params = _params(o)
    target = target_distribution(params, r_bar)
    target_path = persist.write_target_distribution(out / "target_distribution.csv", target)
    meta_path = _write_meta(out, "target", {**vars(params), "r_bar": r_bar}, {"r_bar": r_bar}, (target_path,))
    click.echo(f"target: r_bar={r_bar} head={target.probs[0]:.6g} tail={target.probs[-1]:.6g}")
    return {"target_distribution.csv": target_path, "target_meta.json": meta_path}


def _run_ordertest(o: dict) -> dict[str, Path]:
    """Run the first-order Markovianity test battery on a rank sequence."""
    out, levels = o["output_dir"], o["levels"]
    seq_path = _require(o.get("input") or out / "rank_sequence.txt", "extract")
    settings = {name: o[name] for name in ("replicates", "len1", "len2", "seed", "levels", "halve_alpha")}
    values = persist.read_rank_sequence(seq_path)
    if values.min() == values.max():  # skewness and kurtosis are NaN on a constant sample
        raise click.ClickException(f"{seq_path} holds a single distinct rank; the order test needs at least two")
    report = order_test(values, **settings)
    payload = {
        "stage": "ordertest", **settings, **vars(report),
        "config_hash": persist.config_hash({"stage": "ordertest", **_file_id(seq_path), **settings}),
        "thresholds": {b: _keyed(d) for b, d in report.thresholds.items()},
        "pass_fractions": {b: _keyed(d) for b, d in report.pass_fractions.items()}}
    outputs = {"order_test_report.json": persist.write_json(out / "order_test_report.json", payload)}
    outputs.update(_write_order_tables(payload, out, (
        "ks_first_vs_second.csv", "wmw_pvalues.csv", "chi_square.csv", "ks_vs_empirical.csv", "indicators.csv")))
    for battery in ("ks_first_vs_second", "ks_vs_empirical"):
        _note_vacuous("ordertest", battery, report.thresholds[battery])
    fractions = " ".join(f"{b}={d[levels[0]]:.3f}" for b, d in report.pass_fractions.items())
    click.echo(f"ordertest: replicates={o['replicates']} pass@{levels[0]:g}: {fractions}")
    return outputs


def _run_mcmc(o: dict) -> dict[str, Path]:
    """Run the seeded convergence study; write convergence_report.json."""
    out, seed, levels = o["output_dir"], o["seed"], o["levels"]
    params = _params(o)
    f = target_distribution(params, o["rbar"])
    # Without a reference file, i.i.d. draws from the target itself, on a substream far above any run index.
    ref, size = o.get("reference"), o["reference_size"]
    source = _file_id(ref, "reference") if ref else {"reference": f"iid:{size}"}
    reference = persist.read_rank_sequence(ref) if ref else iid_sample(f, size, child_seed(seed, 2**31))
    if ref and reference.max() > o["rbar"]:
        raise click.ClickException(f"--reference {ref}: ranks must lie in 1..{o['rbar']} (--rbar)")
    samples = [out / f"mh_samples_{k}.txt" for k in range(o["runs"])] if o.get("save_samples") else []
    # on_run runs in the process that ran chain k, so each chain is written where it was made.
    report = convergence_study(f, o["runs"], o["steps"], reference, seed, levels, o["halve_alpha"], on_run=(
        lambda k, result: persist.write_rank_sequence(samples[k], result.samples)) if samples else None)
    outputs = {path.name: path for path in samples}
    settings = {"runs": o["runs"], "seed": seed, "levels": levels, "halve_alpha": o["halve_alpha"]}
    config = {"stage": "mcmc", **vars(params), "r_bar": o["rbar"], "steps": o["steps"], **settings, **source}
    thresholds = _keyed(report.thresholds)
    outputs["convergence_report.json"] = persist.write_json(out / "convergence_report.json", {
        "stage": "mcmc", **settings, "n_steps": o["steps"], "reference_size": len(reference), **vars(report),
        "config_hash": persist.config_hash(config), **source,
        "thresholds": thresholds, "pass_fraction": _keyed(report.pass_fraction)})
    outputs["ks_statistics.csv"] = _write_stat_table(
        out / "ks_statistics.csv", "run", "ks_stat", report.ks_statistics, levels, thresholds)
    _note_vacuous("mcmc", "ks", report.thresholds)
    click.echo(f"mcmc: runs={o['runs']} steps={o['steps']} pass@{levels[0]:g}={report.pass_fraction[levels[0]]:.3f}")
    return outputs


def _run_report(o: dict) -> dict[str, Path]:
    """Reshape stage reports into per-figure CSV files."""
    out, src = o["output_dir"], o.get("input_dir") or o["output_dir"]
    table = persist.read_hapax_table(_require(src / "hapax_table.csv", "extract"))
    params = _params({"fit_json": _require(src / "fit_report.json", "fit")})
    order = _read_stage_report(_require(src / "order_test_report.json", "ordertest"), **ORDER_FIELDS)
    conv = _read_stage_report(_require(src / "convergence_report.json", "mcmc"), **CONVERGENCE_FIELDS)
    ranks = np.arange(1, len(table.words) + 1)
    outputs = {"fig1_ranksize.csv": persist.write_csv(
        out / "fig1_ranksize.csv", ["rank", "size_observed", "size_fitted"],
        zip(ranks.tolist(), table.frequencies, zm_eval(params, ranks).tolist()))}
    outputs.update(_write_order_tables(order, out, ("fig2_ks_first_vs_second.csv", "fig3_wmw_pvalues.csv",
                                                     "fig4_chi_square.csv", "fig5_ks_vs_empirical.csv",
                                                     "fig7_indicators.csv")))
    outputs["fig6_ks_hist.csv"] = _write_stat_table(
        out / "fig6_ks_hist.csv", None, "ks_stat", conv["ks_statistics"], conv["levels"], conv["thresholds"])
    click.echo(f"report: wrote {len(outputs)} figure data files")
    return outputs


class Stage(NamedTuple):
    """A subcommand.  ``run``, whose docstring is the help, takes the resolved options ``o``
    (with ``output_dir``, and ``corpus`` if it takes one) and returns the files it wrote."""

    name: str
    run: Callable[[dict], dict[str, Path]]
    options: tuple[str, ...]
    corpus: bool = False  # takes the corpus directory as its argument


STAGES = {s.name: s for s in (
    Stage("extract", _run_extract, ("manifest",), corpus=True),
    Stage("fit", _run_fit, ("input", "level")),
    Stage("target", _run_target, ("alpha", "beta", "gamma", "fit_json", "rbar")),
    Stage("ordertest", _run_ordertest, ("input", "replicates", "len1", "len2", "seed", "levels", "halve_alpha")),
    Stage("mcmc", _run_mcmc, ("rbar", "steps", "runs", "seed", "alpha", "beta", "gamma", "fit_json",
                              "reference", "reference_size", "levels", "halve_alpha", "save_samples")),
    Stage("report", _run_report, ("input_dir",)),
)}


def _run(stage: Stage, o: dict, prefix: str = "") -> dict[str, Path]:
    """Run ``stage`` on ``o``; any error it raises ends in an ``Error:`` line,
    its message after ``prefix``."""
    try:
        return stage.run(o)
    except Exception as exc:
        message = (exc.message if isinstance(exc, click.ClickException)
                   else f"missing field {exc}" if isinstance(exc, KeyError) else str(exc))
        raise click.ClickException(prefix + message) from exc


def _run_pipeline(o: dict) -> dict[str, Path]:
    """Run extract, fit, target, ordertest, mcmc and report in sequence."""
    stages: dict[str, dict[str, str]] = {}
    staged = {**o, "fit_json": o["output_dir"] / "fit_report.json"}
    for name in ("extract", "fit", "target", "ordertest", "mcmc", "report"):
        outputs = _run(STAGES[name], staged, f"stage '{name}' failed: ")
        stages[name] = {fname: persist.sha256_file(path) for fname, path in sorted(outputs.items())}
        if name == "extract":
            alphabet_size = persist.read_json(outputs["extract_meta.json"])["alphabet_size"]
            if o["rbar"] < alphabet_size:
                raise click.ClickException(f"--rbar {o['rbar']} is below the observed alphabet size {alphabet_size}")
    config = {**{k: v for k, v in o.items() if k not in ("corpus", "manifest", "output_dir")}, **staged["corpus_id"]}
    config_hash = persist.config_hash(config)
    manifest_path = persist.write_json(o["output_dir"] / "manifest.json", {
        "package": "hapaxchain", "version": __version__, "seed": o["seed"],
        "config_hash": config_hash, "config": config, "stages": stages})
    click.echo(f"pipeline: complete, manifest config_hash={config_hash[:12]}")
    return {"manifest.json": manifest_path}


PIPELINE = Stage("pipeline", _run_pipeline, ("manifest", "seed", "level", "rbar", "steps", "runs", "replicates",
                                             "len1", "len2", "reference_size", "levels", "halve_alpha"), corpus=True)


def _command(stage: Stage) -> click.Command:
    params = [click.Argument(["corpus"], type=EXISTING_DIR)] if stage.corpus else []
    params += [OPTIONS[name] for name in stage.options] + [
        click.Option(["--config"], type=click.Path(exists=True, dir_okay=False), is_eager=True, expose_value=False,
                     callback=_load_config, help="JSON file of option values keyed by option name; explicit flags win."),
        click.Option(["--output-dir"], type=click.Path(file_okay=False, path_type=Path), default=".",
                     envvar=OUTPUT_DIR_ENVVAR, show_default=True,
                     help=f"Directory for output artifacts (env: {OUTPUT_DIR_ENVVAR})."),
    ]
    return click.Command(stage.name, callback=lambda **o: _run(stage, o), params=params, help=stage.run.__doc__)


@click.group()
@click.version_option(__version__, prog_name="hapaxchain")
def main():
    """Rank-size analysis of hapax legomena: extraction, Zipf-Mandelbrot
    fitting, Markov order testing, and Metropolis-Hastings sampling."""


for _stage in (*STAGES.values(), PIPELINE):
    main.add_command(_command(_stage))


if __name__ == "__main__":
    main()
