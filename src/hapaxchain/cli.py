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


class Opt(NamedTuple):
    """One option: the type of its flag and config values, its default and help."""

    type: click.ParamType
    default: Any
    help: str
    aliases: tuple[str, ...] = ()


OPTIONS = {
    "manifest": Opt(EXISTING_FILE, None, "File listing document names, one per line, in order."),
    "table": Opt(ANY_PATH, None, "Hapax table to rank against [default: <output-dir>/hapax_table.csv]."),
    "input": Opt(ANY_PATH, None, "fit: rank,size CSV or hapax table [default: <output-dir>/hapax_table.csv]; "
                                 "ordertest: rank sequence [default: <output-dir>/rank_sequence.txt]."),
    "input_dir": Opt(EXISTING_DIR, None, "Directory holding the stage reports [default: --output-dir]."),
    "level": Opt(click.FLOAT, 0.95, "Confidence level for the parameter intervals."),
    "alpha": Opt(click.FLOAT, None, "Law parameter alpha (with --beta and --gamma, instead of --fit-json)."),
    "beta": Opt(click.FLOAT, None, "Law parameter beta."),
    "gamma": Opt(click.FLOAT, None, "Law parameter gamma."),
    "fit_json": Opt(EXISTING_FILE, None, "Take the law parameters from a fit report."),
    "rbar": Opt(click.INT, 300, "Number of ranks the distribution covers."),
    "replicates": Opt(click.INT, 100, "Replicates per test battery."),
    "len1": Opt(click.INT, None, "Length of first-order replicates [default: input length]."),
    "len2": Opt(click.INT, None, "Length of second-order replicates [default: min(100000, input length)]."),
    "seed": Opt(click.IntRange(min=0), 0, "Master seed of every random draw."),
    "levels": Opt(_Levels(), "0.05,0.01,0.001", "Comma-separated significance levels.", ("--alpha-levels",)),
    "halve_alpha": Opt(click.BOOL, True, "KS threshold parameterization: halve the level."),
    "steps": Opt(click.INT, 100_000, "Chain length per run."),
    "runs": Opt(click.INT, 100, "Number of chains."),
    "reference": Opt(EXISTING_FILE, None, "Empirical rank sample; defaults to i.i.d. draws from the target."),
    "reference_size": Opt(click.INT, 31074, "Size of the synthetic reference when --reference is absent."),
    "save_samples": Opt(click.BOOL, False, "Also write mh_samples_<run>.txt per run."),
}

# JSON types a config value may have, by option type name; any other option takes a string.
_JSON_TYPES = {"integer": int, "integer range": int, "float": (int, float), "boolean": bool}


def _load_config(path: str) -> dict:
    """The config file's object, each key an option name and each value of that option's JSON type."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.ClickException(f"config file {path} must hold a JSON object")
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
    return cfg


def _convert(name: str, value):
    """A config or default value, converted as its flag would be."""
    try:
        return None if value is None else OPTIONS[name].type.convert(value, None, None)
    except click.BadParameter as exc:
        raise click.ClickException(f"config key {name!r}: {exc.message}")


def _option(name: str) -> click.Option:
    opt, flag = OPTIONS[name], name.replace("_", "-")
    is_bool = opt.type is click.BOOL
    decls = [f"--{flag}/--no-{flag}"] if is_bool else [f"--{flag}", *opt.aliases]
    shown = (f"--{flag}" if opt.default else f"--no-{flag}") if is_bool else opt.default
    return click.Option([*decls, name], type=None if is_bool else opt.type, default=None,
                        help=opt.help if opt.default is None else f"{opt.help}  [default: {shown}]")


def _require(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise click.ClickException(f"{path} not found; run '{producer}' first")
    return path


def _keyed(by_level: dict) -> dict:
    return {format(lv, "g"): v for lv, v in by_level.items()}


def _file_id(path: Path, key: str = "input") -> dict:
    """A stage input by file name and content, so hashes do not depend on where it lives."""
    return {key: path.name, f"{key}_sha256": persist.sha256_file(path)}


def _corpus_id(o: dict) -> dict:
    """The corpus by content, as ``_file_id`` gives a file: one SHA-256 over the name and
    SHA-256 of each document, in reading order, and the manifest file, if any."""
    docs = [[p.name, persist.sha256_file(p)] for p in corpus_mod.document_paths(o["corpus"], o["manifest"])]
    manifest = _file_id(o["manifest"], "manifest") if o["manifest"] else {"manifest": None}
    return {"corpus_sha256": persist.config_hash({"documents": docs}), **manifest}


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


def _params(o: dict) -> ZMParams:
    """The law: from a fit report (``fit_json``), or the three flags."""
    if o.get("fit_json") is not None:
        path = o["fit_json"]
        try:
            p = persist.read_json(path)["params"]
            values = [p[name] for name in ("alpha", "beta", "gamma")]
            if not all(type(v) in (int, float) for v in values):
                raise TypeError
            return ZMParams(*values)
        except ValueError as exc:  # not JSON, or a law outside its domain
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
    table = corpus_mod.build_hapax_table(docs)
    seq = corpus_mod.build_rank_sequence(docs, table)
    counts = {"documents": len(docs), "hapaxes": len(table.words), "occurrences": table.total_occurrences,
              "alphabet_size": table.alphabet_size}
    outputs = {"hapax_table.csv": persist.write_hapax_table(out / "hapax_table.csv", table),
               "rank_sequence.txt": persist.write_rank_sequence(out / "rank_sequence.txt", seq)}
    outputs["extract_meta.json"] = _write_meta(out, "extract", _corpus_id(o), counts, outputs.values())
    click.echo("extract: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return outputs


def _run_sequence(o: dict) -> dict[str, Path]:
    """Rebuild rank_sequence.txt from a corpus and an existing table."""
    out = o["output_dir"]
    table_path = _require(o["table"] or out / "hapax_table.csv", "extract")
    docs = corpus_mod.load_documents(o["corpus"], o["manifest"])
    table = persist.read_hapax_table(table_path)
    seq = corpus_mod.build_rank_sequence(docs, table)
    seq_path = persist.write_rank_sequence(out / "rank_sequence.txt", seq)
    meta_path = _write_meta(out, "sequence", {**_corpus_id(o), **_file_id(table_path, "table")},
                            {"length": len(seq)}, (seq_path,))
    click.echo(f"sequence: length={len(seq)} alphabet_size={table.alphabet_size}")
    return {"rank_sequence.txt": seq_path, "sequence_meta.json": meta_path}


def _run_fit(o: dict) -> dict[str, Path]:
    """Fit the rank-size law; write fit_report.json."""
    input_path = _require(o.get("input") or o["output_dir"] / "hapax_table.csv", "extract")
    result = fit_zm(persist.read_rank_size_csv(input_path), level=o["level"])
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
    outputs: dict[str, Path] = {}

    def save_samples(k, result):
        outputs[f"mh_samples_{k}.txt"] = persist.write_rank_sequence(out / f"mh_samples_{k}.txt", result.samples)

    report = convergence_study(f, o["runs"], o["steps"], reference, seed, levels, o["halve_alpha"],
                               on_run=save_samples if o.get("save_samples") else None)
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
    order = persist.read_json(_require(src / "order_test_report.json", "ordertest"))
    conv = persist.read_json(_require(src / "convergence_report.json", "mcmc"))
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
    (with ``corpus`` and ``output_dir``) and returns the files it wrote."""

    name: str
    run: Callable[[dict], dict[str, Path]]
    options: tuple[str, ...]
    corpus: bool = False  # takes the corpus directory as its argument


STAGES = {s.name: s for s in (
    Stage("extract", _run_extract, ("manifest",), corpus=True),
    Stage("sequence", _run_sequence, ("manifest", "table"), corpus=True),
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
    config = {**{k: v for k, v in o.items() if k not in ("corpus", "manifest", "output_dir")}, **_corpus_id(o)}
    config_hash = persist.config_hash(config)
    manifest_path = persist.write_json(o["output_dir"] / "manifest.json", {
        "package": "hapaxchain", "version": __version__, "seed": o["seed"],
        "config_hash": config_hash, "config": config, "stages": stages})
    click.echo(f"pipeline: complete, manifest config_hash={config_hash[:12]}")
    return {"manifest.json": manifest_path}


PIPELINE = Stage("pipeline", _run_pipeline, ("manifest", "seed", "level", "rbar", "steps", "runs", "replicates",
                                             "len1", "len2", "reference_size", "levels", "halve_alpha"), corpus=True)


def _command(stage: Stage) -> click.Command:
    def callback(config_path, output_dir, corpus=None, **flags):
        cfg = _load_config(config_path) if config_path else {}
        # Flags win over the config file, which wins over the default.
        o = {name: flags[name] if flags.get(name) is not None else _convert(name, cfg.get(name, OPTIONS[name].default))
             for name in stage.options}
        o.update(corpus=corpus, output_dir=output_dir)
        _run(stage, o)

    params = [click.Argument(["corpus"], type=EXISTING_DIR)] if stage.corpus else []
    params += [_option(name) for name in stage.options] + [
        click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False),
                     help="JSON file of option values keyed by option name; explicit flags win."),
        click.Option(["--output-dir"], type=click.Path(file_okay=False, path_type=Path), default=".",
                     envvar=OUTPUT_DIR_ENVVAR, show_default=True,
                     help=f"Directory for output artifacts (env: {OUTPUT_DIR_ENVVAR})."),
    ]
    return click.Command(stage.name, callback=callback, params=params, help=stage.run.__doc__)


@click.group()
@click.version_option(__version__, prog_name="hapaxchain")
def main():
    """Rank-size analysis of hapax legomena: extraction, Zipf-Mandelbrot
    fitting, Markov order testing, and Metropolis-Hastings sampling."""


for _stage in (*STAGES.values(), PIPELINE):
    main.add_command(_command(_stage))


if __name__ == "__main__":
    main()
