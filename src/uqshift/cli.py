"""Command-line pipeline: synth, split, train, uq, eval, report.

Each stage reads files produced by earlier stages from the output
directory, writes its own outputs there through ``csvio``, and adds one
manifest line (stage, config hash, input hashes, outputs), dropping each
line that is then the newest writer of no file.  One rule, ``_vouch``,
decides whether a stage may read an upstream file: the newest manifest
line that lists the file ran under the current configuration of its
stage, and each input on that line still has its recorded hash and
passes the same rule.  A file no line lists is the user's own and is
taken as it is.  A stage whose manifest line and outputs already exist
is skipped.  Two runs with the same configuration and seed produce
byte-identical output trees; wall-clock durations therefore go to
stderr, never into the tree.

Every file of eval/split_<k> has one derivation, ``_eval_artifacts``:
the per-point tables cross_predictions.csv and uq_scores.csv come from
the dataset, the models' predictions and the split's uq CSVs (each that
a uq:k manifest line lists as an output), and the R^2 matrix, the
removal curves, the box-plot statistics and summary.json come from
those tables.  ``eval`` writes what it returns.
``report`` calls it on the persisted sources (the dataset, the split
files, the ``pred_<j>`` column of cross_predictions.csv for each current
split j, and the uq CSVs that the newest eval:k manifest line records as
inputs) under the current configuration, renders every file as ``eval``
writes it, summary.json and the per-point tables included, and compares
that text with the file on disk; a file that differs in any byte exits 4
and is named.  Every per-row source is read by its ``id`` column through
``csvio.keyed_cells``: a missing column, an id not in the dataset or an
id on two rows exits 3.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from pathlib import Path, PurePosixPath

import numpy as np

from . import __version__
from .clustering import (
    ClusterLabels,
    dbscan,
    load_external_labels,
    make_cluster_splits,
    read_split_csv,
    write_labels_csv,
    write_split_csv,
)
from .config import load_config, stage_config_text
from .csvio import (
    csv_text,
    keyed_cells,
    parse_floats,
    read_csv,
    read_json_lines,
    read_text,
    write_csv,
    write_text,
)
from .dataset import (
    Dataset,
    fit_scaler,
    generate_synthetic,
    load_dataset,
    rank_correlated_features,
    save_dataset,
)
from .errors import ConfigError, DataError, NumericalError, UqshiftError
from .evaluation import (
    cross_cluster_table,
    novelty_separation,
    removal_curve,
    uq_summary_stats,
)
from .embedding import pca, tsne
from .mlp import hyperparameter_search, load_model, predict, save_model
from .rng import derive_seed
from .uq_ad import ad_dd_scores, ad_ld_scores, fit_ad, standard_normal_quantile
from .uq_dropout import McDropoutConfig, mc_dropout
from .uq_rio import fit_rio, rio_predict

# method: (uq CSV, {uq CSV column: uq_scores.csv column}), in file order
_UQ_METHODS = {
    "dropout": ("uq_dropout.csv", {"pred_std": "dropout"}),
    "ad": ("uq_ad.csv", {"ad_dd": "ad_dd", "ad_ld": "ad_ld"}),
    "rio": ("uq_rio.csv", {"residual_std": "rio"}),
}
_STAGE_SEEDS = {"synth": 0, "split_embed": 1, "split_sample": 2, "train": 3, "uq_dropout": 4, "uq_rio": 5}


# ---------------------------------------------------------------- plumbing

def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _dir_lock(out: Path):
    """Hold flock on <out>/.lock while the run lasts; the kernel drops it if
    the run dies.  The file is unlinked while still locked, so no tree keeps it."""
    lock = out / ".lock"
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        except OSError as exc:
            raise ConfigError(f"cannot lock {lock} ({type(exc).__name__})") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a run that ended after our open may have unlinked the file: retry
            if os.path.samestat(os.fstat(fd), os.stat(lock)):
                break
        except FileNotFoundError:
            pass
        except OSError as exc:
            os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise ConfigError(f"output directory {out} is locked by another run") from None
            raise ConfigError(f"cannot lock {lock} ({type(exc).__name__})") from None
        os.close(fd)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _manifest_entries(out: Path) -> list[dict]:
    manifest = out / "manifest.jsonl"
    entries = read_json_lines(manifest) if manifest.exists() else []
    for n, e in enumerate(entries, start=1):
        if not (isinstance(e.get("stage"), str) and isinstance(e.get("config_hash"), str)
                and isinstance(e.get("inputs"), dict) and isinstance(e.get("outputs"), list)
                and all(isinstance(v, str) for v in [*e["inputs"].values(), *e["outputs"]])):
            raise DataError(f"{manifest}: entry {n} is not a manifest line")
    return entries


def _newest_writer(entries: list[dict], rel: str) -> dict | None:
    """The newest manifest line that lists rel among its outputs."""
    return next((e for e in reversed(entries) if rel in e["outputs"]), None)


def _sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path} ({type(exc).__name__})") from None


def _stage_hash(cfg: dict, stage: str, outputs=()) -> str:
    """The config hash of a manifest line of stage (synth, split, train:k,
    uq:k or eval:k): its _STAGES sections of cfg and, for uq, the methods
    whose files are among outputs, in _UQ_METHODS order.  report, with no
    sections, writes no line."""
    name = stage.partition(":")[0]
    if not (name in _STAGES and _STAGES[name][2]):
        raise DataError(f"manifest.jsonl names an unknown stage {stage!r}")
    text = stage_config_text(cfg, _STAGES[name][2])
    if name == "uq":
        names = {PurePosixPath(rel).name for rel in outputs}
        text += "\nmethods = " + ",".join(m for m, (f, _) in _UQ_METHODS.items() if f in names)
    return hashlib.sha256(text.encode()).hexdigest()


def _vouch(cfg: dict, out: Path, rels) -> dict[str, str]:
    """{rel: sha256} of the upstream files rels, paths relative to out, once
    the read rule of the module docstring accepts each; else a DataError
    naming the first it refuses.  An input outside the tree reads as
    ../<name>.  Each file is hashed, and each line checked, at most once."""
    entries = _manifest_entries(out)
    sha = functools.cache(lambda rel: _sha256(out / rel))
    checked: set[int] = set()  # id() of the lines already checked

    def accept(rel):
        sha(rel)
        line = _newest_writer(entries, rel)
        if line is None or id(line) in checked:
            return
        checked.add(id(line))
        stage = line["stage"].partition(":")[0]
        if line["config_hash"] != _stage_hash(cfg, line["stage"], line["outputs"]):
            sections = " or ".join(f"[{name}]" for name in _STAGES[stage][2])
            raise DataError(f"{rel} was made under another {sections} configuration; "
                            f"rerun {stage}")
        for source, recorded in line["inputs"].items():
            if sha(source) != recorded:
                raise DataError(f"{rel} is stale: {source} changed since {stage} ran; "
                                f"rerun {stage}")
        for source in line["inputs"]:
            accept(source)

    for rel in rels:
        accept(rel)
    return {rel: sha(rel) for rel in rels}


def _run_stage(cfg: dict, out: Path, stage: str, inputs: list[str], fn,
               outputs=()) -> None:
    """Run one stage on the upstream files inputs (paths relative to out)
    once ``_vouch`` accepts them, unless a manifest line with the same
    stage, config hash and input hashes is the newest writer of each of
    its outputs and they all exist.  outputs names the files a uq stage
    will write, which fix its methods."""
    key = {
        "stage": stage,
        "config_hash": _stage_hash(cfg, stage, outputs),
        "inputs": _vouch(cfg, out, inputs),
    }
    entries = _manifest_entries(out)
    for old in entries:
        if (all(old[k] == v for k, v in key.items())
                and all(_newest_writer(entries, rel) is old and (out / rel).exists()
                        for rel in old["outputs"])):
            _log(f"[{stage}] up to date, skipping")
            return
    started = time.monotonic()
    written = fn()
    duration = time.monotonic() - started
    entries.append(dict(key, outputs=sorted(Path(p).relative_to(out).as_posix()
                                            for p in written)))
    # rewritten whole, not appended: a kill cannot leave a torn last line
    lines = [json.dumps(e, sort_keys=True) + "\n" for e in entries
             if any(_newest_writer(entries, rel) is e for rel in e["outputs"])]
    write_text(out / "manifest.jsonl", "".join(lines))
    _log(f"[{stage}] done in {duration:.2f}s")


def _split_ids(out: Path, requested: int | None = None) -> list[int]:
    """The splits of the newest manifest line that lists split files, or
    just requested when it is one of them."""
    for line in reversed(_manifest_entries(out)):
        ids = sorted(int(m[1]) for rel in line["outputs"]
                     if (m := re.fullmatch(r"split/split_(\d+)\.csv", rel)))
        if ids:
            break
    else:
        raise DataError(f"{out / 'manifest.jsonl'} lists no split files; run the split stage first")
    if requested is None:
        return ids
    if requested not in ids:
        raise DataError(f"split {requested} not found; available: {ids}")
    return [requested]


# ------------------------------------------------------------------ stages

def cmd_synth(cfg: dict, out: Path, args) -> None:
    def fn():
        seed = derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["synth"])
        data, labels = generate_synthetic(**cfg["synth"], seed=seed)
        dataset_path = out / "data" / "dataset.csv"
        labels_path = out / "data" / "labels.csv"
        save_dataset(data, dataset_path)
        write_labels_csv(data.ids, labels, labels_path)
        return [dataset_path, labels_path]

    _run_stage(cfg, out, "synth", [], fn)


def cmd_split(cfg: dict, out: Path, args) -> None:
    section = cfg["split"]
    inputs = ["data/dataset.csv"]
    external = section["external_labels"]
    if external:
        # relpath, not relative_to: an external labels file may sit outside out
        inputs.append(Path(os.path.relpath(external, out)).as_posix())

    def fn():
        data = load_dataset(out / "data" / "dataset.csv")
        outputs: list[Path] = []

        feature_idx = np.arange(data.dim)
        if section["use_correlation_filter"]:
            ranking = rank_correlated_features(data, section["correlation_threshold"])
            if not ranking:
                raise DataError(
                    "correlation filter selected no features; lower the threshold"
                )
            feature_idx = np.array([data.feature_names.index(name) for name, _ in ranking])
            ranking_path = out / "split" / "ranking.csv"
            write_csv(ranking_path, ["feature", "r"], ranking)
            outputs.append(ranking_path)

        need_embedding = not external or section["force_embedding"]
        coords = None
        if need_embedding:
            selected = data.features[:, feature_idx]
            scaler = fit_scaler(selected)
            standardized = scaler.transform(selected)
            n_comp = min(section["pca_components"], standardized.shape[1], standardized.shape[0])
            if n_comp < section["pca_components"]:
                _log(f"[split] capping pca components to {n_comp}")
            emb = tsne(
                pca(standardized, n_comp)[0],
                perplexity=section["perplexity"],
                iterations=section["tsne_iterations"],
                seed=derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["split_embed"]),
            )
            coords = emb.coordinates
            _log(f"[split] perplexity search: {emb.params['perplexity_capped_rows']} of "
                 f"{data.n} rows hit max_iter, largest entropy error "
                 f"{emb.params['perplexity_max_error_bits']:.3g} bits")
            emb_path = out / "split" / "embedding.csv"
            write_csv(emb_path, ["id", "dim1", "dim2"], zip(data.ids, *coords.T.tolist()))
            trace_path = out / "split" / "kl_trace.csv"
            write_csv(trace_path, ["iter", "kl"], enumerate(emb.objective_trace.tolist()))
            outputs.extend([emb_path, trace_path])

        if external:
            labels = load_external_labels(Path(external), data)
        else:
            labels = dbscan(coords, section["dbscan_eps"], section["min_pts"],
                            eps_factor=section["eps_factor"])
            if section["dbscan_eps"] is None:
                _log(f"[split] auto eps = {labels.eps!r}")
            noise = int((labels.labels == -1).sum())
            _log(f"[split] dbscan found {labels.k} clusters, {noise} noise rows")

        labels_path = out / "split" / "labels.csv"
        write_labels_csv(data.ids, labels.labels, labels_path)
        outputs.append(labels_path)

        splits = make_cluster_splits(
            data,
            labels,
            train_n=section["train_n"],
            valid_n=section["valid_n"],
            min_cluster_size=section["min_cluster_size"],
            seed=derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["split_sample"]),
        )
        if len(splits) < 2:
            raise DataError(
                f"{len(splits)} of {labels.k} clusters reached min_cluster_size = "
                f"{section['min_cluster_size']} rows; a held-out evaluation needs at least two "
                f"(set dbscan_eps or eps_factor, or lower min_cluster_size)"
            )
        for split in splits:
            path = out / "split" / f"split_{split.train_cluster}.csv"
            write_split_csv(split, data.ids, path)
            outputs.append(path)
        return outputs

    _run_stage(cfg, out, "split", inputs, fn)


def cmd_train(cfg: dict, out: Path, args) -> None:
    for k in _split_ids(out, args.split_id):
        inputs = ["data/dataset.csv", f"split/split_{k}.csv"]

        def fn(k=k):
            data = load_dataset(out / "data" / "dataset.csv")
            split = read_split_csv(out / "split" / f"split_{k}.csv", data.ids, k)
            if cfg["train"]["batch_size"]:
                _log(f"[train:{k}] mini-batches of {cfg['train']['batch_size']}")
            try:
                model, rows = hyperparameter_search(
                    data.features[split.train_idx],
                    data.target[split.train_idx],
                    data.features[split.valid_idx],
                    data.target[split.valid_idx],
                    **cfg["train"],
                    seed=derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["train"], k),
                    jobs=cfg["run"]["jobs"],
                )
            except BrokenExecutor:
                raise UqshiftError(f"train:{k}: a worker process of the grid search died; "
                                   f"rerun train") from None
            model_path = out / "train" / f"model_{k}.json"
            save_model(model, model_path)
            report_path = out / "train" / f"search_report_{k}.csv"
            write_csv(
                report_path,
                ["grid_index", "layers", "width", "lr", "train_r2", "valid_r2", "status"],
                [
                    (
                        row.grid_index,
                        len(row.hidden_sizes),
                        row.hidden_sizes[0],
                        row.learning_rate,
                        row.train_r2,
                        row.valid_r2,
                        "diverged" if row.diverged else "trained",
                    )
                    for row in rows
                ],
            )
            return [model_path, report_path]

        _run_stage(cfg, out, f"train:{k}", inputs, fn)


def _parse_methods(raw: str | None) -> tuple[str, ...]:
    """The selected methods in _UQ_METHODS order: --methods rio,ad is ad,rio."""
    if raw is None:
        return tuple(_UQ_METHODS)
    chosen = [part.strip() for part in raw.split(",") if part.strip()]
    for m in chosen:
        if m not in _UQ_METHODS:
            raise ConfigError(f"unknown uq method {m!r}; choose from {', '.join(_UQ_METHODS)}")
    if not chosen:
        raise ConfigError("no uq methods selected")
    return tuple(m for m in _UQ_METHODS if m in chosen)


def _load(out: Path, ids) -> tuple[Dataset, ClusterLabels, dict]:
    """The dataset, the split stage's labels and {j: split} for ids."""
    data = load_dataset(out / "data" / "dataset.csv")
    labels = load_external_labels(out / "split" / "labels.csv", data)
    return data, labels, {j: read_split_csv(out / "split" / f"split_{j}.csv", data.ids, j)
                          for j in ids}


def cmd_uq(cfg: dict, out: Path, args) -> None:
    methods = _parse_methods(args.methods)
    section = cfg["uq"]
    needs_model = "dropout" in methods or "rio" in methods
    for k in _split_ids(out, args.split_id):
        inputs = ["data/dataset.csv", "split/labels.csv", f"split/split_{k}.csv"]
        if needs_model:
            inputs.append(f"train/model_{k}.json")

        def fn(k=k):
            data, labels, splits = _load(out, [k])
            split = splits[k]
            _, scored = split.scored_rows(labels)
            if scored.size == 0:
                raise DataError(f"split {k} has no rows to score")
            ids = [data.ids[i] for i in scored]
            X_train = data.features[split.train_idx]
            X_query = data.features[scored]
            outputs: list[Path] = []
            base = out / "uq" / f"split_{k}"
            model = load_model(out / "train" / f"model_{k}.json") if needs_model else None

            if "dropout" in methods:
                means, stds = mc_dropout(
                    model,
                    X_query,
                    McDropoutConfig(
                        passes=section["passes"],
                        seed=derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["uq_dropout"], k),
                    ),
                )
                path = base / "uq_dropout.csv"
                write_csv(path, ["id", "pred_mean", "pred_std"],
                          zip(ids, means.tolist(), stds.tolist()))
                outputs.append(path)

            if "ad" in methods:
                if section["metric"] == "euclidean":
                    scaler = fit_scaler(X_train)
                    train_space = scaler.transform(X_train)
                    query_space = scaler.transform(X_query)
                else:
                    train_space, query_space = X_train, X_query
                ad_model = fit_ad(train_space, section["knn_k"], section["metric"])
                dd = ad_dd_scores(ad_model, query_space)
                ld = ad_ld_scores(ad_model, query_space)
                threshold = standard_normal_quantile(1.0 - section["alpha"])
                path = base / "uq_ad.csv"
                write_csv(path, ["id", "ad_dd", "ad_ld", "novel_at_alpha"],
                          zip(ids, dd.tolist(), ld.tolist(), (dd > threshold).astype(int).tolist()))
                outputs.append(path)

            if "rio" in methods:
                yhat_train = predict(model, X_train)
                yhat_query = predict(model, X_query)
                rio_model = fit_rio(
                    model.scaler.transform(X_train),
                    yhat_train,
                    data.target[split.train_idx],
                    n_starts=section["rio_starts"],
                    max_iter=section["rio_max_iter"],
                    seed=derive_seed(cfg["run"]["seed"], _STAGE_SEEDS["uq_rio"], k),
                )
                residual_mean, residual_std = rio_predict(
                    rio_model,
                    model.scaler.transform(X_query),
                    yhat_query,
                    include_noise=section["rio_include_noise"],
                )
                path = base / "uq_rio.csv"
                write_csv(
                    path,
                    ["id", "yhat", "residual_mean", "residual_std", "corrected_pred"],
                    zip(ids, *(v.tolist() for v in (yhat_query, residual_mean, residual_std,
                                                    yhat_query + residual_mean))),
                )
                outputs.append(path)
            return outputs

        _run_stage(cfg, out, f"uq:{k}", inputs, fn, [_UQ_METHODS[m][0] for m in methods])


def _uq_files(out: Path, k: int, rels) -> dict[str, Path]:
    """{method: path} of split k's uq CSVs among rels (paths relative to
    out), in _UQ_METHODS order."""
    return {m: out / rel for m, (name, _) in _UQ_METHODS.items()
            if (rel := f"uq/split_{k}/{name}") in rels}


def _read_columns(path: Path, ids, columns: list[str]) -> list[np.ndarray]:
    """The named number columns of an id-keyed CSV, each a vector over
    the dataset rows ids, NaN where the file has no row."""
    header, rows = read_csv(path)
    at, cells = keyed_cells(path, header, rows, ids, columns)
    vectors = [np.full(len(ids), np.nan) for _ in columns]
    for vector, column in zip(vectors, cells):
        vector[at] = parse_floats(column, lambda i: f"{path}: row {i + 1}")
    return vectors


def _uq_scores(data: Dataset, scored: np.ndarray, k: int,
               uq_files: dict[str, Path]) -> dict[str, np.ndarray]:
    """{uq_scores.csv column: vector over the dataset rows} from split k's
    uq CSVs, in uq_files order; each must have a row for every scored row."""
    scores = {}
    for method, path in uq_files.items():
        columns = _UQ_METHODS[method][1]
        for name, vector in zip(columns.values(), _read_columns(path, data.ids, list(columns))):
            missing = np.isnan(vector[scored])
            if missing.any():
                raise DataError(f"{path}: uq outputs for split {k} are stale: {name} misses "
                                f"id {data.ids[scored[missing.argmax()]]}; rerun uq")
            scores[name] = vector
    return scores


def _summary(cfg: dict, split, scored: np.ndarray, in_cluster: np.ndarray,
             scores: dict[str, np.ndarray]) -> str:
    """The text of summary.json: the config hash of the split's eval
    manifest line, the seed, the package version, the methods, the row
    counts and the novelty rates of the ad_dd column over the scored rows,
    a heldout row being in-cluster.  Nothing in it depends on a section
    that line does not hash."""
    novelty = None
    if "ad_dd" in scores:
        alpha = cfg["uq"]["alpha"]
        in_rate, out_rate = novelty_separation(scores["ad_dd"][scored], in_cluster, alpha)
        novelty = {
            "alpha": alpha,
            "threshold": standard_normal_quantile(1.0 - alpha),
            "in_cluster_rate": in_rate,
            "out_of_cluster_rate": out_rate,
        }
    summary = {
        "config_hash": _stage_hash(cfg, f"eval:{split.train_cluster}"),
        "seed": cfg["run"]["seed"],
        "split": split.train_cluster,
        "package_version": __version__,
        "methods": list(scores),
        "n_train": int(split.train_idx.size),
        "n_valid": int(split.valid_idx.size),
        "n_heldout": int(in_cluster.sum()),
        "n_test": int(split.test_idx.size),
        "novelty": novelty,
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _eval_artifacts(cfg: dict, data: Dataset, labels: ClusterLabels, splits: dict,
                    predictions: dict, k: int, uq_files: dict[str, Path]):
    """Every file of eval/split_<k>: {CSV name: (header, rows)} and the
    text of summary.json.

    The sources are the dataset, the full-data predictions {split id:
    vector} and split k's uq CSVs.  They give the per-point tables
    cross_predictions.csv and uq_scores.csv, and those give the rest:
    r2_matrix.csv, every removal_curve_<method>.csv and
    boxplot_stats.csv (curves and box plots use the test rows only).
    """
    split = splits[k]
    split_ids = sorted(predictions)
    heldout, scored = split.scored_rows(labels)
    scores = _uq_scores(data, scored, k, uq_files)
    in_cluster = np.isin(scored, heldout)
    table, clusters = cross_cluster_table(predictions, data.target, labels, list(splits.values()))
    tables = {
        "cross_predictions.csv": (
            ["id", "cluster", "actual", *[f"pred_{j}" for j in split_ids]],
            list(zip(data.ids, labels.labels.tolist(), data.target.tolist(),
                     *(predictions[j].tolist() for j in split_ids))),
        ),
        "uq_scores.csv": (
            ["id", "group", "actual", "predicted", *scores],
            list(zip([data.ids[r] for r in scored],
                     ["heldout" if h else "test" for h in in_cluster.tolist()],
                     *(v[scored].tolist() for v in [data.target, predictions[k],
                                                   *scores.values()]))),
        ),
        "r2_matrix.csv": (
            ["train_cluster", *[str(c) for c in clusters]],
            [(c, *["" if math.isnan(v) else v for v in row])
             for c, row in zip(clusters, table.tolist())],
        ),
    }
    test = split.test_idx
    actual, predicted = data.target[test], predictions[k][test]
    for name, vector in scores.items():
        curve = removal_curve(
            vector[test], actual, predicted,
            step_fraction=cfg["eval"]["step_fraction"],
            min_remaining=cfg["eval"]["min_remaining"],
        )
        tables[f"removal_curve_{name}.csv"] = (
            ["fraction_removed", "r2", "n_remaining"],
            [(p.fraction_removed, p.r2, p.n_remaining) for p in curve.points],
        )
    stats = uq_summary_stats({name: vector[test] for name, vector in scores.items()},
                             actual, predicted)
    tables["boxplot_stats.csv"] = (
        ["method", "median", "q1", "q3", "whisker_low", "whisker_high", "n_outliers"],
        [
            (name, s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, s.n_outliers)
            for name, s in stats.items()
        ],
    )
    return tables, _summary(cfg, split, scored, in_cluster, scores)


def cmd_eval(cfg: dict, out: Path, args) -> None:
    ids = _split_ids(out)

    @functools.cache
    def sources():
        """The dataset, labels, splits and full-data predictions: built for
        the first split whose eval is not up to date, then shared."""
        data, labels, splits = _load(out, ids)
        predictions = {
            j: predict(load_model(out / "train" / f"model_{j}.json"), data.features) for j in ids
        }
        return data, labels, splits, predictions

    entries = _manifest_entries(out)
    for k in _split_ids(out, args.split_id):
        # what every uq:k line wrote, so a deleted one is named
        uq_files = _uq_files(out, k, {rel for e in entries if e["stage"] == f"uq:{k}"
                                      for rel in e["outputs"]})
        if not uq_files:
            raise DataError(f"no uq outputs for split {k}; run the uq stage")
        inputs = ["data/dataset.csv", "split/labels.csv", *(f"split/split_{j}.csv" for j in ids),
                  *(f"train/model_{j}.json" for j in ids),
                  *(path.relative_to(out).as_posix() for path in uq_files.values())]

        def fn(k=k, uq_files=uq_files):
            tables, summary = _eval_artifacts(cfg, *sources(), k, uq_files)
            base = out / "eval" / f"split_{k}"
            outputs: list[Path] = []
            for name, (header, rows) in tables.items():
                outputs.append(base / name)
                write_csv(outputs[-1], header, rows)
            summary_path = base / "summary.json"
            write_text(summary_path, summary)
            outputs.append(summary_path)
            return outputs

        _run_stage(cfg, out, f"eval:{k}", inputs, fn)


def cmd_report(cfg: dict, out: Path, args) -> None:
    """Re-derive every file of eval/split_<k> from the persisted sources
    and check that the written one holds the same bytes."""
    ids = _split_ids(out)
    entries = _manifest_entries(out)
    uq_files = {}
    for k in _split_ids(out, args.split_id):
        writer = _newest_writer(entries, f"eval/split_{k}/summary.json")
        if writer is None:
            raise DataError(f"no eval outputs for split {k}; run the eval stage")
        # the uq CSVs that eval read, not the ones on disk now
        uq_files[k] = _uq_files(out, k, writer["inputs"])
        _vouch(cfg, out, [*writer["inputs"], *writer["outputs"]])
    data, labels, splits = _load(out, ids)
    failures: list[str] = []
    for k, present in uq_files.items():
        base = out / "eval" / f"split_{k}"
        predictions = dict(zip(ids, _read_columns(base / "cross_predictions.csv", data.ids,
                                                  [f"pred_{j}" for j in ids])))
        tables, summary = _eval_artifacts(cfg, data, labels, splits, predictions, k, present)
        texts = {name: csv_text(header, rows) for name, (header, rows) in tables.items()}
        texts["summary.json"] = summary
        for name, text in texts.items():
            if read_text(base / name) == text:
                _log(f"[report:{k}] {name} OK")
            else:
                failures.append(f"split {k}: {name} does not match")
    if failures:
        raise NumericalError("report verification failed: " + "; ".join(failures))
    print("report: all evaluation artifacts verified")


# ------------------------------------------------------------------- entry

# stage: (help, command, config sections its manifest lines hash, takes --split-id)
_STAGES = {
    "synth": ("generate a synthetic clustered dataset", cmd_synth, ("synth",), False),
    "split": ("embed, cluster, and build cluster-held-out splits", cmd_split, ("split",), False),
    "train": ("hyperparameter search and model training per split", cmd_train, ("train",), True),
    "uq": ("uncertainty estimates for the scored rows of a split", cmd_uq, ("uq",), True),
    "eval": ("cross-cluster matrix, removal curves, summaries", cmd_eval, ("eval", "uq"), True),
    "report": ("re-derive and verify the evaluation artifacts", cmd_report, (), True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqshift",
        description="Uncertainty quantification pipeline for regression under cluster shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, per_split) in _STAGES.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="run configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override run.seed")
        cmd.add_argument("--out", type=str, default=None, help="override run.out")
        cmd.add_argument("--jobs", type=int, default=None, help="override run.jobs")
        if per_split:
            cmd.add_argument("--split-id", type=int, default=None, help="restrict to one split")
        if name == "uq":
            cmd.add_argument("--methods", type=str, default=None,
                             help="comma list from: " + ", ".join(_UQ_METHODS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {("run", key): getattr(args, key)
                                        for key in ("seed", "out", "jobs")
                                        if getattr(args, key) is not None})
        out = Path(cfg["run"]["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out} "
                              f"({type(exc).__name__})") from None
        with _dir_lock(out):
            _STAGES[args.command][1](cfg, out, args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except DataError as exc:
        _log(f"data error: {exc}")
        return 3
    except NumericalError as exc:
        _log(f"numerical failure: {exc}")
        return 4
    except UqshiftError as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:
        _log(f"out of memory: {exc}" if str(exc) else f"out of memory in {args.command}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
