"""Command-line pipeline: synth, split, train, uq, eval, report.

Each stage reads files produced by earlier stages from the output
directory, writes its own outputs there, and appends one manifest line
(stage, config hash, input hashes, outputs).  A stage whose manifest
line and outputs already exist is skipped.  Two runs with the same
configuration and seed produce byte-identical output trees; wall-clock
durations therefore go to stderr, never into the tree.

The R^2 matrix, the removal curves and the box-plot statistics have one
derivation, ``_eval_tables``, from the per-point tables: ``eval`` writes
what it returns, and ``report`` re-derives it from the persisted
``cross_predictions.csv`` and ``uq_scores.csv`` and compares every file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (
    ClusterLabels,
    dbscan,
    load_external_labels,
    make_cluster_splits,
    read_split_csv,
    write_split_csv,
)
from .config import RunConfig, config_hash, load_config, stage_config_text
from .csvio import format_value, parse_float, read_csv, write_csv
from .dataset import (
    Dataset,
    SyntheticConfig,
    fit_scaler,
    generate_synthetic,
    load_dataset,
    rank_correlated_features,
    save_dataset,
    write_labels_csv,
)
from .errors import ConfigError, DataError, NumericalError, UqshiftError
from .evaluation import (
    cross_cluster_table,
    novelty_separation,
    removal_curve,
    uq_summary_stats,
)
from .embedding import pca, sq_distances, tsne
from .mlp import HyperparamGrid, hyperparameter_search, load_model, predict, save_model
from .rng import derive_seed
from .uq_ad import ad_dd_scores, ad_ld_scores, fit_ad, standard_normal_quantile
from .uq_dropout import McDropoutConfig, mc_dropout
from .uq_rio import KernelConfig, fit_rio, rio_predict

_METHOD_COLUMNS = ("dropout", "ad_dd", "ad_ld", "rio")
_SCORE_COLUMNS = ["id", "group", "actual", "predicted"]
_STAGE_SEEDS = {"synth": 0, "split_embed": 1, "split_sample": 2, "train": 3, "uq_dropout": 4, "uq_rio": 5}


# ---------------------------------------------------------------- plumbing

def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lock_holder_is_dead(lock: Path) -> bool:
    """True when the lock names a PID that no process has any more."""
    try:
        pid = int(lock.read_text())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):  # another user's process; not a PID
        pass
    return False


@contextmanager
def _dir_lock(out: Path):
    lock = out / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_holder_is_dead(lock):
                raise ConfigError(
                    f"output directory {out} is locked by another run (remove {lock} if stale)"
                ) from None
            _log(f"removing stale lock {lock}: its process is gone")
            lock.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _manifest_entries(out: Path) -> list[dict]:
    path = out / "manifest.jsonl"
    if not path.exists():
        return []
    entries = []
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entry = None
            if not isinstance(entry, dict):
                raise DataError(f"{path}: line {n} is not a JSON object")
            entries.append(entry)
    return entries


def _run_stage(out: Path, stage: str, cfg_text: str, inputs: list[Path], fn) -> None:
    """Run one stage unless its manifest line and outputs already exist."""
    for path in inputs:
        if not path.exists():
            raise DataError(f"stage {stage!r} needs missing input {path}")
    key = {
        "stage": stage,
        "config_hash": hashlib.sha256(cfg_text.encode()).hexdigest(),
        # relpath, not relative_to: an external labels file may sit outside out
        "inputs": {Path(os.path.relpath(p, out)).as_posix(): _file_hash(p) for p in inputs},
    }
    for old in _manifest_entries(out):
        if all(old.get(k) == v for k, v in key.items()):
            if all((out / rel).exists() for rel in old.get("outputs", [])):
                _log(f"[{stage}] up to date, skipping")
                return
    started = time.monotonic()
    outputs = fn()
    duration = time.monotonic() - started
    entry = dict(key)
    entry["outputs"] = sorted(Path(p).relative_to(out).as_posix() for p in outputs)
    with open(out / "manifest.jsonl", "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _log(f"[{stage}] done in {duration:.2f}s")


def _split_ids(out: Path) -> list[int]:
    ids = []
    for path in (out / "split").glob("split_*.csv"):
        match = re.fullmatch(r"split_(\d+)\.csv", path.name)
        if match:
            ids.append(int(match.group(1)))
    return sorted(ids)


def _select_split_ids(out: Path, requested: int | None) -> list[int]:
    available = _split_ids(out)
    if not available:
        raise DataError("no split files found; run the split stage first")
    if requested is None:
        return available
    if requested not in available:
        raise DataError(f"split {requested} not found; available: {available}")
    return [requested]


def _load_labels_csv(out: Path, data: Dataset) -> ClusterLabels:
    return load_external_labels(out / "split" / "labels.csv", data)


# ------------------------------------------------------------------ stages

def cmd_synth(cfg: RunConfig, out: Path) -> None:
    def fn():
        section = cfg["synth"]
        synth_cfg = SyntheticConfig(
            clusters=section["clusters"],
            points_per_cluster=section["points_per_cluster"],
            dim=section["dim"],
            separation=section["separation"],
            coef_scale=section["coef_scale"],
            noise=section["noise"],
            seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["synth"]),
        )
        data, labels = generate_synthetic(synth_cfg)
        dataset_path = out / "data" / "dataset.csv"
        labels_path = out / "data" / "labels.csv"
        save_dataset(data, dataset_path)
        write_labels_csv(data.ids, labels, labels_path)
        return [dataset_path, labels_path]

    _run_stage(out, "synth", stage_config_text(cfg, "synth"), [], fn)


def _auto_eps(coords: np.ndarray, min_pts: int, factor: float) -> float:
    """eps from the data: factor times the median distance to the
    neighbor that would make a point core."""
    dists = np.sqrt(np.sort(sq_distances(coords), axis=1))
    rank = min(min_pts - 1, coords.shape[0] - 1)
    eps = factor * float(np.median(dists[:, rank]))
    if eps <= 0:
        raise NumericalError("auto eps came out non-positive; data may be degenerate")
    return eps


def cmd_split(cfg: RunConfig, out: Path) -> None:
    section = cfg["split"]
    dataset_path = out / "data" / "dataset.csv"
    inputs = [dataset_path]
    external = section["external_labels"]
    if external:
        inputs.append(Path(external))

    def fn():
        data = load_dataset(dataset_path)
        outputs: list[Path] = []

        feature_idx = np.arange(data.dim)
        if section["use_correlation_filter"]:
            ranking = rank_correlated_features(data, section["correlation_threshold"])
            if not ranking.entries:
                raise DataError(
                    "correlation filter selected no features; lower the threshold"
                )
            name_to_idx = {name: i for i, name in enumerate(data.feature_names)}
            feature_idx = np.array([name_to_idx[name] for name in ranking.names()])
            ranking_path = out / "split" / "ranking.csv"
            write_csv(ranking_path, ["feature", "r"], list(ranking.entries))
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
            pca_emb, _, _ = pca(standardized, n_comp)
            emb = tsne(
                pca_emb.coordinates,
                perplexity=section["perplexity"],
                iterations=section["tsne_iterations"],
                seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["split_embed"]),
            )
            coords = emb.coordinates
            emb_path = out / "split" / "embedding.csv"
            write_csv(
                emb_path,
                ["id", "dim1", "dim2"],
                [(data.ids[i], float(coords[i, 0]), float(coords[i, 1])) for i in range(data.n)],
            )
            trace_path = out / "split" / "kl_trace.csv"
            write_csv(
                trace_path,
                ["iter", "kl"],
                [(it, float(v)) for it, v in enumerate(emb.objective_trace)],
            )
            outputs.extend([emb_path, trace_path])

        if external:
            labels = load_external_labels(Path(external), data)
        else:
            eps = section["dbscan_eps"]
            if eps is None:
                eps = _auto_eps(coords, section["min_pts"], section["eps_factor"])
                _log(f"[split] auto eps = {eps!r}")
            labels = dbscan(coords, eps, section["min_pts"])
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
            seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["split_sample"]),
        )
        if not splits:
            raise DataError("no cluster reached min_cluster_size; nothing to split")
        for split in splits:
            path = out / "split" / f"split_{split.train_cluster}.csv"
            write_split_csv(split, data.ids, path)
            outputs.append(path)
        return outputs

    _run_stage(out, "split", stage_config_text(cfg, "split"), inputs, fn)


def _grid_from_config(cfg: RunConfig) -> HyperparamGrid:
    section = cfg["train"]
    return HyperparamGrid(
        layer_counts=tuple(section["layer_counts"]),
        widths=tuple(section["widths"]),
        learning_rates=tuple(section["learning_rates"]),
        dropout_rate=section["dropout_rate"],
    )


def cmd_train(cfg: RunConfig, out: Path, split_id: int | None) -> None:
    dataset_path = out / "data" / "dataset.csv"
    for k in _select_split_ids(out, split_id):
        split_path = out / "split" / f"split_{k}.csv"

        def fn(k=k, split_path=split_path):
            data = load_dataset(dataset_path)
            split = read_split_csv(split_path, data.ids, k)
            grid = _grid_from_config(cfg)
            section = cfg["train"]
            batch = section["batch_size"] or None
            if batch is not None:
                _log(f"[train:{k}] mini-batches of {batch}")
            model, rows = hyperparameter_search(
                data.features[split.train_idx],
                data.target[split.train_idx],
                data.features[split.valid_idx],
                data.target[split.valid_idx],
                grid,
                epochs=section["epochs"],
                seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["train"], k),
                jobs=cfg.get("run", "jobs"),
            )
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
                        "" if row.train_r2 is None else row.train_r2,
                        "" if row.valid_r2 is None else row.valid_r2,
                        "diverged" if row.diverged else "trained",
                    )
                    for row in rows
                ],
            )
            return [model_path, report_path]

        _run_stage(
            out,
            f"train:{k}",
            stage_config_text(cfg, "train"),
            [dataset_path, split_path],
            fn,
        )


def _parse_methods(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ("dropout", "ad", "rio")
    methods = tuple(part.strip() for part in raw.split(",") if part.strip())
    for m in methods:
        if m not in ("dropout", "ad", "rio"):
            raise ConfigError(f"unknown uq method {m!r}; choose from dropout, ad, rio")
    if not methods:
        raise ConfigError("no uq methods selected")
    return methods


def cmd_uq(cfg: RunConfig, out: Path, split_id: int | None, methods_raw: str | None) -> None:
    methods = _parse_methods(methods_raw)
    dataset_path = out / "data" / "dataset.csv"
    labels_path = out / "split" / "labels.csv"
    section = cfg["uq"]
    for k in _select_split_ids(out, split_id):
        split_path = out / "split" / f"split_{k}.csv"
        model_path = out / "train" / f"model_{k}.json"
        inputs = [dataset_path, labels_path, split_path]
        if "dropout" in methods or "rio" in methods:
            if not model_path.exists():
                needing = [m for m in methods if m in ("dropout", "rio")]
                raise DataError(
                    f"methods {needing} need the trained model {model_path}; run the train stage"
                )
            inputs.append(model_path)

        def fn(k=k, split_path=split_path, model_path=model_path):
            data = load_dataset(dataset_path)
            labels = _load_labels_csv(out, data)
            split = read_split_csv(split_path, data.ids, k)
            _, scored = split.scored_rows(labels)
            if scored.size == 0:
                raise DataError(f"split {k} has no rows to score")
            ids = [data.ids[i] for i in scored]
            X_train = data.features[split.train_idx]
            X_query = data.features[scored]
            outputs: list[Path] = []
            base = out / "uq" / f"split_{k}"

            if "dropout" in methods:
                means, stds = mc_dropout(
                    load_model(model_path),
                    X_query,
                    McDropoutConfig(
                        passes=section["passes"],
                        seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["uq_dropout"], k),
                    ),
                )
                path = base / "uq_dropout.csv"
                write_csv(path, ["id", "pred_mean", "pred_std"], zip(ids, means, stds))
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
                write_csv(
                    path,
                    ["id", "ad_dd", "ad_ld", "novel_at_alpha"],
                    [
                        (rid, float(dd[i]), float(ld[i]), int(dd[i] > threshold))
                        for i, rid in enumerate(ids)
                    ],
                )
                outputs.append(path)

            if "rio" in methods:
                model = load_model(model_path)
                yhat_train = predict(model, X_train)
                yhat_query = predict(model, X_query)
                rio_model = fit_rio(
                    model.scaler.transform(X_train),
                    yhat_train,
                    data.target[split.train_idx],
                    init=KernelConfig(),
                    n_starts=section["rio_starts"],
                    max_iter=section["rio_max_iter"],
                    seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["uq_rio"], k),
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
                    zip(ids, yhat_query, residual_mean, residual_std, yhat_query + residual_mean),
                )
                outputs.append(path)
            return outputs

        _run_stage(
            out,
            f"uq:{k}",
            stage_config_text(cfg, "uq") + "\nmethods = " + ",".join(methods),
            inputs,
            fn,
        )


def _read_uq_table(path: Path, columns: dict[str, str]) -> dict[str, dict[str, float]]:
    """{output_name: {id: value}} for the requested columns of one uq CSV."""
    header, rows = read_csv(path)
    for col in ("id", *columns):
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
    id_pos = header.index("id")
    return {
        name: {
            row[id_pos]: parse_float(row[header.index(col)], f"{path} id {row[id_pos]}")
            for row in rows
        }
        for col, name in columns.items()
    }


def _eval_tables(section: dict, target: np.ndarray, labels: ClusterLabels, splits: dict,
                 predictions: dict, scores_header: list[str], scores_rows: list) -> dict:
    """{file name: (header, rows)} for r2_matrix.csv, every
    removal_curve_<method>.csv and boxplot_stats.csv.

    The inputs are the per-point tables: the full-data predictions
    {split id: vector} of cross_predictions.csv and the rows of
    uq_scores.csv with their numeric cells as floats.  Curves and box
    plots use the test rows only.
    """
    table, clusters = cross_cluster_table(predictions, target, labels, list(splits.values()))
    tables = {
        "r2_matrix.csv": (
            ["train_cluster", *[str(c) for c in clusters]],
            [(c, *["" if math.isnan(v) else v for v in row]) for c, row in zip(clusters, table)],
        )
    }
    width = len(_SCORE_COLUMNS)
    test = [row for row in scores_rows if row[1] == "test"]
    actual = np.array([row[2] for row in test])
    predicted = np.array([row[3] for row in test])
    values = {
        name: np.array([row[width + i] for row in test])
        for i, name in enumerate(scores_header[width:])
    }
    for name, uncertainty in values.items():
        curve = removal_curve(
            uncertainty, actual, predicted,
            step_fraction=section["step_fraction"],
            min_remaining=section["min_remaining"],
        )
        tables[f"removal_curve_{name}.csv"] = (
            ["fraction_removed", "r2", "n_remaining"],
            [(p.fraction_removed, p.r2, p.n_remaining) for p in curve.points],
        )
    stats, _ = uq_summary_stats(values, actual, predicted)
    tables["boxplot_stats.csv"] = (
        ["method", "median", "q1", "q3", "whisker_low", "whisker_high", "n_outliers"],
        [
            (name, s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, s.n_outliers)
            for name, s in stats.items()
        ],
    )
    return tables


def cmd_eval(cfg: RunConfig, out: Path, split_id: int | None) -> None:
    dataset_path = out / "data" / "dataset.csv"
    labels_path = out / "split" / "labels.csv"
    all_ids = _split_ids(out)
    uq_section = cfg["uq"]

    for k in _select_split_ids(out, split_id):
        split_paths = {j: out / "split" / f"split_{j}.csv" for j in all_ids}
        model_paths = {j: out / "train" / f"model_{j}.json" for j in all_ids}
        for j, path in model_paths.items():
            if not path.exists():
                raise DataError(
                    f"evaluation needs every trained model; missing {path} (split {j})"
                )
        uq_dir = out / "uq" / f"split_{k}"
        method_files = {
            "dropout": uq_dir / "uq_dropout.csv",
            "ad": uq_dir / "uq_ad.csv",
            "rio": uq_dir / "uq_rio.csv",
        }
        present = {m: p for m, p in method_files.items() if p.exists()}
        if not present:
            raise DataError(f"no uq outputs for split {k}; run the uq stage")
        inputs = [dataset_path, labels_path, *split_paths.values(), *model_paths.values(),
                  *present.values()]

        def fn(k=k, split_paths=split_paths, model_paths=model_paths, present=present):
            data = load_dataset(dataset_path)
            labels = _load_labels_csv(out, data)
            splits = {j: read_split_csv(path, data.ids, j) for j, path in split_paths.items()}
            predictions = {
                j: predict(load_model(path), data.features) for j, path in model_paths.items()
            }
            split = splits[k]
            heldout, scored = split.scored_rows(labels)
            ids = [data.ids[i] for i in scored]
            in_cluster = ~np.isin(scored, split.test_idx)

            column_specs = {
                "dropout": {"pred_std": "dropout"},
                "ad": {"ad_dd": "ad_dd", "ad_ld": "ad_ld"},
                "rio": {"residual_std": "rio"},
            }
            scores: dict[str, dict[str, float]] = {}
            for method, path in present.items():
                scores.update(_read_uq_table(path, column_specs[method]))
            for name, mapping in scores.items():
                missing = [rid for rid in ids if rid not in mapping]
                if missing:
                    raise DataError(
                        f"uq outputs for split {k} are stale: {name} misses id {missing[0]}"
                    )
            method_names = [m for m in _METHOD_COLUMNS if m in scores]
            scores_header = [*_SCORE_COLUMNS, *method_names]
            scores_rows = [
                (
                    rid,
                    "heldout" if in_cluster[i] else "test",
                    float(data.target[r]),
                    float(predictions[k][r]),
                    *[scores[name][rid] for name in method_names],
                )
                for i, (rid, r) in enumerate(zip(ids, scored))
            ]
            tables = {
                "cross_predictions.csv": (
                    ["id", "cluster", "actual", *[f"pred_{j}" for j in all_ids]],
                    [
                        (
                            data.ids[i],
                            int(labels.labels[i]),
                            float(data.target[i]),
                            *[float(predictions[j][i]) for j in all_ids],
                        )
                        for i in range(data.n)
                    ],
                ),
                "uq_scores.csv": (scores_header, scores_rows),
                **_eval_tables(cfg["eval"], data.target, labels, splits, predictions,
                               scores_header, scores_rows),
            }
            base = out / "eval" / f"split_{k}"
            outputs: list[Path] = []
            for name, (header, rows) in tables.items():
                outputs.append(base / name)
                write_csv(outputs[-1], header, rows)

            novelty = None
            if "ad_dd" in scores:
                dd_values = np.array([scores["ad_dd"][rid] for rid in ids])
                in_rate, out_rate = novelty_separation(
                    dd_values, in_cluster, uq_section["alpha"]
                )
                novelty = {
                    "alpha": uq_section["alpha"],
                    "threshold": standard_normal_quantile(1.0 - uq_section["alpha"]),
                    "in_cluster_rate": in_rate,
                    "out_of_cluster_rate": out_rate,
                }
            summary = {
                "config_hash": config_hash(cfg),
                "seed": cfg.get("run", "seed"),
                "split": k,
                "package_version": __version__,
                "methods": method_names,
                "n_train": int(split.train_idx.size),
                "n_valid": int(split.valid_idx.size),
                "n_heldout": int(heldout.size),
                "n_test": int(split.test_idx.size),
                "novelty": novelty,
            }
            summary_path = base / "summary.json"
            summary_path.parent.mkdir(parents=True, exist_ok=True)
            summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
            outputs.append(summary_path)
            return outputs

        _run_stage(out, f"eval:{k}", stage_config_text(cfg, "eval"), inputs, fn)


def _read_predictions(path: Path, ids) -> dict[int, np.ndarray]:
    """{split id: full-data prediction vector} from cross_predictions.csv."""
    header, rows = read_csv(path)
    try:
        cols = {int(h[len("pred_"):]): c for c, h in enumerate(header) if h.startswith("pred_")}
    except ValueError:
        raise DataError(f"{path}: prediction columns must be named pred_<split id>") from None
    row_of = {rid: i for i, rid in enumerate(ids)}
    preds = {j: np.full(len(ids), np.nan) for j in cols}
    for r, row in enumerate(rows, start=1):
        if row[0] not in row_of:
            raise DataError(f"{path}: row {r}: unknown id {row[0]!r}")
        for j, c in cols.items():
            preds[j][row_of[row[0]]] = parse_float(row[c], f"{path}: row {r}")
    return preds


def _read_scores(path: Path) -> tuple[list[str], list[tuple]]:
    """uq_scores.csv with its numeric cells parsed."""
    header, rows = read_csv(path)
    width = len(_SCORE_COLUMNS)
    if header[:width] != _SCORE_COLUMNS or not set(header[width:]) <= set(_METHOD_COLUMNS):
        raise DataError(f"{path}: unexpected header {','.join(header)}")
    return header, [
        (row[0], row[1], *[parse_float(cell, f"{path}: row {r}") for cell in row[2:]])
        for r, row in enumerate(rows, start=1)
    ]


def _matches(path: Path, header: list[str], rows: list) -> bool:
    """True when the file holds this header and these rows: each cell the
    same text, or two numbers within 1e-12."""
    stored_header, stored_rows = read_csv(path)
    if stored_header != header or len(stored_rows) != len(rows):
        return False
    for r, (stored, derived) in enumerate(zip(stored_rows, rows), start=1):
        for cell, value in zip(stored, derived):
            if cell == format_value(value):
                continue
            if isinstance(value, str):
                return False
            if not abs(parse_float(cell, f"{path}: row {r}") - value) <= 1e-12:
                return False
    return True


def cmd_report(cfg: RunConfig, out: Path, split_id: int | None) -> None:
    """Re-derive the evaluation artifacts from the persisted per-point
    tables and check them against the written files (tolerance 1e-12)."""
    data = load_dataset(out / "data" / "dataset.csv")
    labels = _load_labels_csv(out, data)
    selected = _select_split_ids(out, split_id)
    splits = {
        j: read_split_csv(out / "split" / f"split_{j}.csv", data.ids, j) for j in _split_ids(out)
    }
    failures: list[str] = []
    for k in selected:
        base = out / "eval" / f"split_{k}"
        if not base.exists():
            raise DataError(f"no eval outputs for split {k}; run the eval stage")
        predictions = _read_predictions(base / "cross_predictions.csv", data.ids)
        tables = _eval_tables(cfg["eval"], data.target, labels, splits, predictions,
                              *_read_scores(base / "uq_scores.csv"))
        for name, (header, rows) in tables.items():
            if _matches(base / name, header, rows):
                _log(f"[report:{k}] {name} OK")
            else:
                failures.append(f"split {k}: {name} does not match")
    if failures:
        raise NumericalError("report verification failed: " + "; ".join(failures))
    print("report: all evaluation artifacts verified")


# ------------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqshift",
        description="Uncertainty quantification pipeline for regression under cluster shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic clustered dataset"),
        ("split", "embed, cluster, and build cluster-held-out splits"),
        ("train", "hyperparameter search and model training per split"),
        ("uq", "uncertainty estimates for the scored rows of a split"),
        ("eval", "cross-cluster matrix, removal curves, summaries"),
        ("report", "re-derive and verify the evaluation artifacts"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="run configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override run.seed")
        cmd.add_argument("--out", type=str, default=None, help="override run.out")
        cmd.add_argument("--jobs", type=int, default=None, help="override run.jobs")
        if name in ("train", "uq", "eval", "report"):
            cmd.add_argument("--split-id", type=int, default=None, help="restrict to one split")
        if name == "uq":
            cmd.add_argument("--methods", type=str, default=None,
                             help="comma list from: dropout, ad, rio")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides[("run", "seed")] = args.seed
        if args.out is not None:
            overrides[("run", "out")] = args.out
        if args.jobs is not None:
            overrides[("run", "jobs")] = args.jobs
        cfg = load_config(args.config, overrides)
        out = Path(cfg.get("run", "out"))
        out.mkdir(parents=True, exist_ok=True)
        with _dir_lock(out):
            if args.command == "synth":
                cmd_synth(cfg, out)
            elif args.command == "split":
                cmd_split(cfg, out)
            elif args.command == "train":
                cmd_train(cfg, out, args.split_id)
            elif args.command == "uq":
                cmd_uq(cfg, out, args.split_id, args.methods)
            elif args.command == "eval":
                cmd_eval(cfg, out, args.split_id)
            elif args.command == "report":
                cmd_report(cfg, out, args.split_id)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
