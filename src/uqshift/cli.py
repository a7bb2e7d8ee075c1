"""Command-line pipeline: synth, split, train, uq, eval, report.

Each stage reads files produced by earlier stages from the output
directory, writes its own outputs there, and appends one manifest line
(stage, config hash, input hashes, outputs).  A stage whose manifest
line and outputs already exist is skipped.  Two runs with the same
configuration and seed produce byte-identical output trees; wall-clock
durations therefore go to stderr, never into the tree.
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
from .csvio import parse_float, read_csv, write_csv
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
    r_squared,
    removal_curve,
    uq_summary_stats,
)
from .embedding import pca, tsne
from .mlp import HyperparamGrid, hyperparameter_search, load_model, predict, save_model
from .rng import derive_seed
from .uq_ad import ad_dd_scores, ad_ld_scores, fit_ad, standard_normal_quantile
from .uq_dropout import McDropoutConfig, mc_dropout
from .uq_rio import KernelConfig, fit_rio, rio_predict

_METHOD_COLUMNS = ("dropout", "ad_dd", "ad_ld", "rio")
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
    for line in path.read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
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


def _heldout_rows(labels: ClusterLabels, split) -> np.ndarray:
    held_back = set(split.train_idx.tolist()) | set(split.valid_idx.tolist())
    members = labels.members(split.train_cluster)
    return np.array([r for r in members if r not in held_back], dtype=int)


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
    sq = np.sum(coords * coords, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T), 0.0)
    dists = np.sqrt(np.sort(d2, axis=1))
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
            split = read_split_csv(split_path, data.ids, k, cfg.get("run", "seed"))
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
            split = read_split_csv(split_path, data.ids, k, cfg.get("run", "seed"))
            heldout = _heldout_rows(labels, split)
            scored = np.sort(np.concatenate([heldout, split.test_idx])).astype(int)
            if scored.size == 0:
                raise DataError(f"split {k} has no rows to score")
            ids = [data.ids[i] for i in scored]
            X_train = data.features[split.train_idx]
            X_query = data.features[scored]
            outputs: list[Path] = []
            base = out / "uq" / f"split_{k}"

            if "dropout" in methods:
                model = load_model(model_path)
                estimates = mc_dropout(
                    model,
                    X_query,
                    McDropoutConfig(
                        passes=section["passes"],
                        seed=derive_seed(cfg.get("run", "seed"), _STAGE_SEEDS["uq_dropout"], k),
                    ),
                )
                path = base / "uq_dropout.csv"
                write_csv(
                    path,
                    ["id", "pred_mean", "pred_std"],
                    [
                        (rid, est.point_mean, est.uncertainty)
                        for rid, est in zip(ids, estimates)
                    ],
                )
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
                estimates = rio_predict(
                    rio_model,
                    model.scaler.transform(X_query),
                    yhat_query,
                    include_noise=section["rio_include_noise"],
                )
                path = base / "uq_rio.csv"
                write_csv(
                    path,
                    ["id", "yhat", "residual_mean", "residual_std", "corrected_pred"],
                    [
                        (
                            rid,
                            float(yhat_query[i]),
                            est.residual_mean,
                            est.uncertainty,
                            est.point_mean,
                        )
                        for i, (rid, est) in enumerate(zip(ids, estimates))
                    ],
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
    idx = {}
    for col in columns:
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
        idx[col] = header.index(col)
    id_pos = header.index("id")
    out: dict[str, dict[str, float]] = {name: {} for name in columns.values()}
    for row in rows:
        rid = row[id_pos]
        for col, name in columns.items():
            out[name][rid] = parse_float(row[idx[col]], f"{path} id {rid}")
    return out


def cmd_eval(cfg: RunConfig, out: Path, split_id: int | None) -> None:
    dataset_path = out / "data" / "dataset.csv"
    labels_path = out / "split" / "labels.csv"
    all_ids = _split_ids(out)
    if not all_ids:
        raise DataError("no split files found; run the split stage first")
    section = cfg["eval"]
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
            splits = {
                j: read_split_csv(path, data.ids, j, cfg.get("run", "seed"))
                for j, path in split_paths.items()
            }
            models = {j: load_model(path) for j, path in model_paths.items()}
            base = out / "eval" / f"split_{k}"
            outputs: list[Path] = []

            # cross-cluster R^2 matrix and the per-point predictions it
            # derives from
            predictions = {j: predict(models[j], data.features) for j in all_ids}
            predict_fns = {j: (lambda X, j=j: predict(models[j], X)) for j in all_ids}
            table, clusters = cross_cluster_table(
                predict_fns, data, labels, list(splits.values())
            )
            matrix_path = base / "r2_matrix.csv"
            write_csv(
                matrix_path,
                ["train_cluster", *[str(c) for c in clusters]],
                [
                    (
                        ci,
                        *[
                            "" if math.isnan(table[i, j]) else table[i, j]
                            for j in range(len(clusters))
                        ],
                    )
                    for i, ci in enumerate(clusters)
                ],
            )
            outputs.append(matrix_path)

            cross_path = base / "cross_predictions.csv"
            write_csv(
                cross_path,
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
            )
            outputs.append(cross_path)

            # per-point uncertainty table for the selected split
            split = splits[k]
            heldout = _heldout_rows(labels, split)
            scored = np.sort(np.concatenate([heldout, split.test_idx])).astype(int)
            ids = [data.ids[i] for i in scored]
            test_set = set(split.test_idx.tolist())
            groups = ["test" if i in test_set else "heldout" for i in scored]
            deterministic_pred = predictions[k][scored]

            column_specs = {
                "dropout": ("uq_dropout.csv", {"pred_std": "dropout"}),
                "ad": ("uq_ad.csv", {"ad_dd": "ad_dd", "ad_ld": "ad_ld"}),
                "rio": ("uq_rio.csv", {"residual_std": "rio"}),
            }
            scores: dict[str, dict[str, float]] = {}
            for method, (fname, columns) in column_specs.items():
                if method in present:
                    scores.update(_read_uq_table(present[method], columns))
            for name, mapping in scores.items():
                missing = [rid for rid in ids if rid not in mapping]
                if missing:
                    raise DataError(
                        f"uq outputs for split {k} are stale: {name} misses id {missing[0]}"
                    )
            method_names = [m for m in _METHOD_COLUMNS if m in scores]

            uq_scores_path = base / "uq_scores.csv"
            write_csv(
                uq_scores_path,
                ["id", "group", "actual", "predicted", *method_names],
                [
                    (
                        rid,
                        groups[i],
                        float(data.target[scored[i]]),
                        float(deterministic_pred[i]),
                        *[scores[name][rid] for name in method_names],
                    )
                    for i, rid in enumerate(ids)
                ],
            )
            outputs.append(uq_scores_path)

            # removal curves and boxplots on the test rows only
            test_mask = np.array([g == "test" for g in groups])
            test_rows = scored[test_mask]
            actual = data.target[test_rows]
            predicted = predictions[k][test_rows]
            test_ids = [ids[i] for i in range(len(ids)) if test_mask[i]]
            for name in method_names:
                values = np.array([scores[name][rid] for rid in test_ids])
                curve = removal_curve(
                    values, actual, predicted,
                    step_fraction=section["step_fraction"],
                    min_remaining=section["min_remaining"],
                )
                curve_path = base / f"removal_curve_{name}.csv"
                write_csv(
                    curve_path,
                    ["fraction_removed", "r2", "n_remaining"],
                    [(p.fraction_removed, p.r2, p.n_remaining) for p in curve.points],
                )
                outputs.append(curve_path)

            stats, _ = uq_summary_stats(
                {name: np.array([scores[name][rid] for rid in test_ids]) for name in method_names},
                actual,
                predicted,
            )
            box_path = base / "boxplot_stats.csv"
            write_csv(
                box_path,
                ["method", "median", "q1", "q3", "whisker_low", "whisker_high", "n_outliers"],
                [
                    (name, s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, s.n_outliers)
                    for name, s in stats.items()
                ],
            )
            outputs.append(box_path)

            novelty = None
            if "ad_dd" in scores:
                in_cluster = np.array([g == "heldout" for g in groups])
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


def cmd_report(cfg: RunConfig, out: Path, split_id: int | None) -> None:
    """Re-derive the evaluation artifacts from the persisted per-point
    tables and check them against the written files (tolerance 1e-12)."""
    dataset_path = out / "data" / "dataset.csv"
    data = load_dataset(dataset_path)
    labels = _load_labels_csv(out, data)
    all_ids = _split_ids(out)
    section = cfg["eval"]
    tol = 1e-12
    failures: list[str] = []

    for k in _select_split_ids(out, split_id):
        base = out / "eval" / f"split_{k}"
        if not base.exists():
            raise DataError(f"no eval outputs for split {k}; run the eval stage")
        splits = {
            j: read_split_csv(out / "split" / f"split_{j}.csv", data.ids, j, cfg.get("run", "seed"))
            for j in all_ids
        }
        row_of = {rid: i for i, rid in enumerate(data.ids)}

        # matrix from cross_predictions.csv
        header, rows = read_csv(base / "cross_predictions.csv")
        pred_cols = {int(h.split("_", 1)[1]): header.index(h) for h in header if h.startswith("pred_")}
        preds = {j: np.empty(data.n) for j in pred_cols}
        for row in rows:
            i = row_of[row[0]]
            for j, col in pred_cols.items():
                preds[j][i] = parse_float(row[col], f"cross_predictions id {row[0]}")
        clusters = sorted(splits.keys())
        recomputed = np.full((len(clusters), len(clusters)), np.nan)
        for a, ci in enumerate(clusters):
            split = splits[ci]
            held_back = set(split.train_idx.tolist()) | set(split.valid_idx.tolist())
            for b, cj in enumerate(clusters):
                rows_j = labels.members(cj)
                if ci == cj:
                    rows_j = np.array([r for r in rows_j if r not in held_back], dtype=int)
                if rows_j.size < 2:
                    continue
                recomputed[a, b] = r_squared(data.target[rows_j], preds[ci][rows_j])
        header, rows = read_csv(base / "r2_matrix.csv")
        stored = np.full_like(recomputed, np.nan)
        for a, row in enumerate(rows):
            for b in range(len(clusters)):
                cell = row[b + 1]
                if cell != "":
                    stored[a, b] = parse_float(cell, f"r2_matrix row {row[0]}")
        same_nan = np.isnan(stored) == np.isnan(recomputed)
        close = np.abs(np.nan_to_num(stored) - np.nan_to_num(recomputed)) <= tol
        if not (same_nan.all() and close.all()):
            failures.append(f"split {k}: r2_matrix.csv does not match its per-point table")
        else:
            _log(f"[report:{k}] r2_matrix OK")

        # curves and boxplots from uq_scores.csv
        header, rows = read_csv(base / "uq_scores.csv")
        col = {name: header.index(name) for name in header}
        method_names = [m for m in _METHOD_COLUMNS if m in col]
        test_rows = [row for row in rows if row[col["group"]] == "test"]
        actual = np.array([parse_float(r[col["actual"]], "uq_scores") for r in test_rows])
        predicted = np.array([parse_float(r[col["predicted"]], "uq_scores") for r in test_rows])
        for name in method_names:
            values = np.array([parse_float(r[col[name]], "uq_scores") for r in test_rows])
            curve = removal_curve(
                values, actual, predicted,
                step_fraction=section["step_fraction"],
                min_remaining=section["min_remaining"],
            )
            header_c, rows_c = read_csv(base / f"removal_curve_{name}.csv")
            ok = len(rows_c) == len(curve.points)
            if ok:
                for point, row_c in zip(curve.points, rows_c):
                    ok &= abs(point.fraction_removed - float(row_c[0])) <= tol
                    ok &= abs(point.r2 - float(row_c[1])) <= tol
                    ok &= point.n_remaining == int(row_c[2])
            if not ok:
                failures.append(f"split {k}: removal_curve_{name}.csv does not match")
            else:
                _log(f"[report:{k}] removal_curve_{name} OK")

        stats, _ = uq_summary_stats(
            {
                name: np.array([parse_float(r[col[name]], "uq_scores") for r in test_rows])
                for name in method_names
            },
            actual,
            predicted,
        )
        header_b, rows_b = read_csv(base / "boxplot_stats.csv")
        stored_stats = {row[0]: [float(v) for v in row[1:]] for row in rows_b}
        ok = set(stored_stats) == set(stats)
        if ok:
            for name, s in stats.items():
                got = stored_stats[name]
                want = [s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, float(s.n_outliers)]
                ok &= all(abs(a - b) <= tol for a, b in zip(got, want))
        if not ok:
            failures.append(f"split {k}: boxplot_stats.csv does not match")
        else:
            _log(f"[report:{k}] boxplot_stats OK")

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
