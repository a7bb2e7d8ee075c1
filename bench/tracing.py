"""Spans around the calls into uqshift's layers, installed from outside.

The traced run replaces the functions bound in ``uqshift.cli`` (plus
``embedding.joint_probabilities``, ``mlp.train_mlp`` and
``uq_rio.minimize``) with wrappers that record, per span name, the call
count, busy time, self time (busy minus the time covered by child spans)
and the calls that raised.  A layer's busy time is the union of its
spans, so a span nested in another of the same layer is not counted
twice.  Spans stay in memory; ``layer_metrics`` derives the named
per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

# Modules of src/uqshift that do separate work.  config, rng, errors and
# estimates are left unwrapped: their cost lands in cli.self_s or mlp.
LAYERS = ("cli", "dataset", "csvio", "embedding", "clustering", "mlp",
          "uq_dropout", "uq_ad", "uq_rio", "evaluation")


class Tracer:
    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.timed_busy: dict[str, float] = defaultdict(float)
        self.timed = False  # set while the workload's timed stages run
        self._stack: list[list] = []  # [name, start, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._layer_start: dict[str, float] = {}

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(counters, result, *args) runs outside it."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._exit(name, layer, ok)
            if after is not None:
                after(self.counters, result, *args, **kwargs)
            return result

        return wrapper

    def _enter(self, name: str, layer: str) -> None:
        now = time.perf_counter()
        if self._depth[layer] == 0:
            self._layer_start[layer] = now
        self._depth[layer] += 1
        self._stack.append([name, now, 0.0])

    def _exit(self, name: str, layer: str, ok: bool) -> None:
        now = time.perf_counter()
        _, start, child = self._stack.pop()
        duration = now - start
        self.count[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        if not ok:
            self.raised[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            covered = now - self._layer_start.pop(layer)
            self.layer_busy[layer] += covered
            if self.timed:
                self.timed_busy[layer] += covered

    def spans(self) -> list[dict]:
        return [
            {"name": name, "count": self.count[name], "busy_s": self.busy[name],
             "self_s": self.self_time[name], "raised": self.raised[name]}
            for name in sorted(self.count)
        ]


# ----------------------------------------------------- counters at the boundaries

def _count_rows_written(tracer: Tracer, write_csv):
    def counted(path, header, rows):
        def rows_counted():
            for row in rows:
                tracer.counters["csvio.rows_written"] += 1
                yield row
        return write_csv(path, header, rows_counted())
    return functools.wraps(write_csv)(counted)


def _after_read_csv(c, result, *args, **kwargs):
    c["csvio.rows_read"] += len(result[1])


def _after_tsne(c, result, *args, **kwargs):
    c["embedding.iters"] += len(result.objective_trace)


def _after_labels(c, result, *args, **kwargs):
    c["clustering.clusters"] = result.k
    c["clustering.noise_rows"] = int((result.labels == -1).sum())


def _after_mc_dropout(c, result, model, features, config):
    c["uq_dropout.row_passes"] += len(features) * config.passes


def _after_ad_dd(c, result, model, X):
    c["uq_ad.queries"] += len(X)


def _after_minimize(c, result, *args, **kwargs):
    from uqshift.uq_rio import _FAIL

    c["uq_rio.lml_evals"] += result.nfev
    # the same test fit_rio applies before it keeps a start
    if math.isfinite(result.fun) and result.fun < _FAIL * 0.5:
        c["uq_rio.starts_ok"] += 1


_AFTER = {
    "csvio.read_csv": _after_read_csv,
    "embedding.tsne": _after_tsne,
    "clustering.dbscan": _after_labels,
    "clustering.load_external_labels": _after_labels,
    "uq_dropout.mc_dropout": _after_mc_dropout,
    "uq_ad.ad_dd_scores": _after_ad_dd,
    "uq_rio.minimize": _after_minimize,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function bound in uqshift.cli, plus three globals."""
    from uqshift import cli, embedding, mlp, uq_rio

    for attr, fn in list(vars(cli).items()):
        if not inspect.isfunction(fn):
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        if layer not in LAYERS or layer == "cli":
            continue
        name = f"{layer}.{fn.__name__}"
        if name == "csvio.write_csv":
            fn = _count_rows_written(tracer, fn)
        setattr(cli, attr, tracer.span(name, fn, _AFTER.get(name)))
    embedding.joint_probabilities = tracer.span(
        "embedding.joint_probabilities", embedding.joint_probabilities)
    mlp.train_mlp = tracer.span("mlp.train_mlp", mlp.train_mlp)
    uq_rio.minimize = tracer.span("uq_rio.minimize", uq_rio.minimize, _AFTER["uq_rio.minimize"])


# ------------------------------------------------------------- derived metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stages: tuple[str, ...], timed_wall: float) -> dict:
    """{metric name: (value, unit)} for every per-layer metric."""
    S, N, c = tracer.busy, tracer.count, tracer.counters
    affinity = S["embedding.joint_probabilities"]
    descent = S["embedding.tsne"] - affinity
    candidates = N["mlp.train_mlp"]
    starts = N["uq_rio.minimize"]
    m = {
        "embedding.pca_s": (S["embedding.pca"], "s"),
        "embedding.affinity_s": (affinity, "s"),
        "embedding.descent_s": (descent, "s"),
        "embedding.iters": (c["embedding.iters"], "count"),
        "embedding.ms_per_iter": (_ratio(1e3 * descent, c["embedding.iters"]), "ms"),
        "clustering.dbscan_s": (S["clustering.dbscan"], "s"),
        "clustering.splits_s": (S["clustering.make_cluster_splits"], "s"),
        "clustering.clusters": (c["clustering.clusters"], "count"),
        "clustering.noise_rows": (c["clustering.noise_rows"], "count"),
        "mlp.search_s": (S["mlp.hyperparameter_search"], "s"),
        "mlp.candidates": (candidates, "count"),
        "mlp.trained_ratio": (_ratio(candidates - tracer.raised["mlp.train_mlp"], candidates),
                              "ratio"),
        "mlp.candidate_ms": (_ratio(1e3 * S["mlp.train_mlp"], candidates), "ms"),
        "mlp.predict_s": (S["mlp.predict"], "s"),
        "mlp.predict_calls": (N["mlp.predict"], "count"),
        "mlp.model_io_s": (S["mlp.save_model"] + S["mlp.load_model"], "s"),
        "uq_rio.fit_s": (S["uq_rio.fit_rio"], "s"),
        "uq_rio.predict_s": (S["uq_rio.rio_predict"], "s"),
        "uq_rio.starts": (starts, "count"),
        "uq_rio.starts_ok_ratio": (_ratio(c["uq_rio.starts_ok"], starts), "ratio"),
        "uq_rio.lml_evals": (c["uq_rio.lml_evals"], "count"),
        "uq_rio.ms_per_lml_eval": (_ratio(1e3 * S["uq_rio.minimize"], c["uq_rio.lml_evals"]),
                                   "ms"),
        "uq_dropout.mc_s": (S["uq_dropout.mc_dropout"], "s"),
        "uq_dropout.row_passes": (c["uq_dropout.row_passes"], "count"),
        "uq_dropout.us_per_row_pass": (
            _ratio(1e6 * S["uq_dropout.mc_dropout"], c["uq_dropout.row_passes"]), "us"),
        "uq_ad.fit_s": (S["uq_ad.fit_ad"], "s"),
        "uq_ad.score_s": (S["uq_ad.ad_dd_scores"] + S["uq_ad.ad_ld_scores"], "s"),
        "uq_ad.queries": (c["uq_ad.queries"], "count"),
        "evaluation.table_s": (S["evaluation.cross_cluster_table"] + S["evaluation.r_squared"],
                               "s"),
        "evaluation.curves_s": (S["evaluation.removal_curve"], "s"),
        "evaluation.stats_s": (S["evaluation.uq_summary_stats"]
                               + S["evaluation.novelty_separation"], "s"),
        "dataset.synth_s": (S["dataset.generate_synthetic"], "s"),
        "dataset.load_s": (S["dataset.load_dataset"], "s"),
        "dataset.load_calls": (N["dataset.load_dataset"], "count"),
        "csvio.write_s": (S["csvio.write_csv"], "s"),
        "csvio.read_s": (S["csvio.read_csv"] + S["csvio.parse_float"], "s"),
        "csvio.rows_written": (c["csvio.rows_written"], "count"),
        "csvio.rows_read": (c["csvio.rows_read"], "count"),
    }
    for stage in stages:
        m[f"cli.{stage}_s"] = (S[f"cli.{stage}"], "s")
    m["cli.self_s"] = (sum(tracer.self_time[s] for s in N if s.startswith("cli.")), "s")
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (tracer.layer_busy[layer], "s")
        m[f"{layer}.wall_share"] = (_ratio(tracer.timed_busy[layer], timed_wall), "ratio")
    return m
