import argparse
import contextlib
import ctypes
import fcntl
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqshift import cli, mlp
from uqshift.cli import _STAGE_SEEDS, main
from uqshift.clustering import read_split_csv
from uqshift.csvio import read_csv, write_csv
from uqshift.dataset import load_dataset, rank_correlated_features
from uqshift.mlp import load_model, train_mlp, usable_cpus
from uqshift.rng import derive_seed

SMALL_CONFIG = """\
[run]
seed = 5

[synth]
clusters = 3
points_per_cluster = 60
dim = 5
separation = 8.0
noise = 0.1

[split]
train_n = 30
valid_n = 6
min_cluster_size = 20
perplexity = 10
tsne_iterations = 150
min_pts = 5

[train]
layer_counts = 1
widths = 16
learning_rates = 0.01
epochs = 40

[uq]
passes = 10
knn_k = 4
rio_starts = 2
rio_max_iter = 40

[eval]
step_fraction = 0.1
min_remaining = 5
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(SMALL_CONFIG)
    out = root / "out"
    for stage in ("synth", "split", "train", "uq", "eval"):
        code = main([stage, "--config", str(config), "--out", str(out)])
        assert code == 0, f"stage {stage} failed"
    return config, out


class TestPipelineOutputs:
    def test_data_files(self, pipeline):
        _, out = pipeline
        header, rows = read_csv(out / "data" / "dataset.csv")
        assert header[:2] == ["id", "target"]
        assert len(rows) == 180

    def test_split_files(self, pipeline):
        _, out = pipeline
        header, rows = read_csv(out / "split" / "labels.csv")
        assert header == ["id", "cluster"]
        assert len(rows) == 180
        emb_header, emb_rows = read_csv(out / "split" / "embedding.csv")
        assert emb_header == ["id", "dim1", "dim2"]
        trace_header, trace_rows = read_csv(out / "split" / "kl_trace.csv")
        assert trace_header == ["iter", "kl"]
        assert len(trace_rows) == 150
        kl = [float(r[1]) for r in trace_rows]
        assert kl[-1] < kl[0]

    def test_split_role_files(self, pipeline):
        _, out = pipeline
        split_files = sorted((out / "split").glob("split_*.csv"))
        assert len(split_files) >= 2
        header, rows = read_csv(split_files[0])
        assert header == ["id", "role"]
        roles = {r[1] for r in rows}
        assert roles == {"train", "valid", "test"}

    def test_train_files(self, pipeline):
        _, out = pipeline
        models = sorted((out / "train").glob("model_*.json"))
        reports = sorted((out / "train").glob("search_report_*.csv"))
        assert len(models) == len(reports) >= 2
        payload = json.loads(models[0].read_text())
        assert payload["version"] == 1
        header, rows = read_csv(reports[0])
        assert header == ["grid_index", "layers", "width", "lr",
                          "train_r2", "valid_r2", "status"]
        assert rows[0][6] in ("trained", "diverged")

    def test_uq_files_and_headers(self, pipeline):
        _, out = pipeline
        split_dirs = sorted((out / "uq").glob("split_*"))
        assert split_dirs
        d = split_dirs[0]
        h_drop, rows_drop = read_csv(d / "uq_dropout.csv")
        assert h_drop == ["id", "pred_mean", "pred_std"]
        h_ad, rows_ad = read_csv(d / "uq_ad.csv")
        assert h_ad == ["id", "ad_dd", "ad_ld", "novel_at_alpha"]
        h_rio, rows_rio = read_csv(d / "uq_rio.csv")
        assert h_rio == ["id", "yhat", "residual_mean", "residual_std", "corrected_pred"]
        assert len(rows_drop) == len(rows_ad) == len(rows_rio)
        for row in rows_drop:
            assert float(row[2]) >= 0.0
        for row in rows_ad:
            assert row[3] in ("0", "1")
        for row in rows_rio:
            got = float(row[1]) + float(row[2])
            assert got == pytest.approx(float(row[4]), abs=1e-9)

    def test_eval_files(self, pipeline):
        _, out = pipeline
        eval_dirs = sorted((out / "eval").glob("split_*"))
        assert eval_dirs
        d = eval_dirs[0]
        header, rows = read_csv(d / "r2_matrix.csv")
        assert header[0] == "train_cluster"
        k = len(header) - 1
        assert len(rows) == k
        for row in rows:
            assert len(row) == k + 1
        for name in ("dropout", "ad_dd", "ad_ld", "rio"):
            assert (d / f"removal_curve_{name}.csv").exists()
        header, rows = read_csv(d / "uq_scores.csv")
        assert header[:4] == ["id", "group", "actual", "predicted"]
        groups = {r[1] for r in rows}
        assert groups == {"heldout", "test"}
        summary = json.loads((d / "summary.json").read_text())
        assert summary["methods"] == ["dropout", "ad_dd", "ad_ld", "rio"]
        assert summary["novelty"]["threshold"] == pytest.approx(1.6448536, abs=1e-6)

    def test_boxplot_file(self, pipeline):
        _, out = pipeline
        d = sorted((out / "eval").glob("split_*"))[0]
        header, rows = read_csv(d / "boxplot_stats.csv")
        assert header == ["method", "median", "q1", "q3",
                          "whisker_low", "whisker_high", "n_outliers"]
        names = {r[0] for r in rows}
        assert "actual_error" in names

    def test_manifest_lines(self, pipeline):
        _, out = pipeline
        lines = (out / "manifest.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        stages = [e["stage"] for e in entries]
        assert stages[0] == "synth" and stages[1] == "split"
        for e in entries:
            assert set(e) == {"stage", "config_hash", "inputs", "outputs"}
            for rel in e["outputs"]:
                assert (out / rel).exists()

    def test_rerun_skips_stages(self, pipeline, capsys):
        config, out = pipeline
        before = (out / "manifest.jsonl").read_text()
        code = main(["synth", "--config", str(config), "--out", str(out)])
        assert code == 0
        after = (out / "manifest.jsonl").read_text()
        assert before == after  # no duplicate manifest line

    def test_split_logs_search_diagnostics(self, pipeline, tmp_path, capsys):
        config, _ = pipeline
        fresh = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(fresh)]) == 0
        assert main(["split", "--config", str(config), "--out", str(fresh)]) == 0
        err = capsys.readouterr().err.splitlines()
        search = [line for line in err if line.startswith("[split] perplexity search: ")]
        assert len(search) == 1
        assert search[0].startswith("[split] perplexity search: 0 of 180 rows hit max_iter")
        nxt = err[err.index(search[0]) + 1]
        assert nxt.startswith("[split] auto eps = ")

    def test_report_verifies(self, pipeline, capsys):
        config, out = pipeline
        code = main(["report", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert "verified" in capsys.readouterr().out


class TestOneDistanceMatrix:
    def test_split_computes_the_coordinates_distances_once(self, tmp_path, monkeypatch):
        config, out = tmp_path / "run.ini", tmp_path / "out"
        config.write_text(SMALL_CONFIG)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        shapes = []
        for name, module in list(sys.modules.items()):
            real = getattr(module, "sq_distances", None) if name.startswith("uqshift.") else None
            if real is not None:
                def counted(A, B=None, real=real):
                    shapes.append((np.shape(A), None if B is None else np.shape(B)))
                    return real(A, B)
                monkeypatch.setattr(module, "sq_distances", counted)
        assert main(["split", "--config", str(config), "--out", str(out)]) == 0
        assert shapes.count(((180, 2), None)) == 1, shapes


def _first(out, pattern):
    return sorted(out.glob(pattern))[0]


def _edit_csv(path, edit):
    header, rows = read_csv(path)
    edit(header, rows)
    path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))


def _drop_first_column(header, rows):
    for cells in [header, *rows]:
        del cells[0]


def _truncate_row(header, rows):
    rows[1][1:] = []


def _drop_scaler(path):
    payload = json.loads(path.read_text())
    del payload["scaler"]
    path.write_text(json.dumps(payload))


def _drop_last_weight_column(path):
    payload = json.loads(path.read_text())
    payload["weights"][0] = [row[:-1] for row in payload["weights"][0]]
    path.write_text(json.dumps(payload))


def _append_non_utf8_byte(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


# (stage to run, file glob in the finished tree, corruption)
CORRUPTIONS = {
    "unknown-id-in-cross-predictions": (
        "report", "eval/split_*/cross_predictions.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(0, "nobody"))),
    "non-integer-pred-column": (
        "report", "eval/split_*/cross_predictions.csv",
        lambda p: _edit_csv(p, lambda h, rows: h.__setitem__(3, "pred_x"))),
    "one-cell-split-row": (
        "report", "split/split_*.csv", lambda p: _edit_csv(p, _truncate_row)),
    "bad-manifest-line": (
        "synth", "manifest.jsonl",
        lambda p: p.write_text(p.read_text() + "{not json\n")),
    "uq-table-without-id": (
        "eval", "uq/split_*/uq_dropout.csv", lambda p: _edit_csv(p, _drop_first_column)),
    "model-without-scaler": ("eval", "train/model_*.json", _drop_scaler),
    "model-weight-without-its-last-column": (
        "uq", "train/model_*.json", _drop_last_weight_column),
    "half-written-model": (
        "eval", "train/model_*.json",
        lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])),
    "one-cell-labels-row": ("eval", "split/labels.csv", lambda p: _edit_csv(p, _truncate_row)),
    "nan-uncertainty-in-uq-table": (
        "eval", "uq/split_*/uq_dropout.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(2, "nan"))),
    "non-utf8-labels": ("eval", "split/labels.csv", _append_non_utf8_byte),
    "labels-is-directory": ("eval", "split/labels.csv", _replace_with_directory),
    "non-utf8-manifest": ("eval", "manifest.jsonl", _append_non_utf8_byte),
    "uq-table-is-directory": ("report", "uq/split_*/uq_ad.csv", _replace_with_directory),
}


class TestCorruptTree:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_exits_3_with_one_line(self, pipeline, tmp_path, capsys, case):
        config, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        stage, pattern, corrupt = CORRUPTIONS[case]
        path = _first(out, pattern)
        corrupt(path)
        capsys.readouterr()
        assert main([stage, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("data error: ")]
        assert errors == err.splitlines()[-1:]
        assert path.name in errors[0]

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_non_finite_weight_exits_3_naming_the_model(self, pipeline, tmp_path, capsys,
                                                        value):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        path = out / "train" / "model_0.json"
        text = path.read_text()
        first = text.index('"weights": [[[') + len('"weights": [[[')
        path.write_text(text[:first] + value + text[text.index(",", first):])
        run = _stage_runner(out, capsys)
        code, err = run("uq", config, "--split-id", "0", "--methods", "rio")
        assert code == 3 and "train/model_0.json: malformed model checkpoint" in err
        # ad needs no model, so eval is the first stage to load this one
        _forget(out, "uq")
        assert run("uq", config, "--methods", "ad")[0] == 0
        code, err = run("eval", config)
        assert code == 3 and "train/model_0.json: malformed model checkpoint" in err

    @pytest.mark.parametrize("name", ["r2_matrix.csv", "removal_curve_rio.csv",
                                      "boxplot_stats.csv"])
    def test_report_catches_tampered_cell(self, pipeline, tmp_path, capsys, name):
        config, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        path = _first(out, f"eval/split_*/{name}")

        def nudge(header, rows):
            # the first numeric cell past the label column
            r, c = next((r, c) for r, row in enumerate(rows)
                        for c, cell in enumerate(row) if c and cell)
            rows[r][c] = repr(float(rows[r][c]) + 1e-9)

        _edit_csv(path, nudge)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{name} does not match" in err.splitlines()[-1]


def _edit_summary(path, key, value):
    summary = json.loads(path.read_text())
    (summary["novelty"] if key == "in_cluster_rate" else summary)[key] = value
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _set_heldout_predicted(header, rows):
    row = next(row for row in rows if row[1] == "heldout")
    row[header.index("predicted")] = "999.0"


def _add_pred_column(header, rows):
    header.append("pred_9")
    for row in rows:
        row.append("0.0")


def _first_number(edit):
    """An _edit_csv edit that sets the first number past the label column
    to edit(its value)."""
    def apply(header, rows):
        r, c = next((r, c) for r, row in enumerate(rows)
                    for c, cell in enumerate(row) if c and cell)
        rows[r][c] = edit(float(rows[r][c]))
    return apply


# (file glob in the finished tree, tampering that report must refuse with exit 4)
TAMPERINGS = {
    "summary-in-cluster-rate": (
        "eval/split_*/summary.json", lambda p: _edit_summary(p, "in_cluster_rate", 0.9)),
    "summary-n-test": ("eval/split_*/summary.json", lambda p: _edit_summary(p, "n_test", 1)),
    "cross-predictions-actual": (
        "eval/split_*/cross_predictions.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(2, "123.0"))),
    "uq-scores-heldout-predicted": (
        "eval/split_*/uq_scores.csv", lambda p: _edit_csv(p, _set_heldout_predicted)),
    "cross-predictions-extra-split-column": (
        "eval/split_*/cross_predictions.csv", lambda p: _edit_csv(p, _add_pred_column)),
    "non-numeric-boxplot-cell": (
        "eval/split_*/boxplot_stats.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(1, "abc"))),
    "one-cell-removal-curve-row": (
        "eval/split_*/removal_curve_dropout.csv", lambda p: _edit_csv(p, _truncate_row)),
    # the same double, written another way
    "r2-matrix-cell-respelled": (
        "eval/split_*/r2_matrix.csv",
        lambda p: _edit_csv(p, _first_number(lambda x: format(x, ".17e")))),
    # the next double up: an edit well within 1e-12
    "removal-curve-cell-next-double": (
        "eval/split_*/removal_curve_rio.csv",
        lambda p: _edit_csv(p, _first_number(lambda x: repr(math.nextafter(x, math.inf))))),
    "summary-trailing-space": (
        "eval/split_*/summary.json", lambda p: p.write_text(p.read_text() + " ")),
}


class TestReportChecksSources:
    @pytest.mark.parametrize("case", sorted(TAMPERINGS))
    def test_tampered_file_exits_4_naming_it(self, pipeline, tmp_path, capsys, case):
        config, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        pattern, tamper = TAMPERINGS[case]
        path = _first(out, pattern)
        tamper(path)
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert [line for line in err.splitlines()
                if line.startswith(("data error: ", "numerical failure: "))] == [last]
        assert last.startswith("numerical failure: ")
        assert f"{path.name} does not match" in last


class TestStaleUqFiles:
    def test_eval_and_report_refuse_uq_files_of_another_config(self, pipeline, tmp_path,
                                                              capsys):
        config, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        changed = tmp_path / "passes60.ini"
        changed.write_text(SMALL_CONFIG.replace("passes = 10", "passes = 60"))

        def run(stage, cfg, *extra):
            capsys.readouterr()
            code = main([stage, "--config", str(cfg), "--out", str(out), *extra])
            return code, capsys.readouterr().err

        # uq_dropout.csv on disk still holds the passes = 10 estimates
        assert run("uq", changed, "--methods", "ad")[0] == 0
        for stage in ("eval", "report"):
            code, err = run(stage, changed)
            assert code == 3
            assert "Traceback" not in err
            assert err.splitlines()[-1].startswith("data error: ")
            assert "uq_dropout.csv" in err.splitlines()[-1]

        # every method under the new config, listed in another order
        assert run("uq", changed, "--methods", "rio,ad,dropout")[0] == 0
        assert run("eval", changed)[0] == 0
        assert run("report", changed)[0] == 0

        # back to the first config: uq runs again rather than trusting its
        # old manifest line, whose outputs were rewritten since
        code, err = run("uq", config)
        assert code == 0 and "up to date" not in err
        assert run("eval", config)[0] == 0
        assert run("report", config)[0] == 0
        for path in sorted((finished / "uq").rglob("*.csv")) + sorted(
                (finished / "eval").rglob("*.*")):
            assert (out / path.relative_to(finished)).read_bytes() == path.read_bytes()


def _copy_tree(finished, tmp_path):
    out = tmp_path / "o"
    shutil.copytree(finished, out)
    return out


def _forget(out, *stages):
    """Delete the stages' directories and their manifest lines, as if they
    had never run."""
    manifest = out / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in manifest.read_text().splitlines()
                                if json.loads(line)["stage"].partition(":")[0] not in stages))
    for stage in stages:
        shutil.rmtree(out / stage)


def _stage_runner(out, capsys):
    def run(stage, config, *extra):
        capsys.readouterr()
        code = main([stage, "--config", str(config), "--out", str(out), *extra])
        return code, capsys.readouterr().err.splitlines()[-1]
    return run


class TestReadRule:
    """A stage reads an upstream file only if its newest manifest writer
    ran under the current config and its recorded inputs are unchanged."""

    def test_retrained_model_refused_until_its_consumers_rerun(self, pipeline, tmp_path,
                                                                capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        run = _stage_runner(out, capsys)
        epochs20 = tmp_path / "epochs20.ini"
        epochs20.write_text(SMALL_CONFIG.replace("epochs = 40", "epochs = 20"))

        assert run("train", epochs20, "--split-id", "0")[0] == 0
        # models 1 and 2 were trained under the epochs = 40 section
        for stage in ("eval", "report"):
            code, last = run(stage, epochs20)
            assert code == 3
            assert last == ("data error: train/model_1.json was made under another [train] "
                            "configuration; rerun train")
        # and under the first config, model 0 is the stranger
        code, last = run("uq", config)
        assert code == 3 and "train/model_0.json was made under another [train]" in last

        # every model retrained: the uq CSVs still come from the old ones
        assert run("train", epochs20)[0] == 0
        code, last = run("eval", epochs20)
        assert code == 3
        assert last == ("data error: uq/split_0/uq_dropout.csv is stale: train/model_0.json "
                        "changed since uq ran; rerun uq")
        for stage in ("uq", "eval", "report"):
            assert run(stage, epochs20)[0] == 0

    def test_train_config_change_stops_uq_naming_the_model(self, pipeline, tmp_path, capsys):
        _, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        epochs20 = tmp_path / "epochs20.ini"
        epochs20.write_text(SMALL_CONFIG.replace("epochs = 40", "epochs = 20"))
        code, last = _stage_runner(out, capsys)("uq", epochs20, "--methods", "rio")
        assert code == 3 and "model_0.json" in last

    def test_hand_placed_dataset_runs_to_report(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = tmp_path / "own"
        (out / "data").mkdir(parents=True)
        shutil.copy(finished / "data" / "dataset.csv", out / "data" / "dataset.csv")
        run = _stage_runner(out, capsys)
        for stage in ("split", "train", "uq", "eval", "report"):
            assert run(stage, config)[0] == 0, stage
        # the same dataset and seed give the same files as the synth run's
        for path in sorted((finished / "eval").rglob("*.*")):
            assert (out / path.relative_to(finished)).read_bytes() == path.read_bytes()

    def test_method_order_does_not_change_the_uq_config(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        run = _stage_runner(_copy_tree(finished, tmp_path), capsys)
        code, last = run("uq", config, "--methods", "rio,dropout", "--split-id", "0")
        assert code == 0 and last.startswith("[uq:0] done in")
        assert run("uq", config, "--methods", "dropout,rio", "--split-id", "0") == (
            0, "[uq:0] up to date, skipping")

    def test_report_checks_the_uq_files_eval_read(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        _forget(out, "uq", "eval")
        run = _stage_runner(out, capsys)
        assert run("uq", config, "--methods", "ad")[0] == 0
        assert run("eval", config)[0] == 0
        # a uq CSV that appeared after eval ran is not one of eval's sources
        assert run("uq", config, "--methods", "dropout")[0] == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert "report: all evaluation artifacts verified" in capsys.readouterr().out
        summary = json.loads((out / "eval" / "split_0" / "summary.json").read_text())
        assert summary["methods"] == ["ad_dd", "ad_ld"]

    def test_uq_change_names_both_sections_of_eval(self, pipeline, tmp_path, capsys):
        _, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        passes60 = tmp_path / "passes60.ini"
        passes60.write_text(SMALL_CONFIG.replace("passes = 10", "passes = 60"))
        run = _stage_runner(out, capsys)
        assert run("uq", passes60)[0] == 0
        code, last = run("report", passes60)
        assert code == 3
        assert last == ("data error: eval/split_0/boxplot_stats.csv was made under another "
                        "[eval] or [uq] configuration; rerun eval")


# (stage, file of split 0, the row appended given the file's first row, the
# error after "<path>: "); a split file's first row is a train row
EXTRA_ROWS = {
    "split-file-repeats-a-train-id": (
        "train", "split/split_0.csv", list, "rows 1 and {n}: repeated id {rid!r}"),
    "uq-table-repeats-an-id": (
        "eval", "uq/split_0/uq_dropout.csv", lambda first: [first[0], "0.5", "0.25"],
        "rows 1 and {n}: repeated id {rid!r}"),
    "uq-table-has-a-foreign-id": (
        "eval", "uq/split_0/uq_dropout.csv", lambda first: ["nobody", "0.5", "0.25"],
        "row {n}: unknown id 'nobody'"),
    "cross-predictions-repeat-a-row": (
        "report", "eval/split_0/cross_predictions.csv", list,
        "rows 1 and {n}: repeated id {rid!r}"),
}


class TestIdKeyedTables:
    """A per-row table gives each dataset id at most once and no other id."""

    @pytest.mark.parametrize("case", sorted(EXTRA_ROWS))
    def test_extra_row_exits_3_naming_the_file_and_rows(self, pipeline, tmp_path, capsys,
                                                       case):
        config, finished = pipeline
        stage, rel, extra, want = EXTRA_ROWS[case]
        out = _copy_tree(finished, tmp_path)
        path = out / rel
        _, rows = read_csv(path)
        _edit_csv(path, lambda h, rows: rows.append(extra(rows[0])))
        code, last = _stage_runner(out, capsys)(stage, config, "--split-id", "0")
        assert code == 3
        assert last == f"data error: {path}: " + want.format(n=len(rows) + 1, rid=rows[0][0])


class TestCorrelationFilter:
    def _config(self, tmp_path, threshold):
        path = tmp_path / "filtered.ini"
        path.write_text(SMALL_CONFIG.replace(
            "[train]", f"use_correlation_filter = true\n"
                       f"correlation_threshold = {threshold}\n\n[train]"))
        return path

    def test_filtered_split_runs_to_report(self, pipeline, tmp_path, capsys):
        _, finished = pipeline
        out = tmp_path / "own"
        (out / "data").mkdir(parents=True)
        shutil.copy(finished / "data" / "dataset.csv", out / "data" / "dataset.csv")
        config = self._config(tmp_path, 0.5)
        run = _stage_runner(out, capsys)
        for stage in ("split", "train", "uq", "eval"):
            assert run(stage, config)[0] == 0, stage
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert "report: all evaluation artifacts verified" in capsys.readouterr().out

        want = rank_correlated_features(load_dataset(out / "data" / "dataset.csv"), 0.5)
        assert 0 < len(want) < 5  # some features kept, some dropped
        assert read_csv(out / "split" / "ranking.csv") == (
            ["feature", "r"], [[name, repr(r)] for name, r in want])
        # the embedding saw only the kept features
        assert (out / "split" / "embedding.csv").read_bytes() != (
            finished / "split" / "embedding.csv").read_bytes()

    def test_threshold_above_every_correlation_exits_3(self, pipeline, tmp_path, capsys):
        _, finished = pipeline
        out = tmp_path / "own"
        (out / "data").mkdir(parents=True)
        shutil.copy(finished / "data" / "dataset.csv", out / "data" / "dataset.csv")
        capsys.readouterr()
        assert main(["split", "--config", str(self._config(tmp_path, 0.9)),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: correlation filter selected no features; lower the threshold"]
        assert not (out / "split").exists()


class TestStageOrder:
    def test_eval_before_uq_exits_3(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        _forget(out, "uq")
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: no uq outputs for split 0; run the uq stage"]

    def test_eval_after_uq_outputs_deleted_names_the_first(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        shutil.rmtree(out / "uq")  # the uq manifest lines stay
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: cannot read {out / 'uq' / 'split_0' / 'uq_dropout.csv'} "
            f"(FileNotFoundError)"]

    def test_deleted_uq_csv_is_named_and_restored_by_uq(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        path = out / "uq" / "split_0" / "uq_ad.csv"
        path.unlink()
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: cannot read {path} (FileNotFoundError)"]
        run = _stage_runner(out, capsys)
        assert run("uq", config)[0] == 0
        for name in ("uq_dropout.csv", "uq_ad.csv", "uq_rio.csv"):
            rel = Path("uq", "split_0", name)
            assert (out / rel).read_bytes() == (finished / rel).read_bytes(), name
        assert run("eval", config)[0] == 0
        eval_files = sorted(p.relative_to(finished) for p in (finished / "eval").rglob("*")
                            if p.is_file())
        assert [(out / rel).read_bytes() for rel in eval_files] == [
            (finished / rel).read_bytes() for rel in eval_files]

    def test_deleted_csv_of_an_older_uq_line_is_named(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        run = _stage_runner(out, capsys)
        assert run("uq", config, "--methods", "dropout,rio")[0] == 0
        path = out / "uq" / "split_0" / "uq_ad.csv"  # listed only by the first uq:0 line
        path.unlink()
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: cannot read {path} (FileNotFoundError)"]
        assert run("uq", config, "--methods", "ad")[0] == 0
        assert run("eval", config)[0] == 0
        eval_files = sorted(p.relative_to(finished) for p in (finished / "eval").rglob("*")
                            if p.is_file())
        assert [(out / rel).read_bytes() for rel in eval_files] == [
            (finished / rel).read_bytes() for rel in eval_files]

    def test_uq_table_missing_a_scored_row_names_the_file(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        path = out / "uq" / "split_0" / "uq_ad.csv"
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, *rest]))
        dropped = first.split(",")[0]
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {path}: uq outputs for split 0 are stale: ad_dd misses id "
            f"{dropped}; rerun uq"]

    def test_report_before_eval_exits_3(self, pipeline, tmp_path, capsys):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        _forget(out, "eval")
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: no eval outputs for split 0; run the eval stage"]


def _truncate_mid_row(path, out):
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    path.write_bytes(b"".join(lines[:middle]) + lines[middle][: len(lines[middle]) // 2])


def _newest_writer_elsewhere(path, out):
    """Append a manifest line that rewrote path alone under another config,
    as a rerun of its stage with another section would."""
    manifest = out / "manifest.jsonl"
    rel = path.relative_to(out).as_posix()
    entries = [json.loads(line) for line in manifest.read_text().splitlines()]
    writer = next(e for e in reversed(entries) if rel in e["outputs"])
    entry = dict(writer, config_hash="0" * 64, outputs=[rel])
    manifest.write_text(manifest.read_text() + json.dumps(entry, sort_keys=True) + "\n")


def _non_numeric_cell(header, rows):
    rows[0][-1] = "abc"


def _duplicate_id(header, rows):
    rows[1][0] = rows[0][0]


# corruption: (suffixes of the files it applies to, corrupt(path, out))
TREE_CORRUPTIONS = {
    "truncate mid-row": ((".csv", ".json", ".jsonl"), _truncate_mid_row),
    "drop a column": ((".csv",), lambda p, out: _edit_csv(p, _drop_first_column)),
    "non-numeric cell": ((".csv",), lambda p, out: _edit_csv(p, _non_numeric_cell)),
    "duplicate id": ((".csv",), lambda p, out: _edit_csv(p, _duplicate_id)),
    "delete": ((".csv", ".json", ".jsonl"), lambda p, out: p.unlink()),
    "bad JSON": ((".json", ".jsonl"), lambda p, out: p.write_text(p.read_text() + "{not json\n")),
    "stale input": ((".csv", ".json"), _newest_writer_elsewhere),
}
# file glob in a finished tree: the stage after the file's first consumer
NEXT_CONSUMER = {
    "data/dataset.csv": "train",
    "split/labels.csv": "eval",
    "split/split_*.csv": "uq",
    "train/model_*.json": "eval",
    "uq/split_*/uq_*.csv": "report",
    "eval/split_*/*": "report",
    "manifest.jsonl": "eval",
}


class TestAnyCorruption:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_one_error_line_naming_the_file(self, pipeline, data):
        config, finished = pipeline
        pattern = data.draw(st.sampled_from(sorted(NEXT_CONSUMER)), label="kind")
        rel = data.draw(st.sampled_from(sorted(p.relative_to(finished).as_posix()
                                                for p in finished.glob(pattern))), label="file")
        stage = NEXT_CONSUMER[pattern]
        corruption = data.draw(st.sampled_from(sorted(
            name for name, (suffixes, _) in TREE_CORRUPTIONS.items()
            if Path(rel).suffix in suffixes)), label="corruption")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            shutil.copytree(finished, out)
            TREE_CORRUPTIONS[corruption][1](out / rel, out)
            with contextlib.redirect_stderr(err):
                code = main([stage, "--config", str(config), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code in (3, 4)
        assert "Traceback" not in err.getvalue()
        errors = [line for line in lines
                  if line.startswith(("data error: ", "numerical failure: "))]
        assert errors == lines[-1:]
        assert Path(rel).name in errors[0]


TRACE_STAGES = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from uqshift import cli
tracer = tracing.Tracer()
tracing.install(tracer)
for stage in sys.argv[5:]:
    assert cli.main([stage, "--config", sys.argv[3], "--out", sys.argv[4]]) == 0, stage
print(json.dumps(tracer.count))
"""


def _traced_span_counts(config, out, stages):
    """Span name -> calls, over the stages run under bench/tracing.py."""
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", TRACE_STAGES, str(root / "src"), str(root / "bench"),
         str(config), str(out), *stages],
        capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


class TestBenchTracing:
    """bench/tracing.py wraps the layer functions bound in uqshift.cli; a
    layer called from elsewhere would read as zero in the per-layer metrics."""

    def test_eval_and_report_spans_are_entered(self, pipeline, tmp_path):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        shutil.rmtree(out / "eval")
        count = _traced_span_counts(config, out, ("eval", "report"))
        for span in ("evaluation.cross_cluster_table", "evaluation.removal_curve",
                     "evaluation.uq_summary_stats", "evaluation.novelty_separation",
                     "csvio.read_csv", "dataset.load_dataset", "mlp.predict",
                     "mlp.load_model"):
            assert count.get(span, 0) > 0, span

    def test_split_train_and_uq_spans_are_entered(self, pipeline, tmp_path):
        config, _ = pipeline
        count = _traced_span_counts(config, tmp_path / "o", ("synth", "split", "train", "uq"))
        for span in ("embedding.pca", "embedding.tsne", "embedding.joint_probabilities",
                     "clustering.dbscan", "clustering.make_cluster_splits",
                     "mlp.hyperparameter_search", "mlp.train_mlp", "uq_dropout.mc_dropout",
                     "uq_ad.fit_ad", "uq_ad.ad_dd_scores", "uq_ad.ad_ld_scores",
                     "uq_rio.fit_rio", "uq_rio.rio_predict", "uq_rio.minimize"):
            assert count.get(span, 0) > 0, span


SIX_STAGES_DIGEST = """\
import hashlib, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from uqshift import cli  # first: before anything imports numpy
for stage in ("synth", "split", "train", "uq", "eval", "report"):
    assert cli.main([stage, "--config", sys.argv[2], "--out", sys.argv[3]]) == 0, stage
digest = hashlib.sha256()
root = Path(sys.argv[3])
for path in sorted(p for p in root.rglob("*") if p.is_file()):
    digest.update(path.relative_to(root).as_posix().encode() + b"\\0")
    digest.update(path.read_bytes() + b"\\0")
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_this_process_runs_one_blas_thread(self):
        # conftest imports uqshift before numpy loads, whatever the
        # environment says; the count is read from numpy's bundled OpenBLAS
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        getters = [getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
                   for lib in sorted(libs.glob("*openblas*"))]
        getters = [getter for getter in getters if getter is not None]
        if not getters:
            pytest.skip(f"no scipy_openblas_get_num_threads64_ in {libs}")
        assert [getter() for getter in getters] == [1] * len(getters)

    def test_same_tree_at_any_openblas_thread_count(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        src = Path(__file__).resolve().parent.parent / "src"
        runs = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            runs.append(subprocess.Popen(
                [sys.executable, "-c", SIX_STAGES_DIGEST, str(src), str(config),
                 str(tmp_path / f"out_{threads}")],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True))
        outputs = [run.communicate()[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0, 0]
        assert len({output.split()[-1] for output in outputs}) == 1


STAGES = ("synth", "split", "train", "uq", "eval", "report")
_KILLED = 75  # the exit status of a child killed at a rename


def _tree_digest(root):
    """sha256 over the sorted relative paths and bytes of every file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def stage_prefixes(tmp_path_factory):
    """The six stages run once on the small config: the config, a directory
    holding a copy of the tree each stage started from, each stage's
    number of renames and the final tree's digest."""
    root = tmp_path_factory.mktemp("prefixes")
    config = root / "run.ini"
    config.write_text(SMALL_CONFIG)
    out = root / "out"
    out.mkdir()
    renames, real_replace = [], os.replace

    def counting_replace(src, dst):
        renames.append(dst)
        real_replace(src, dst)

    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", counting_replace)
        for stage in STAGES:
            shutil.copytree(out, root / "before" / stage)
            before = len(renames)
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
            counts[stage] = len(renames) - before
    return config, root / "before", counts, _tree_digest(out)


def _killed_at_rename(stage, config, out, kill_at, after):
    """Run stage in a forked child that dies (os._exit) just before, or just
    after, its kill_at-th rename; the child's exit status."""
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        try:
            real_replace, calls = os.replace, []

            def replace(src, dst):
                calls.append(dst)
                if len(calls) == kill_at and not after:
                    os._exit(_KILLED)
                real_replace(src, dst)
                if len(calls) == kill_at:
                    os._exit(_KILLED)

            os.replace = replace
            main([stage, "--config", str(config), "--out", str(out)])
        finally:
            os._exit(1)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestKillResume:
    """Every file lands by a rename and manifest.jsonl is rewritten last, so
    a stage killed at any rename leaves a tree that rerunning the six stages
    completes to the uninterrupted bytes."""

    def test_every_stage_but_report_renames(self, stage_prefixes):
        _, _, counts, _ = stage_prefixes
        assert counts.pop("report") == 0
        assert all(n > 0 for n in counts.values()), counts

    @pytest.mark.parametrize("at", ["before first", "after first", "before last", "after last"])
    @pytest.mark.parametrize("stage", STAGES[:-1])
    def test_rerun_after_a_kill_gives_the_uninterrupted_tree(self, stage_prefixes, tmp_path,
                                                              stage, at):
        config, prefixes, counts, digest = stage_prefixes
        out = tmp_path / "o"
        shutil.copytree(prefixes / stage, out)
        when, which = at.split()
        kill_at = 1 if which == "first" else counts[stage]
        assert _killed_at_rename(stage, config, out, kill_at, when == "after") == _KILLED
        for rerun in STAGES:
            assert main([rerun, "--config", str(config), "--out", str(out)]) == 0, rerun
        assert _tree_digest(out) == digest


def _src_env():
    """os.environ with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestWriteFailures:
    """A write that fails, or an output directory that is a file, exits 3
    with one line naming the file, and leaves no temp file behind."""

    @staticmethod
    def _assert_one_line_naming(err, out):
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("data error: ")]
        assert errors == err.splitlines()[-1:]
        assert errors[0].startswith(f"data error: cannot write {out}/")
        assert not list(out.rglob("*.tmp"))
        return errors[0]

    @pytest.mark.parametrize("stage", STAGES[:-1])
    def test_file_size_limit_exits_3_and_a_rerun_completes(self, stage_prefixes, tmp_path,
                                                           stage):
        config, prefixes, _, digest = stage_prefixes
        out = tmp_path / "o"
        shutil.copytree(prefixes / stage, out)
        # the limit is set in the child alone, between fork and exec
        child = subprocess.run(
            [sys.executable, "-m", "uqshift.cli", stage, "--config", str(config),
             "--out", str(out)],
            env=_src_env(), stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024)))
        assert child.returncode == 3
        line = self._assert_one_line_naming(child.stderr, out)
        assert line.endswith("(OSError: File too large)")
        for rerun in STAGES[STAGES.index(stage):]:
            assert main([rerun, "--config", str(config), "--out", str(out)]) == 0, rerun
        assert _tree_digest(out) == digest

    @pytest.mark.parametrize("stage, rel", [("split", "split"), ("train", "train"),
                                            ("uq", "uq/split_0"), ("eval", "eval/split_0")])
    def test_output_directory_that_is_a_file_exits_3(self, pipeline, tmp_path, capsys,
                                                       stage, rel):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        shutil.rmtree(out / rel)
        (out / rel).write_text("not a directory\n")
        capsys.readouterr()
        assert main([stage, "--config", str(config), "--out", str(out)]) == 3
        line = self._assert_one_line_naming(capsys.readouterr().err, out)
        assert line.startswith(f"data error: cannot write {out / rel}/")
        assert line.endswith("(FileExistsError: File exists)")


class TestEachModelLoadedOnce:
    @pytest.mark.parametrize("stage", ["uq", "eval"])
    def test_one_load_per_split(self, pipeline, tmp_path, monkeypatch, stage):
        config, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        shutil.rmtree(out / stage)
        loaded = []

        def counting_load_model(path):
            loaded.append(path)
            return load_model(path)

        monkeypatch.setattr(cli, "load_model", counting_load_model)
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert len(loaded) == len(list((out / "split").glob("split_*.csv")))
        for path in sorted((finished / stage).rglob("*")):
            if path.is_file():
                assert (out / path.relative_to(finished)).read_bytes() == path.read_bytes()


def _manifest_lines(root, stages):
    return [line for line in (root / "manifest.jsonl").read_text().splitlines()
            if json.loads(line)["stage"].partition(":")[0] in stages]


def _split_prefix(finished, out):
    """out as the six stages left it after split: finished's data and
    split files and their manifest lines."""
    for part in ("data", "split"):
        shutil.copytree(finished / part, out / part)
    (out / "manifest.jsonl").write_text(
        "".join(line + "\n" for line in _manifest_lines(finished, ("synth", "split"))))
    return out


def _assert_same_train(out, want):
    """train/ and the train manifest lines of out are those of want, byte for byte."""
    names = sorted(p.name for p in (want / "train").iterdir())
    assert sorted(p.name for p in (out / "train").iterdir()) == names
    for name in names:
        assert (out / "train" / name).read_bytes() == (want / "train" / name).read_bytes()
    assert _manifest_lines(out, ("train",)) == _manifest_lines(want, ("train",))


class TestManifestPruning:
    """A stage drops each manifest line that is no longer the newest
    writer of any file."""

    def test_train_under_a_then_b_then_a_is_a_single_run_under_a(self, pipeline, tmp_path):
        config, finished = pipeline
        other = tmp_path / "b.ini"
        other.write_text(SMALL_CONFIG.replace("epochs = 40", "epochs = 20"))
        once = _split_prefix(finished, tmp_path / "once")
        assert main(["train", "--config", str(config), "--out", str(once)]) == 0
        out = _split_prefix(finished, tmp_path / "aba")
        for run_config in (config, other, config):
            assert main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        assert _tree_digest(out) == _tree_digest(once)

    def test_a_line_that_still_wrote_a_file_stays(self, pipeline, tmp_path):
        config, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        full = set(_manifest_lines(out, ("uq",)))
        assert main(["uq", "--config", str(config), "--out", str(out), "--methods", "ad"]) == 0
        lines = _manifest_lines(out, ("uq",))
        # the full uq:k lines still wrote the dropout and RIO CSVs
        assert full <= set(lines) and len(lines) == 2 * len(full)
        assert all([rel.rpartition("/")[2] for rel in json.loads(line)["outputs"]]
                   == ["uq_ad.csv"] for line in lines if line not in full)


def _files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


class TestIncrementalRerun:
    """The six stages rerun on a finished tree under an edited config leave
    the tree a fresh run under that config builds."""

    @pytest.mark.parametrize("old, new", [
        ("[train]", "correlation_threshold = 0.3\n\n[train]"),  # the filter is off
        ("learning_rates = 0.01", "learning_rates = 0.01,1e-6"),
        ("passes = 10", "passes = 12"),
        ("step_fraction = 0.1", "step_fraction = 0.2"),
    ], ids=["correlation_threshold", "learning_rates", "passes", "step_fraction"])
    def test_equals_a_fresh_run(self, pipeline, tmp_path, capsys, old, new):
        _, finished = pipeline
        config = tmp_path / "b.ini"
        config.write_text(SMALL_CONFIG.replace(old, new))
        rerun, fresh = _copy_tree(finished, tmp_path), tmp_path / "fresh"
        for out in (rerun, fresh):
            for stage in STAGES:
                assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
            assert "report: all evaluation artifacts verified" in capsys.readouterr().out
        assert _files(rerun) == _files(fresh)
        for rel in _files(fresh):
            if rel != "manifest.jsonl":
                assert (rerun / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        lines = (rerun / "manifest.jsonl").read_text().splitlines()
        assert set(lines) == set((fresh / "manifest.jsonl").read_text().splitlines())
        evals = [e for e in map(json.loads, lines) if e["stage"].startswith("eval:")]
        assert len(evals) == 3
        for line in evals:
            k = line["stage"].partition(":")[2]
            summary = json.loads((rerun / "eval" / f"split_{k}" / "summary.json").read_text())
            assert summary["config_hash"] == line["config_hash"]


# SMALL_CONFIG on a 2 x 2 grid, whose four candidates (grid indices 0-3 are
# widths 8 and 16 at depth 1, then at depth 2) go to the worker pool
GRID_CONFIG = SMALL_CONFIG.replace("layer_counts = 1\nwidths = 16\n",
                                   "layer_counts = 1,2\nwidths = 8,16\n")


@pytest.fixture(scope="module")
def grid_trained(pipeline, tmp_path_factory):
    """The 2 x 2 grid config, the pipeline's finished tree, and a tree of
    its synth and split on which train ran at --jobs 1."""
    _, finished = pipeline
    root = tmp_path_factory.mktemp("grid")
    config = root / "grid.ini"
    config.write_text(GRID_CONFIG)
    out = _split_prefix(finished, root / "jobs1")
    assert main(["train", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    return config, finished, out


def _children(pid):
    """The pids of the live processes whose parent is pid."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone while we looked
        if fields[0] != "Z" and int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _alive(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _lock_is_free(out):
    try:
        fd = os.open(out / ".lock", os.O_RDWR)
    except FileNotFoundError:
        return True
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


# train at --jobs 2 whose candidate 0, (8,), sleeps first: its worker is
# busy while the other one waits for work that never comes
STALLED_TRAIN = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from uqshift import cli, mlp
real_train = mlp.train_mlp

def stalled(*args):
    if tuple(args[4]) == (8,):
        time.sleep(120)
    return real_train(*args)

mlp.train_mlp = stalled
sys.exit(cli.main(["train", "--config", sys.argv[2], "--out", sys.argv[3], "--jobs", "2"]))
"""


class TestJobs:
    def test_train_at_two_jobs_writes_the_bytes_of_one(self, pipeline, tmp_path):
        config, finished = pipeline
        out = _split_prefix(finished, tmp_path / "o")
        assert main(["train", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 0
        _assert_same_train(out, finished)

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_grid_at_any_jobs_writes_the_bytes_of_one(self, grid_trained, tmp_path, jobs):
        config, finished, want = grid_trained
        out = _split_prefix(finished, tmp_path / "o")
        assert main(["train", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
        _assert_same_train(out, want)

    def test_a_dead_worker_ends_train_in_one_line(self, grid_trained, tmp_path, monkeypatch,
                                                  capsys):
        config, finished, _ = grid_trained
        out = _split_prefix(finished, tmp_path / "o")
        parent, real_train = os.getpid(), mlp.train_mlp

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_train(*args)

        monkeypatch.setattr(mlp, "train_mlp", dies_in_a_worker)
        monkeypatch.setattr(mlp, "usable_cpus", lambda: 2)  # the pool on any machine
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("[")]
        assert errors == ["error: train:0: a worker process of the grid search died; "
                          "rerun train"]
        assert multiprocessing.active_children() == []
        assert not (out / "train" / "model_0.json").exists()

    @pytest.mark.skipif(usable_cpus() < 2 or not Path("/proc/self/stat").exists(),
                        reason="needs two CPUs and /proc")
    def test_workers_of_a_killed_run_exit_and_free_the_lock(self, grid_trained, tmp_path):
        config, finished, want = grid_trained
        out = _split_prefix(finished, tmp_path / "o")
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.Popen([sys.executable, "-c", STALLED_TRAIN, str(src), str(config),
                                str(out)], stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while len(workers := _children(run.pid)) < 2:
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            time.sleep(0.5)  # the worker not stalled takes the other tasks, then waits
            assert not _lock_is_free(out)
        finally:
            run.kill()
            run.wait()
        deadline = time.monotonic() + 2
        try:
            while any(map(_alive, workers)) or not _lock_is_free(out):
                assert time.monotonic() < deadline, "a worker outlived its killed run"
                time.sleep(0.02)
        finally:
            for pid in filter(_alive, workers):  # a failed check leaves no process
                os.kill(pid, signal.SIGKILL)
        assert main(["train", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 0
        _assert_same_train(out, want)


class TestImports:
    def test_the_cli_loads_no_multiprocessing(self):
        src = Path(__file__).resolve().parent.parent / "src"
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "import uqshift.cli; print(' '.join(sorted(sys.modules)))", str(src)],
            capture_output=True, text=True, check=True, timeout=120).stdout.split()
        assert [m for m in loaded if m.partition(".")[0] == "multiprocessing"
                or m == "concurrent.futures.process"] == []


class TestSearchReport:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_candidate_has_empty_scores(self, pipeline, tmp_path):
        _, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        config = tmp_path / "diverging.ini"
        config.write_text(SMALL_CONFIG.replace("learning_rates = 0.01",
                                               "learning_rates = 0.01,1e30"))
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--split-id", "0", "--jobs", "1"]) == 0
        header, rows = read_csv(out / "train" / "search_report_0.csv")
        assert header == ["grid_index", "layers", "width", "lr", "train_r2", "valid_r2", "status"]
        assert [row[0] for row in rows] == ["0", "1"]
        assert rows[0][6] == "trained" and rows[0][4] and rows[0][5]
        assert rows[1][3:] == ["1e+30", "", "", "diverged"]


class TestRioIncludeNoise:
    def test_off_shrinks_only_the_std(self, pipeline, tmp_path):
        _, finished = pipeline
        out = _copy_tree(finished, tmp_path)
        config = tmp_path / "no_noise.ini"
        config.write_text(SMALL_CONFIG.replace("rio_max_iter = 40",
                                               "rio_max_iter = 40\nrio_include_noise = false"))
        assert main(["uq", "--config", str(config), "--out", str(out), "--methods", "rio"]) == 0
        shrunk = 0
        for path in sorted(finished.glob("uq/split_*/uq_rio.csv")):
            header, noisy = read_csv(path)
            assert read_csv(out / path.relative_to(finished))[0] == header
            quiet = read_csv(out / path.relative_to(finished))[1]
            assert len(quiet) == len(noisy)
            for a, b in zip(noisy, quiet):
                assert (a[:3], a[4]) == (b[:3], b[4])  # id, yhat, residual_mean; corrected_pred
                assert float(b[3]) <= float(a[3])
                shrunk += float(b[3]) < float(a[3])
        assert shrunk > 0


class TestTrainBatchSize:
    def test_batch_size_reaches_the_fit(self, pipeline, tmp_path):
        _, finished = pipeline
        out = tmp_path / "o"
        shutil.copytree(finished, out)
        config = tmp_path / "batched.ini"
        config.write_text(SMALL_CONFIG.replace("epochs = 40", "epochs = 40\nbatch_size = 16"))
        assert main(["train", "--config", str(config), "--out", str(out), "--split-id", "0"]) == 0

        data = load_dataset(out / "data" / "dataset.csv")
        split = read_split_csv(out / "split" / "split_0.csv", data.ids, 0)
        # the grid's one point, index 0, trained from its candidate seed
        seed = derive_seed(derive_seed(5, _STAGE_SEEDS["train"], 0), 0)
        want = train_mlp(data.features[split.train_idx], data.target[split.train_idx],
                         data.features[split.valid_idx], data.target[split.valid_idx],
                         (16,), 0.3, 0.01, 40, seed, batch_size=16).model
        got = load_model(out / "train" / "model_0.json")
        assert got.fit.batch_size == 16
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = banana\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_empty_list_entry_exits_2_at_load(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(SMALL_CONFIG.replace("widths = 16", "widths = ,"))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: {config}: [train] widths: "
                                    f"cannot parse ',' as int_list"]
        assert not (tmp_path / "o" / "data").exists()

    def test_eps_factor_zero_exits_2_before_synth_writes(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(SMALL_CONFIG.replace("min_pts = 5", "min_pts = 5\neps_factor = 0"))
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: [split] eps_factor = 0.0 must be > 0"]
        assert not (tmp_path / "o" / "data").exists()

    def test_knn_k_of_train_n_exits_2_before_anything_is_written(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(SMALL_CONFIG.replace("knn_k = 4", "knn_k = 30"))
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: [uq] knn_k = 30 must be below "
                               "[split] train_n = 30")
        assert not (tmp_path / "o").exists()

    def test_missing_input_exits_3(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_unknown_method_exits_2(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        code = main(["uq", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--methods", "voodoo"])
        assert code == 2

    def test_held_flock_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        # a second open file description: flock conflicts even in one process
        fd = os.open(out / ".lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        finally:
            os.close(fd)
        # one line, and no advice to remove a file: the kernel frees the lock
        assert capsys.readouterr().err == (
            f"config error: output directory {out} is locked by another run\n")
        assert (out / ".lock").exists()
        assert not (out / "data").exists()

    def test_lock_that_is_a_directory_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        (out / ".lock").mkdir(parents=True)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: ") and ".lock" in err and "\n" not in err
        assert "locked by another run" not in err  # no run holds a directory

    def test_lock_of_killed_holder_is_taken(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c", "import fcntl, os, sys, time\n"
             "fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR)\n"
             "fcntl.flock(fd, fcntl.LOCK_EX)\nprint(flush=True)\ntime.sleep(60)\n",
             str(out / ".lock")], stdout=subprocess.PIPE)
        try:
            holder.stdout.readline()  # the holder has the lock
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        finally:
            holder.kill()
            holder.wait()
        assert (out / ".lock").exists()
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / ".lock").exists()

    def test_lock_file_replaced_before_flock_is_retried(self, tmp_path, monkeypatch):
        # a run that ends between our open and our flock unlinks the file we
        # opened, and the next run creates a new one at the same path
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        calls = []
        real_flock = fcntl.flock

        def flock(fd, op):
            calls.append(fd)
            if len(calls) == 1:
                (out / ".lock").unlink()
                (out / ".lock").write_text("")
            return real_flock(fd, op)

        monkeypatch.setattr(cli.fcntl, "flock", flock)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert len(calls) == 2
        assert not (out / ".lock").exists()

    def test_stale_lock_of_dead_process_is_taken(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so its PID names no process
        (out / ".lock").write_text(str(child.pid))
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / ".lock").exists()

    def test_lock_released_after_run(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("where", ["allocation", "mid-write"])
    def test_out_of_memory_is_one_line_and_exit_1(self, tmp_path, monkeypatch, capsys, where):
        message = "Unable to allocate 262. TiB for an array with shape (6000000, 6000000)"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        def exhausted_mid_write(ids, labels, path):
            def rows():
                yield ids[0], int(labels[0])
                exhausted()
            write_csv(path, ["id", "cluster"], rows())

        if where == "allocation":
            monkeypatch.setattr(cli, "generate_synthetic", exhausted)
        else:
            monkeypatch.setattr(cli, "write_labels_csv", exhausted_mid_write)
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"out of memory: {message}"]
        assert [p.name for p in out.rglob("*") if p.suffix in (".lock", ".tmp")] == []
        assert not (out / "manifest.jsonl").exists()

    def test_out_of_memory_without_text_names_the_stage(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "generate_synthetic", exhausted)
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["out of memory in synth"]
        assert [p.name for p in out.rglob("*") if p.suffix in (".lock", ".tmp")] == []

    def test_empty_methods_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        code = main(["uq", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--methods", ""])
        assert code == 2
        assert capsys.readouterr().err == "config error: no uq methods selected\n"

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["synth", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {out} (FileExistsError)\n")

    def test_out_under_a_file_exits_2_from_the_module(self, tmp_path):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "o"
        result = subprocess.run([sys.executable, "-m", "uqshift.cli", "synth", "--out", str(out)],
                                capture_output=True, text=True, env=_src_env(), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == (
            f"config error: cannot create output directory {out} (NotADirectoryError)\n")

    @pytest.mark.parametrize("case", ["directory", "latin-1"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        config = tmp_path / "run.ini"
        if case == "directory":
            config.mkdir()
        else:
            config.write_bytes("[run]\n# caf\xe9\nseed = 3\n".encode("latin-1"))
        error = {"directory": "IsADirectoryError", "latin-1": "UnicodeDecodeError"}[case]
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {config}: cannot read ({error})\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key,kind,template", [
        ("split", "perplexity", "float", "{}"),
        ("train", "learning_rates", "float_list", "0.01, {}"),
        ("split", "dbscan_eps", "float_or_auto", "{}"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, kind, template,
                                       value):
        config = tmp_path / "run.ini"
        raw = template.format(value)
        config.write_text(f"[{section}]\n{key} = {raw}\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}: [{section}] {key}: cannot parse {raw!r} as {kind}\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_split_id_exits_3(self, pipeline):
        config, out = pipeline
        code = main(["train", "--config", str(config), "--out", str(out),
                     "--split-id", "99"])
        assert code == 3


class TestParser:
    def test_six_stages_and_their_flags(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["synth", "split", "train", "uq", "eval", "report"]
        for name, stage in sub.choices.items():
            flags = {flag for action in stage._actions for flag in action.option_strings}
            assert {"--config", "--seed", "--out", "--jobs"} <= flags
            assert ("--split-id" in flags) == (name in ("train", "uq", "eval", "report"))
            assert ("--methods" in flags) == (name == "uq")


class TestMethodSubsets:
    def test_ad_only(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        for stage in ("synth", "split"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        # ad needs no trained model
        split_ids = sorted(
            int(p.stem.split("_")[1]) for p in (out / "split").glob("split_*.csv")
        )
        k = split_ids[0]
        code = main(["uq", "--config", str(config), "--out", str(out),
                     "--methods", "ad", "--split-id", str(k)])
        assert code == 0
        d = out / "uq" / f"split_{k}"
        assert (d / "uq_ad.csv").exists()
        assert not (d / "uq_dropout.csv").exists()

    def test_dropout_without_model_exits_3(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        for stage in ("synth", "split"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        code = main(["uq", "--config", str(config), "--out", str(out),
                     "--methods", "dropout"])
        assert code == 3


class TestDeterminism:
    def test_same_seed_same_dataset(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert (out_a / "data" / "dataset.csv").read_bytes() == \
               (out_b / "data" / "dataset.csv").read_bytes()

    def test_different_seed_different_dataset(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["synth", "--config", str(config), "--out", str(out_b),
                     "--seed", "99"]) == 0
        assert (out_a / "data" / "dataset.csv").read_bytes() != \
               (out_b / "data" / "dataset.csv").read_bytes()


class TestMinPtsOne:
    """min_pts = 1 makes auto eps each point's distance to itself."""

    def test_auto_eps_refused_naming_both_keys(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG.replace("min_pts = 5", "min_pts = 1"))
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == (
            "config error: [split] min_pts = 1 needs a numeric [split] dbscan_eps "
            "or [split] external_labels: dbscan_eps = auto would take each point's "
            "distance to itself as eps")
        assert not (tmp_path / "o" / "data").exists()

    def test_numeric_eps_splits(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG.replace("min_pts = 5", "min_pts = 1\ndbscan_eps = 0.5"))
        out = tmp_path / "o"
        for stage in ("synth", "split"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert len(list((out / "split").glob("split_*.csv"))) >= 2

    def test_external_labels_split(self, tmp_path):
        out = tmp_path / "o"
        base = tmp_path / "base.ini"
        base.write_text(SMALL_CONFIG)
        assert main(["synth", "--config", str(base), "--out", str(out)]) == 0
        _, rows = read_csv(out / "data" / "dataset.csv")
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("id,cluster\n" + "".join(
            f"{row[0]},{i // 60}\n" for i, row in enumerate(rows)))
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG.replace(
            "min_pts = 5", f"min_pts = 1\nexternal_labels = {labels_path}"))
        assert main(["split", "--config", str(config), "--out", str(out)]) == 0
        assert len(list((out / "split").glob("split_*.csv"))) == 3


class TestExternalLabels:
    def test_split_with_provided_labels(self, tmp_path):
        out = tmp_path / "o"
        base_config = tmp_path / "base.ini"
        base_config.write_text(SMALL_CONFIG)
        assert main(["synth", "--config", str(base_config), "--out", str(out)]) == 0

        # derive a labels file from the generated ids: thirds of the data
        header, rows = read_csv(out / "data" / "dataset.csv")
        labels_path = tmp_path / "labels.csv"
        lines = ["id,cluster"]
        for i, row in enumerate(rows):
            lines.append(f"{row[0]},{i // 60}")
        labels_path.write_text("\n".join(lines) + "\n")

        config = tmp_path / "ext.ini"
        config.write_text(
            SMALL_CONFIG.replace("[train]", f"external_labels = {labels_path}\n\n[train]")
        )
        assert main(["split", "--config", str(config), "--out", str(out)]) == 0
        # embedding is skipped when labels come from outside
        assert not (out / "split" / "embedding.csv").exists()
        label_header, label_rows = read_csv(out / "split" / "labels.csv")
        assert label_header == ["id", "cluster"]
        clusters = {r[1] for r in label_rows}
        assert clusters == {"0", "1", "2"}
        assert len(sorted((out / "split").glob("split_*.csv"))) == 3

    def test_forced_embedding_leaves_labels_and_splits(self, tmp_path):
        out = tmp_path / "o"
        base = tmp_path / "base.ini"
        base.write_text(SMALL_CONFIG)
        assert main(["synth", "--config", str(base), "--out", str(out)]) == 0
        _, rows = read_csv(out / "data" / "dataset.csv")
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("id,cluster\n" + "".join(
            f"{row[0]},{i // 60}\n" for i, row in enumerate(rows)))
        trees = {}
        for force in ("false", "true"):
            tree = tmp_path / force
            shutil.copytree(out, tree)
            config = tmp_path / f"{force}.ini"
            config.write_text(SMALL_CONFIG.replace("[train]", f"external_labels = {labels_path}\n"
                                                   f"force_embedding = {force}\n\n[train]"))
            assert main(["split", "--config", str(config), "--out", str(tree)]) == 0
            trees[force] = {p.name: p.read_bytes() for p in (tree / "split").iterdir()}
        assert sorted(trees["true"]) == sorted([*trees["false"], "embedding.csv", "kl_trace.csv"])
        assert len([name for name in trees["false"] if name.startswith("split_")]) == 3
        for name, data in trees["false"].items():
            assert trees["true"][name] == data, name

    def test_one_cluster_stops_split(self, tmp_path, capsys):
        out = tmp_path / "o"
        base_config = tmp_path / "base.ini"
        base_config.write_text(SMALL_CONFIG)
        assert main(["synth", "--config", str(base_config), "--out", str(out)]) == 0
        _, rows = read_csv(out / "data" / "dataset.csv")
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("id,cluster\n" + "".join(f"{row[0]},7\n" for row in rows))
        config = tmp_path / "one.ini"
        config.write_text(
            SMALL_CONFIG.replace("[train]", f"external_labels = {labels_path}\n\n[train]")
        )
        capsys.readouterr()
        assert main(["split", "--config", str(config), "--out", str(out)]) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("data error: 1 of 1 clusters reached min_cluster_size")
        for knob in ("dbscan_eps", "eps_factor", "min_cluster_size"):
            assert knob in last
        assert not list((out / "split").glob("split_*.csv"))
