import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from uqshift.cli import main
from uqshift.csvio import read_csv

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

    def test_report_verifies(self, pipeline, capsys):
        config, out = pipeline
        code = main(["report", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert "verified" in capsys.readouterr().out


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


# (stage to run, file glob in the finished tree, corruption)
CORRUPTIONS = {
    "unknown-id-in-cross-predictions": (
        "report", "eval/split_*/cross_predictions.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(0, "nobody"))),
    "non-integer-pred-column": (
        "report", "eval/split_*/cross_predictions.csv",
        lambda p: _edit_csv(p, lambda h, rows: h.__setitem__(3, "pred_x"))),
    "non-numeric-boxplot-cell": (
        "report", "eval/split_*/boxplot_stats.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(1, "abc"))),
    "one-cell-removal-curve-row": (
        "report", "eval/split_*/removal_curve_dropout.csv",
        lambda p: _edit_csv(p, _truncate_row)),
    "one-cell-split-row": (
        "report", "split/split_*.csv", lambda p: _edit_csv(p, _truncate_row)),
    "bad-manifest-line": (
        "synth", "manifest.jsonl",
        lambda p: p.write_text(p.read_text() + "{not json\n")),
    "uq-table-without-id": (
        "eval", "uq/split_*/uq_dropout.csv", lambda p: _edit_csv(p, _drop_first_column)),
    "model-without-scaler": ("eval", "train/model_*.json", _drop_scaler),
    "nan-uncertainty-in-uq-table": (
        "eval", "uq/split_*/uq_dropout.csv",
        lambda p: _edit_csv(p, lambda h, rows: rows[0].__setitem__(2, "nan"))),
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


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = banana\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

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

    def test_lock_contention_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))  # a live process
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert "locked by another run" in err and "\n" not in err

    @pytest.mark.parametrize("content", ["", "not-a-pid"])
    def test_unreadable_lock_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "o"
        out.mkdir()
        (out / ".lock").write_text(content)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert "locked by another run" in err and "\n" not in err
        assert (out / ".lock").read_text() == content

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

    def test_unknown_split_id_exits_3(self, pipeline):
        config, out = pipeline
        code = main(["train", "--config", str(config), "--out", str(out),
                     "--split-id", "99"])
        assert code == 3


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
