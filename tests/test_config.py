import re

import pytest

from uqshift.config import (
    canonical_text,
    config_hash,
    default_config,
    load_config,
    stage_config_text,
)
from uqshift.errors import ConfigError
from uqshift.mlp import usable_cpus


class TestLoad:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["run"]["seed"] == 0
        assert cfg["split"]["perplexity"] == 30.0
        assert cfg["train"]["dropout_rate"] == 0.3
        assert cfg["uq"]["alpha"] == 0.05

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 42\n\n[uq]\nknn_k = 9\n")
        cfg = load_config(path)
        assert cfg["run"]["seed"] == 42
        assert cfg["uq"]["knn_k"] == 9
        assert cfg["uq"]["alpha"] == 0.05  # untouched default

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 42\n")
        cfg = load_config(path, {("run", "seed"): 7})
        assert cfg["run"]["seed"] == 7

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nbanana = 1\n")
        with pytest.raises(ConfigError, match="banana"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = lots\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = -3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_lists_parse(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nwidths = 8, 16, 32\nlearning_rates = 0.1, 0.01\n")
        cfg = load_config(path)
        assert tuple(cfg["train"]["widths"]) == (8, 16, 32)
        assert tuple(cfg["train"]["learning_rates"]) == (0.1, 0.01)

    @pytest.mark.parametrize("line, kind", [
        ("widths = ,", "int_list"),
        ("widths =", "int_list"),
        ("layer_counts = 1,,2", "int_list"),
        ("widths = 16,", "int_list"),
        ("learning_rates = 0.01,,0.001", "float_list"),
        ("learning_rates = ,0.01", "float_list"),
    ])
    def test_list_with_an_empty_entry_rejected(self, tmp_path, line, kind):
        path = tmp_path / "run.ini"
        path.write_text(f"[train]\n{line}\n")
        with pytest.raises(ConfigError, match=f"cannot parse .* as {kind}"):
            load_config(path)

    @pytest.mark.parametrize("section, line, shown", [
        ("uq", "alpha = 0", "0.0"),
        ("uq", "alpha = 1", "1.0"),
        ("uq", "rio_starts = 0", "0"),
        ("split", "tsne_iterations = 0", "0"),
        ("uq", "passes = 0", "0"),
        ("eval", "step_fraction = 0", "0.0"),
        ("eval", "step_fraction = 1.5", "1.5"),
        ("train", "batch_size = -1", "-1"),
        ("uq", "knn_k = 0", "0"),
    ])
    def test_value_no_stage_can_use_rejected_naming_it(self, tmp_path, section, line, shown):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} = {shown} must be")):
            load_config(path)

    @pytest.mark.parametrize("section, line, shown, rule", [
        ("run", "seed = -3", "-3", ">= 0"),
        ("run", "jobs = 0", "0", ">= 1"),
        ("run", "jobs = -2", "-2", ">= 1"),
        ("split", "train_n = 1", "1", ">= 2"),
        ("split", "train_n = 0", "0", ">= 2"),
        ("split", "valid_n = 1", "1", ">= 2"),
        ("split", "valid_n = 0", "0", ">= 2"),
        ("split", "valid_n = -1", "-1", ">= 2"),
        # in (0, 1), but 1 - alpha rounds to 1, the quantile's open end
        ("uq", "alpha = 1e-300", "1e-300", "in (0, 1), with 1 - alpha < 1"),
        ("uq", "alpha = 1e-17", "1e-17", "in (0, 1), with 1 - alpha < 1"),
        ("uq", "metric = manhattan", "manhattan", "euclidean or jaccard"),
    ])
    def test_value_a_later_stage_would_refuse_rejected_at_load(self, tmp_path, section,
                                                                line, shown, rule):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ConfigError,
                           match=re.escape(f"[{section}] {key} = {shown} must be {rule}")):
            load_config(path)

    def test_range_edges_accepted(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 0\njobs = 1\n\n[split]\ntrain_n = 2\nvalid_n = 2\n\n"
                        "[train]\nbatch_size = 0\n\n[uq]\nknn_k = 1\nalpha = 1e-15\n\n"
                        "[eval]\nstep_fraction = 1\n")
        assert load_config(path)["eval"]["step_fraction"] == 1.0

    def test_jobs_defaults_to_the_usable_cpus(self):
        assert load_config(None)["run"]["jobs"] == usable_cpus() >= 1

    def test_eps_auto_is_none(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[split]\ndbscan_eps = auto\n")
        cfg = load_config(path)
        assert cfg["split"]["dbscan_eps"] is None
        path.write_text("[split]\ndbscan_eps = 1.5\n")
        assert load_config(path)["split"]["dbscan_eps"] == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestHashing:
    def test_hash_stable(self):
        assert config_hash(default_config()) == config_hash(default_config())

    def test_out_and_jobs_excluded(self, tmp_path):
        a = load_config(None, {("run", "out"): "/tmp/x", ("run", "jobs"): 1})
        b = load_config(None, {("run", "out"): "/tmp/y", ("run", "jobs"): 8})
        assert config_hash(a) == config_hash(b)

    def test_any_other_key_changes_hash(self):
        a = load_config(None)
        b = load_config(None, {("uq", "passes"): 17})
        assert config_hash(a) != config_hash(b)

    def test_canonical_text_round_trips(self, tmp_path):
        cfg = load_config(None, {("run", "seed"): 5, ("synth", "noise"): 0.25})
        path = tmp_path / "saved.ini"
        path.write_text(canonical_text(cfg))
        back = load_config(path)
        assert canonical_text(back) == canonical_text(cfg)

    def test_stage_text_scopes_sections(self):
        cfg = default_config()
        synth_text = stage_config_text(cfg, ("synth",))
        assert "clusters" in synth_text
        assert "perplexity" not in synth_text
        assert "seed" in synth_text  # master seed always included
        eval_text = stage_config_text(cfg, ("eval", "uq"))
        assert "step_fraction" in eval_text
        assert "passes" in eval_text  # eval reads the uq outputs

    def test_stage_text_changes_with_relevant_key(self):
        a = stage_config_text(default_config(), ("train",))
        b = stage_config_text(load_config(None, {("train", "epochs"): 7}), ("train",))
        assert a != b
        c = stage_config_text(load_config(None, {("eval", "step_fraction"): 0.2}),
                              ("train",))
        assert a == c
