import re

import numpy as np
import pytest

from uqshift.cli import _STAGES
from uqshift.clustering import ClusterLabels, dbscan, make_cluster_splits
from uqshift.config import _RANGES, default_config, load_config, stage_config_text
from uqshift.dataset import generate_synthetic, rank_correlated_features
from uqshift.embedding import tsne
from uqshift.errors import ConfigError
from uqshift.evaluation import novelty_separation, removal_curve
from uqshift.mlp import FitConfig, train_mlp, usable_cpus
from uqshift.rng import derive_seed, keyed_rng
from uqshift.uq_ad import fit_ad
from uqshift.uq_dropout import McDropoutConfig
from uqshift.uq_rio import fit_rio


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
        ("synth", "clusters = 0", "0", ">= 1"),
        ("synth", "points_per_cluster = 0", "0", ">= 1"),
        ("synth", "dim = 1", "1", ">= 2"),
        ("synth", "separation = 0", "0.0", "> 0"),
        ("synth", "coef_scale = 0", "0.0", "> 0"),
        ("synth", "noise = -1", "-1.0", ">= 0"),
        ("split", "train_n = 1", "1", ">= 2"),
        ("split", "train_n = 0", "0", ">= 2"),
        ("split", "valid_n = 1", "1", ">= 2"),
        ("split", "valid_n = 0", "0", ">= 2"),
        ("split", "valid_n = -1", "-1", ">= 2"),
        # in (0, 1), but 1 - alpha rounds to 1, the quantile's open end
        ("uq", "alpha = 1e-300", "1e-300", "in (0, 1), with 1 - alpha < 1"),
        ("uq", "alpha = 1e-17", "1e-17", "in (0, 1), with 1 - alpha < 1"),
        ("uq", "metric = manhattan", "manhattan", "euclidean or jaccard"),
        ("split", "correlation_threshold = 1", "1.0", "in [0, 1)"),
        ("split", "correlation_threshold = -0.1", "-0.1", "in [0, 1)"),
        ("split", "eps_factor = 0", "0.0", "> 0"),
        ("split", "eps_factor = -1", "-1.0", "> 0"),
        ("split", "dbscan_eps = 0", "0.0", "auto or > 0"),
        ("split", "pca_components = 0", "0", ">= 1"),
        ("split", "perplexity = 1", "1.0", "> 1"),
        ("split", "min_pts = 0", "0", ">= 1"),
        ("split", "min_cluster_size = 0", "0", ">= 1"),
        ("uq", "rio_max_iter = -1", "-1", ">= 0"),
        ("train", "layer_counts = 4", "4", "1, 2 or 3 each"),
        ("train", "layer_counts = 1,0", "1,0", "1, 2 or 3 each"),
        ("train", "widths = 0", "0", ">= 1 each"),
        ("train", "widths = 16,-1", "16,-1", ">= 1 each"),
        ("train", "learning_rates = -1", "-1.0", ">= 0 each"),
        ("train", "dropout_rate = 1.0", "1.0", "in [0, 1)"),
        ("train", "dropout_rate = -0.5", "-0.5", "in [0, 1)"),
        ("train", "epochs = -1", "-1", ">= 0"),
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
        path.write_text("[run]\nseed = 0\njobs = 1\n\n[synth]\nclusters = 1\n"
                        "points_per_cluster = 1\ndim = 2\nseparation = 1e-9\n"
                        "coef_scale = 1e-9\nnoise = 0\n\n[split]\ntrain_n = 2\nvalid_n = 2\n"
                        "correlation_threshold = 0\npca_components = 1\nperplexity = 1.0001\n"
                        "dbscan_eps = 1e-9\neps_factor = 1e-9\nmin_pts = 1\nmin_cluster_size = 1\n\n"
                        "[train]\nbatch_size = 0\nlayer_counts = 1,2,3\nwidths = 1\n"
                        "learning_rates = 0\ndropout_rate = 0\nepochs = 0\n\n"
                        "[uq]\nknn_k = 1\nalpha = 1e-15\nrio_max_iter = 0\n\n"
                        "[eval]\nstep_fraction = 1\n")
        assert load_config(path)["eval"]["step_fraction"] == 1.0

    @pytest.mark.parametrize("knn_k", [30, 31])
    def test_knn_k_of_train_n_or_more_rejected_naming_both(self, tmp_path, knn_k):
        train_n = 30
        path = tmp_path / "run.ini"
        path.write_text(f"[split]\ntrain_n = {train_n}\n\n[uq]\nknn_k = {knn_k}\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"[uq] knn_k = {knn_k} must be below [split] train_n = {train_n}")):
            load_config(path)

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


# stage: the sections its manifest lines hash, for each stage that writes one
STAGE_SECTIONS = {name: sections for name, (_, _, sections, _) in _STAGES.items() if sections}


def _stage_texts(overrides=None) -> dict[str, str]:
    cfg = load_config(None, overrides)
    return {name: stage_config_text(cfg, sections) for name, sections in STAGE_SECTIONS.items()}


class TestHashing:
    def test_out_and_jobs_enter_no_stage_text(self):
        a = _stage_texts({("run", "out"): "/tmp/x", ("run", "jobs"): 1})
        b = _stage_texts({("run", "out"): "/tmp/y", ("run", "jobs"): 8})
        assert a == b

    def test_seed_changes_every_stage_text(self):
        a, b = _stage_texts(), _stage_texts({("run", "seed"): 17})
        assert a == _stage_texts()
        assert set(a) == {"synth", "split", "train", "uq", "eval"}
        assert all(a[name] != b[name] for name in a)

    def test_uq_passes_changes_uq_and_eval_only(self):
        a, b = _stage_texts(), _stage_texts({("uq", "passes"): 17})
        assert {name for name in a if a[name] != b[name]} == {"uq", "eval"}

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


_X = np.arange(48.0).reshape(16, 3) % 7.0


def _synthetic(**keys):
    return generate_synthetic(**{**default_config()["synth"], "seed": 0, **keys})


def _splits(**keys):
    data, labels = _synthetic(clusters=2, points_per_cluster=10)
    args = {"train_n": 4, "valid_n": 2, "min_cluster_size": 5, **keys}
    return make_cluster_splits(data, ClusterLabels(labels, 2), seed=0, **args)


def _train(**keys):
    y = _X.sum(axis=1)
    args = {"hidden_sizes": (4,), "dropout_rate": 0.3, "learning_rate": 0.01, **keys}
    return train_mlp(_X[:10], y[:10], _X[10:], y[10:], epochs=1, seed=0, **args)


def _rio(**keys):
    return fit_rio(_X, _X[:, 0], _X[:, 1], **{"n_starts": 1, "max_iter": 5, **keys})


# (section, key, the library's function and parameter, a value the rule
# refuses, a call that passes the library that value).  The grid keys hold
# a tuple, one entry per candidate: a call passes the library its entry.
LIBRARY_KEYS = [
    ("run", "seed", "keyed_rng-seed", -1, lambda v: keyed_rng(v, 1)),
    ("run", "seed", "derive_seed-seed", -1, lambda v: derive_seed(v)),
    *[("synth", key, f"generate_synthetic-{key}", v, lambda v, key=key: _synthetic(**{key: v}))
      for key, v in [("clusters", 0), ("points_per_cluster", 0), ("dim", 1),
                     ("separation", 0.0), ("coef_scale", -1.0), ("noise", -0.1)]],
    ("split", "correlation_threshold", "rank_correlated_features-threshold", 1.0,
     lambda v: rank_correlated_features(_synthetic()[0], v)),
    ("split", "perplexity", "tsne-perplexity", 1.0, lambda v: tsne(_X, perplexity=v)),
    ("split", "tsne_iterations", "tsne-iterations", 0,
     lambda v: tsne(_X, perplexity=2.0, iterations=v)),
    ("split", "dbscan_eps", "dbscan-eps", 0.0, lambda v: dbscan(_X, v, 2)),
    ("split", "eps_factor", "dbscan-eps_factor", -1.0,
     lambda v: dbscan(_X, None, 2, eps_factor=v)),
    ("split", "eps_factor", "dbscan-eps_factor", 0.0,
     lambda v: dbscan(_X, None, 2, eps_factor=v)),
    ("split", "min_pts", "dbscan-min_pts", 0, lambda v: dbscan(_X, 1.0, v)),
    ("split", "train_n", "make_cluster_splits-train_n", 1, lambda v: _splits(train_n=v)),
    ("split", "valid_n", "make_cluster_splits-valid_n", 0, lambda v: _splits(valid_n=v)),
    ("split", "min_cluster_size", "make_cluster_splits-min_cluster_size", 0,
     lambda v: _splits(min_cluster_size=v)),
    ("train", "layer_counts", "train_mlp-len(hidden_sizes)", (4,),
     lambda v: _train(hidden_sizes=(4,) * v[0])),
    ("train", "widths", "train_mlp-hidden_sizes", (4, 0), lambda v: _train(hidden_sizes=v)),
    ("train", "dropout_rate", "train_mlp-dropout_rate", 1.0,
     lambda v: _train(dropout_rate=v)),
    ("train", "learning_rates", "FitConfig-learning_rate", (-1.0,),
     lambda v: FitConfig(learning_rate=v[0], epochs=1, seed=0)),
    ("train", "epochs", "FitConfig-epochs", -1,
     lambda v: FitConfig(learning_rate=0.01, epochs=v, seed=0)),
    ("uq", "metric", "fit_ad-metric", "cosine", lambda v: fit_ad(_X, k=2, metric=v)),
    ("uq", "knn_k", "fit_ad-k", 0, lambda v: fit_ad(_X, k=v)),
    ("uq", "passes", "McDropoutConfig-passes", 0, lambda v: McDropoutConfig(passes=v)),
    ("uq", "rio_starts", "fit_rio-n_starts", 0, lambda v: _rio(n_starts=v)),
    ("uq", "rio_max_iter", "fit_rio-max_iter", -1, lambda v: _rio(max_iter=v)),
    ("uq", "alpha", "novelty_separation-alpha", 1e-17,
     lambda v: novelty_separation(_X[:, 0], _X[:, 1] > 2, v)),
    ("uq", "alpha", "novelty_separation-alpha", 1.0,
     lambda v: novelty_separation(_X[:, 0], _X[:, 1] > 2, v)),
    ("eval", "step_fraction", "removal_curve-step_fraction", 0.0,
     lambda v: removal_curve(_X[:, 0], _X[:, 1], _X[:, 2], v)),
]


class TestLibraryRefusesThroughTheRule:
    @pytest.mark.parametrize("section, key, parameter, value, call", LIBRARY_KEYS,
                             ids=[f"{case[2]}={case[3]}" for case in LIBRARY_KEYS])
    def test_refused_with_the_load_text(self, section, key, parameter, value, call):
        with pytest.raises(ConfigError) as at_load:
            load_config(None, {(section, key): value})
        with pytest.raises(ConfigError) as in_library:
            call(value)
        assert str(in_library.value) == str(at_load.value)
        assert str(at_load.value).startswith(f"[{section}] {key} = ")

    def test_every_rule_but_three_has_a_library_case(self):
        # jobs and pca_components map to no library parameter as they are,
        # and the library's batch_size None is the config's 0
        assert set(_RANGES) - {(s, k) for s, k, *_ in LIBRARY_KEYS} == {
            ("run", "jobs"), ("split", "pca_components"), ("train", "batch_size")}
