"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line to the terminal (bypassing pytest's
capture) so a full run shows the acceptance summary directly.  The
pipeline fixtures run the command-line stages twice into separate
directories; the second tree exists to prove byte-identical reruns.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from uqshift.cli import main
from uqshift.csvio import read_csv
from uqshift.errors import TrainingDivergedError
from uqshift.evaluation import r_squared, removal_curve
from uqshift.mlp import forward, loss_and_gradients
from uqshift.rng import keyed_rng
from uqshift.uq_ad import ad_dd_scores, ad_ld_scores, fit_ad
from uqshift.uq_dropout import McDropoutConfig, mc_dropout
from uqshift.uq_rio import (
    KernelConfig,
    composite_kernel,
    fit_rio,
    log_marginal_likelihood,
    rio_predict,
)

PIPELINE_CONFIG = """\
[run]
seed = 11

[synth]
clusters = 4
points_per_cluster = 300
dim = 10
separation = 8.0
noise = 0.1

[split]
train_n = 100
valid_n = 10
min_cluster_size = 50
min_pts = 10
tsne_iterations = 400

[train]
layer_counts = 1
widths = 32
learning_rates = 0.01
epochs = 150

[uq]
passes = 50
knn_k = 5
alpha = 0.05
rio_starts = 3
rio_max_iter = 100

[eval]
step_fraction = 0.05
min_remaining = 10
"""

STAGES = ("synth", "split", "train", "uq", "eval")


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config = root / "run.ini"
    config.write_text(PIPELINE_CONFIG)
    out_a = root / "run_a"
    out_b = root / "run_b"
    started = time.monotonic()
    for stage in STAGES:
        code = main([stage, "--config", str(config), "--out", str(out_a)])
        assert code == 0, f"pipeline stage {stage} failed in run_a"
    duration_a = time.monotonic() - started
    for stage in STAGES:
        code = main([stage, "--config", str(config), "--out", str(out_b)])
        assert code == 0, f"pipeline stage {stage} failed in run_b"
    return {"config": config, "out_a": out_a, "out_b": out_b, "duration_a": duration_a}


@pytest.fixture
def verdict(capsys):
    def emit(criterion, text, ok):
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion} {text}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {criterion} failed: {text}"
    return emit


class TestCriterion1AdOracle:
    def test_distance_scores_match_brute_force(self, verdict):
        rng = keyed_rng(1001)
        train = rng.normal(size=(200, 10))
        queries = rng.normal(size=(100, 10)) * 1.5
        started = time.monotonic()
        all_ok = True
        for k in (1, 5, 10):
            model = fit_ad(train, k=k)
            # independent brute-force oracle
            d = np.sqrt(((train[:, None, :] - train[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            order = np.argsort(d, axis=1, kind="stable")
            mean_knn = np.take_along_axis(d, order[:, :k], axis=1).mean(axis=1)
            mu, sigma = mean_knn.mean(), mean_knn.std()
            for q in queries:
                dq = np.sqrt(((train - q) ** 2).sum(-1))
                idx = np.argsort(dq, kind="stable")[:k]
                dd_want = max(0.0, (dq[idx].mean() - mu) / sigma)
                ld_want = (
                    0.0 if dq[idx].mean() == 0.0
                    else dq[idx].mean() / mean_knn[idx].mean()
                )
                if abs(ad_dd_scores(model, q[None, :])[0] - dd_want) > 1e-10:
                    all_ok = False
                if abs(ad_ld_scores(model, q[None, :])[0] - ld_want) > 1e-10:
                    all_ok = False
        elapsed = time.monotonic() - started
        fast = elapsed < 1.0
        verdict(1, f"knn scores match brute force at 1e-10 in {elapsed:.2f}s",
                all_ok and fast)


class TestCriterion2GpOracle:
    def test_predictions_match_naive_inverse(self, verdict):
        rng = keyed_rng(1002)
        n = 10
        X = rng.normal(size=(n, 3))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
        yhat = y + 0.2 * rng.normal(size=n)
        config = KernelConfig(signal_variance_in=1.3, length_scale_in=0.9,
                              signal_variance_out=0.6, length_scale_out=1.7,
                              noise_variance=0.25, jitter=1e-10)
        model = fit_rio(X, yhat, y, init=config, n_starts=1, max_iter=0, seed=0)
        Xt = rng.normal(size=(5, 3))
        yhat_t = rng.normal(size=5)
        mean, std = rio_predict(model, Xt, yhat_t, include_noise=True)

        K = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                K[i, j] = composite_kernel(X[i], yhat[i], X[j], yhat[j], model.kernel)
        K += (model.kernel.noise_variance + model.jitter_used) * np.eye(n)
        Ks = np.empty((n, 5))
        for i in range(n):
            for j in range(5):
                Ks[i, j] = composite_kernel(X[i], yhat[i], Xt[j], yhat_t[j], model.kernel)
        K_inv = np.linalg.inv(K)
        r = y - yhat
        mean_want = Ks.T @ K_inv @ r
        prior = model.kernel.signal_variance_in + model.kernel.signal_variance_out
        var_want = prior + model.kernel.noise_variance - np.einsum("ij,ik,kj->j", Ks, K_inv, Ks)

        ok = True
        for j in range(5):
            if abs(mean[j] - mean_want[j]) > 1e-8:
                ok = False
            if abs(std[j] - math.sqrt(var_want[j])) > 1e-8:
                ok = False
        verdict(2, "gp residual predictions match direct matrix inverse at 1e-8", ok)


class TestCriterion3Gradients:
    def test_analytic_gradients_match_finite_differences(self, verdict):
        rng = keyed_rng(1003)
        n = 12
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        yhat = y + 0.3 * rng.normal(size=n)
        r = y - yhat
        step = 1e-5
        gp_ok = True
        for _ in range(20):
            log_params = rng.uniform(-1.5, 1.5, size=5)
            config = KernelConfig.from_log_vector(log_params, jitter=1e-10)
            _, grad = log_marginal_likelihood(X, yhat, r, config)
            for j in range(5):
                up, dn = log_params.copy(), log_params.copy()
                up[j] += step
                dn[j] -= step
                f_up, _ = log_marginal_likelihood(
                    X, yhat, r, KernelConfig.from_log_vector(up, jitter=1e-10))
                f_dn, _ = log_marginal_likelihood(
                    X, yhat, r, KernelConfig.from_log_vector(dn, jitter=1e-10))
                fd = (f_up - f_dn) / (2 * step)
                if abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-8) > 1e-4:
                    gp_ok = False

        # three hidden layers
        sizes = [4, 6, 5, 3, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(size=(fan_in, fan_out)) * 0.5)
            biases.append(rng.normal(size=fan_out) * 0.1)
        Xm = rng.normal(size=(10, 4))
        ym = rng.normal(size=10)
        _, g_w, g_b = loss_and_gradients(weights, biases, Xm, ym, 0.0, None)

        def loss_at(ws, bs):
            pred = forward(ws, bs, Xm, 0.0, None)
            return float(np.mean((ym - pred) ** 2))

        mlp_ok = True
        fd_step = 1e-6
        for li in range(len(weights)):
            w = weights[li]
            probes = [(0, 0), (w.shape[0] // 2, w.shape[1] // 2),
                      (w.shape[0] - 1, w.shape[1] - 1)]
            for idx in probes:
                plus = [w.copy() for w in weights]
                minus = [w.copy() for w in weights]
                plus[li][idx] += fd_step
                minus[li][idx] -= fd_step
                fd = (loss_at(plus, biases) - loss_at(minus, biases)) / (2 * fd_step)
                if abs(g_w[li][idx] - fd) / max(abs(g_w[li][idx]), abs(fd), 1e-8) > 1e-4:
                    mlp_ok = False
            bp = [b.copy() for b in biases]
            bm = [b.copy() for b in biases]
            bp[li][0] += fd_step
            bm[li][0] -= fd_step
            fd = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * fd_step)
            if abs(g_b[li][0] - fd) / max(abs(g_b[li][0]), abs(fd), 1e-8) > 1e-4:
                mlp_ok = False

        verdict(3, "marginal-likelihood and backprop gradients match "
                   "finite differences at 1e-4", gp_ok and mlp_ok)


class TestCriterion4McDropout:
    def test_enumeration_and_sampling(self, verdict):
        from uqshift.dataset import ScalerParams
        from uqshift.mlp import FitConfig, MlpModel

        weights = [np.ones((1, 2)), np.ones((2, 1))]
        biases = [np.zeros(2), np.zeros(1)]
        model = MlpModel(
            weights=weights, biases=biases, hidden_sizes=(2,), dropout_rate=0.5,
            fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
            scaler=ScalerParams(means=np.zeros(1), stddevs=np.ones(1),
                                constant_mask=np.zeros(1, bool)),
        )
        X = np.array([[1.0]])

        # enumerate the full mask distribution through the real forward
        # pass: four equally likely masks over two units
        outputs = []
        for mask_bits in ((1, 1), (1, 0), (0, 1), (0, 0)):
            mask = [np.array(mask_bits, dtype=float)]
            outputs.append(float(forward(weights, biases, X, 0.5, mask)[0]))
        outputs = np.array(outputs)
        exact_ok = (
            sorted(outputs.tolist()) == [0.0, 2.0, 2.0, 4.0]
            and abs(outputs.mean() - 2.0) <= 1e-12
            and abs(outputs.std() - math.sqrt(2.0)) <= 1e-12
        )

        T = 10000
        mean, std = mc_dropout(model, X, McDropoutConfig(passes=T, seed=7))
        se_mean = math.sqrt(2.0) / math.sqrt(T)
        se_std = math.sqrt(2.0) / math.sqrt(2 * T)
        sampling_ok = (
            abs(mean[0] - 2.0) < 3 * se_mean
            and abs(std[0] - math.sqrt(2.0)) < 3 * se_std
        )
        verdict(4, "dropout mask enumeration exact and sampling within 3 SE",
                exact_ok and sampling_ok)


def _read_uq_scores(out, split_id):
    header, rows = read_csv(out / "eval" / f"split_{split_id}" / "uq_scores.csv")
    col = {h: i for i, h in enumerate(header)}
    return col, rows


class TestCriterion5Pipeline:
    def test_cluster_shift_structure(self, pipeline_runs, verdict):
        out = pipeline_runs["out_a"]
        split_ids = sorted(
            int(p.stem.split("_")[1]) for p in (out / "split").glob("split_*.csv")
        )
        shift_ok = True
        for k in split_ids:
            header, rows = read_csv(out / "eval" / f"split_{k}" / "r2_matrix.csv")
            clusters = [int(c) for c in header[1:]]
            row = next(r for r in rows if int(r[0]) == k)
            entries = {c: float(v) for c, v in zip(clusters, row[1:]) if v != ""}
            own = entries[k]
            others = [v for c, v in entries.items() if c != k]
            if not others or own <= float(np.mean(others)):
                shift_ok = False

        threshold = 1.6448536269514722
        separated = 0
        for k in split_ids:
            col, rows = _read_uq_scores(out, k)
            dd_in = [float(r[col["ad_dd"]]) for r in rows if r[col["group"]] == "heldout"]
            dd_out = [float(r[col["ad_dd"]]) for r in rows if r[col["group"]] == "test"]
            if np.median(dd_out) > threshold and np.median(dd_in) < threshold:
                separated += 1
        ad_ok = separated >= 3

        timing_ok = pipeline_runs["duration_a"] < 300.0
        verdict(5, f"pipeline shows cluster shift (ad separation {separated}/4, "
                   f"{pipeline_runs['duration_a']:.0f}s)",
                shift_ok and ad_ok and timing_ok)


class TestCriterion6RemovalCurves:
    def test_fixture_exact_and_oracle_improves(self, pipeline_runs, verdict):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1.1, 1.8, 3.2, 3.9])
        unc = np.array([4.0, 3.0, 2.0, 1.0])
        curve = removal_curve(unc, actual, predicted, step_fraction=0.25, min_remaining=2)
        fixture_ok = (
            [p.fraction_removed for p in curve.points] == [0.0, 0.25, 0.5]
            and [p.n_remaining for p in curve.points] == [4, 3, 2]
            and list(curve.removal_order[:3]) == [0, 1, 2]
            and curve.points[0].r2 == r_squared(actual, predicted)
            and curve.points[1].r2 == r_squared(actual[1:], predicted[1:])
            and curve.points[2].r2 == r_squared(actual[2:], predicted[2:])
        )

        out = pipeline_runs["out_a"]
        split_id = sorted(
            int(p.stem.split("_")[1]) for p in (out / "split").glob("split_*.csv")
        )[0]
        col, rows = _read_uq_scores(out, split_id)
        test_rows = [r for r in rows if r[col["group"]] == "test"]
        a = np.array([float(r[col["actual"]]) for r in test_rows])
        p = np.array([float(r[col["predicted"]]) for r in test_rows])
        oracle = np.abs(a - p)
        curve2 = removal_curve(oracle, a, p, step_fraction=0.05, min_remaining=10)
        r2_before, r2_after = curve2.points[0].r2, curve2.points[1].r2
        oracle_ok = r2_after >= r2_before
        verdict(6, "removal fixture exact and oracle ranking improves R^2 "
                   f"after the first removal step ({r2_before:.4f} -> {r2_after:.4f})",
                fixture_ok and oracle_ok)


class TestCriterion7Tsne:
    def test_two_blob_embedding(self, verdict):
        from uqshift.embedding import tsne

        rng = keyed_rng(1007)
        blob_a = rng.normal(size=(10, 4))
        blob_b = rng.normal(size=(10, 4)) + 12.0
        X = np.vstack([blob_a, blob_b])
        emb = tsne(X, perplexity=5, iterations=300, seed=3)
        trace = emb.objective_trace
        kl_ok = trace[-1] < trace[0]

        Y = emb.coordinates
        d = np.sqrt(((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
        same = np.zeros((20, 20), bool)
        same[:10, :10] = True
        same[10:, 10:] = True
        np.fill_diagonal(same, False)
        intra = d[same].mean()
        inter = d[~same & ~np.eye(20, dtype=bool)].mean()
        ratio_ok = inter / intra > 2.0

        emb2 = tsne(X, perplexity=5, iterations=300, seed=3)
        deterministic = (
            np.array_equal(emb.coordinates, emb2.coordinates)
            and np.array_equal(emb.objective_trace, emb2.objective_trace)
        )
        verdict(7, f"two-blob embedding separates (ratio {inter / intra:.1f}), "
                   "objective falls, rerun identical",
                kl_ok and ratio_ok and deterministic)


class TestCriterion8ByteIdentical:
    def test_two_runs_identical_trees(self, pipeline_runs, verdict):
        out_a = pipeline_runs["out_a"]
        out_b = pipeline_runs["out_b"]
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        same_names = files_a == files_b
        same_bytes = same_names and all(
            (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
            for rel in files_a
        )
        verdict(8, f"independent reruns produce byte-identical trees "
                   f"({len(files_a)} files)", same_names and same_bytes)


class TestCriterion9RSquaredContract:
    def test_exactness_and_negative_range(self, pipeline_runs, verdict):
        y = np.array([0.5, -1.25, 3.0, 2.5, -0.75])
        perfect_ok = r_squared(y, y.copy()) == 1.0
        mean_pred = np.full(y.size, y.mean())
        mean_ok = abs(r_squared(y, mean_pred)) <= 1e-12

        out = pipeline_runs["out_a"]
        split_ids = sorted(
            int(p.stem.split("_")[1]) for p in (out / "split").glob("split_*.csv")
        )
        saw_negative = False
        for k in split_ids:
            header, rows = read_csv(out / "eval" / f"split_{k}" / "r2_matrix.csv")
            for row in rows:
                for cell in row[1:]:
                    if cell != "" and float(cell) < 0.0:
                        saw_negative = True
        verdict(9, "R^2 is exactly 1 for perfect fit, 0 for mean predictor, "
                   "and the cross-cluster matrix contains negatives",
                perfect_ok and mean_ok and saw_negative)
