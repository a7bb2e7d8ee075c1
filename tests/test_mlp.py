import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from uqshift.dataset import ScalerParams, fit_scaler
from uqshift.errors import DataError, NumericalError, TrainingDivergedError
from uqshift.evaluation import r_squared
from uqshift.mlp import (
    _SHUFFLE_DOMAIN,
    _TRAIN_MASK_DOMAIN,
    FitConfig,
    _Workspace,
    HyperparamGrid,
    MlpModel,
    forward,
    hyperparameter_search,
    inference_masks,
    init_params,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
    train_mlp,
)
from uqshift.rng import keyed_rng


def _identity_scaler(d):
    return ScalerParams(
        means=np.zeros(d), stddevs=np.ones(d), constant_mask=np.zeros(d, bool)
    )


def _random_net(seed, sizes):
    rng = keyed_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(size=(fan_in, fan_out)) * 0.5)
        biases.append(rng.normal(size=fan_out) * 0.1)
    return weights, biases


def _peak_bytes(fn, *args, **kwargs):
    """The tracemalloc peak of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForward:
    def test_hand_computed_value(self):
        # 2 -> 2 -> 1, all weights 1, relu; input [1, -3] gives hidden
        # pre-activations [-2, -2] -> relu 0 -> output bias only
        weights = [np.ones((2, 2)), np.ones((2, 1))]
        biases = [np.zeros(2), np.array([0.25])]
        out = forward(weights, biases, np.array([[1.0, -3.0]]), 0.0, None)
        assert out[0] == pytest.approx(0.25)

    def test_positive_path(self):
        weights = [np.ones((1, 2)), np.ones((2, 1))]
        biases = [np.zeros(2), np.zeros(1)]
        out = forward(weights, biases, np.array([[1.5]]), 0.0, None)
        assert out[0] == pytest.approx(3.0)

    def test_relu_gates_negative_preactivations(self):
        weights = [np.array([[1.0, -1.0]]), np.array([[1.0], [1.0]])]
        biases = [np.zeros(2), np.zeros(1)]
        out = forward(weights, biases, np.array([[2.0]]), 0.0, None)
        # second unit pre-activation is -2, gated to 0
        assert out[0] == pytest.approx(2.0)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = keyed_rng(99)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        weights, biases = _random_net(100, [3, 5, 4, 1])
        loss, grads_w, grads_b = loss_and_gradients(weights, biases, X, y, 0.0, None)

        # The same pass through buffers, bit for bit: a full batch of other
        # rows first, then the shorter one into the leading rows, so
        # nothing of the first call may reach the second.
        work = _Workspace.allocate(16, (5, 4))
        grads = [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]
        full = keyed_rng(98).normal(size=(16, 4))
        loss_and_gradients(weights, biases, full[:, :3], full[:, 3], 0.0, None, work, grads)
        buffered = loss_and_gradients(weights, biases, X, y, 0.0, None, work, grads)
        assert buffered[1] is grads[0] and buffered[2] is grads[1]
        assert buffered[0] == loss
        for got, want in zip(buffered[1] + buffered[2], grads_w + grads_b):
            assert np.array_equal(got, want)

        def loss_at(ws, bs):
            pred = forward(ws, bs, X, 0.0, None)
            return float(np.mean((y - pred) ** 2))

        step = 1e-6
        for li in range(len(weights)):
            w = weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                w_plus = [w.copy() for w in weights]
                w_minus = [w.copy() for w in weights]
                w_plus[li][idx] += step
                w_minus[li][idx] -= step
                fd = (loss_at(w_plus, biases) - loss_at(w_minus, biases)) / (2 * step)
                assert grads_w[li][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            b_plus = [b.copy() for b in biases]
            b_minus = [b.copy() for b in biases]
            b_plus[li][0] += step
            b_minus[li][0] -= step
            fd = (loss_at(weights, b_plus) - loss_at(weights, b_minus)) / (2 * step)
            assert grads_b[li][0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestInit:
    def test_fan_in_bounds_and_zero_biases(self):
        weights, biases = init_params(20, (64, 32), seed=4)
        assert [w.shape for w in weights] == [(20, 64), (64, 32), (32, 1)]
        for w in weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.all(np.abs(w) <= bound)
            # values actually spread over the interval
            assert w.std() > bound / 4
        for b in biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_deterministic(self):
        a, _ = init_params(5, (8,), seed=1)
        b, _ = init_params(5, (8,), seed=1)
        np.testing.assert_array_equal(a[0], b[0])


def _linear_problem(seed, n=200, d=4):
    rng = keyed_rng(seed)
    X = rng.normal(size=(n, d))
    coefs = rng.normal(size=d) * 2.0
    y = X @ coefs + 0.5
    return X, y


class TestTraining:
    def test_learns_linear_map(self):
        X, y = _linear_problem(7)
        result = train_mlp(
            X[:150], y[:150], X[150:], y[150:],
            hidden_sizes=(32,), dropout_rate=0.0,
            learning_rate=0.01, epochs=300, seed=0,
        )
        assert result.valid_r2[result.best_epoch] > 0.95

    def test_best_epoch_model_returned(self):
        X, y = _linear_problem(9, n=80)
        result = train_mlp(
            X[:60], y[:60], X[60:], y[60:],
            hidden_sizes=(16,), dropout_rate=0.0,
            learning_rate=0.02, epochs=50, seed=1,
        )
        from uqshift.evaluation import r_squared
        pred = predict(result.model, X[60:])
        best = result.valid_r2[result.best_epoch]
        assert r_squared(y[60:], pred) == pytest.approx(best, abs=1e-12)
        assert best == max(result.valid_r2)
        assert 0 <= result.best_epoch <= 50

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        X, y = _linear_problem(10, n=60)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_mlp(
                X[:40], y[:40], X[40:], y[40:],
                hidden_sizes=(8,), dropout_rate=0.0,
                learning_rate=1e160, epochs=50, seed=0,
            )
        # the first update overflows; epoch 1's validation R^2 is the first
        # non-finite value, since its only step loss saw the initial weights
        assert exc_info.value.epoch == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_final_epoch_raises(self):
        # with one full-batch epoch no step loss follows the overflowing
        # update, so only the end-of-epoch check can see it
        X, y = _linear_problem(10, n=60)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_mlp(
                X[:40], y[:40], X[40:], y[40:],
                hidden_sizes=(8,), dropout_rate=0.0,
                learning_rate=1e160, epochs=1, seed=0,
            )
        assert exc_info.value.epoch == 1
        grid = HyperparamGrid(layer_counts=(1,), widths=(8,),
                              learning_rates=(0.01, 1e160), dropout_rate=0.0)
        _, rows = hyperparameter_search(
            X[:40], y[:40], X[40:], y[40:], grid, epochs=1, seed=0, jobs=1
        )
        assert [r.diverged for r in rows] == [False, True]

    def test_deterministic(self):
        X, y = _linear_problem(11, n=60)
        kwargs = dict(hidden_sizes=(8,), dropout_rate=0.3,
                      learning_rate=0.01, epochs=20, seed=5)
        a = train_mlp(X[:40], y[:40], X[40:], y[40:], **kwargs)
        b = train_mlp(X[:40], y[:40], X[40:], y[40:], **kwargs)
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_minibatch_training_runs(self):
        X, y = _linear_problem(12, n=100)
        result = train_mlp(
            X[:80], y[:80], X[80:], y[80:],
            hidden_sizes=(16,), dropout_rate=0.0,
            learning_rate=0.01, epochs=100, seed=0, batch_size=16,
        )
        assert result.valid_r2[result.best_epoch] > 0.8

    def test_scaler_fit_on_train_only(self):
        X, y = _linear_problem(13, n=60)
        shifted = X.copy()
        shifted[40:] += 100.0  # validation rows land far away
        result = train_mlp(
            shifted[:40], y[:40], shifted[40:], y[40:],
            hidden_sizes=(8,), dropout_rate=0.0,
            learning_rate=0.01, epochs=5, seed=0,
        )
        np.testing.assert_allclose(result.model.scaler.means, shifted[:40].mean(axis=0))

    def test_peak_memory_holds_no_float64_parameter_copy(self):
        # Validation reads the float32 parameters: a float64 copy of the
        # 134,657 parameters of this network would add 1.08 MB.  Measured:
        # 6.18 MB without the copy, 7.26 MB with it.
        X, y = _linear_problem(19, n=150, d=10)
        args = (X[:100], y[:100], X[100:], y[100:], (256, 256, 256), 0.3, 0.01)
        train_mlp(*args, 1, 0)  # first-call set-up is not the fit's
        assert _peak_bytes(train_mlp, *args, 2, 0) < 6.6e6


def _allocating_forward(weights, biases, X, dropout_rate=0.0, masks=None):
    h = X
    keep = X.dtype.type(1.0 - dropout_rate)
    for i in range(len(weights) - 1):
        h = np.maximum(h @ weights[i] + biases[i], 0.0)
        if masks is not None:
            h = h * masks[i] / keep
    return (h @ weights[-1] + biases[-1]).ravel()


def _allocating_loss_and_gradients(weights, biases, X, y, dropout_rate=0.0, masks=None):
    """loss_and_gradients as written before its reused buffers, in X's dtype."""
    n = X.shape[0]
    keep = X.dtype.type(1.0 - dropout_rate)
    acts = [X]
    pres = []
    h = X
    for i in range(len(weights) - 1):
        z = h @ weights[i] + biases[i]
        pres.append(z)
        h = np.maximum(z, 0.0)
        if masks is not None:
            h = h * masks[i] / keep
        acts.append(h)
    pred = (h @ weights[-1] + biases[-1]).ravel()
    resid = pred - y
    loss = float(np.mean(resid * resid))

    d_pred = X.dtype.type(2.0 / n) * resid
    g_w = [None] * len(weights)
    g_b = [None] * len(biases)
    g_w[-1] = acts[-1].T @ d_pred[:, None]
    g_b[-1] = np.array([d_pred.sum()])
    dh = d_pred[:, None] @ weights[-1].T
    for i in range(len(weights) - 2, -1, -1):
        if masks is not None:
            dh = dh * masks[i] / keep
        dz = dh * (pres[i] > 0.0)
        g_w[i] = acts[i].T @ dz
        g_b[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ weights[i].T
    return loss, g_w, g_b


def _allocating_train(X, y, Xv, yv, hidden, rate, lr, epochs, seed, batch_size=None,
                      dtype=np.float32):
    """train_mlp as written before its reused buffers, trained in ``dtype``:
    one array per parameter, fresh activations, gradients, masks and Adam
    temporaries every step, every scalar of the step in ``dtype``, and
    each epoch validated in float64 on float64 copies of the parameters.
    Returns the best weights and biases as float64, the R^2 trace and the
    best epoch."""
    f = np.dtype(dtype).type
    scaler = fit_scaler(X)
    Xs, Xvs = scaler.transform(X).astype(dtype), scaler.transform(Xv)
    ys = y.astype(dtype)
    weights, biases = init_params(X.shape[1], hidden, seed)
    weights, biases = [w.astype(dtype) for w in weights], [b.astype(dtype) for b in biases]
    params = weights + biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]

    def score():
        return r_squared(yv, _allocating_forward([w.astype(float) for w in weights],
                                                 [b.astype(float) for b in biases], Xvs))

    scores = [score()]
    best = (0, [w.copy() for w in weights], [b.copy() for b in biases])
    n = X.shape[0]
    batch = n if not batch_size else min(batch_size, n)
    t = 0
    for epoch in range(1, epochs + 1):
        perm = keyed_rng(seed, _SHUFFLE_DOMAIN, epoch).permutation(n) if batch < n else None
        batches = [np.arange(n)] if perm is None else [perm[s:s + batch]
                                                       for s in range(0, n, batch)]
        for rows in batches:
            masks = None
            if rate > 0.0:
                masks = [(keyed_rng(seed, _TRAIN_MASK_DOMAIN, t, layer)
                          .random((len(rows), width)) >= rate).astype(dtype)
                         for layer, width in enumerate(hidden)]
            _, g_w, g_b = _allocating_loss_and_gradients(weights, biases, Xs[rows], ys[rows],
                                                         rate, masks)
            t += 1
            for p, g, m, v in zip(params, g_w + g_b, adam_m, adam_v):
                m *= f(0.9)
                m += f(1 - 0.9) * g
                v *= f(0.999)
                v += f(1 - 0.999) * (g * g)
                m_hat = m / f(1 - 0.9 ** t)
                v_hat = v / f(1 - 0.999 ** t)
                p -= f(lr) * m_hat / (np.sqrt(v_hat) + f(1e-8))
        scores.append(score())
        if scores[-1] > scores[best[0]]:
            best = (epoch, [w.copy() for w in weights], [b.copy() for b in biases])
    return ([w.astype(float) for w in best[1]], [b.astype(float) for b in best[2]],
            np.array(scores), best[0])


# The loop train_mlp ran before it trained in float32.
_float64_train = functools.partial(_allocating_train, dtype=np.float64)


class TestReusedBuffersBitIdentity:
    """The flat-vector Adam step and the reused buffers give the bits of the
    allocating loop in the same precision exactly; float32 training stays
    close to the float64 loop."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("batch_size", [None, 16])  # 16: 50 rows end in a batch of 2
    def test_train_matches_allocating_reference(self, rate, batch_size):
        X, y = _linear_problem(14, n=70)
        for hidden in [(12,), (12, 7), (12, 7, 5)]:
            args = (X[:50], y[:50], X[50:], y[50:], hidden, rate, 0.01, 12, 3)
            result = train_mlp(*args, batch_size=batch_size)
            weights, biases, scores, best_epoch = _allocating_train(
                *args, batch_size=batch_size)
            for got, want in zip(result.model.weights + result.model.biases,
                                 weights + biases):
                assert np.array_equal(got, want), hidden
            assert np.array_equal(result.valid_r2, scores), hidden
            assert result.best_epoch == best_epoch, hidden

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_float32_training_tracks_float64(self, rate, batch_size):
        # Bounds in float32 ulps at 1, set before measuring: 100 for each
        # weight array relative to its largest entry, 16 for each epoch's
        # validation R^2.  Measured worst over these 12 cases: 1.2e-6 and
        # 3.1e-7.
        eps32 = float(np.finfo(np.float32).eps)
        X, y = _linear_problem(14, n=70)
        for hidden in [(12,), (12, 7), (12, 7, 5)]:
            args = (X[:50], y[:50], X[50:], y[50:], hidden, rate, 0.01, 12, 3)
            result = train_mlp(*args, batch_size=batch_size)
            weights, biases, scores, best_epoch = _float64_train(*args, batch_size=batch_size)
            assert result.best_epoch == best_epoch, hidden
            for got, want in zip(result.model.weights + result.model.biases,
                                 weights + biases):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 100 * eps32 * scale, hidden
            assert np.max(np.abs(result.valid_r2 - scores)) <= 16 * eps32, hidden

    def test_returned_arrays_are_float64_of_float32_values(self):
        X, y = _linear_problem(14, n=70)
        result = train_mlp(X[:50], y[:50], X[50:], y[50:], (12, 7), 0.3, 0.01, 5, 3)
        for a in result.model.weights + result.model.biases:
            assert a.dtype == np.float64
            assert np.array_equal(a.astype(np.float32).astype(np.float64), a)

    @pytest.mark.parametrize("hidden", [(5,), (5, 4), (5, 4, 3)])
    def test_forward_into_buffers(self, hidden):
        weights, biases = _random_net(15, [3, *hidden, 1])
        X = keyed_rng(16).normal(size=(9, 3))
        masks = [(keyed_rng(17, i).random(w) >= 0.3).astype(float) for i, w in enumerate(hidden)]
        out = np.empty(9)
        got = forward(weights, biases, X, 0.3, masks, [np.empty((9, w)) for w in hidden], out)
        assert got is out
        assert np.array_equal(got, _allocating_forward(weights, biases, X, 0.3, masks))
        assert np.array_equal(forward(weights, biases, X), _allocating_forward(weights, biases, X))


def _dropout_pass(model, X, seed, t):
    """Pass t of MC dropout on raw features: masks keyed (seed, t, layer)."""
    return forward(model.weights, model.biases, model.scaler.transform(X), model.dropout_rate,
                   inference_masks(model, seed, t))


class TestPredictMasks:
    def _model(self):
        weights = [np.ones((1, 2)), np.ones((2, 1))]
        biases = [np.zeros(2), np.zeros(1)]
        return MlpModel(
            weights=weights, biases=biases, hidden_sizes=(2,), dropout_rate=0.5,
            fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
            scaler=_identity_scaler(1),
        )

    def test_same_pass_same_mask(self):
        model = self._model()
        X = np.array([[1.0]])
        a = _dropout_pass(model, X, 3, 7)
        b = _dropout_pass(model, X, 3, 7)
        np.testing.assert_array_equal(a, b)

    def test_mask_shared_across_rows_of_a_pass(self):
        model = self._model()
        X = np.array([[1.0], [1.0], [1.0]])
        out = _dropout_pass(model, X, 3, 2)
        assert len(set(np.round(out, 12))) == 1

    def test_values_come_from_mask_enumeration(self):
        # with two units, weight 1 and inverted scaling by 1/(1-0.5),
        # each kept unit contributes 2: possible outputs are 0, 2, 4
        model = self._model()
        X = np.array([[1.0]])
        seen = {
            float(_dropout_pass(model, X, 11, t)[0])
            for t in range(200)
        }
        assert seen <= {0.0, 2.0, 4.0}
        assert len(seen) == 3

    def test_inactive_dropout_is_plain_forward(self):
        model = self._model()
        X = np.array([[1.0]])
        assert predict(model, X)[0] == pytest.approx(2.0)


class TestHyperparamGrid:
    def test_enumeration_order(self):
        grid = HyperparamGrid(layer_counts=(1, 2), widths=(8, 16),
                              learning_rates=(0.1,), dropout_rate=0.0)
        points = grid.points()
        assert [p[0] for p in points] == [0, 1, 2, 3]
        assert points[0][1] == (8,)
        assert points[1][1] == (16,)
        assert points[2][1] == (8, 8)
        assert points[3][1] == (16, 16)

    def test_search_picks_best_validation(self):
        X, y = _linear_problem(14, n=120)
        grid = HyperparamGrid(layer_counts=(1,), widths=(4, 32),
                              learning_rates=(0.01,), dropout_rate=0.0)
        model, rows = hyperparameter_search(
            X[:90], y[:90], X[90:], y[90:], grid, epochs=150, seed=0, jobs=1
        )
        assert len(rows) == 2
        best = max((r for r in rows if not r.diverged), key=lambda r: r.valid_r2)
        assert model.hidden_sizes == best.hidden_sizes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_candidates_recorded_and_skipped(self):
        X, y = _linear_problem(15, n=80)
        grid = HyperparamGrid(layer_counts=(1,), widths=(8,),
                              learning_rates=(1e160, 0.01), dropout_rate=0.0)
        model, rows = hyperparameter_search(
            X[:60], y[:60], X[60:], y[60:], grid, epochs=60, seed=0, jobs=1
        )
        diverged = [r for r in rows if r.diverged]
        assert len(diverged) == 1
        assert diverged[0].valid_r2 is None
        assert model.fit.learning_rate == 0.01

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_diverged_raises(self):
        X, y = _linear_problem(16, n=60)
        grid = HyperparamGrid(layer_counts=(1,), widths=(8,),
                              learning_rates=(1e160,), dropout_rate=0.0)
        with pytest.raises(NumericalError):
            hyperparameter_search(
                X[:40], y[:40], X[40:], y[40:], grid, epochs=30, seed=0, jobs=1
            )

    def test_parallel_matches_serial(self):
        X, y = _linear_problem(17, n=100)
        grid = HyperparamGrid(layer_counts=(1,), widths=(4, 8),
                              learning_rates=(0.01, 0.001), dropout_rate=0.0)
        m1, rows1 = hyperparameter_search(
            X[:80], y[:80], X[80:], y[80:], grid, epochs=40, seed=3, jobs=1
        )
        m2, rows2 = hyperparameter_search(
            X[:80], y[:80], X[80:], y[80:], grid, epochs=40, seed=3, jobs=3
        )
        assert [r.valid_r2 for r in rows1] == [r.valid_r2 for r in rows2]
        for wa, wb in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(wa, wb)


    def test_search_holds_one_model_beside_the_fit(self):
        # A search keeps its rows and the best model so far, so two more
        # candidates add at most one float64 model to its peak (the best,
        # held while the next one trains), not one model each.
        X, y = _linear_problem(21, n=120, d=10)

        def search(learning_rates):
            grid = HyperparamGrid(layer_counts=(2,), widths=(128,),
                                  learning_rates=learning_rates, dropout_rate=0.3)
            found = []
            peak = _peak_bytes(lambda: found.append(hyperparameter_search(
                X[:100], y[:100], X[100:], y[100:], grid, epochs=3, seed=0)))
            return peak, found[0][0]

        one, model = search((0.01,))
        three, _ = search((0.01, 0.001, 0.0001))
        model_bytes = sum(a.nbytes for a in model.weights + model.biases)
        assert three <= one + model_bytes + 16_000


class TestModelSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        X, y = _linear_problem(18, n=60)
        result = train_mlp(
            X[:40], y[:40], X[40:], y[40:],
            hidden_sizes=(8, 4), dropout_rate=0.3,
            learning_rate=0.01, epochs=10, seed=2,
        )
        path = tmp_path / "model.json"
        save_model(result.model, path)
        back = load_model(path)
        for wa, wb in zip(result.model.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(result.model.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)
        assert back.hidden_sizes == result.model.hidden_sizes
        assert back.dropout_rate == result.model.dropout_rate
        np.testing.assert_array_equal(back.scaler.means, result.model.scaler.means)
        # predictions identical after reload
        np.testing.assert_array_equal(predict(back, X), predict(result.model, X))

    def test_format_marker(self, tmp_path):
        X, y = _linear_problem(19, n=60)
        result = train_mlp(
            X[:40], y[:40], X[40:], y[40:],
            hidden_sizes=(4,), dropout_rate=0.0,
            learning_rate=0.01, epochs=2, seed=0,
        )
        path = tmp_path / "model.json"
        save_model(result.model, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert "weights" in payload and "scaler" in payload

    def test_one_shot_write_matches_streamed_encoder(self, tmp_path):
        X, y = _linear_problem(20, n=60)
        result = train_mlp(
            X[:40], y[:40], X[40:], y[40:],
            hidden_sizes=(6, 3), dropout_rate=0.3,
            learning_rate=0.01, epochs=3, seed=1,
        )
        path = tmp_path / "model.json"
        save_model(result.model, path)
        payload = json.loads(path.read_text())
        streamed = io.StringIO()
        json.dump(payload, streamed)  # the pure-Python encoder
        assert path.read_text() == streamed.getvalue() + "\n"

    @pytest.mark.parametrize("hidden", [(1,), (6, 1), (5, 1, 3)])
    def test_round_trip_keeps_every_bit(self, tmp_path, hidden):
        weights, biases = _random_net(22, [4, *hidden, 1])
        weights[0][0, 0] = 5e-324  # the smallest subnormal
        weights[-1][0, 0] = -1.7976931348623157e308
        biases[0][0] = 1 / 3
        rng = keyed_rng(23)
        model = MlpModel(
            weights=weights, biases=biases, hidden_sizes=hidden, dropout_rate=0.3,
            fit=FitConfig(learning_rate=1e-3, epochs=7, seed=11, batch_size=16),
            scaler=ScalerParams(means=rng.normal(size=4), stddevs=rng.random(4) + 0.5,
                                constant_mask=np.array([False, True, False, False])),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        arrays = lambda m: [*m.weights, *m.biases, m.scaler.means, m.scaler.stddevs,
                            m.scaler.constant_mask]
        for got, want in zip(arrays(back), arrays(model), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert (back.hidden_sizes, back.dropout_rate, back.fit) == (
            model.hidden_sizes, model.dropout_rate, model.fit)

    def test_save_holds_one_row_at_a_time(self, tmp_path):
        weights, biases = init_params(10, (256, 256, 256), 0)
        model = MlpModel(weights=weights, biases=biases, hidden_sizes=(256, 256, 256),
                         dropout_rate=0.3, fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
                         scaler=_identity_scaler(10))
        save_model(model, tmp_path / "first.json")  # first-call set-up is not the save's
        # the whole checkpoint as Python floats and text is about 10 MB
        assert _peak_bytes(save_model, model, tmp_path / "model.json") < 0.5e6


def _tamper(key, edit):
    def apply(payload):
        edit(payload[key] if key else payload)
    return apply


# tampering with a saved (3, 8, 4, 1) network that keeps the file valid JSON
CHECKPOINT_TAMPERINGS = {
    "weight-column-dropped": _tamper("weights", lambda w: [row.pop() for row in w[0]]),
    "weight-row-dropped": _tamper("weights", lambda w: w[1].pop()),
    "bias-entry-added": _tamper("biases", lambda b: b[0].append(0.0)),
    "output-bias-dropped": _tamper("biases", lambda b: b[-1].pop()),
    "layer-dropped": _tamper(None, lambda p: (p["weights"].pop(), p["biases"].pop())),
    "hidden-sizes-disagree": _tamper(None, lambda p: p.__setitem__("hidden_sizes", [8, 5])),
    "hidden-size-zero": _tamper(None, lambda p: p.__setitem__("hidden_sizes", [8, 0])),
    "hidden-size-fractional": _tamper(None, lambda p: p.__setitem__("hidden_sizes", [8.5, 4])),
    "hidden-size-text": _tamper(None, lambda p: p.__setitem__("hidden_sizes", ["8", 4])),
    "four-hidden-layers": _tamper(None, lambda p: p.__setitem__("hidden_sizes", [8, 4, 4, 4])),
    "dropout-rate-one": _tamper(None, lambda p: p.__setitem__("dropout_rate", 1.0)),
    "means-short": _tamper("scaler", lambda s: s["means"].pop()),
    "stddevs-long": _tamper("scaler", lambda s: s["stddevs"].append(1.0)),
    "scaler-one-column-short": _tamper(
        "scaler", lambda s: [s[name].pop() for name in ("means", "stddevs", "constant_mask")]),
    "constant-mask-scalar": _tamper("scaler", lambda s: s.__setitem__("constant_mask", False)),
    "weight-nan": _tamper("weights", lambda w: w[0][0].__setitem__(0, math.nan)),
    "bias-infinite": _tamper("biases", lambda b: b[1].__setitem__(0, math.inf)),
    "mean-nan": _tamper("scaler", lambda s: s["means"].__setitem__(0, math.nan)),
    "stddev-nan": _tamper("scaler", lambda s: s["stddevs"].__setitem__(0, math.nan)),
    "stddev-infinite": _tamper("scaler", lambda s: s["stddevs"].__setitem__(0, math.inf)),
}


class TestCheckpointChecks:
    @pytest.mark.parametrize("case", sorted(CHECKPOINT_TAMPERINGS))
    def test_inconsistent_checkpoint_is_a_data_error(self, tmp_path, case):
        weights, biases = _random_net(24, [3, 8, 4, 1])
        model = MlpModel(weights=weights, biases=biases, hidden_sizes=(8, 4), dropout_rate=0.3,
                         fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
                         scaler=_identity_scaler(3))
        path = tmp_path / "model.json"
        save_model(model, path)
        load_model(path)
        payload = json.loads(path.read_text())
        CHECKPOINT_TAMPERINGS[case](payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"{path}: malformed model checkpoint"):
            load_model(path)
