import numpy as np
import pytest

from uqshift.dataset import ScalerParams
from uqshift.errors import ConfigError, DataError
from uqshift.mlp import FitConfig, MlpModel, predict
from uqshift.rng import keyed_rng
from uqshift.uq_dropout import McDropoutConfig, mc_dropout


def _two_unit_model(dropout_rate):
    """1 input -> 2 hidden units (weight 1, bias 0) -> summed output.

    With rate 0.5 and inverted scaling each kept unit contributes 2, so
    the output distribution over masks is {0, 2, 2, 4}: mean 2 and
    population std sqrt(2).
    """
    return MlpModel(
        weights=[np.ones((1, 2)), np.ones((2, 1))],
        biases=[np.zeros(2), np.zeros(1)],
        hidden_sizes=(2,),
        dropout_rate=dropout_rate,
        fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
        scaler=ScalerParams(means=np.zeros(1), stddevs=np.ones(1),
                            constant_mask=np.zeros(1, bool)),
    )


class TestMcDropout:
    def test_samples_live_on_mask_enumeration(self):
        model = _two_unit_model(0.5)
        mean, std = mc_dropout(model, np.array([[1.0]]), McDropoutConfig(passes=500, seed=0))
        # every possible mask outcome is one of {0, 2, 4}
        assert 0.0 <= mean[0] <= 4.0
        assert std[0] >= 0.0

    def test_sampling_statistics_within_three_se(self):
        model = _two_unit_model(0.5)
        T = 10000
        mean, std = mc_dropout(model, np.array([[1.0]]), McDropoutConfig(passes=T, seed=1))
        se_mean = np.sqrt(2.0) / np.sqrt(T)
        assert abs(mean[0] - 2.0) < 3 * se_mean
        se_std = np.sqrt(2.0) / np.sqrt(2 * T)
        assert abs(std[0] - np.sqrt(2.0)) < 3 * se_std

    def test_zero_rate_uncertainty_is_exactly_zero(self):
        model = _two_unit_model(0.0)
        mean, std = mc_dropout(model, np.array([[1.0]]), McDropoutConfig(passes=64, seed=0))
        assert std[0] == 0.0
        assert mean[0] == pytest.approx(2.0)

    def test_single_pass_zero_uncertainty(self):
        model = _two_unit_model(0.5)
        _, std = mc_dropout(model, np.array([[1.0]]), McDropoutConfig(passes=1, seed=4))
        assert std[0] == 0.0

    def test_deterministic(self):
        model = _two_unit_model(0.5)
        X = np.array([[1.0], [2.0]])
        cfg = McDropoutConfig(passes=40, seed=9)
        a = mc_dropout(model, X, cfg)
        b = mc_dropout(model, X, cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_draws(self):
        model = _two_unit_model(0.5)
        X = np.array([[1.0]])
        a = mc_dropout(model, X, McDropoutConfig(passes=11, seed=1))
        b = mc_dropout(model, X, McDropoutConfig(passes=11, seed=2))
        assert (a[0][0], a[1][0]) != (b[0][0], b[1][0])

    def test_uncertainty_shrinks_like_inverse_sqrt_t(self):
        # std of the SAMPLE MEAN over repeated estimates shrinks ~1/sqrt(T);
        # the reported per-estimate std stays near sqrt(2) for all T
        model = _two_unit_model(0.5)
        X = np.array([[1.0]])
        for T in (100, 400, 1600):
            means = [
                mc_dropout(model, X, McDropoutConfig(passes=T, seed=s))[0][0]
                for s in range(30)
            ]
            spread = np.std(means)
            expected = np.sqrt(2.0) / np.sqrt(T)
            assert spread < 3.5 * expected
            assert spread > expected / 3.5

    def test_one_estimate_per_row(self):
        model = _two_unit_model(0.5)
        X = np.array([[1.0], [2.0], [3.0]])
        mean, std = mc_dropout(model, X, McDropoutConfig(passes=8, seed=0))
        assert mean.shape == std.shape == (3,)

    def test_rejects_empty_input(self):
        model = _two_unit_model(0.5)
        with pytest.raises(DataError):
            mc_dropout(model, np.zeros((0, 1)), McDropoutConfig(passes=4, seed=0))

    def test_nan_spread_rejected(self):
        model = _two_unit_model(0.5)
        model.weights[1][0, 0] = np.nan
        with pytest.raises(DataError):
            mc_dropout(model, np.array([[1.0]]), McDropoutConfig(passes=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McDropoutConfig(passes=0, seed=0)


def _random_model(hidden_sizes, dropout_rate=0.3, dim=3):
    rng = keyed_rng(77, len(hidden_sizes))
    sizes = [dim, *hidden_sizes, 1]
    return MlpModel(
        weights=[rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
        biases=[rng.normal(size=b) * 0.1 for b in sizes[1:]],
        hidden_sizes=tuple(hidden_sizes),
        dropout_rate=dropout_rate,
        fit=FitConfig(learning_rate=0.01, epochs=1, seed=0),
        scaler=ScalerParams(means=rng.normal(size=dim), stddevs=rng.uniform(0.5, 2.0, dim),
                            constant_mask=np.arange(dim) == dim - 1),
    )


def _allocating_pass(model, X, seed, t):
    """One dropout pass as computed before the reused buffers."""
    h = model.scaler.transform(X)
    keep = 1.0 - model.dropout_rate
    for layer, width in enumerate(model.hidden_sizes):
        mask = (keyed_rng(seed, t, layer).random(width) >= model.dropout_rate).astype(float)
        h = np.maximum(h @ model.weights[layer] + model.biases[layer], 0.0)
        h = h * mask / keep
    return (h @ model.weights[-1] + model.biases[-1]).ravel()


class TestBufferedPassesBitIdentity:
    @pytest.mark.parametrize("hidden_sizes", [(9,), (9, 5), (9, 5, 7)])
    def test_matches_stacked_single_passes(self, hidden_sizes):
        model = _random_model(hidden_sizes)
        X = keyed_rng(78).normal(size=(11, 3))
        passes, seed = 25, 6
        mean, std = mc_dropout(model, X, McDropoutConfig(passes=passes, seed=seed))
        for one_pass in (
            lambda t: predict(model, X, dropout_active=True, seed=seed, pass_index=t),
            lambda t: _allocating_pass(model, X, seed, t),
        ):
            samples = np.stack([one_pass(t) for t in range(passes)])
            assert np.array_equal(mean, samples.mean(axis=0))
            assert np.array_equal(std, samples.std(axis=0))

    def test_wrong_column_count_rejected(self):
        model = _random_model((4,))
        with pytest.raises(DataError, match="3 columns"):
            mc_dropout(model, np.zeros((2, 2)), McDropoutConfig(passes=3, seed=0))
