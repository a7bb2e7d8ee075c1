"""Feedforward ReLU regressors trained with Adam.

Networks are one to three ReLU hidden layers with a linear scalar
output, trained on standardized features against the mean squared
error.  Hidden activations use inverted dropout (kept units scaled by
1/(1-p)) so inference needs no rescaling.  Dropout masks come from
counter-based streams keyed by (seed, pass, layer); a per-point result
therefore never depends on which other rows share the batch.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ScalerParams, fit_scaler
from .errors import ConfigError, DataError, NumericalError, TrainingDivergedError
from .evaluation import r_squared
from .rng import derive_seed, keyed_rng

_INIT_DOMAIN = 0
_TRAIN_MASK_DOMAIN = 1
_SHUFFLE_DOMAIN = 2


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float
    epochs: int
    seed: int
    batch_size: int | None = None

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 when given")


@dataclass
class MlpModel:
    """Trained network; treat as immutable once constructed."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_sizes: tuple[int, ...]
    dropout_rate: float
    fit: FitConfig
    scaler: ScalerParams

    @property
    def dim_in(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    train_loss: np.ndarray  # clean MSE per epoch, entry 0 = initialization
    valid_r2: np.ndarray
    best_epoch: int


@dataclass(frozen=True)
class HyperparamGrid:
    """Cartesian grid over depth, width, and learning rate.

    Enumeration order is layer_counts outermost, then widths, then
    learning rates; ties on validation score resolve to the earliest
    grid index.
    """

    layer_counts: tuple[int, ...] = (1, 2, 3)
    widths: tuple[int, ...] = (16, 64, 256)
    learning_rates: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    dropout_rate: float = 0.3

    def __post_init__(self):
        if not self.layer_counts or not self.widths or not self.learning_rates:
            raise ConfigError("hyperparameter grid axes must be non-empty")
        if any(c not in (1, 2, 3) for c in self.layer_counts):
            raise ConfigError("layer counts must be 1, 2, or 3")
        if any(w < 1 for w in self.widths):
            raise ConfigError("widths must be positive")
        if any(lr < 0 for lr in self.learning_rates):
            raise ConfigError("learning rates must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")

    def points(self) -> list[tuple[int, tuple[int, ...], float]]:
        out = []
        index = 0
        for depth in self.layer_counts:
            for width in self.widths:
                for lr in self.learning_rates:
                    out.append((index, (width,) * depth, lr))
                    index += 1
        return out


@dataclass(frozen=True)
class SearchRow:
    grid_index: int
    hidden_sizes: tuple[int, ...]
    learning_rate: float
    train_r2: float | None
    valid_r2: float | None
    diverged: bool


def _validate_arch(dim_in: int, hidden_sizes, dropout_rate: float) -> tuple[int, ...]:
    hidden = tuple(int(h) for h in hidden_sizes)
    if not 1 <= len(hidden) <= 3:
        raise ConfigError(f"hidden layer count must be 1..3, got {len(hidden)}")
    if any(h < 1 for h in hidden):
        raise ConfigError("hidden sizes must be positive")
    if dim_in < 1:
        raise ConfigError("input dimension must be positive")
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {dropout_rate}")
    return hidden


def init_params(dim_in: int, hidden_sizes, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform fan-in scaled weights, zero biases."""
    rng = keyed_rng(seed, _INIT_DOMAIN)
    sizes = [dim_in, *hidden_sizes, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _inference_mask(seed: int, pass_index: int, layer: int, width: int, rate: float) -> np.ndarray:
    rng = keyed_rng(seed, pass_index, layer)
    return (rng.random(width) >= rate).astype(float)


def _training_masks(seed: int, step: int, sizes, n_rows: int, rate: float) -> list[np.ndarray]:
    masks = []
    for layer, width in enumerate(sizes):
        rng = keyed_rng(seed, _TRAIN_MASK_DOMAIN, step, layer)
        masks.append((rng.random((n_rows, width)) >= rate).astype(float))
    return masks


def forward(weights, biases, X: np.ndarray, dropout_rate: float = 0.0, masks=None) -> np.ndarray:
    """Network output for standardized inputs; masks apply to hidden layers."""
    h = X
    keep = 1.0 - dropout_rate
    for i in range(len(weights) - 1):
        h = np.maximum(h @ weights[i] + biases[i], 0.0)
        if masks is not None:
            h = h * masks[i] / keep
    return (h @ weights[-1] + biases[-1]).ravel()


def loss_and_gradients(weights, biases, X: np.ndarray, y: np.ndarray,
                       dropout_rate: float = 0.0, masks=None):
    """MSE loss and its gradients for every weight and bias."""
    n = X.shape[0]
    keep = 1.0 - dropout_rate
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

    d_pred = (2.0 / n) * resid
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


def predict(model: MlpModel, features: np.ndarray, dropout_active: bool = False,
            seed: int | None = None, pass_index: int = 0) -> np.ndarray:
    """Predictions on raw features; the stored scaler is applied internally.

    With ``dropout_active`` one stochastic pass is run using masks keyed
    by (seed, pass_index, layer); the same key always gives the same
    pass, independent of how rows are batched.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim_in:
        raise DataError(f"expected features with {model.dim_in} columns, got shape {X.shape}")
    Xs = model.scaler.transform(X)
    if not dropout_active or model.dropout_rate == 0.0:
        return forward(model.weights, model.biases, Xs)
    if seed is None:
        raise ConfigError("dropout_active predictions require a seed")
    masks = [
        _inference_mask(seed, pass_index, layer, width, model.dropout_rate)
        for layer, width in enumerate(model.hidden_sizes)
    ]
    return forward(model.weights, model.biases, Xs, model.dropout_rate, masks)


def train_mlp(
    train_features: np.ndarray,
    train_target: np.ndarray,
    valid_features: np.ndarray,
    valid_target: np.ndarray,
    hidden_sizes,
    dropout_rate: float,
    learning_rate: float,
    epochs: int,
    seed: int,
    batch_size: int | None = None,
) -> TrainResult:
    """Train one network and keep the epoch with the best validation R^2.

    Epoch 0 (the untouched initialization) competes too, so epochs=0
    returns the initialized network.  A non-finite loss raises
    TrainingDivergedError carrying the epoch index.
    """
    X = np.asarray(train_features, dtype=float)
    y = np.asarray(train_target, dtype=float)
    Xv = np.asarray(valid_features, dtype=float)
    yv = np.asarray(valid_target, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("training set must be 2-D with at least two rows")
    if Xv.ndim != 2 or Xv.shape[0] < 2:
        raise DataError("validation set must be 2-D with at least two rows")
    if np.all(yv == yv[0]):
        raise DataError("validation target is constant; validation R^2 is undefined")
    hidden = _validate_arch(X.shape[1], hidden_sizes, dropout_rate)
    fit = FitConfig(learning_rate=learning_rate, epochs=epochs, seed=seed,
                    batch_size=batch_size if batch_size else None)

    scaler = fit_scaler(X)
    Xs = scaler.transform(X)
    Xvs = scaler.transform(Xv)

    weights, biases = init_params(X.shape[1], hidden, seed)
    adam_m = [np.zeros_like(w) for w in weights] + [np.zeros_like(b) for b in biases]
    adam_v = [np.zeros_like(w) for w in weights] + [np.zeros_like(b) for b in biases]
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    adam_t = 0

    def clean_loss() -> float:
        diff = forward(weights, biases, Xs) - y
        return float(np.mean(diff * diff))

    def valid_score() -> float:
        return r_squared(yv, forward(weights, biases, Xvs))

    train_loss = [clean_loss()]
    valid_r2 = [valid_score()]
    best_epoch = 0
    best_r2 = valid_r2[0]
    best_weights = [w.copy() for w in weights]
    best_biases = [b.copy() for b in biases]

    n = X.shape[0]
    effective_batch = n if not batch_size else min(batch_size, n)
    step = 0
    for epoch in range(1, epochs + 1):
        if effective_batch >= n:
            batches = [np.arange(n)]
        else:
            perm = keyed_rng(seed, _SHUFFLE_DOMAIN, epoch).permutation(n)
            batches = [perm[s:s + effective_batch] for s in range(0, n, effective_batch)]
        for rows in batches:
            masks = (
                _training_masks(seed, step, hidden, len(rows), dropout_rate)
                if dropout_rate > 0.0
                else None
            )
            loss, g_w, g_b = loss_and_gradients(
                weights, biases, Xs[rows], y[rows], dropout_rate, masks
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            grads = g_w + g_b
            params = weights + biases
            adam_t += 1
            for p, g, m, v in zip(params, grads, adam_m, adam_v):
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * (g * g)
                m_hat = m / (1 - beta1 ** adam_t)
                v_hat = v / (1 - beta2 ** adam_t)
                p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps_adam)
            step += 1
        epoch_loss = clean_loss()
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        train_loss.append(epoch_loss)
        score = valid_score()
        valid_r2.append(score)
        if score > best_r2:
            best_r2 = score
            best_epoch = epoch
            best_weights = [w.copy() for w in weights]
            best_biases = [b.copy() for b in biases]

    model = MlpModel(
        weights=best_weights,
        biases=best_biases,
        hidden_sizes=hidden,
        dropout_rate=float(dropout_rate),
        fit=fit,
        scaler=scaler,
    )
    return TrainResult(
        model=model,
        train_loss=np.array(train_loss),
        valid_r2=np.array(valid_r2),
        best_epoch=best_epoch,
    )


def hyperparameter_search(
    train_features: np.ndarray,
    train_target: np.ndarray,
    valid_features: np.ndarray,
    valid_target: np.ndarray,
    grid: HyperparamGrid,
    epochs: int,
    seed: int,
    jobs: int = 1,
) -> tuple[MlpModel, list[SearchRow]]:
    """Train every grid point and return the best model plus a report.

    Each candidate trains from an independent stream derived from
    (seed, grid_index), so results do not depend on evaluation order or
    on how many workers run.  Diverged candidates are recorded and
    excluded; if every candidate diverges, that is an error.
    """
    points = grid.points()

    def run(point):
        index, hidden, lr = point
        cand_seed = derive_seed(seed, index)
        try:
            result = train_mlp(
                train_features, train_target, valid_features, valid_target,
                hidden, grid.dropout_rate, lr, epochs, cand_seed,
            )
        except TrainingDivergedError:
            return index, None, SearchRow(index, hidden, lr, None, None, True)
        train_pred = predict(result.model, np.asarray(train_features, dtype=float))
        train_r2 = r_squared(np.asarray(train_target, dtype=float), train_pred)
        row = SearchRow(index, hidden, lr, train_r2,
                        float(result.valid_r2[result.best_epoch]), False)
        return index, result.model, row

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, points))
    else:
        outcomes = [run(p) for p in points]
    outcomes.sort(key=lambda item: item[0])

    rows = [row for _, _, row in outcomes]
    best = None
    for index, model, row in outcomes:
        if row.diverged:
            continue
        if best is None or row.valid_r2 > best[2]:
            best = (index, model, row.valid_r2)
    if best is None:
        raise NumericalError("every hyperparameter candidate diverged")
    return best[1], rows


def save_model(model: MlpModel, path: str | Path) -> None:
    """Versioned JSON checkpoint; floats survive a round trip exactly."""
    payload = {
        "format": "uqshift-mlp",
        "version": 1,
        "hidden_sizes": list(model.hidden_sizes),
        "dropout_rate": model.dropout_rate,
        "fit": {
            "learning_rate": model.fit.learning_rate,
            "epochs": model.fit.epochs,
            "seed": model.fit.seed,
            "batch_size": model.fit.batch_size,
        },
        "scaler": {
            "means": model.scaler.means.tolist(),
            "stddevs": model.scaler.stddevs.tolist(),
            "constant_mask": [bool(b) for b in model.scaler.constant_mask],
        },
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path: str | Path) -> MlpModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model checkpoint not found: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != "uqshift-mlp" or payload.get("version") != 1:
            raise DataError(f"{path}: not a recognized model checkpoint")
        scaler = payload["scaler"]
        return MlpModel(
            weights=[np.array(w, dtype=float) for w in payload["weights"]],
            biases=[np.array(b, dtype=float) for b in payload["biases"]],
            hidden_sizes=tuple(payload["hidden_sizes"]),
            dropout_rate=float(payload["dropout_rate"]),
            fit=FitConfig(**payload["fit"]),
            scaler=ScalerParams(
                means=np.array(scaler["means"], dtype=float),
                stddevs=np.array(scaler["stddevs"], dtype=float),
                constant_mask=np.array(scaler["constant_mask"], dtype=bool),
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: malformed model checkpoint ({type(exc).__name__}: {exc})"
        ) from None
