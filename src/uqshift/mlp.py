"""Feedforward ReLU regressors trained with Adam.

Networks are one to three ReLU hidden layers with a linear scalar
output, trained on standardized features against the mean squared
error.  Hidden activations use inverted dropout (kept units scaled by
1/(1-p)) so inference needs no rescaling.  Dropout masks come from
counter-based streams keyed by (seed, pass, layer); a per-point result
therefore never depends on which other rows share the batch.

Memory: a fit holds every weight and bias as a view into one flat
vector.  Adam's two moments, its two step temporaries, the gradient and
the best epoch's copy are flat vectors of the same layout, so a step's
Adam update is one pass of elementwise in-place operations over the
whole vector.  The fit also holds, sized to one batch, one (batch,
width) activation and one delta array per hidden layer and two row
vectors for the backward pass, the batch's rows and targets, and the
uniform draws and dropout mask of each hidden layer; no pass runs over
all training rows at once.  The per-epoch validation pass has its own
(rows, width) buffers.  All are allocated once per fit, and a step
allocates nothing of a layer's size.  ``forward`` given one (rows,
width) buffer per hidden layer and an output vector writes the pass into
them, as every MC-dropout pass does.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import read_json, write_text
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
    """A finished fit: the best epoch's model and the validation R^2 of
    every epoch, entry 0 being the initialization.  Every entry is
    finite: a fit whose step loss or end-of-epoch validation R^2 is not
    finite raises TrainingDivergedError instead."""

    model: MlpModel
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


def inference_masks(model: MlpModel, seed: int, pass_index: int) -> list[np.ndarray]:
    """One keep mask per hidden layer for pass ``pass_index``, shared by every row."""
    masks = []
    for layer, width in enumerate(model.hidden_sizes):
        rng = keyed_rng(seed, pass_index, layer)
        masks.append((rng.random(width) >= model.dropout_rate).astype(float))
    return masks


def _training_masks(seed: int, step: int, n_rows: int, rate: float,
                    masks: list[np.ndarray], draws: list[np.ndarray]) -> list[np.ndarray]:
    """One (n_rows, width) keep mask per hidden layer for this step.

    ``masks`` and ``draws`` hold one (batch, width) buffer per layer; the
    step's uniform draws and its masks are written into their first
    n_rows rows, which are returned.
    """
    out = []
    for layer, (mask, draw) in enumerate(zip(masks, draws)):
        mask, draw = mask[:n_rows], draw[:n_rows]
        keyed_rng(seed, _TRAIN_MASK_DOMAIN, step, layer).random(out=draw)
        out.append(np.greater_equal(draw, rate, out=mask))
    return out


def forward(weights, biases, X: np.ndarray, dropout_rate: float = 0.0, masks=None,
            buffers=None, out=None) -> np.ndarray:
    """Network output for standardized inputs; masks apply to hidden layers.

    ``buffers`` (one (rows, width) array per hidden layer) and ``out``
    (one entry per row) receive the activations and the output in place;
    without them the pass allocates its own.
    """
    h = X
    keep = 1.0 - dropout_rate
    for i in range(len(weights) - 1):
        h = np.matmul(h, weights[i], out=None if buffers is None else buffers[i])
        h += biases[i]
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[i]
            h /= keep
    if out is None:
        out = np.empty(X.shape[0])
    column = out.reshape(-1, 1)
    np.matmul(h, weights[-1], out=column)
    column += biases[-1]
    return out


@dataclass
class _Workspace:
    """Buffers of ``loss_and_gradients`` for batches of up to ``rows`` rows:
    each hidden layer's activations and deltas, the output and the
    squared residuals."""

    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    out: np.ndarray
    sq: np.ndarray

    @classmethod
    def allocate(cls, rows: int, hidden) -> _Workspace:
        return cls([np.empty((rows, width)) for width in hidden],
                   [np.empty((rows, width)) for width in hidden],
                   np.empty(rows), np.empty(rows))


def _mse(pred: np.ndarray, y: np.ndarray, sq: np.ndarray) -> float:
    """Mean squared error; leaves the residuals pred - y in ``pred``."""
    np.subtract(pred, y, out=pred)
    np.multiply(pred, pred, out=sq)
    return float(np.mean(sq))


def loss_and_gradients(weights, biases, X: np.ndarray, y: np.ndarray,
                       dropout_rate: float = 0.0, masks=None, work=None, grads=None):
    """MSE loss and its gradients for every weight and bias.

    ``work`` (a ``_Workspace`` of at least X's rows, whose leading rows
    are used) and ``grads`` (weight and bias gradient arrays shaped like
    the parameters) receive the pass in place; without them it allocates
    its own.  Returns (loss, weight gradients, bias gradients).
    """
    n = X.shape[0]
    keep = 1.0 - dropout_rate
    if work is None:
        work = _Workspace.allocate(n, [w.shape[1] for w in weights[:-1]])
    g_w, g_b = grads or ([np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases])
    acts = [a[:n] for a in work.acts]
    inputs = [X, *acts]
    resid = forward(weights, biases, X, dropout_rate, masks, acts, work.out[:n])
    loss = _mse(resid, y, work.sq[:n])

    d_pred = np.multiply(resid, 2.0 / n, out=resid)
    upstream = d_pred[:, None]
    np.matmul(inputs[-1].T, upstream, out=g_w[-1])
    g_b[-1][0] = d_pred.sum()
    for i in range(len(weights) - 2, -1, -1):
        dh = np.matmul(upstream, weights[i + 1].T, out=work.deltas[i][:n])
        if masks is not None:
            dh /= keep
        # Gate by the layer's output, not its pre-activation: the two
        # differ only where dropout zeroed a unit.  There the output is
        # +-0 (NaN if the unit overflowed), so the gate is 0 and does the
        # mask's job: dh keeps its sign, and a non-finite dh becomes NaN.
        # The activations are not needed after this layer, so the gate
        # overwrites them.
        dh *= np.greater(acts[i], 0.0, out=acts[i])
        np.matmul(inputs[i].T, dh, out=g_w[i])
        np.sum(dh, axis=0, out=g_b[i])
        upstream = dh
    return loss, g_w, g_b


def standardized(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Raw features through the model's stored scaler, after a column check."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim_in:
        raise DataError(f"expected features with {model.dim_in} columns, got shape {X.shape}")
    return model.scaler.transform(X)


def predict(model: MlpModel, features: np.ndarray, dropout_active: bool = False,
            seed: int | None = None, pass_index: int = 0) -> np.ndarray:
    """Predictions on raw features; the stored scaler is applied internally.

    With ``dropout_active`` one stochastic pass is run using masks keyed
    by (seed, pass_index, layer); the same key always gives the same
    pass, independent of how rows are batched.
    """
    Xs = standardized(model, features)
    if not dropout_active or model.dropout_rate == 0.0:
        return forward(model.weights, model.biases, Xs)
    if seed is None:
        raise ConfigError("dropout_active predictions require a seed")
    masks = inference_masks(model, seed, pass_index)
    return forward(model.weights, model.biases, Xs, model.dropout_rate, masks)


def _param_views(flat: np.ndarray, weights, biases) -> tuple[list, list]:
    """Consecutive views into ``flat`` shaped like ``weights``, then ``biases``."""
    views, start = [], 0
    for a in [*weights, *biases]:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views[:len(weights)], views[len(weights):]


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
    returns the initialized network.  Divergence raises
    TrainingDivergedError carrying the epoch index: a non-finite step
    loss raises at once, and a non-finite validation R^2 at the end of an
    epoch raises for that epoch, which catches a final step that leaves
    the parameters non-finite.

    The parameters, Adam's state, the gradient and the best epoch's copy
    are flat vectors of one layout, and the passes write into buffers
    allocated once here (see the module docstring), so each call owns
    all of its state and concurrent calls share nothing.  The returned
    model holds its own copies of the best epoch's arrays.
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
    # C order, like a mini-batch's row copy, so that the full batch, used
    # in place, meets BLAS as a copy of it would.
    Xs = np.ascontiguousarray(scaler.transform(X))
    Xvs = scaler.transform(Xv)

    init_weights, init_biases = init_params(X.shape[1], hidden, seed)
    params = np.concatenate([p.ravel() for p in init_weights + init_biases])
    weights, biases = _param_views(params, init_weights, init_biases)
    grad = np.zeros_like(params)
    grads = _param_views(grad, init_weights, init_biases)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    adam_a = np.empty_like(params)
    adam_b = np.empty_like(params)
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    adam_t = 0

    n = X.shape[0]
    batch = n if not batch_size else min(batch_size, n)
    work = _Workspace.allocate(batch, hidden)
    valid_acts = [np.empty((Xv.shape[0], width)) for width in hidden]
    valid_out = np.empty(Xv.shape[0])
    batch_X = np.empty((batch, X.shape[1]))
    batch_y = np.empty(batch)
    mask_buffers = [np.empty((batch, width)) for width in hidden]
    draw_buffers = [np.empty((batch, width)) for width in hidden]

    def valid_score() -> float:
        return r_squared(yv, forward(weights, biases, Xvs, buffers=valid_acts, out=valid_out))

    valid_r2 = [valid_score()]
    best_epoch = 0
    best_r2 = valid_r2[0]
    best = params.copy()

    step = 0
    for epoch in range(1, epochs + 1):
        if batch < n:
            perm = keyed_rng(seed, _SHUFFLE_DOMAIN, epoch).permutation(n)
        for start in range(0, n, batch):
            Xb, yb = Xs, y
            if batch < n:
                rows = perm[start:start + batch]
                # "clip" clips nothing of a permutation; "raise" would copy
                # through a temporary
                Xb = np.take(Xs, rows, axis=0, out=batch_X[:len(rows)], mode="clip")
                yb = np.take(y, rows, out=batch_y[:len(rows)], mode="clip")
            masks = (
                _training_masks(seed, step, len(yb), dropout_rate,
                                mask_buffers, draw_buffers)
                if dropout_rate > 0.0
                else None
            )
            loss, _, _ = loss_and_gradients(weights, biases, Xb, yb, dropout_rate, masks,
                                            work, grads)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            adam_t += 1
            c1 = 1 - beta1 ** adam_t
            c2 = 1 - beta2 ** adam_t
            adam_m *= beta1
            np.multiply(grad, 1 - beta1, out=adam_a)
            adam_m += adam_a
            adam_v *= beta2
            np.multiply(grad, grad, out=adam_b)
            adam_b *= 1 - beta2
            adam_v += adam_b
            np.divide(adam_m, c1, out=adam_a)          # m_hat
            adam_a *= learning_rate
            np.divide(adam_v, c2, out=adam_b)          # v_hat
            np.sqrt(adam_b, out=adam_b)
            adam_b += eps_adam
            adam_a /= adam_b
            params -= adam_a
            step += 1
        score = valid_score()
        if not np.isfinite(score):
            raise TrainingDivergedError(epoch)
        valid_r2.append(score)
        if score > best_r2:
            best_r2 = score
            best_epoch = epoch
            np.copyto(best, params)

    best_weights, best_biases = _param_views(best, init_weights, init_biases)
    model = MlpModel(
        weights=[w.copy() for w in best_weights],
        biases=[b.copy() for b in best_biases],
        hidden_sizes=hidden,
        dropout_rate=float(dropout_rate),
        fit=fit,
        scaler=scaler,
    )
    return TrainResult(model=model, valid_r2=np.array(valid_r2), best_epoch=best_epoch)


def hyperparameter_search(
    train_features: np.ndarray,
    train_target: np.ndarray,
    valid_features: np.ndarray,
    valid_target: np.ndarray,
    grid: HyperparamGrid,
    epochs: int,
    seed: int,
    jobs: int = 1,
    batch_size: int | None = None,
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
                hidden, grid.dropout_rate, lr, epochs, cand_seed, batch_size,
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
    write_text(path, json.dumps(payload) + "\n")


def load_model(path: str | Path) -> MlpModel:
    payload = read_json(path)
    try:
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
