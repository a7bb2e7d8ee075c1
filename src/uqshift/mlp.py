"""Feedforward ReLU regressors trained with Adam.

Networks are one to three ReLU hidden layers with a linear scalar
output, trained on standardized features against the mean squared
error.  Hidden activations use inverted dropout (kept units scaled by
1/(1-p)) so inference needs no rescaling.  Dropout masks come from
counter-based streams keyed by (seed, pass, layer); a per-point result
therefore never depends on which other rows share the batch.

Precision: ``train_mlp`` runs every training pass in float32, the
default of the frameworks such networks are normally trained in.  The
standardized training features and targets, the parameters, their
gradient, Adam's state and the pass buffers are float32, and so is every
scalar they meet, so nothing is computed in float64 and cast back.  The
dropout masks come from the same float64 draws as in float64 training,
so they are the same masks.  Each epoch's validation runs in float64 on
the float32 parameters, which numpy promotes to float64 exactly, and the
returned model holds the best epoch's float32 values as float64 arrays:
its validation R^2 is the one the fit recorded, and saving, loading,
``predict`` and every inference path stay float64.  ``forward`` and
``loss_and_gradients`` compute in the dtype of their input.

Memory: a fit holds six flat float32 vectors of one layout: the
parameters, of which every weight and bias is a view, the gradient,
Adam's two moments, one step temporary and the best epoch's copy.  The
initial float64 arrays are copied into the parameters' views and
dropped, and the gradient, spent once Adam's second moment has taken
it, is the step's second temporary.  A step's Adam update is one pass
of elementwise in-place operations over the whole vector, over half the
bytes of float64.  The fit also holds, sized to one batch, one (batch,
width) activation and one delta array per hidden layer and two row
vectors for the backward pass, the batch's rows and targets, and the
dropout mask of each hidden layer, all float32, and the float64 uniform
draws behind those masks; no pass runs over all training rows at once.
The per-epoch validation pass has its own float64 (rows, width) buffers,
and each of its products promotes one weight matrix to a float64
temporary.  All buffers are allocated once per fit, and a step
allocates nothing of a layer's size.  ``forward`` given one (rows,
width) buffer per hidden layer and an output vector writes the pass
into them.  A grid search holds, beside its rows, only the best model so
far: at ``jobs = 1`` it trains one fit at a time in the calling process,
and with more workers each worker trains one fit at a time while the
parent keeps the winner.  A checkpoint is written one row of a weight
matrix at a time.

Workers: with ``jobs > 1`` and more than one grid point, a search runs
on a pool of forked worker processes, at most one per usable CPU and
per candidate.  They inherit the split's arrays through the fork, take
the largest networks first, and send back each model's float32 values,
which the float64 arrays it holds were made from, so the arrays come
back exactly.  Each candidate trains from its own stream keyed by
(seed, grid index), so no byte of a result depends on the worker that
ran it, and the winner is the highest validation R^2, the lowest grid
index on a tie, in any order of arrival.  A worker exits as soon as its
parent is gone, so a killed run leaves no process holding its files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import threading
from concurrent.futures import as_completed
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .csvio import read_json, write_chunks
from .dataset import ScalerParams, as_matrix, as_vector, fit_scaler
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
    keep = X.dtype.type(1.0 - dropout_rate)
    for i in range(len(weights) - 1):
        h = np.matmul(h, weights[i], out=None if buffers is None else buffers[i])
        h += biases[i]
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[i]
            h /= keep
    if out is None:
        out = np.empty(X.shape[0], dtype=h.dtype)
    column = out.reshape(-1, 1)
    np.matmul(h, weights[-1], out=column)
    column += biases[-1]
    return out


@dataclass
class _Workspace:
    """Buffers of ``loss_and_gradients`` for batches of up to ``rows`` rows
    of one dtype: each hidden layer's activations and deltas, the output
    and the squared residuals."""

    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    out: np.ndarray
    sq: np.ndarray

    @classmethod
    def allocate(cls, rows: int, hidden, dtype=np.float64) -> _Workspace:
        return cls([np.empty((rows, width), dtype) for width in hidden],
                   [np.empty((rows, width), dtype) for width in hidden],
                   np.empty(rows, dtype), np.empty(rows, dtype))


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
    its own.  The pass runs in X's dtype, which the parameters, masks and
    buffers share.  Returns (loss, weight gradients, bias gradients).
    """
    n = X.shape[0]
    keep = X.dtype.type(1.0 - dropout_rate)
    if work is None:
        work = _Workspace.allocate(n, [w.shape[1] for w in weights[:-1]], X.dtype)
    g_w, g_b = grads or ([np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases])
    acts = [a[:n] for a in work.acts]
    inputs = [X, *acts]
    resid = forward(weights, biases, X, dropout_rate, masks, acts, work.out[:n])
    loss = _mse(resid, y, work.sq[:n])

    d_pred = np.multiply(resid, X.dtype.type(2.0 / n), out=resid)
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


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predictions on raw features through the stored scaler, dropout off;
    ``uq_dropout.mc_dropout`` runs the stochastic passes."""
    return forward(model.weights, model.biases, model.scaler.transform(features))


def _param_shapes(dim_in: int, hidden) -> list[tuple[int, ...]]:
    """The shape of every weight, then of every bias, of a network."""
    sizes = [dim_in, *hidden, 1]
    return [*zip(sizes[:-1], sizes[1:]), *((size,) for size in sizes[1:])]


def _param_views(flat: np.ndarray, shapes) -> tuple[list, list]:
    """Consecutive views into ``flat`` of these weight, then bias, shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views[:len(views) // 2], views[len(views) // 2:]


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

    Training passes run in float32 and validation in float64 (see the
    module docstring).  The parameters, Adam's state, the gradient and
    the best epoch's copy are flat vectors of one layout, and the passes
    write into buffers allocated once here, so each call owns all of its
    state and concurrent calls share nothing.  The returned model holds
    float64 copies of the best epoch's arrays.
    """
    X = as_matrix(train_features, "train_features", min_rows=2)
    y = as_vector(train_target, "train_target", X.shape[0])
    Xv = as_matrix(valid_features, "valid_features", min_rows=2, cols=X.shape[1])
    yv = as_vector(valid_target, "valid_target", Xv.shape[0])
    if np.all(yv == yv[0]):
        raise DataError("validation target is constant; validation R^2 is undefined")
    hidden = _validate_arch(X.shape[1], hidden_sizes, dropout_rate)
    fit = FitConfig(learning_rate=learning_rate, epochs=epochs, seed=seed,
                    batch_size=batch_size if batch_size else None)

    scaler = fit_scaler(X)
    # C order, like a mini-batch's row copy, so that the full batch, used
    # in place, meets BLAS as a copy of it would.
    Xs = np.ascontiguousarray(scaler.transform(X), dtype=np.float32)
    ys = y.astype(np.float32)
    Xvs = scaler.transform(Xv)

    shapes = _param_shapes(X.shape[1], hidden)
    params = np.empty(sum(map(math.prod, shapes)), np.float32)
    weights, biases = _param_views(params, shapes)
    init_weights, init_biases = init_params(X.shape[1], hidden, seed)
    for view, init in zip(weights + biases, init_weights + init_biases):
        np.copyto(view, init)
    del init_weights, init_biases
    # The gradient is spent once Adam's second moment has taken it, so it
    # is the step's second temporary.
    grad = np.empty_like(params)
    grads = _param_views(grad, shapes)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    adam_a = np.empty_like(params)
    # Every scalar that meets a float32 array is a float32 itself, so no
    # operation is promoted to float64 under either of NumPy's casting rules.
    beta1, beta2 = 0.9, 0.999
    b1, b2 = np.float32(beta1), np.float32(beta2)
    one_minus_b1, one_minus_b2 = np.float32(1 - beta1), np.float32(1 - beta2)
    lr, eps_adam = np.float32(learning_rate), np.float32(1e-8)

    n = X.shape[0]
    batch = n if not batch_size else min(batch_size, n)
    work = _Workspace.allocate(batch, hidden, np.float32)
    batch_X = np.empty((batch, X.shape[1]), np.float32)
    batch_y = np.empty(batch, np.float32)
    mask_buffers = [np.empty((batch, width), np.float32) for width in hidden]
    draw_buffers = [np.empty((batch, width)) for width in hidden]

    # Validation runs in float64 on the float32 parameters, each of which
    # numpy promotes exactly, so each epoch's R^2 is that of the model it
    # would return.
    valid_acts = [np.empty((Xv.shape[0], width)) for width in hidden]
    valid_out = np.empty(Xv.shape[0])

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
            Xb, yb = Xs, ys
            if batch < n:
                rows = perm[start:start + batch]
                # "clip" clips nothing of a permutation; "raise" would copy
                # through a temporary
                Xb = np.take(Xs, rows, axis=0, out=batch_X[:len(rows)], mode="clip")
                yb = np.take(ys, rows, out=batch_y[:len(rows)], mode="clip")
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
            c1 = np.float32(1 - beta1 ** (step + 1))
            c2 = np.float32(1 - beta2 ** (step + 1))
            adam_m *= b1
            np.multiply(grad, one_minus_b1, out=adam_a)
            adam_m += adam_a
            adam_v *= b2
            np.multiply(grad, grad, out=grad)
            grad *= one_minus_b2
            adam_v += grad
            np.divide(adam_m, c1, out=adam_a)          # m_hat
            adam_a *= lr
            np.divide(adam_v, c2, out=grad)            # v_hat
            np.sqrt(grad, out=grad)
            grad += eps_adam
            adam_a /= grad
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

    best_weights, best_biases = _param_views(best, shapes)
    model = MlpModel(
        weights=[w.astype(np.float64) for w in best_weights],
        biases=[b.astype(np.float64) for b in best_biases],
        hidden_sizes=hidden,
        dropout_rate=float(dropout_rate),
        fit=fit,
        scaler=scaler,
    )
    return TrainResult(model=model, valid_r2=np.array(valid_r2), best_epoch=best_epoch)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_candidate(search, point) -> tuple[MlpModel | None, SearchRow]:
    """Train one grid point of a search; its model (None if it diverged)
    and its report row."""
    X, y, Xv, yv, dropout_rate, epochs, seed, batch_size = search
    index, hidden, lr = point
    try:
        result = train_mlp(X, y, Xv, yv, hidden, dropout_rate, lr, epochs,
                           derive_seed(seed, index), batch_size)
    except TrainingDivergedError:
        return None, SearchRow(index, hidden, lr, None, None, True)
    train_r2 = r_squared(y, predict(result.model, X))
    row = SearchRow(index, hidden, lr, train_r2,
                    float(result.valid_r2[result.best_epoch]), False)
    return result.model, row


def _with_dtype(model: MlpModel, dtype) -> MlpModel:
    """The model with its arrays in ``dtype``, copied only if they are not."""
    return replace(model, weights=[w.astype(dtype, copy=False) for w in model.weights],
                   biases=[b.astype(dtype, copy=False) for b in model.biases])


# The search a worker process runs, set by _init_worker in the worker.
_WORKER_SEARCH = None


def _fit_in_worker(point) -> tuple[MlpModel | None, SearchRow]:
    """``_fit_candidate`` on the worker's search; the model travels as
    float32, which its float64 arrays hold exactly, in half the bytes."""
    model, row = _fit_candidate(_WORKER_SEARCH, point)
    return (None if model is None else _with_dtype(model, np.float32)), row


def _init_worker(search) -> None:
    """Keep the search the worker inherited through the fork, leave Ctrl-C
    to the parent, and exit once the parent is gone: a worker waiting for
    its next task would otherwise live on, holding the files it
    inherited, the run's lock among them."""
    global _WORKER_SEARCH
    import multiprocessing

    _WORKER_SEARCH = search
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sentinel = multiprocessing.parent_process().sentinel

    def exit_with_parent():
        os.read(sentinel, 1)  # returns at end of file: the parent has exited
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


@contextmanager
def _forked_pool(search, workers: int):
    """A pool of ``workers`` forked processes running ``search``, which
    they inherit rather than unpickle with every task.  On the way out,
    tasks not yet started are cancelled and every worker is joined."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(search,))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def hyperparameter_search(
    train_features: np.ndarray,
    train_target: np.ndarray,
    valid_features: np.ndarray,
    valid_target: np.ndarray,
    *,
    layer_counts,
    widths,
    learning_rates,
    dropout_rate: float,
    epochs: int,
    seed: int,
    batch_size: int = 0,
    jobs: int = 1,
) -> tuple[MlpModel, list[SearchRow]]:
    """Train every point of layer_counts x widths x learning_rates and
    return the best model plus a report.

    Grid index i is the i-th point of that product, layer count outermost,
    and a point of depth d and width w trains d hidden layers of w units;
    batch_size 0 is the full batch.  Every point passes ``train_mlp``'s
    checks before the first fit, so a bad grid raises ConfigError before
    anything trains or forks.  Each candidate trains from an independent
    stream derived from (seed, grid_index), so results do not depend on
    evaluation order or on how many workers run.  With ``jobs > 1`` the
    candidates train in min(jobs, grid points, usable CPUs) forked worker
    processes, largest network first (see the module docstring); call it
    so only from a process with one thread, as forking a threaded process
    can deadlock.  A worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.  The best model has
    the highest validation R^2, the lowest grid index on a tie, and the
    report lists the rows in grid order.  Diverged candidates are
    recorded and excluded; if every candidate diverges, that is an error.
    """
    X = as_matrix(train_features, "train_features", min_rows=2)
    points = [(index, (width,) * depth, lr) for index, (depth, width, lr)
              in enumerate(itertools.product(layer_counts, widths, learning_rates))]
    if not points:
        raise ConfigError("hyperparameter grid axes must be non-empty")
    for _, hidden, lr in points:
        _validate_arch(X.shape[1], hidden, dropout_rate)
        FitConfig(lr, epochs, seed, batch_size or None)
    search = (X, np.asarray(train_target, dtype=float), valid_features, valid_target,
              dropout_rate, epochs, seed, batch_size)
    workers = min(jobs, len(points), usable_cpus())
    rows, best, best_key = [], None, None
    with _forked_pool(search, workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            results = map(partial(_fit_candidate, search), points)
        else:
            # most parameters first, so the last fits to start are short and the
            # workers finish together; ties in grid order
            points.sort(key=lambda p: (-sum(map(math.prod, _param_shapes(X.shape[1], p[1]))),
                                       p[0]))
            results = (done.result() for done in
                       as_completed([pool.submit(_fit_in_worker, p) for p in points]))
        for model, row in results:
            rows.append(row)
            # "highest R^2, lowest grid index on a tie" in any arrival order;
            # a loser is dropped as soon as it arrives
            key = None if row.diverged else (-row.valid_r2, row.grid_index)
            if key is not None and (best is None or key < best_key):
                best, best_key = model, key
            del model
    if best is None:
        raise NumericalError("every hyperparameter candidate diverged")
    rows.sort(key=lambda row: row.grid_index)
    return _with_dtype(best, np.float64), rows


def _json_array(arrays):
    """The JSON list of these arrays, encoded one 1-D row at a time."""
    yield "["
    for i, a in enumerate(arrays):
        if i:
            yield ", "
        if a.ndim == 1:
            yield json.dumps(a.tolist())
        else:
            yield from _json_array(a)
    yield "]"


def save_model(model: MlpModel, path: str | Path) -> None:
    """Versioned JSON checkpoint; floats survive a round trip exactly.

    The file is ``json.dumps`` of one object holding the fields below and
    then "weights" and "biases", but it is written one row of a weight
    matrix at a time, so no more than one row is ever held as Python
    floats or text.
    """
    header = {
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
    }

    def chunks():
        yield json.dumps(header)[:-1]  # without its closing brace
        yield ', "weights": '
        yield from _json_array(model.weights)
        yield ', "biases": '
        yield from _json_array(model.biases)
        yield "}\n"

    write_chunks(path, chunks())


def load_model(path: str | Path) -> MlpModel:
    """The model of a checkpoint; a file whose arrays do not fit the
    architecture it names, or hold a non-finite number, raises DataError."""
    payload = read_json(path)
    if (not isinstance(payload, dict) or payload.get("format") != "uqshift-mlp"
            or payload.get("version") != 1):
        raise DataError(f"{path}: not a recognized model checkpoint")
    try:
        weights = [np.array(w, dtype=float) for w in payload["weights"]]
        biases = [np.array(b, dtype=float) for b in payload["biases"]]
        dropout_rate = float(payload["dropout_rate"])
        dim_in = weights[0].shape[0] if weights and weights[0].ndim == 2 else 0
        hidden = _validate_arch(dim_in, payload["hidden_sizes"], dropout_rate)
        if list(hidden) != payload["hidden_sizes"]:
            raise ValueError(f"hidden sizes {payload['hidden_sizes']} are not integers")
        shapes = [a.shape for a in weights + biases]
        if shapes != _param_shapes(dim_in, hidden):
            raise ValueError(f"array shapes {shapes} do not fit hidden sizes {list(hidden)}")
        scaler = payload["scaler"]
        means = np.array(scaler["means"], dtype=float)
        stddevs = np.array(scaler["stddevs"], dtype=float)
        # json reads NaN, Infinity and 1e999; ScalerParams would let a NaN stddev by
        for name, arrays in (("weights", weights), ("biases", biases),
                             ("scaler means", [means]), ("scaler stddevs", [stddevs])):
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError(f"the {name} hold a non-finite number")
        model = MlpModel(
            weights=weights,
            biases=biases,
            hidden_sizes=hidden,
            dropout_rate=dropout_rate,
            fit=FitConfig(**payload["fit"]),
            scaler=ScalerParams(means, stddevs, np.array(scaler["constant_mask"], dtype=bool)),
        )
        if len(model.scaler.means) != dim_in:  # ScalerParams aligns its three vectors
            raise ValueError(f"the scaler has {len(model.scaler.means)} columns, not {dim_in}")
        return model
    except (AttributeError, ConfigError, DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: malformed model checkpoint ({type(exc).__name__}: {exc})"
        ) from None
