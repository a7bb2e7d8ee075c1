"""Run configuration: a small INI dialect with a canonical form.

Every run is described by one file with fixed sections and keys, read
into a plain dict {section: {key: value}}.  The parser rejects unknown
sections and keys, and non-finite numbers, outright.
``stage_config_text`` renders the seed and a stage's sections, keys in
schema order with round-trippable values: the one text of the
configuration that is hashed, once per manifest line.  ``run.out`` and
``run.jobs`` enter no stage's text: where results are written and how
many workers compute them does not change what is computed.
``run.jobs`` defaults to the number of CPUs this process may use.

``load_config`` refuses, with exit 2 and a message naming
``[section] key = value``, every value in ``_RANGES`` that a stage
could not run on, before any stage starts.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import ConfigError
from .mlp import usable_cpus
from .uq_ad import METRICS

_AUTO = "auto"

# section -> key -> (kind, default)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "seed": ("int", 0),
        "out": ("str", "runs/out"),
        "jobs": ("int", usable_cpus()),
    },
    "synth": {
        "clusters": ("int", 4),
        "points_per_cluster": ("int", 300),
        "dim": ("int", 10),
        "separation": ("float", 8.0),
        "coef_scale": ("float", 1.0),
        "noise": ("float", 0.1),
    },
    "split": {
        "use_correlation_filter": ("bool", False),
        "correlation_threshold": ("float", 0.5),
        "pca_components": ("int", 10),
        "perplexity": ("float", 30.0),
        "tsne_iterations": ("int", 1000),
        "dbscan_eps": ("float_or_auto", None),
        "eps_factor": ("float", 2.0),
        "min_pts": ("int", 10),
        "external_labels": ("str", ""),
        "force_embedding": ("bool", False),
        "train_n": ("int", 100),
        "valid_n": ("int", 10),
        "min_cluster_size": ("int", 50),
    },
    "train": {
        "layer_counts": ("int_list", (1, 2, 3)),
        "widths": ("int_list", (16, 64, 256)),
        "learning_rates": ("float_list", (1e-2, 1e-3, 1e-4)),
        "dropout_rate": ("float", 0.3),
        "epochs": ("int", 300),
        "batch_size": ("int", 0),
    },
    "uq": {
        "passes": ("int", 100),
        "knn_k": ("int", 5),
        "metric": ("str", "euclidean"),
        "alpha": ("float", 0.05),
        "rio_starts": ("int", 5),
        "rio_max_iter": ("int", 150),
        "rio_include_noise": ("bool", True),
    },
    "eval": {
        "step_fraction": ("float", 0.05),
        "min_remaining": ("int", 10),
    },
}


# (section, key) -> (the rule a value must meet, its test).  A value
# outside these would fail its stage after earlier ones ran, or pass unseen.
_RANGES = {
    ("run", "seed"): (">= 0", lambda v: v >= 0),
    ("run", "jobs"): (">= 1", lambda v: v >= 1),
    ("synth", "clusters"): (">= 1", lambda v: v >= 1),
    ("synth", "points_per_cluster"): (">= 1", lambda v: v >= 1),
    ("synth", "dim"): (">= 2", lambda v: v >= 2),
    ("synth", "separation"): ("> 0", lambda v: v > 0),
    ("synth", "coef_scale"): ("> 0", lambda v: v > 0),
    ("synth", "noise"): (">= 0", lambda v: v >= 0),
    ("split", "correlation_threshold"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("split", "pca_components"): (">= 1", lambda v: v >= 1),
    ("split", "perplexity"): ("> 1", lambda v: v > 1),
    ("split", "tsne_iterations"): (">= 1", lambda v: v >= 1),
    ("split", "dbscan_eps"): ("auto or > 0", lambda v: v is None or v > 0),
    ("split", "eps_factor"): ("> 0", lambda v: v > 0),
    ("split", "min_pts"): (">= 1", lambda v: v >= 1),
    # a model needs two training rows, and validation R^2 two rows
    ("split", "train_n"): (">= 2", lambda v: v >= 2),
    ("split", "valid_n"): (">= 2", lambda v: v >= 2),
    ("split", "min_cluster_size"): (">= 1", lambda v: v >= 1),
    ("train", "layer_counts"): ("1, 2 or 3 each", lambda v: all(c in (1, 2, 3) for c in v)),
    ("train", "widths"): (">= 1 each", lambda v: all(w >= 1 for w in v)),
    ("train", "learning_rates"): (">= 0 each", lambda v: all(lr >= 0 for lr in v)),
    ("train", "dropout_rate"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("train", "epochs"): (">= 0", lambda v: v >= 0),
    ("train", "batch_size"): (">= 0", lambda v: v >= 0),
    ("uq", "passes"): (">= 1", lambda v: v >= 1),
    ("uq", "knn_k"): (">= 1", lambda v: v >= 1),
    # the novelty threshold is the normal quantile at 1 - alpha, which
    # must not round to 1
    ("uq", "alpha"): ("in (0, 1), with 1 - alpha < 1", lambda v: 0.0 < 1.0 - v < 1.0),
    ("uq", "rio_starts"): (">= 1", lambda v: v >= 1),
    ("uq", "rio_max_iter"): (">= 0", lambda v: v >= 0),
    ("eval", "step_fraction"): ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    ("uq", "metric"): (" or ".join(METRICS), lambda v: v in METRICS),
}


def default_config() -> dict:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            return configparser.RawConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind in ("int_list", "float_list"):
            # int() and float() refuse an empty entry: "", "," or "1,,2"
            parse = int if kind == "int_list" else _finite
            return tuple(parse(part) for part in raw.split(","))
        if kind == "float_or_auto":
            if raw.lower() == _AUTO:
                return None
            return _finite(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"unknown schema kind {kind!r}")


def _value_text(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int_list":
        return ",".join(str(int(v)) for v in value)
    if kind == "float_list":
        return ",".join(repr(float(v)) for v in value)
    if kind == "float_or_auto":
        return _AUTO if value is None else repr(float(value))
    if kind == "float":
        return repr(float(value))
    return str(value)


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, optionally overlaid with a file, then with overrides.

    ``overrides`` maps (section, key) to a final value, used for
    command-line flags like --seed and --out.
    """
    values = default_config()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.RawConfigParser()
        parser.optionxform = str  # keep keys case-sensitive
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read ({type(exc).__name__})") from None
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
                kind = SCHEMA[section][key][0]
                values[section][key] = _parse_value(kind, raw, f"{path}: [{section}] {key}")
    for (section, key), value in (overrides or {}).items():
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config override {section}.{key}")
        values[section][key] = value
    _validate(values)
    return values


def _validate(values: dict) -> None:
    for (section, key), (rule, ok) in _RANGES.items():
        value = values[section][key]
        if not ok(value):
            shown = _value_text(SCHEMA[section][key][0], value)
            raise ConfigError(f"[{section}] {key} = {shown} must be {rule}")
    split = values["split"]
    if split["dbscan_eps"] is None and split["min_pts"] < 2 and not split["external_labels"]:
        # auto eps is the median distance to the (min_pts - 1)-th neighbour,
        # which for min_pts = 1 is each point itself: eps would be 0
        raise ConfigError(
            f"[split] min_pts = {split['min_pts']} needs a numeric [split] dbscan_eps or "
            f"[split] external_labels: dbscan_eps = auto would take each point's distance "
            f"to itself as eps"
        )
    knn_k, train_n = values["uq"]["knn_k"], split["train_n"]
    if knn_k >= train_n:
        raise ConfigError(
            f"[uq] knn_k = {knn_k} must be below [split] train_n = {train_n}: the "
            f"applicability domain compares each training row with its knn_k nearest "
            f"other training rows"
        )


def stage_config_text(config: dict, sections: tuple[str, ...]) -> str:
    """The seed and these sections: the part of the configuration a
    stage's output depends on."""
    parts = [f"seed = {config['run']['seed']}"]
    for section in sections:
        parts.append(f"[{section}]")
        for key, (kind, _) in SCHEMA[section].items():
            parts.append(f"{key} = {_value_text(kind, config[section][key])}")
    return "\n".join(parts)
