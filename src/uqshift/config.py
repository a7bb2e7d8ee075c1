"""Run configuration: a small INI dialect with a canonical form.

Every run is described by one file with fixed sections and keys.  The
parser rejects unknown sections and keys outright.  ``canonical_text``
always emits sections and keys in schema order with round-trippable
values, so hashing that text identifies a configuration.  The semantic
hash excludes ``run.out`` and ``run.jobs``: where results are written
and how many workers compute them does not change what is computed.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

_AUTO = "auto"

# section -> key -> (kind, default)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "seed": ("int", 0),
        "out": ("str", "runs/out"),
        "jobs": ("int", 1),
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

_STAGE_SECTIONS = {
    "synth": ("synth",),
    "split": ("split",),
    "train": ("train",),
    "uq": ("uq",),
    "eval": ("eval", "uq"),
    "report": ("eval", "uq"),
}


@dataclass(frozen=True)
class RunConfig:
    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def get(self, section: str, key: str):
        return self.values[section][key]


def default_config() -> RunConfig:
    values = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    return RunConfig(values=values)


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int_list":
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        if kind == "float_list":
            return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
        if kind == "float_or_auto":
            if raw.lower() == _AUTO:
                return None
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"unknown schema kind {kind!r}")


def _format_value(kind: str, value) -> str:
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


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, optionally overlaid with a file, then with overrides.

    ``overrides`` maps (section, key) to a final value, used for
    command-line flags like --seed and --out.
    """
    config = default_config()
    values = {section: dict(keys) for section, keys in config.values.items()}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.RawConfigParser()
        parser.optionxform = str  # keep keys case-sensitive
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
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
    return RunConfig(values=values)


def _validate(values: dict) -> None:
    if values["run"]["seed"] < 0:
        raise ConfigError("run.seed must be non-negative")
    if values["run"]["jobs"] < 1:
        raise ConfigError("run.jobs must be >= 1")
    if values["uq"]["metric"] not in ("euclidean", "jaccard"):
        raise ConfigError(f"uq.metric must be euclidean or jaccard, got {values['uq']['metric']!r}")


def canonical_text(config: RunConfig, skip: tuple[tuple[str, str], ...] = ()) -> str:
    lines = []
    for section, keys in SCHEMA.items():
        emitted = []
        for key, (kind, _) in keys.items():
            if (section, key) in skip:
                continue
            emitted.append(f"{key} = {_format_value(kind, config.values[section][key])}")
        if emitted:
            lines.append(f"[{section}]")
            lines.extend(emitted)
            lines.append("")
    return "\n".join(lines)


def config_hash(config: RunConfig) -> str:
    """Semantic identity of the run: canonical text minus out/jobs."""
    text = canonical_text(config, skip=(("run", "out"), ("run", "jobs")))
    return hashlib.sha256(text.encode()).hexdigest()


def stage_config_text(config: RunConfig, stage: str) -> str:
    """The part of the configuration a stage's output depends on."""
    if stage not in _STAGE_SECTIONS:
        raise ConfigError(f"unknown stage {stage!r}")
    parts = [f"seed = {config.get('run', 'seed')}"]
    for section in _STAGE_SECTIONS[stage]:
        parts.append(f"[{section}]")
        for key, (kind, _) in SCHEMA[section].items():
            parts.append(f"{key} = {_format_value(kind, config.values[section][key])}")
    return "\n".join(parts)
