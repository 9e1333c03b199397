"""Run configuration: one JSON document drives the whole pipeline.

Unknown keys are rejected at every level so typos fail loudly. Each
settings section is a frozen dataclass that checks the types and ranges
of its own values, and the pipeline modules take the sections directly.
Relative dataset paths resolve against the config file's directory. A
single top-level seed feeds every random substream.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

from .augment import MASK_MODES
from .hin import HinError, MetapathSpec, RelationDecl, SchemaConfig
from .model import FUSION_MODES
from .synth import SynthConfig


class ConfigError(ValueError):
    """The config document is malformed or carries invalid values."""


def _section(raw: dict, name: str, allowed) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    return raw


# Accepted Python types per field annotation (a string, as annotations are
# postponed in this module). bool is a subclass of int, so it is rejected
# wherever a number is expected; ints pass as floats. "T | None" also
# takes null.
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def _check_type(name: str, value, kind: str):
    """`value` if it has the annotated type, else ConfigError."""
    if kind.endswith(" | None"):
        if value is None:
            return value
        kind = kind[:-len(" | None")]
    accepted, described = _TYPES[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {described}, got {value!r}")
    return value


def _array(name: str, value) -> list:
    """A JSON array; a string would otherwise be split into characters."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array, got {value!r}")
    return value


def _names(name: str, value) -> tuple:
    """A JSON array of strings, as a tuple."""
    return tuple(_check_type(f"{name}[]", item, "str") for item in _array(name, value))


def _strings(name: str, raw: dict) -> dict:
    """An object whose values are all strings."""
    for key, value in raw.items():
        _check_type(f"{name}.{key}", value, "str")
    return raw


class _Settings:
    """Base of the config sections: checks every field's type against its
    annotation, then each (holds, message) range rule from `_rules()`."""

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        for ok, message in self._rules():
            if not ok:
                raise ConfigError(message)

    def _rules(self):
        return ()


@dataclass(frozen=True)
class DataPaths(_Settings):
    nodes: str
    edges: str
    features: str
    labels: str | None = None


@dataclass(frozen=True)
class AugmentSettings(_Settings):
    p_e: float = 0.3              # paper grid 0.1..0.7
    p_f: float = 0.3
    mask_mode: str = "columns"
    resample_every_epoch: bool = True

    def _rules(self):
        return ((0.0 <= self.p_e <= 1.0, f"p_e must be in [0,1], got {self.p_e}"),
                (0.0 <= self.p_f <= 1.0, f"p_f must be in [0,1], got {self.p_f}"),
                (self.mask_mode in MASK_MODES,
                 f"mask_mode must be one of {MASK_MODES}"))


@dataclass(frozen=True)
class PositiveSettings(_Settings):
    alpha: float = 0.85
    tol: float = 1e-6
    max_iter: int = 100
    k_t: int = 8                  # paper grid 0..128
    k_s: int = 8

    def _rules(self):
        return ((0.0 < self.alpha <= 1.0, f"alpha must be in (0,1], got {self.alpha}"),
                (self.tol > 0, "tol must be > 0"),
                (self.max_iter >= 1, "max_iter must be >= 1"),
                (min(self.k_t, self.k_s) >= 0, "k_t and k_s must be >= 0"))


@dataclass(frozen=True)
class TrainSettings(_Settings):
    lr: float = 1e-3              # paper grid 5e-4..5e-3
    tau: float = 0.5              # paper grid 0.2..0.8
    dim: int = 64
    patience: int = 20
    max_epochs: int = 500
    fusion: str = "sum"
    share_encoder: bool = False
    literal_eq2: bool = False
    loss_weight_local: float = 1.0
    loss_weight_global: float = 1.0

    def _rules(self):
        return ((self.lr >= 0, "lr must be >= 0"),
                (self.tau > 0, "tau must be > 0"),
                (self.dim >= 1, "dim must be >= 1"),
                (self.patience >= 1, "patience must be >= 1"),
                (self.max_epochs >= 1, "max_epochs must be >= 1"),
                (self.fusion in FUSION_MODES,
                 f"fusion must be one of {FUSION_MODES}"))


@dataclass(frozen=True)
class EvalSettings(_Settings):
    train_frac: float = 0.2
    probe_runs: int = 10
    cluster_runs: int = 10

    def _rules(self):
        return ((0.0 < self.train_frac < 1.0,
                 f"train_frac must be in (0,1), got {self.train_frac}"),
                (min(self.probe_runs, self.cluster_runs) >= 1,
                 "probe_runs and cluster_runs must be >= 1"))


@dataclass
class RunConfig:
    data: DataPaths
    schema: SchemaConfig
    metapaths: list[MetapathSpec]
    augment: AugmentSettings = field(default_factory=AugmentSettings)
    positives: PositiveSettings = field(default_factory=PositiveSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    seed: int = 0
    out: str | None = None
    base_dir: str = "."

    def path(self, name: str) -> str:
        """Dataset path resolved against the config file's directory."""
        raw = getattr(self.data, name)
        if raw is None:
            return None
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)


def _settings(cls, raw, name: str):
    return cls(**_section(raw, name, [f.name for f in fields(cls)]))


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a config dict; raises ConfigError on any problem."""
    top = _section(raw, "<top>", (
        "data", "schema", "metapaths", "augment", "positives", "train",
        "eval", "seed", "out"))
    for required in ("data", "schema", "metapaths"):
        if required not in top:
            raise ConfigError(f"missing required section {required!r}")
    seed = top.get("seed", 0)
    _check_type("seed", seed, "int")
    try:
        data = DataPaths(**_section(top["data"], "data",
                                    ("nodes", "edges", "features", "labels")))
        schema_raw = _section(top["schema"], "schema",
                              ("types", "target_type", "relations"))
        relations = tuple(
            RelationDecl(**_strings("schema.relations[]", _section(
                r, "relations[]", ("name", "src", "dst"))))
            for r in _array("schema.relations", schema_raw.get("relations", [])))
        schema = SchemaConfig(
            types=_names("schema.types", schema_raw["types"]),
            relations=relations,
            target_type=_check_type("schema.target_type",
                                    schema_raw["target_type"], "str"))
        metapaths = [
            MetapathSpec(name=_check_type("metapaths[].name", m["name"], "str"),
                         relations=_names("metapaths[].relations", m["relations"]))
            for m in (_section(m, "metapaths[]", ("name", "relations"))
                      for m in _array("metapaths", top["metapaths"]))]
        train_raw = dict(_section(top.get("train", {}), "train", (
            "lr", "tau", "dim", "patience", "max_epochs", "fusion",
            "share_encoder", "literal_eq2", "loss_weights")))
        weights = _section(train_raw.pop("loss_weights", {}), "loss_weights",
                           ("local", "global"))
        train = TrainSettings(
            loss_weight_local=weights.get("local", 1.0),
            loss_weight_global=weights.get("global", 1.0),
            **train_raw)
        cfg = RunConfig(
            data=data,
            schema=schema,
            metapaths=metapaths,
            augment=_settings(AugmentSettings, top.get("augment", {}), "augment"),
            positives=_settings(PositiveSettings, top.get("positives", {}),
                                "positives"),
            train=train,
            eval=_settings(EvalSettings, top.get("eval", {}), "eval"),
            seed=seed,
            out=_check_type("out", top.get("out"), "str | None"),
            base_dir=base_dir)
    except ConfigError:
        raise
    except (HinError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.metapaths:
        raise ConfigError("at least one metapath is required")
    names = [m.name for m in cfg.metapaths]
    if len(set(names)) != len(names):
        raise ConfigError("metapath names must be unique")
    return cfg


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path),
                        base_dir=os.path.dirname(os.path.abspath(path)))


def to_dict(cfg: RunConfig) -> dict:
    """Full canonical dict (every key explicit); inverse of parse_config."""
    train = asdict(cfg.train)
    train["loss_weights"] = {"local": train.pop("loss_weight_local"),
                             "global": train.pop("loss_weight_global")}
    out = {
        "data": {k: v for k, v in asdict(cfg.data).items() if v is not None},
        "schema": {
            "types": list(cfg.schema.types),
            "target_type": cfg.schema.target_type,
            "relations": [{"name": r.name, "src": r.src, "dst": r.dst}
                          for r in cfg.schema.relations],
        },
        "metapaths": [{"name": m.name, "relations": list(m.relations)}
                      for m in cfg.metapaths],
        "augment": asdict(cfg.augment),
        "positives": asdict(cfg.positives),
        "train": train,
        "eval": asdict(cfg.eval),
        "seed": cfg.seed,
    }
    if cfg.out is not None:
        out["out"] = cfg.out
    return out


def parse_synth_config(raw: dict) -> SynthConfig:
    """Standalone document for the fixture generator."""
    allowed = ("blocks", "block_size", "metapaths", "p_intra", "p_inter",
               "feature_dim", "feature_shift", "feature_noise", "seed")
    try:
        return SynthConfig(**_section(raw, "synth", allowed))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_synth_config(path) -> SynthConfig:
    return parse_synth_config(_read_json(path))
