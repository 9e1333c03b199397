"""Run configuration: one JSON document drives the whole pipeline.

Every section is a dataclass whose fields are its JSON keys (a trailing
underscore, as in `global_`, is dropped from the key). One loader walks
those dataclasses: it rejects unknown keys, names each missing required
key, and checks each value against its field's annotation. Each settings
section also checks its own types and ranges when built, so sections built
in code obey the same rules, and the pipeline modules take the sections
directly. These are the only range checks: library functions take their
values as given. Relative dataset paths resolve against the config file's
directory. A single top-level seed feeds every random substream.
"""

from __future__ import annotations

import json
import os
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .hin import HinError, MetapathSpec, SchemaConfig, resolve_chain

FUSION_MODES = ("sum", "concat")


class ConfigError(ValueError):
    """The config document is malformed or carries invalid values."""


# Accepted Python types per scalar annotation. bool is a subclass of int,
# so it is rejected wherever a number is expected; ints pass as floats.
# Any other class (a nested section) must be an instance of itself.
_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "true or false"), str: (str, "a string")}


def _check_type(name: str, value, kind):
    """`value` if it has the annotated type (`T | None` also takes None),
    else ConfigError."""
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return value
        kind = options[0]
    accepted, described = _TYPES.get(kind, (kind, f"a {kind.__name__} section"))
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {described}, got {value!r}")
    # NaN fails every comparison; an int past the float range is infinite
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _key(f) -> str:
    return f.name.rstrip("_")


def _load(cls, raw, where: str):
    """An instance of the dataclass `cls` from the JSON object `raw`.

    `where` is the key path of `raw` ("" for the top level); error messages
    name keys by it, with `[]` marking an array element.
    """
    section = where or "<top>"
    if not isinstance(raw, dict):
        raise ConfigError(f"section {section!r} must be an object")
    keyed = {_key(f): f for f in fields(cls) if f.init}
    unknown = sorted(set(raw) - set(keyed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {section!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, f in keyed.items():
        if key in raw:
            path = f"{where}.{key}" if where else key
            values[f.name] = _value(hints[f.name], raw[key], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {key!r} in section {section!r}")
    try:
        return cls(**values)
    except HinError as exc:  # the schema's own rules
        raise ConfigError(str(exc)) from exc


def _value(kind, raw, where: str):
    if is_dataclass(kind):
        return _load(kind, raw, where)
    if typing.get_origin(kind) is tuple:  # never a string split into chars
        if not isinstance(raw, list):
            raise ConfigError(f"{where} must be an array, got {raw!r}")
        item = typing.get_args(kind)[0]
        return tuple(_value(item, value, f"{where}[]") for value in raw)
    return _check_type(where, raw, kind)


def _dump(value):
    """The JSON form of a loaded value; None-valued keys are left out."""
    if is_dataclass(value):
        return {_key(f): _dump(getattr(value, f.name)) for f in fields(value)
                if f.init and getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    return value


class _Settings:
    """Base of the config sections: checks every field's type against its
    annotation, then each (holds, message) range rule from `_rules()`."""

    def __post_init__(self):
        for name, kind in typing.get_type_hints(type(self)).items():
            _check_type(name, getattr(self, name), kind)
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

    def _rules(self):
        return ((0.0 <= self.p_e <= 1.0, f"p_e must be in [0,1], got {self.p_e}"),
                (0.0 <= self.p_f <= 1.0, f"p_f must be in [0,1], got {self.p_f}"))


@dataclass(frozen=True)
class PositiveSettings(_Settings):
    alpha: float = 0.85
    tol: float = 1e-6
    max_iter: int = 100
    k_t: int = 8                  # paper grid 0..128
    k_s: int = 8

    def _rules(self):
        return ((0.0 < self.alpha <= 1.0, f"alpha must be in (0,1], got {self.alpha}"),
                (self.tol > 0, f"tol must be > 0, got {self.tol}"),
                (self.max_iter >= 1, "max_iter must be >= 1"),
                (min(self.k_t, self.k_s) >= 0, "k_t and k_s must be >= 0"))


@dataclass(frozen=True)
class LossWeights(_Settings):
    local: float = 1.0
    global_: float = 1.0          # key "global"

    def _rules(self):
        return tuple((value >= 0, f"loss_weights.{name} must be >= 0, got {value}")
                     for name, value in (("local", self.local),
                                         ("global", self.global_)))


@dataclass(frozen=True)
class TrainSettings(_Settings):
    lr: float = 1e-3              # paper grid 5e-4..5e-3
    tau: float = 0.5              # paper grid 0.2..0.8
    dim: int = 64
    patience: int = 20
    max_epochs: int = 500
    fusion: str = "sum"
    share_encoder: bool = False
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def _rules(self):
        return ((self.lr >= 0, f"lr must be >= 0, got {self.lr}"),
                (self.tau > 0, f"tau must be > 0, got {self.tau}"),
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


@dataclass(frozen=True)
class SynthConfig(_Settings):
    blocks: int = 3
    block_size: int = 30
    metapaths: int = 2
    p_intra: float = 0.3
    p_inter: float = 0.02
    feature_dim: int = 16
    feature_shift: float = 4.0
    feature_noise: float = 1.0
    seed: int = 0

    def _rules(self):
        return ((min(self.blocks, self.block_size, self.metapaths) >= 1,
                 "blocks, block_size, metapaths must be >= 1"),
                (0.0 <= self.p_intra <= 1.0, "p_intra must be in [0,1]"),
                (0.0 <= self.p_inter <= 1.0, "p_inter must be in [0,1]"),
                (self.feature_dim >= self.blocks,
                 "feature_dim must be >= blocks (one shift axis per block)"))


# Characters that would put `view_<name>.tsv` outside the output directory,
# that no file name can hold, or that would split a row of `views.tsv`.
_NOT_IN_NAMES = {"/", "\0", "\t", "\r", "\n", os.sep, os.altsep} - {None}
# Longest metapath name in UTF-8 bytes, so that `view_<name>.tsv.<pid>.tmp`,
# the view file's temporary name, fits a 255-byte file name.
MAX_NAME_BYTES = 200


@dataclass
class RunConfig:
    data: DataPaths
    schema: SchemaConfig
    metapaths: tuple[MetapathSpec, ...]
    augment: AugmentSettings = field(default_factory=AugmentSettings)
    positives: PositiveSettings = field(default_factory=PositiveSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    seed: int = 0
    out: str | None = None
    base_dir: str = field(default=".", init=False)

    def __post_init__(self):
        names = [m.name for m in self.metapaths]
        if not names:
            raise ConfigError("at least one metapath is required")
        if len(set(names)) != len(names):
            raise ConfigError("metapath names must be unique")
        for name in names:
            if not name or _NOT_IN_NAMES & set(name):
                raise ConfigError(
                    "metapaths[].name must be non-empty and hold no path "
                    f"separator, NUL, tab, CR or LF, got {name!r}")
            try:
                size = len(name.encode("utf-8"))
            except UnicodeEncodeError:  # a lone surrogate, e.g. JSON "\ud800"
                raise ConfigError(
                    "metapaths[].name must be valid UTF-8 text, got "
                    f"{name!r}") from None
            if size > MAX_NAME_BYTES:
                raise ConfigError(f"metapaths[].name must be at most "
                                  f"{MAX_NAME_BYTES} bytes of UTF-8, got {size}")
        for spec in self.metapaths:  # `_load` makes its HinError a ConfigError
            resolve_chain(self.schema, spec)

    def path(self, name: str) -> str:
        """Dataset path resolved against the config file's directory."""
        raw = getattr(self.data, name)
        if raw is None:
            return None
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a config dict; raises ConfigError on any problem."""
    cfg = _load(RunConfig, raw, "")
    cfg.base_dir = base_dir
    return cfg


def _unique_keys(pairs):
    """A JSON object's dict; a key it repeats makes the document invalid."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
    return dict(pairs)


def _read_json(path):
    """The JSON document at `path`. Python's json reads the non-standard
    literals NaN, Infinity and -Infinity as numbers, which a float field
    then rejects as it does 1e400. A document nested too deep to parse
    (RecursionError), holding an integer too long to convert or repeating
    a key within one object is invalid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, no read permission, ...
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path),
                        base_dir=os.path.dirname(os.path.abspath(path)))


def to_dict(cfg: RunConfig) -> dict:
    """Full canonical dict (every key explicit); inverse of parse_config."""
    return _dump(cfg)


def parse_synth_config(raw: dict) -> SynthConfig:
    """Standalone document for the fixture generator."""
    return _load(SynthConfig, raw, "synth")


def load_synth_config(path) -> SynthConfig:
    return parse_synth_config(_read_json(path))
