"""Declarative run configuration: JSON file plus dotted --set overrides.

The dataclass tree mirrors the JSON shape. Unknown keys anywhere are
rejected with their full path. Defaults are the full-scale training
settings (Adam lr 1e-4, batch 8, 256/128 patches, 64..512 filters);
RunConfig.desk() shrinks everything to laptop scale.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .network import ModelConfig


class ConfigError(ValueError):
    """Unparseable config, unknown key, wrong-kind value, or malformed
    override."""


@dataclass
class TrainSettings:
    lr: float = 1e-4
    batch: int = 8
    epochs: int = 1
    seed: int = 0
    val_fraction: float = 0.2
    augment: bool = True


@dataclass
class DataSettings:
    root: str = ""  # dataset directory; empty selects the synthetic set
    synth_n: int = 8
    synth_hw: int = 64
    synth_seed: int = 8
    patch: int = 256
    stride: int = 128


@dataclass
class EvalSettings:
    threshold: float = 0.5


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    data: DataSettings = field(default_factory=DataSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    @staticmethod
    def desk() -> "RunConfig":
        """Laptop-scale preset used by the demos and regression runs.

        Narrow filters, one attention pass per fusion, and a faster BN
        running-stat horizon; small datasets drift too quickly for the
        full-scale momentum.
        """
        cfg = RunConfig()
        cfg.model.encoder.stage_filters = (8, 16, 32, 64, 64, 64)
        cfg.model.decoder.rlab_iterations = (1, 1, 1, 1, 1)
        cfg.model.block.attention_token_cap = 256
        cfg.model.block.bn_momentum = 0.85
        cfg.train.batch = 4
        cfg.data.patch = 64
        cfg.data.stride = 32
        return cfg


def _apply_dict(obj, data: dict, path: str):
    """Assign `data` onto dataclass `obj`, rejecting unknown keys and values
    of the wrong kind for the field's declared type: non-booleans for a
    bool, non-numbers for a number (an int is fine for a float), non-strings
    for a string, lists that change a tuple's length or hold anything but
    integers (every tuple in the tree is per-stage counts or widths), and
    for a dict (the upsampler map) anything but an object of strings."""
    hints = typing.get_type_hints(type(obj))
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key '{where}'")
        if dataclasses.is_dataclass(hints[key]):
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be an object")
            _apply_dict(getattr(obj, key), value, where)
            continue
        current = getattr(obj, key)
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if value is None and type(None) in kinds:
            pass
        elif bool in kinds:
            if not isinstance(value, bool):
                raise ConfigError(f"'{where}' must be true/false")
        elif int in kinds or float in kinds:
            want = "a number" if float in kinds else "an integer"
            numbers = (int, float) if float in kinds else int
            if isinstance(value, bool) or not isinstance(value, numbers):
                raise ConfigError(f"'{where}' must be {want}, got {value!r}")
        elif tuple in kinds:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"'{where}' must be a list")
            if isinstance(current, tuple) and len(value) != len(current):
                raise ConfigError(f"'{where}' needs {len(current)} values, "
                                  f"got {len(value)}")
            if any(isinstance(v, bool) or not isinstance(v, int) for v in value):
                raise ConfigError(f"'{where}' must hold integers, "
                                  f"got {json.dumps(value)}")
            value = tuple(value)
        elif str in kinds:
            if not isinstance(value, str):
                raise ConfigError(f"'{where}' must be a string, "
                                  f"got {json.dumps(value)}")
        elif dict in kinds:
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be an object, "
                                  f"got {json.dumps(value)}")
            for k, v in sorted(value.items()):
                if k not in current:
                    raise ConfigError(f"unknown config key '{where}.{k}'")
                if not isinstance(v, str):
                    raise ConfigError(f"'{where}.{k}' must be a string, "
                                      f"got {json.dumps(v)}")
            value = {**current, **value}
        setattr(obj, key, value)


def _parse_override(item: str):
    if "=" not in item:
        raise ConfigError(f"override '{item}' is not key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override '{item}' has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings may be given unquoted
    return key, value


def load_config(path: str | None = None, overrides=(),
                base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus --set overrides."""
    cfg = base if base is not None else RunConfig()
    if path:
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _apply_dict(cfg, data, "")
    for item in overrides:
        key, value = _parse_override(item)
        tree: dict = {}
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
        _apply_dict(cfg, tree, "")
    try:
        cfg.model.decoder.kinds()
    except ValueError as e:
        raise ConfigError(f"model.decoder.upsampler: {e}") from None
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: RunConfig) -> None:
    """Reject values the network cannot be built or trained from before any
    compute. RSU blocks need depth >= 3 and every stage a channel; the
    attention token cap is a positive count (or None). Epochs may be 0 (an
    initial checkpoint only), the learning rate must be positive, and BN
    momentum and the eval threshold are shares. A batch needs a sample and
    the validation share must leave one; synthetic images must survive the
    encoder's five 2x pools, the patch is an input side (check_input_side),
    and the patch lattice needs a stride in 1..patch."""
    enc, blk = cfg.model.encoder, cfg.model.block
    t, d = cfg.train, cfg.data
    for key, values, least in (("model.encoder.rsu_depths", enc.rsu_depths, 3),
                               ("model.encoder.stage_filters", enc.stage_filters, 1)):
        if min(values) < least:
            raise ConfigError(f"'{key}' entries must be at least {least}, "
                              f"got {json.dumps(list(values))}")
    if enc.input_channels < 1:
        raise ConfigError(f"'model.encoder.input_channels' must be at least 1, "
                          f"got {enc.input_channels}")
    if blk.attention_token_cap is not None and blk.attention_token_cap < 1:
        raise ConfigError(f"'model.block.attention_token_cap' must be at least 1 "
                          f"or null, got {blk.attention_token_cap}")
    for key, value in (("model.block.bn_momentum", blk.bn_momentum),
                       ("eval.threshold", cfg.eval.threshold)):
        if not 0 <= value <= 1:
            raise ConfigError(f"'{key}' must be in [0, 1], got {value}")
    if t.epochs < 0:
        raise ConfigError(f"'train.epochs' must be at least 0, got {t.epochs}")
    if not t.lr > 0:
        raise ConfigError(f"'train.lr' must be positive, got {t.lr}")
    if t.batch < 1:
        raise ConfigError(f"'train.batch' must be at least 1, got {t.batch}")
    if not 0 <= t.val_fraction < 1:
        raise ConfigError(f"'train.val_fraction' must be in [0, 1), "
                          f"got {t.val_fraction}")
    check_input_side(cfg.model, d.patch, "data.patch")
    if d.synth_hw <= 0 or d.synth_hw % 32:
        raise ConfigError(f"'data.synth_hw' must be a positive multiple of 32, "
                          f"got {d.synth_hw}")
    if not 1 <= d.stride <= d.patch:
        raise ConfigError(f"'data.stride' must be in 1..data.patch "
                          f"({d.patch}), got {d.stride}")


def check_input_side(model: ModelConfig, side: int, name: str) -> None:
    """Reject a square input side the model cannot run, naming it `name`,
    before any compute. The side must survive the encoder's pools, i.e. be a
    positive multiple of its input_multiple(). Every attention extent is the
    side 2^a * m (m odd) halved some number of times, so power-of-two token
    pooling can meet the cap at every site only if m * m <= cap."""
    enc, cap = model.encoder, model.block.attention_token_cap
    multiple = enc.input_multiple()
    if side <= 0 or side % multiple:
        raise ConfigError(f"'{name}' must be a positive multiple of {multiple}, "
                          f"got {side}")
    odd = side // (side & -side)
    attends = model.decoder.enable_rlab or enc.inner_attention
    if attends and cap is not None and odd * odd > cap:
        raise ConfigError(f"'model.block.attention_token_cap' must be at least "
                          f"{odd * odd} for {name} {side}, got {cap}")
