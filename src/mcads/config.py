"""Declarative run configuration: JSON file plus dotted --set overrides.

The dataclass tree mirrors the JSON shape. Unknown keys anywhere are
rejected with their full path; check() judges every value, for load_config
and for SegmentationModel alike. Defaults are the full-scale training
settings (Adam lr 1e-4, batch 8, 256/128 patches, 64..512 filters);
RunConfig.desk() shrinks everything to laptop scale.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .blocks import UPSAMPLERS, BlockConfig
from .decoder import DecoderConfig
from .encoder import EncoderConfig


class ConfigError(ValueError):
    """Unparseable config, unknown key, wrong-kind value, or malformed
    override."""


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    block: BlockConfig = field(default_factory=BlockConfig)
    seed: int = 0


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
    synth_hw: int = 256
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
        cfg.data.synth_hw = 64
        cfg.data.patch = 64
        cfg.data.stride = 32
        return cfg


def _apply_dict(obj, data: dict, path: str):
    """Place `data` onto dataclass `obj`, rejecting unknown keys and
    non-object sections; JSON lists become tuples. check() judges the
    values."""
    hints = typing.get_type_hints(type(obj))
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key '{where}'")
        if dataclasses.is_dataclass(hints[key]):
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be an object")
            _apply_dict(getattr(obj, key), value, where)
        else:
            setattr(obj, key, tuple(value) if isinstance(value, list) else value)


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


def load_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus --set overrides."""
    cfg = RunConfig()
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
        for part in reversed(key.split(".")):
            value = {part: value}
        _apply_dict(cfg, value, "")
    check(cfg, "")
    check_input_side(cfg.model, cfg.data.patch, "data.patch")
    if not 1 <= cfg.data.stride <= cfg.data.patch:
        raise ConfigError(f"'data.stride' must be in 1..data.patch "
                          f"({cfg.data.patch}), got {cfg.data.stride}")
    return cfg


# Largest square input side: one 64-channel float32 map at 2^14 is 69 GB.
MAX_INPUT_SIDE = 1 << 14
# Widest stage: a 3x3 conv between two stages this wide holds 9 * 2^32
# weights (155 GB float32), so no wider model can be built. It caps the
# input channels too, which the first stage reads the same way.
MAX_STAGE_FILTERS = 1 << 16
# Most RB iterations per decoder stage; each builds its own convs and BN, so
# the count sets both the parameter count and the depth (the paper uses 5..1).
MAX_RLAB_ITERATIONS = 1 << 10
# Most synthetic images: the set is made whole before the first step, and
# 2^16 images at the smallest side (32) already hold 1 GB.
MAX_SYNTH_N = 1 << 16
# key: (rule, wording) for every value with a range; a tuple's rule holds for
# each entry. RSU blocks need depth >= 3, epochs may be 0 (an initial
# checkpoint only), and synthetic images must survive the encoder's five 2x
# pools.
_RANGES = {
    "model.seed": (lambda v: v >= 0, "at least 0"),
    "model.encoder.rsu_depths": (lambda v: v >= 3, "at least 3"),
    "model.encoder.stage_filters": (lambda v: 1 <= v <= MAX_STAGE_FILTERS,
                                    f"from 1 to {MAX_STAGE_FILTERS}"),
    "model.encoder.input_channels": (lambda v: 1 <= v <= MAX_STAGE_FILTERS,
                                     f"from 1 to {MAX_STAGE_FILTERS}"),
    "model.decoder.upsampler": (lambda v: v in UPSAMPLERS,
                                f"one of {', '.join(UPSAMPLERS)}"),
    "model.decoder.rlab_iterations": (lambda v: 0 <= v <= MAX_RLAB_ITERATIONS,
                                      f"from 0 to {MAX_RLAB_ITERATIONS}"),
    "model.block.attention_token_cap": (lambda v: v >= 1, "at least 1"),
    "model.block.bn_momentum": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "train.lr": (lambda v: 0 < v < math.inf, "positive and finite"),
    "train.batch": (lambda v: v >= 1, "at least 1"),
    "train.epochs": (lambda v: v >= 0, "at least 0"),
    "train.seed": (lambda v: v >= 0, "at least 0"),
    "train.val_fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "data.synth_n": (lambda v: 1 <= v <= MAX_SYNTH_N, f"from 1 to {MAX_SYNTH_N}"),
    "data.synth_hw": (lambda v: 0 < v <= MAX_INPUT_SIDE and v % 32 == 0,
                      f"a positive multiple of 32, at most {MAX_INPUT_SIDE}"),
    "data.synth_seed": (lambda v: v >= 0, "at least 0"),
    "eval.threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def _show(value) -> str:
    return json.dumps(value, default=repr)  # repr: a non-JSON API value


def check(section, path: str) -> None:
    """Judge every value of config dataclass `section` at dotted key `path`
    ("" for a RunConfig): its kind from the declared type (true/false, a
    number, an integer, a string, or a list keeping its default's length and
    entry type), then its _RANGES row. Raises ConfigError naming the key."""
    hints = typing.get_type_hints(type(section))
    for f in dataclasses.fields(section):
        where = f"{path}.{f.name}" if path else f.name
        kind, value = hints[f.name], getattr(section, f.name)
        if dataclasses.is_dataclass(kind):
            if not isinstance(value, kind):
                raise ConfigError(f"'{where}' must be an object")
            check(value, where)
            continue
        if kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"'{where}' must be true/false")
        elif kind in (int, float):
            want = "a number" if kind is float else "an integer"
            numbers = (int, float) if kind is float else int
            if isinstance(value, bool) or not isinstance(value, numbers):
                raise ConfigError(f"'{where}' must be {want}, got {_show(value)}")
        elif kind is tuple:
            entry = type(f.default[0])
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"'{where}' must be a list, got {_show(value)}")
            if len(value) != len(f.default):
                raise ConfigError(f"'{where}' needs {len(f.default)} values, "
                                  f"got {len(value)}")
            if any(isinstance(v, bool) or not isinstance(v, entry) for v in value):
                want = "integers" if entry is int else "strings"
                raise ConfigError(f"'{where}' must hold {want}, "
                                  f"got {_show(value)}")
        elif not isinstance(value, str):
            raise ConfigError(f"'{where}' must be a string, got {_show(value)}")
        rule, wording = _RANGES.get(where, (None, None))
        each = kind is tuple
        if rule and not all(rule(v) for v in (value if each else (value,))):
            raise ConfigError(f"'{where}'{' entries' if each else ''} must be "
                              f"{wording}, got {_show(value)}")


def check_input_side(model: ModelConfig, side: int, name: str) -> None:
    """Reject a square input side the model cannot run, naming it `name`,
    before any compute. The side must be at most MAX_INPUT_SIDE and survive
    the encoder's pools, i.e. be a positive multiple of 2 ** input_pools();
    that power is never formed, as an absurd RSU depth would make it too
    large to compute. Every attention extent is the side 2^a * m (m odd)
    halved some number of times, so power-of-two token pooling can meet the
    cap at every site only if m * m <= cap."""
    enc, cap = model.encoder, model.block.attention_token_cap
    pools = enc.input_pools()
    if not 0 < side <= MAX_INPUT_SIDE or (side & -side).bit_length() <= pools:
        raise ConfigError(f"'{name}' must be a positive multiple of "
                          f"2^{pools}, at most {MAX_INPUT_SIDE}, got {side}")
    odd = side // (side & -side)
    attends = model.decoder.enable_rlab or enc.inner_attention
    if attends and odd * odd > cap:
        raise ConfigError(f"'model.block.attention_token_cap' must be at least "
                          f"{odd * odd} for {name} {side}, got {cap}")
