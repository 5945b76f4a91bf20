"""Encoder-decoder segmentation network on a minimal numpy autodiff core."""

from .tensor import NumericError, Tape, Tensor, backward, count_macs
from .params import (CheckpointMismatch, Parameter, ParameterStore, adam_step,
                     load_checkpoint, save_checkpoint)
from .blocks import BlockConfig
from .encoder import Encoder, EncoderConfig
from .decoder import Decoder, DecoderConfig, SegmentationOutput
from .config import ModelConfig
from .network import SegmentationModel

__version__ = "0.1.0"

__all__ = [
    "NumericError", "Tape", "Tensor", "backward", "count_macs",
    "CheckpointMismatch", "Parameter", "ParameterStore", "adam_step",
    "load_checkpoint", "save_checkpoint", "BlockConfig", "Encoder",
    "EncoderConfig", "Decoder", "DecoderConfig", "SegmentationOutput",
    "ModelConfig", "SegmentationModel", "__version__",
]
