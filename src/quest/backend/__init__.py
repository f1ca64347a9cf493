"""The backend protocol and the tiny trainable reference transformer."""

from .reference import (
    DEFAULT_CHARSET,
    CharTokenizer,
    RefConfig,
    ReferenceBackend,
    init_params,
    param_names,
    param_shapes,
    train_reference,
)
from .serialize import load_checkpoint, save_checkpoint
from .session import (
    AdaptableModuleInfo,
    Backend,
    ModelSession,
    TokenSequence,
    check_loss_mask,
)

__all__ = [
    "AdaptableModuleInfo",
    "Backend",
    "CharTokenizer",
    "DEFAULT_CHARSET",
    "ModelSession",
    "RefConfig",
    "ReferenceBackend",
    "TokenSequence",
    "check_loss_mask",
    "init_params",
    "load_checkpoint",
    "param_names",
    "param_shapes",
    "save_checkpoint",
    "train_reference",
]
