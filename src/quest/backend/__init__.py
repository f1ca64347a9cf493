"""Pluggable model backends and the tiny trainable reference transformer."""

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
    available_backends,
    check_loss_mask,
    create_session,
    register_backend,
)


def _reference_factory(checkpoint=None, **config_overrides):
    if checkpoint is not None:
        if config_overrides:
            raise ValueError("pass either a checkpoint or config overrides, not both")
        return load_checkpoint(checkpoint)
    if not config_overrides:
        # a fresh model's output head is zero: it would answer every item with nothing
        raise ValueError(
            "the reference backend needs a model checkpoint: pass --checkpoint FILE.qstb"
        )
    return ReferenceBackend.fresh(RefConfig(**config_overrides))


register_backend("reference", _reference_factory)

__all__ = [
    "AdaptableModuleInfo",
    "Backend",
    "CharTokenizer",
    "DEFAULT_CHARSET",
    "ModelSession",
    "RefConfig",
    "ReferenceBackend",
    "TokenSequence",
    "available_backends",
    "check_loss_mask",
    "create_session",
    "init_params",
    "load_checkpoint",
    "param_names",
    "param_shapes",
    "register_backend",
    "save_checkpoint",
    "train_reference",
]
