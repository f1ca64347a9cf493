"""Model sessions, adaptable-module metadata, and the backend protocol.

A backend bundles tokenizer + parameters + forward/sampling machinery. A
ModelSession wraps one backend together with an rng seed; adapters are values
passed to each backend call, and the base parameters behind a session are
never mutated. Any object that satisfies ``Backend`` can stand in for the
built-in reference model: wrap it in a ``ModelSession``, or hand the CLI's
``run_command`` a factory that builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, Sequence

import numpy as np

TokenSequence = list[int]


@dataclass(frozen=True)
class AdaptableModuleInfo:
    """One weight matrix that accepts a low-rank adapter."""

    name: str
    d_in: int
    d_out: int
    dtype: str = "float32"


class Backend(Protocol):
    """Structural interface every backend must satisfy.

    Adapter-aware methods accept the adapter state duck-typed: it must expose
    ``factors`` (mapping module name -> (A, B) arrays) and ``scaling``, and
    for a loss call given a ``dropout_rng``, ``spec.dropout``.

    Backends meant to be optimized at test time also offer the two loss
    entry points, ``masked_nll_with_grads(tokens, loss_mask, adapter,
    dropout_rng=None, lengths=None)`` and ``entropy_with_grads(tokens,
    adapter, dropout_rng=None, lengths=None)``. Each takes one micro-batch
    packed end to end: ``tokens`` (and ``loss_mask``) hold every example and
    ``lengths`` gives each example's length, summing to ``len(tokens)``;
    ``None`` means one example. Every example's mask must pass
    ``check_loss_mask``. An example's masked NLL is the mean next-token NLL
    over its mask-1 positions (target t predicted from prefix < t); its
    entropy is the mean entropy of its next-token distributions. They
    return the sum of the per-example losses and ``{module: (dA, dB)}``
    with the sum of the per-example adapter gradients, both added in
    example order. ``dropout_rng`` switches on the adapter's dropout; the
    examples draw from it in example order. Without it the loss is the
    eval-mode loss. ``adapter=None`` gives the base model's loss and no
    gradients, ``{}``.

    A backend may also offer ``prefetch(requests)``. Each request is
    ``generate``'s arguments, ``(prompt, max_new_tokens, temperature,
    adapter, seed)``; callers hand it exactly the requests they are about to
    read back through ``generate``. The backend alone decides which of them
    decode together, and holds their outputs until the next ``prefetch``
    call; ``generate`` reads a held output (an adapter of equal factor
    values counts as the same) without decoding. It is optional; callers
    look it up with ``getattr`` and otherwise call ``generate`` alone, which
    must return the same tokens either way.
    """

    name: str
    vocab_size: int
    max_len: int
    eos_id: int

    def tokenize(self, text: str) -> TokenSequence: ...

    def detokenize(self, tokens: Sequence[int]) -> str: ...

    def forward_logits(self, tokens: Sequence[int], adapter: Any = None) -> np.ndarray:
        """Per-position next-token scores, shape (len(tokens), vocab)."""
        ...

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float,
        adapter: Any = None,
        seed: Optional[int] = None,
    ) -> TokenSequence:
        """Continue the prompt; temperature 0 is greedy with lowest-id tie-break.

        The returned sequence excludes both the prompt and the end-of-sequence
        token that terminated decoding. Sampling is a pure function of
        (parameters, adapter, seed, prompt).
        """
        ...

    def adaptable_modules(self) -> list[AdaptableModuleInfo]: ...


@dataclass(frozen=True)
class ModelSession:
    """One backend plus the rng seed its sampling calls derive from."""

    backend: Any
    seed: int = 0

    def clone(self, seed: Optional[int] = None) -> "ModelSession":
        """Session over the same frozen base with another seed."""
        return ModelSession(backend=self.backend, seed=self.seed if seed is None else seed)


def check_loss_mask(tokens: Sequence[int], loss_mask: Sequence[int]) -> None:
    """Validate the masked-NLL preconditions shared by all backends."""
    if len(loss_mask) != len(tokens):
        raise ValueError(
            f"loss mask length {len(loss_mask)} does not match token length {len(tokens)}"
        )
    if not any(loss_mask):
        raise ValueError("loss mask has no positions set")
    if loss_mask[0]:
        raise ValueError("loss mask must be 0 at position 0 (no prefix to predict from)")

