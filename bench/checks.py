"""Correctness checks on the program's outputs.

Every check compares against a property the method must have or against a
figure the benchmark computes apart from the program, never against a stored
copy of earlier output. A check raises ``CheckFailed`` naming the first item
that breaks it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def losses(records, steps: int) -> None:
    """Every record trained for exactly ``steps`` updates, all losses finite."""
    for r in records:
        traj = r.loss_trajectory
        require(len(traj) == steps, f"{r.method} {r.item_id}: {len(traj)} losses, expected {steps}")
        require(all(math.isfinite(x) for x in traj), f"{r.method} {r.item_id}: non-finite loss")


def descent_on_most(records) -> None:
    """The final loss is below the first on more than half of the items."""
    down = sum(1 for r in records if r.loss_trajectory[-1] < r.loss_trajectory[0])
    require(2 * down > len(records), f"loss fell on only {down} of {len(records)} items")


def accuracy_gap(base, adapted, min_gap: float) -> None:
    base_acc = sum(r.correct for r in base) / len(base)
    adapted_acc = sum(r.correct for r in adapted) / len(adapted)
    require(
        adapted_acc >= base_acc + min_gap,
        f"accuracy {adapted_acc:.3f} is not {min_gap} above base {base_acc:.3f}",
    )


def same_answers(records, reference: dict[str, str], what: str) -> None:
    for r in records:
        require(
            r.raw_output == reference[r.item_id],
            f"{r.method} {r.item_id}: answer {r.raw_output!r} differs from {what} {reference[r.item_id]!r}",
        )


def trained_tokens(records, expected: dict[str, int]) -> None:
    for r in records:
        require(
            r.trained_tokens == expected[r.item_id],
            f"{r.method} {r.item_id}: {r.trained_tokens} trained tokens, counted {expected[r.item_id]}",
        )


def visited_tokens(example_lengths: Sequence[int], updates: int, accumulation: int) -> int:
    """Tokens trained on when examples are visited cyclically in order."""
    n = len(example_lengths)
    return sum(example_lengths[i % n] for i in range(updates * accumulation))


def equal(actual, expected, what: str) -> None:
    require(actual == expected, f"{what}: {actual!r} != {expected!r}")


def greedy_tokens(
    logits: np.ndarray,
    prompt_len: int,
    answer: Sequence[int],
    eos_id: int,
    max_len: int,
    max_new_tokens: int,
    what: str,
    tol: float = 1e-3,
) -> None:
    """Each answer token is the argmax, within ``tol``, of full-forward
    ``logits`` over prompt + answer, and decoding stopped where greedy
    decoding must: at end-of-sequence, at the length limit or at the budget."""
    for j, tok in enumerate(answer):
        row = logits[prompt_len - 1 + j]
        require(row[tok] >= row.max() - tol, f"{what}: token {j} ({tok}) is not the argmax")
    if prompt_len + len(answer) < max_len and len(answer) < max_new_tokens:
        row = logits[prompt_len - 1 + len(answer)]
        require(row[eos_id] >= row.max() - tol, f"{what}: decoding stopped before end-of-sequence")


def token_totals(counts: dict, records) -> None:
    """Tokens counted by the tracing wrappers equal the records' totals."""
    equal(
        counts["backend.generate.new_tokens"] + counts["scripted.new_tokens"],
        sum(r.generated_tokens for r in records),
        "generated tokens, wrappers against records",
    )
    equal(
        counts["backend.grads.tokens"],
        sum(r.trained_tokens for r in records),
        "trained tokens, wrappers against records",
    )


def brute_force_vote(answers: Sequence[Optional[str]], same: Callable[[str, str], bool]) -> Optional[str]:
    """The answer agreeing with the most others; ties go to the earliest."""
    best, best_count = None, 0
    for a in answers:
        if a is None:
            continue
        count = sum(1 for b in answers if b is not None and same(a, b))
        if count > best_count:
            best, best_count = a, count
    return best
