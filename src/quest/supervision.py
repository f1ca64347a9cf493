"""Per-query supervision: prompt the generator, parse problem--solution pairs,
and turn pairs into masked training examples.

The generator is asked for exactly one new problem per call, wrapped in
literal ``<problem>``/``<solution>`` delimiters so parsing is checkable and a
malformed sample can be retried. Near-duplicate pairs are kept on purpose:
self-generated variants repeat naturally and filtering them would change the
training distribution.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from .backend.session import ModelSession
from .seeding import derive_seed

log = logging.getLogger(__name__)

DEFAULT_SYSTEM_PROMPT = (
    "Please reason step by step, and put your final answer within \\boxed{}. "
    "Carefully reconsider the underlying concept of the question."
)

PROBLEM_OPEN, PROBLEM_CLOSE = "<problem>", "</problem>"
SOLUTION_OPEN, SOLUTION_CLOSE = "<solution>", "</solution>"


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    system_prompt: str = DEFAULT_SYSTEM_PROMPT

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("query text is empty")


@dataclass(frozen=True)
class AuxPair:
    """One generated problem--solution pair; the atom of the per-query dataset."""

    problem: str
    solution: str
    source_index: int = 0
    conditioned: bool = True
    gen_tokens: int = 0

    def __post_init__(self):
        if not self.problem.strip() or not self.solution.strip():
            raise ValueError("problem and solution must both be non-empty")


@dataclass(frozen=True)
class GenConfig:
    n_pairs: int = 5
    max_new_tokens: int = 4096
    temperature: float = 0.8
    max_parse_retries: int = 2
    domain: str = "mathematics"

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_parse_retries < 0:
            raise ValueError("max_parse_retries must be >= 0")


@dataclass(frozen=True)
class ParseFailure:
    """Returned (not raised) when generator output has no usable pair."""

    raw: str
    reason: str


@dataclass(frozen=True)
class DatasetGeneration:
    """Pairs plus token telemetry covering every generation call, retries included."""

    pairs: tuple[AuxPair, ...]
    generated_tokens: int
    calls: int


def build_generation_prompt(query: Query, index: int) -> str:
    """Prompt asking for one query-conditioned practice problem plus its solution."""
    return (
        f"{query.text}\n\n"
        f"Compose practice problem {index} sharing this question's concepts, then "
        f"solve it completely. Answer in the form "
        f"{PROBLEM_OPEN}...{PROBLEM_CLOSE}{SOLUTION_OPEN}...{SOLUTION_CLOSE}\n"
    )


def build_unconditioned_prompt(index: int, domain: str = "mathematics") -> str:
    """Query-free variant: a self-posed problem from the general domain."""
    return (
        f"Compose practice problem {index} of your own from {domain}, stated in "
        f"full, then solve it completely. Answer in the form "
        f"{PROBLEM_OPEN}...{PROBLEM_CLOSE}{SOLUTION_OPEN}...{SOLUTION_CLOSE}\n"
    )


def parse_pairs(raw: str) -> Union[list[AuxPair], ParseFailure]:
    """Extract every well-formed delimiter block pair, in order.

    Empty bodies and delimiters left over outside complete blocks are parse
    failures; the failure carries the raw text so callers can log and retry.
    """
    pairs = []
    rest = []
    pos = 0
    cursor = 0
    while True:
        p_open = raw.find(PROBLEM_OPEN, cursor)
        if p_open < 0:
            rest.append(raw[cursor:])
            break
        p_close = raw.find(PROBLEM_CLOSE, p_open)
        if p_close < 0:
            return ParseFailure(raw, "unclosed <problem> block")
        s_open = raw.find(SOLUTION_OPEN, p_close)
        if s_open < 0:
            return ParseFailure(raw, "<problem> block without a <solution> block")
        s_close = raw.find(SOLUTION_CLOSE, s_open)
        if s_close < 0:
            return ParseFailure(raw, "unclosed <solution> block")
        problem = raw[p_open + len(PROBLEM_OPEN) : p_close].strip()
        solution = raw[s_open + len(SOLUTION_OPEN) : s_close].strip()
        if not problem:
            return ParseFailure(raw, "empty problem body")
        if not solution:
            return ParseFailure(raw, "empty solution body")
        rest.append(raw[cursor:p_open])
        pairs.append(AuxPair(problem=problem, solution=solution, source_index=pos))
        pos += 1
        cursor = s_close + len(SOLUTION_CLOSE)
    leftovers = "".join(rest)
    for token in (PROBLEM_OPEN, PROBLEM_CLOSE, SOLUTION_OPEN, SOLUTION_CLOSE):
        if token in leftovers:
            return ParseFailure(raw, f"unmatched delimiter {token}")
    if not pairs:
        return ParseFailure(raw, "no delimited pairs found")
    return pairs


def _generate_pairs(
    session: ModelSession,
    cfg: GenConfig,
    prompt_for: "callable",
    conditioned: bool,
) -> DatasetGeneration:
    if session.adapter is not None:
        raise ValueError("pair generation must run on the frozen base (detach the adapter)")
    backend = session.backend
    prompts = {i: backend.tokenize(prompt_for(i)) for i in range(1, cfg.n_pairs + 1)}
    prefetch = getattr(backend, "prefetch", None)
    if prefetch is not None:
        # every slot's first attempt decodes in lock-step; retries decode alone
        prefetch(
            [(ids, derive_seed(session.seed, "pairgen", i, 0)) for i, ids in prompts.items()],
            cfg.max_new_tokens,
            cfg.temperature,
        )
    pairs: list[AuxPair] = []
    total_tokens = 0
    calls = 0
    for i, prompt_ids in prompts.items():
        for attempt in range(cfg.max_parse_retries + 1):
            calls += 1
            try:
                out = backend.generate(
                    prompt_ids,
                    cfg.max_new_tokens,
                    cfg.temperature,
                    adapter=None,
                    seed=derive_seed(session.seed, "pairgen", i, attempt),
                )
            except ValueError as exc:
                log.warning("pair %d attempt %d: generation failed (%s)", i, attempt, exc)
                break
            total_tokens += len(out)
            parsed = parse_pairs(backend.detokenize(out))
            if isinstance(parsed, ParseFailure):
                log.debug("pair %d attempt %d: %s", i, attempt, parsed.reason)
                continue
            first = parsed[0]
            pairs.append(
                replace(first, source_index=i, conditioned=conditioned, gen_tokens=len(out))
            )
            break
    return DatasetGeneration(pairs=tuple(pairs), generated_tokens=total_tokens, calls=calls)


def generate_dataset(session: ModelSession, query: Query, cfg: GenConfig) -> DatasetGeneration:
    """Sample up to N query-conditioned pairs from the frozen base model.

    One generation call per slot with a bounded retry budget; an empty result
    is not an error and signals "skip adaptation" downstream.
    """
    return _generate_pairs(
        session, cfg, lambda i: build_generation_prompt(query, i), conditioned=True
    )


def generate_unconditioned_dataset(session: ModelSession, cfg: GenConfig) -> DatasetGeneration:
    """Ablation arm: same mechanics with a prompt that never mentions the query."""
    return _generate_pairs(
        session, cfg, lambda i: build_unconditioned_prompt(i, cfg.domain), conditioned=False
    )


def format_answer_prompt(problem_text: str, system_prompt: str = "") -> str:
    """The prompt a model is answered (and trained) against for one problem."""
    if system_prompt:
        return f"{system_prompt}\n{problem_text}\n"
    return f"{problem_text}\n"


class SolutionTruncated(ValueError):
    """Raised when truncation leaves no solution tokens to train on."""


def make_training_example(
    pair: AuxPair,
    backend,
    system_prompt: str = "",
    max_seq_len: Optional[int] = None,
) -> tuple[list[int], list[int]]:
    """Tokens plus a loss mask selecting solution (and end-marker) positions.

    Sequences past the backend/config limit are truncated from the right with
    a warning; an example whose solution is fully truncated is invalid.
    """
    prompt_ids = backend.tokenize(format_answer_prompt(pair.problem, system_prompt))
    if not prompt_ids:
        raise ValueError("problem tokenized to an empty prompt")
    solution_ids = backend.tokenize(pair.solution)
    tokens = prompt_ids + solution_ids + [backend.eos_id]
    mask = [0] * len(prompt_ids) + [1] * (len(solution_ids) + 1)
    limit = backend.max_len
    if max_seq_len is not None:
        limit = min(limit, max_seq_len)
    if len(tokens) > limit:
        log.warning(
            "training example truncated from %d to %d tokens (pair %d)",
            len(tokens),
            limit,
            pair.source_index,
        )
        tokens, mask = tokens[:limit], mask[:limit]
        if not any(mask):
            raise SolutionTruncated(
                f"solution of pair {pair.source_index} fully truncated at {limit} tokens"
            )
    return tokens, mask


# -- pair files (JSON Lines, one object per pair) -------------------------------


def dump_pairs(pairs: Sequence[AuxPair], path: Union[str, Path], query_id: str = "") -> None:
    with open(path, "w", encoding="utf-8") as f:
        for pair in pairs:
            f.write(
                json.dumps(
                    {
                        "query_id": query_id,
                        "index": pair.source_index,
                        "conditioned": pair.conditioned,
                        "problem": pair.problem,
                        "solution": pair.solution,
                        "gen_tokens": pair.gen_tokens,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_pairs(path: Union[str, Path]) -> list[AuxPair]:
    pairs = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                pairs.append(
                    AuxPair(
                        problem=obj["problem"],
                        solution=obj["solution"],
                        source_index=int(obj.get("index", lineno)),
                        conditioned=bool(obj.get("conditioned", True)),
                        gen_tokens=int(obj.get("gen_tokens", 0)),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed pair line ({exc})") from None
    return pairs
