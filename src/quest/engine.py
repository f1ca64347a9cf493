"""Test-time optimization engine: the query-conditioned self-training pipeline,
entropy/perplexity-minimization baselines, and self-consistency sampling.

All methods share one recipe and one loop, ``_train``: run T AdamW updates on
low-rank adapter factors while the base stays frozen, answer with greedy
decoding, then discard the adapter (per-query reset). quest trains on
generated pairs, TLM on the query's NLL, TENT on the query's entropy. "T steps"
counts optimizer updates; each update accumulates gradients over
``grad_accumulation`` examples visited by cycling them in order. Token
telemetry is exact: generated tokens cover every sampling call including parse
retries, trained tokens count every example visit.

Each method is a runner: it fits (pair generation, adaptation), yields the
answer requests it is about to decode, and once resumed reads them back
through ``generate``. ``run_together`` runs many queries' runners side by
side and decodes all their answers in lock-step. ``METHODS`` holds each
method's runner, and each public method function runs its row alone; the
ablation arms ``quest_no_query`` and ``quest_no_lora`` have rows only.
Self-consistency draws once for every budget of a sweep: budget n votes on
the first n samples of the largest budget.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .adapters import AdapterSpec, AdapterState, check_adapter, init_adapter, trainable_parameters
from .backend.session import ModelSession
from .evalkit import answers_equivalent, extract_answer, majority_vote
from .optim import AdamW
from .seeding import derive_seed
from .supervision import (
    AuxPair,
    GenConfig,
    Query,
    SolutionTruncated,
    format_answer_prompt,
    generate_dataset,
    generate_unconditioned_dataset,
    make_training_example,
)

log = logging.getLogger(__name__)

ANSWER_MAX_NEW_TOKENS = 4096


@dataclass(frozen=True)
class OptConfig:
    steps: int = 10
    lr: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    grad_accumulation: int = 4
    max_seq_len: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be positive")
        if self.max_seq_len < 2:
            # a shorter example has no target token, and a negative one slices from the end
            raise ValueError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if not all(0 <= beta < 1 for beta in self.betas):
            raise ValueError(f"betas must each lie in [0, 1), got {self.betas}")


@dataclass
class AdaptTelemetry:
    loss_trajectory: list[float] = field(default_factory=list)
    generated_tokens: int = 0
    trained_tokens: int = 0
    wall_seconds: float = 0.0
    pairs_used: int = 0


@dataclass
class MethodResult:
    answer_text: str
    extracted: Optional[str]
    telemetry: AdaptTelemetry


def sft_update(
    backend,
    adapter: AdapterState,
    examples: Sequence[tuple[list[int], list[int]]],
    optimizer: AdamW,
    dropout_rng: Optional[np.random.Generator] = None,
    loss: str = "nll",
) -> float:
    """One optimizer update over a micro-batch of (tokens, mask) examples.

    ``loss`` is ``"nll"`` (masked NLL) or ``"entropy"`` (mean next-token
    entropy; the mask is unused). The examples go to the backend as one
    packed call. Returns the mean loss of the batch; gradients are averaged,
    applied to adapter factors only (``optimizer`` steps
    ``trainable_parameters(adapter)``), and the adapter's step counter
    advances by one.
    """
    if not examples:
        raise ValueError("empty batch")
    if loss not in ("nll", "entropy"):
        raise ValueError(f"unknown loss {loss!r}; expected 'nll' or 'entropy'")
    tokens = [t for ids, _ in examples for t in ids]
    lengths = [len(ids) for ids, _ in examples]
    if loss == "entropy":
        total, grads = backend.entropy_with_grads(
            tokens, adapter, dropout_rng=dropout_rng, lengths=lengths
        )
    else:
        mask = [m for _, ms in examples for m in ms]
        total, grads = backend.masked_nll_with_grads(
            tokens, mask, adapter, dropout_rng=dropout_rng, lengths=lengths
        )
    scale = 1.0 / len(examples)
    # factor order, as trainable_parameters lays them out; the backend's
    # dict comes in backward order
    summed = np.concatenate([g.ravel() for name in adapter.factors for g in grads[name]])
    optimizer.step({"factors": summed * scale})
    adapter.step_count += 1
    return total * scale


def _train(
    session: ModelSession,
    examples: Sequence[tuple[list[int], list[int]]],
    spec: AdapterSpec,
    cfg: OptConfig,
    loss: str = "nll",
) -> tuple[AdapterState, AdaptTelemetry]:
    """Fit a fresh adapter to (tokens, mask) examples with exactly T updates.

    T=0 returns the just-initialized adapter, which is an exact identity.
    """
    adapter = init_adapter(spec, session.backend.adaptable_modules())
    optimizer = AdamW(
        trainable_parameters(adapter),
        lr=cfg.lr,
        betas=cfg.betas,
        weight_decay=cfg.weight_decay,
    )
    dropout_rng = np.random.default_rng(derive_seed(cfg.seed, "dropout"))

    telemetry = AdaptTelemetry()
    for step in range(cfg.steps):
        first = step * cfg.grad_accumulation
        batch = [examples[(first + j) % len(examples)] for j in range(cfg.grad_accumulation)]
        value = sft_update(
            session.backend, adapter, batch, optimizer, dropout_rng=dropout_rng, loss=loss
        )
        telemetry.loss_trajectory.append(value)
        telemetry.trained_tokens += sum(len(tokens) for tokens, _ in batch)
    return adapter, telemetry


def adapt(
    session: ModelSession,
    dataset: Sequence[AuxPair],
    spec: AdapterSpec,
    cfg: OptConfig,
    system_prompt: str = "",
) -> tuple[AdapterState, AdaptTelemetry]:
    """Fit a fresh adapter to the generated dataset with exactly T updates."""
    if not dataset:
        raise ValueError("dataset is empty")
    t0 = time.perf_counter()
    backend = session.backend
    examples = []
    for pair in dataset:
        try:
            examples.append(make_training_example(pair, backend, system_prompt, cfg.max_seq_len))
        except SolutionTruncated as exc:
            log.warning("skipping pair: %s", exc)
    if not examples:
        raise ValueError("no valid training examples after truncation")
    adapter, telemetry = _train(session, examples, spec, cfg)
    telemetry.pairs_used = len(examples)
    telemetry.wall_seconds = time.perf_counter() - t0
    return adapter, telemetry


class AnswerRequest(NamedTuple):
    """One decode a runner asks for before it reads the tokens back through
    ``backend.generate``: ``generate``'s arguments, in its order, and so a
    request ``prefetch`` takes."""

    prompt: list[int]
    max_new_tokens: int
    temperature: float = 0.0
    adapter: Optional[AdapterState] = None
    seed: Optional[int] = None


# A runner is a generator: it does its own work (pair generation,
# adaptation), yields its answer requests, and once resumed reads them
# back and returns its result.
Runner = Generator[list[AnswerRequest], None, Any]


def _read(backend, requests: Sequence[AnswerRequest]) -> list[list[int]]:
    """The outputs of ``requests``, read back through ``generate``."""
    return [
        backend.generate(r.prompt, r.max_new_tokens, r.temperature, adapter=r.adapter, seed=r.seed)
        for r in requests
    ]


def run_together(backend, runners: Sequence[Runner]) -> list[tuple[Any, float]]:
    """Run ``runners`` side by side and answer their requests in lock-step.

    Each runner runs up to its yield; one ``prefetch`` of every runner's
    requests then decodes them, and each runner, resumed, reads its tokens
    back through ``generate``. Returns per runner its return value, or the
    exception it raised, and its seconds: its own running time plus an
    equal share per request of each ``prefetch`` call.
    Without ``prefetch`` every ``generate`` call decodes.
    """
    outcomes: list[Any] = [None] * len(runners)
    seconds = [0.0] * len(runners)
    running = list(range(len(runners)))
    prefetch = getattr(backend, "prefetch", None)
    while running:
        asked = []
        for i in running:
            t0 = time.perf_counter()
            try:
                asked.append((i, runners[i].send(None)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # kept as the runner's outcome
                outcomes[i] = exc
            seconds[i] += time.perf_counter() - t0
        running = [i for i, _ in asked]
        rows = [(i, r) for i, requests in asked for r in requests]
        if prefetch is not None and rows:
            t0 = time.perf_counter()
            prefetch([r for _, r in rows])
            share = (time.perf_counter() - t0) / len(rows)
            for i, _ in rows:
                seconds[i] += share
    return list(zip(outcomes, seconds))


def _alone(session: ModelSession, runner: Runner) -> tuple[Any, float]:
    """``runner`` run by itself: its return value and seconds, or its error."""
    ((outcome, seconds),) = run_together(session.backend, [runner])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome, seconds


def _answer(
    session: ModelSession,
    query: Query,
    adapter: Optional[AdapterState],
    max_new_tokens: int,
    context: str = "",
) -> Generator[list[AnswerRequest], None, tuple[str, int]]:
    """Runner steps of a greedy answer, ``context`` placed before the answer
    prompt: its text and token count."""
    backend = session.backend
    if adapter is not None:
        check_adapter(adapter, backend.adaptable_modules())
    prompt = backend.tokenize(context + format_answer_prompt(query.text, query.system_prompt))
    request = AnswerRequest(prompt, max_new_tokens, 0.0, adapter, session.seed)
    yield [request]
    (out,) = _read(backend, [request])
    return backend.detokenize(out), len(out)


def generate_answer(
    session: ModelSession,
    query: Query,
    adapter: Optional[AdapterState],
    max_new_tokens: int,
) -> tuple[str, int]:
    """Greedy answer text plus the exact number of tokens generated.

    ``adapter`` may come from a file, so its module names, factor shapes and
    dtype are checked against the backend's before any decoding.
    """
    return _alone(session, _answer(session, query, adapter, max_new_tokens))[0]


def _base_steps(
    session: ModelSession, query: Query, *, max_new_tokens: int = ANSWER_MAX_NEW_TOKENS, **_
) -> Runner:
    text, n_tokens = yield from _answer(session, query, None, max_new_tokens)
    telemetry = AdaptTelemetry(generated_tokens=n_tokens)
    return MethodResult(text, extract_answer(text, query.n_choices), telemetry)


def _quest_steps(
    session: ModelSession,
    query: Query,
    *,
    gen_cfg: GenConfig,
    spec: Optional[AdapterSpec] = None,
    opt_cfg: Optional[OptConfig] = None,
    generator_session: Optional[ModelSession] = None,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
    conditioned: bool = True,
    in_context: bool = False,
    **_,
) -> Runner:
    """Generate pairs, about the query unless not ``conditioned``; fit an adapter to
    them, or with ``in_context`` put them before the answer prompt; answer."""
    gen_session = generator_session if generator_session is not None else session
    if conditioned:
        gen = generate_dataset(gen_session, query, gen_cfg)
    else:
        gen = generate_unconditioned_dataset(gen_session, gen_cfg)

    adapter, context = None, ""
    if in_context:
        telemetry = AdaptTelemetry(pairs_used=len(gen.pairs))
        context = "".join(f"{pair.problem}\n{pair.solution}\n" for pair in gen.pairs)
    elif not gen.pairs:
        # uninformative supervision: fall back to the unadapted base answer
        telemetry = AdaptTelemetry()
    else:
        adapter, telemetry = adapt(
            session, gen.pairs, spec, opt_cfg, system_prompt=query.system_prompt
        )
    text, n_answer = yield from _answer(session, query, adapter, max_new_tokens, context)
    telemetry.generated_tokens = gen.generated_tokens + n_answer
    return MethodResult(text, extract_answer(text, query.n_choices), telemetry)


def _objective_steps(
    session: ModelSession,
    query: Query,
    *,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    loss: str,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
    **_,
) -> Runner:
    """Shared TENT/TLM steps: train on the query text alone, then answer.

    The example's NLL is TLM's objective; TENT's entropy ignores the mask.
    """
    tokens = session.backend.tokenize(query.text)[: min(session.backend.max_len, opt_cfg.max_seq_len)]
    example = (tokens, [0] + [1] * (len(tokens) - 1))
    adapter, telemetry = _train(session, [example], spec, opt_cfg, loss=loss)
    text, n_answer = yield from _answer(session, query, adapter, max_new_tokens)
    telemetry.generated_tokens += n_answer
    return MethodResult(text, extract_answer(text, query.n_choices), telemetry)


def _vote(backend, query: Query, outs: list[list[int]]) -> MethodResult:
    """Majority vote over sampled outputs; the raw text is the first sample
    that voted for the winner."""
    texts = [backend.detokenize(out) for out in outs]
    answers = [extract_answer(text, query.n_choices) for text in texts]
    winner = majority_vote(answers)
    raw = texts[0]
    if winner is not None:
        for text, ans in zip(texts, answers):
            if ans is not None and answers_equivalent(ans, winner):
                raw = text
                break
    return MethodResult(raw, winner, AdaptTelemetry(generated_tokens=sum(len(out) for out in outs)))


def _sc_steps(
    session: ModelSession,
    query: Query,
    *,
    budgets: Sequence[int],
    temperature: float,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
    **_,
) -> Runner:
    """One self-consistency result per budget of ``budgets``. The largest
    budget's samples decode once, with other items' when run together;
    sample k's seed derives from the session seed and k alone, so each
    budget n reads back the first n and votes on them."""
    check_sampling(budgets, temperature)
    prompt_ids = session.backend.tokenize(format_answer_prompt(query.text, query.system_prompt))
    requests = [
        AnswerRequest(prompt_ids, max_new_tokens, temperature, None, derive_seed(session.seed, "sc", k))
        for k in range(max(budgets))
    ]
    yield requests
    return [_vote(session.backend, query, _read(session.backend, requests[:n])) for n in budgets]


def check_sampling(budgets: Sequence[int], temperature: float) -> None:
    """Reject budgets that are not one or more distinct positive counts, or
    a temperature that cannot sample."""
    if not budgets or min(budgets) < 1:
        raise ValueError("sc_samples must hold one or more positive budgets")
    if len(set(budgets)) != len(budgets):
        raise ValueError(f"sc_samples repeats a budget: {','.join(map(str, budgets))}")
    if not 0 < temperature < math.inf:
        raise ValueError(f"sc_temperature must be finite and > 0, got {temperature}")


# -- the method table -------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A row of ``METHODS``: ``run(session, query, **settings)`` is the runner
    that answers one query, reading the settings it names and ignoring the
    rest; ``sampled`` methods take the sweep's sampling budgets, ``budgets``,
    and return one result per budget."""

    run: Callable[..., Runner]
    sampled: bool = False
    alias: Optional[str] = None


METHODS = {
    "base": Method(_base_steps),
    "quest": Method(_quest_steps),
    "tent": Method(partial(_objective_steps, loss="entropy")),
    "tlm": Method(partial(_objective_steps, loss="nll")),
    "self_consistency": Method(_sc_steps, sampled=True, alias="sc"),
    "quest_no_query": Method(partial(_quest_steps, conditioned=False)),
    "quest_no_lora": Method(partial(_quest_steps, in_context=True)),
}


def method_named(name: str) -> str:
    """The table's name for ``name`` or its alias; the one unknown-method error."""
    for label, method in METHODS.items():
        if name in (label, method.alias):
            return label
    known = ", ".join(
        f"{label} ({method.alias})" if method.alias else label for label, method in METHODS.items()
    )
    raise ValueError(f"unknown method {name!r}; expected one of {known}")


def _run(method: str, session: ModelSession, query: Query, **settings) -> MethodResult:
    """``METHODS[method]`` run alone on one query, its seconds as its
    ``wall_seconds``; a sampled method is given one budget."""
    row = METHODS[method]
    result, seconds = _alone(session, row.run(session, query, **settings))
    if row.sampled:
        (result,) = result
    result.telemetry.wall_seconds = seconds
    return result


def base_answer(
    session: ModelSession, query: Query, max_new_tokens: int = ANSWER_MAX_NEW_TOKENS
) -> MethodResult:
    """Unadapted greedy answer; the floor every method is measured against."""
    return _run("base", session, query, max_new_tokens=max_new_tokens)


def quest(
    session: ModelSession,
    query: Query,
    gen_cfg: GenConfig,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    *,
    generator_session: Optional[ModelSession] = None,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Full query-conditioned pipeline: generate pairs, adapt, answer, reset.

    ``generator_session`` defaults to the solving session (the base model is
    its own generator); tests substitute a scripted generator here.
    """
    return _run("quest", session, query, gen_cfg=gen_cfg, spec=spec, opt_cfg=opt_cfg,
                generator_session=generator_session, max_new_tokens=max_new_tokens)


def tent(
    session: ModelSession,
    query: Query,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    *,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Entropy-minimization baseline over the query's next-token distributions,
    optimized through the same low-rank parameterization as the main method."""
    return _run("tent", session, query, spec=spec, opt_cfg=opt_cfg, max_new_tokens=max_new_tokens)


def tlm(
    session: ModelSession,
    query: Query,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    *,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Input-perplexity-minimization baseline: NLL of the query text itself."""
    return _run("tlm", session, query, spec=spec, opt_cfg=opt_cfg, max_new_tokens=max_new_tokens)


def self_consistency(
    session: ModelSession,
    query: Query,
    n_samples: int,
    temperature: float,
    *,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Sample n completions and majority-vote their extracted answers."""
    return _run("self_consistency", session, query, budgets=(n_samples,), temperature=temperature,
                max_new_tokens=max_new_tokens)


# -- per-query artifacts and seed derivation ------------------------------------


def derive_item_seeds(seed: int, query_id: str) -> dict[str, int]:
    """Stage seeds for one query; shared by the fused pipeline and the CLI
    stage-replay path so both see identical randomness."""
    return {
        "session": derive_seed(seed, query_id, "session"),
        "adapter": derive_seed(seed, query_id, "adapter"),
        "opt": derive_seed(seed, query_id, "opt"),
    }


def query_artifact_dir(run_dir: Union[str, Path], query_id: str) -> Path:
    path = Path(run_dir) / query_id
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_telemetry(telemetry: AdaptTelemetry, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(asdict(telemetry), f, indent=2, sort_keys=True)
        f.write("\n")
