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
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .adapters import AdapterSpec, AdapterState, check_adapter, init_adapter, trainable_parameters
from .backend.session import ModelSession
from .evalkit import answers_equivalent, extract_boxed, majority_vote
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
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be positive")


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
    method_label: str

    def __post_init__(self):
        if self.method_label not in METHODS:
            raise ValueError(f"unknown method label {self.method_label!r}")


def _answer_prompt_ids(session: ModelSession, query: Query) -> list[int]:
    return session.backend.tokenize(format_answer_prompt(query.text, query.system_prompt))


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
    backend = session.backend
    if adapter is not None:
        check_adapter(adapter, backend.adaptable_modules())
    prompt_ids = _answer_prompt_ids(session, query)
    out = backend.generate(prompt_ids, max_new_tokens, 0.0, adapter=adapter, seed=session.seed)
    return backend.detokenize(out), len(out)


def base_answer(
    session: ModelSession, query: Query, max_new_tokens: int = ANSWER_MAX_NEW_TOKENS
) -> MethodResult:
    """Unadapted greedy answer; the floor every method is measured against."""
    t0 = time.perf_counter()
    text, n_tokens = generate_answer(session, query, None, max_new_tokens)
    telemetry = AdaptTelemetry(generated_tokens=n_tokens, wall_seconds=time.perf_counter() - t0)
    return MethodResult(text, extract_boxed(text), telemetry, "base")


def _quest_pipeline(
    session: ModelSession,
    query: Query,
    gen_cfg: GenConfig,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    label: str,
    conditioned: bool,
    generator_session: Optional[ModelSession],
    max_new_tokens: int,
) -> MethodResult:
    t0 = time.perf_counter()
    gen_session = generator_session if generator_session is not None else session
    if conditioned:
        gen = generate_dataset(gen_session, query, gen_cfg)
    else:
        gen = generate_unconditioned_dataset(gen_session, gen_cfg)

    if not gen.pairs:
        # uninformative supervision: fall back to the unadapted base answer
        text, n_answer = generate_answer(session, query, None, max_new_tokens)
        telemetry = AdaptTelemetry(generated_tokens=gen.generated_tokens + n_answer)
    else:
        adapter, telemetry = adapt(
            session, gen.pairs, spec, opt_cfg, system_prompt=query.system_prompt
        )
        text, n_answer = generate_answer(session, query, adapter, max_new_tokens)
        telemetry.generated_tokens = gen.generated_tokens + n_answer
    telemetry.wall_seconds = time.perf_counter() - t0
    return MethodResult(text, extract_boxed(text), telemetry, label)


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
    return _quest_pipeline(
        session, query, gen_cfg, spec, opt_cfg, "quest", True, generator_session, max_new_tokens
    )


def quest_no_query(
    session: ModelSession,
    query: Query,
    gen_cfg: GenConfig,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    *,
    generator_session: Optional[ModelSession] = None,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Ablation: same pipeline trained on query-independent pairs."""
    return _quest_pipeline(
        session,
        query,
        gen_cfg,
        spec,
        opt_cfg,
        "quest_no_query",
        False,
        generator_session,
        max_new_tokens,
    )


def quest_no_lora(
    session: ModelSession,
    query: Query,
    gen_cfg: GenConfig,
    *,
    generator_session: Optional[ModelSession] = None,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Ablation: generated pairs become in-context exemplars; no updates."""
    t0 = time.perf_counter()
    gen_session = generator_session if generator_session is not None else session
    gen = generate_dataset(gen_session, query, gen_cfg)
    blocks = [f"{pair.problem}\n{pair.solution}\n" for pair in gen.pairs]
    prompt = "".join(blocks) + format_answer_prompt(query.text, query.system_prompt)
    prompt_ids = session.backend.tokenize(prompt)
    out = session.backend.generate(prompt_ids, max_new_tokens, 0.0, seed=session.seed)
    text = session.backend.detokenize(out)
    telemetry = AdaptTelemetry(
        generated_tokens=gen.generated_tokens + len(out),
        pairs_used=len(gen.pairs),
        wall_seconds=time.perf_counter() - t0,
    )
    return MethodResult(text, extract_boxed(text), telemetry, "quest_no_lora")


def _objective_pipeline(
    session: ModelSession,
    query: Query,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    label: str,
    loss: str,
    max_new_tokens: int,
) -> MethodResult:
    """Shared TENT/TLM pipeline: train on the query text alone, then answer.

    The example's NLL is TLM's objective; TENT's entropy ignores the mask.
    """
    t0 = time.perf_counter()
    tokens = session.backend.tokenize(query.text)[: session.backend.max_len]
    example = (tokens, [0] + [1] * (len(tokens) - 1))
    adapter, telemetry = _train(session, [example], spec, opt_cfg, loss=loss)
    text, n_answer = generate_answer(session, query, adapter, max_new_tokens)
    telemetry.generated_tokens += n_answer
    telemetry.wall_seconds = time.perf_counter() - t0
    return MethodResult(text, extract_boxed(text), telemetry, label)


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
    return _objective_pipeline(session, query, spec, opt_cfg, "tent", "entropy", max_new_tokens)


def tlm(
    session: ModelSession,
    query: Query,
    spec: AdapterSpec,
    opt_cfg: OptConfig,
    *,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
) -> MethodResult:
    """Input-perplexity-minimization baseline: NLL of the query text itself."""
    return _objective_pipeline(session, query, spec, opt_cfg, "tlm", "nll", max_new_tokens)


def self_consistency(
    session: ModelSession,
    query: Query,
    n_samples: int,
    temperature: float,
    *,
    max_new_tokens: int = ANSWER_MAX_NEW_TOKENS,
    extract: Callable[[str], Optional[str]] = extract_boxed,
) -> MethodResult:
    """Sample n completions and majority-vote their extracted answers."""
    check_sampling(n_samples, temperature)
    t0 = time.perf_counter()
    prompt_ids = _answer_prompt_ids(session, query)
    seeds = [derive_seed(session.seed, "sc", k) for k in range(n_samples)]
    prefetch = getattr(session.backend, "prefetch", None)
    if prefetch is not None:
        # the n samples decode in lock-step; the generate calls below read them
        prefetch([(prompt_ids, seed) for seed in seeds], max_new_tokens, temperature)
    texts = []
    answers = []
    total_tokens = 0
    for seed in seeds:
        out = session.backend.generate(prompt_ids, max_new_tokens, temperature, seed=seed)
        total_tokens += len(out)
        text = session.backend.detokenize(out)
        texts.append(text)
        answers.append(extract(text))
    winner = majority_vote(answers)
    raw = texts[0]
    if winner is not None:
        for text, ans in zip(texts, answers):
            if ans is not None and answers_equivalent(ans, winner):
                raw = text
                break
    telemetry = AdaptTelemetry(generated_tokens=total_tokens, wall_seconds=time.perf_counter() - t0)
    return MethodResult(raw, winner, telemetry, "self_consistency")


def check_sampling(n_samples: int, temperature: float) -> None:
    """Reject a self-consistency budget or temperature that cannot sample."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if temperature <= 0:
        raise ValueError("self-consistency requires temperature > 0")


# -- the method table -------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A row of ``METHODS``: ``run(session, query, **settings)`` answers one
    query; ``sampled`` methods take a sampling budget, ``n_samples``."""

    run: Callable[..., MethodResult]
    sampled: bool = False
    alias: Optional[str] = None


# Each runner takes what it needs of the settings ``evalkit.evaluate`` passes
# and calls its public function through this module's globals at call time,
# so a patched ``engine.quest`` is the one that runs.
METHODS = {
    "base": Method(lambda s, q, *, max_new_tokens, **_: base_answer(s, q, max_new_tokens)),
    "quest": Method(
        lambda s, q, *, gen_cfg, spec, opt_cfg, generator_session, max_new_tokens, **_:
        quest(s, q, gen_cfg, spec, opt_cfg,
              generator_session=generator_session, max_new_tokens=max_new_tokens)
    ),
    "tent": Method(
        lambda s, q, *, spec, opt_cfg, max_new_tokens, **_:
        tent(s, q, spec, opt_cfg, max_new_tokens=max_new_tokens)
    ),
    "tlm": Method(
        lambda s, q, *, spec, opt_cfg, max_new_tokens, **_:
        tlm(s, q, spec, opt_cfg, max_new_tokens=max_new_tokens)
    ),
    "self_consistency": Method(
        lambda s, q, *, n_samples, temperature, max_new_tokens, extract, **_:
        self_consistency(s, q, n_samples, temperature,
                         max_new_tokens=max_new_tokens, extract=extract),
        sampled=True,
        alias="sc",
    ),
    "quest_no_query": Method(
        lambda s, q, *, gen_cfg, spec, opt_cfg, generator_session, max_new_tokens, **_:
        quest_no_query(s, q, gen_cfg, spec, opt_cfg,
                       generator_session=generator_session, max_new_tokens=max_new_tokens)
    ),
    "quest_no_lora": Method(
        lambda s, q, *, gen_cfg, generator_session, max_new_tokens, **_:
        quest_no_lora(s, q, gen_cfg,
                      generator_session=generator_session, max_new_tokens=max_new_tokens)
    ),
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
