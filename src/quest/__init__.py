"""Query-conditioned test-time self-training for language models.

Per query: sample auxiliary problem--solution pairs from the frozen base
model, fit a low-rank adapter on them, answer with the adapted model, then
reset. Ships with entropy/perplexity-minimization and self-consistency
baselines, a math-benchmark evaluation harness, and a tiny trainable
reference transformer for fully deterministic desk-scale verification.
"""

from . import adapters, backend, engine, evalkit, supervision
from .adapters import AdapterSpec, AdapterState, init_adapter, spec_for_all_modules
from .backend import ModelSession, RefConfig, ReferenceBackend, train_reference
from .engine import (
    AdaptTelemetry,
    MethodResult,
    OptConfig,
    adapt,
    base_answer,
    quest,
    self_consistency,
    tent,
    tlm,
)
from .evalkit import (
    BenchmarkItem,
    EvalRecord,
    answers_equivalent,
    emit_report,
    evaluate,
    extract_answer,
    extract_boxed,
    extract_choice,
    load_benchmark,
    majority_vote,
    normalize_answer,
)
from .supervision import (
    DEFAULT_SYSTEM_PROMPT,
    AuxPair,
    GenConfig,
    Query,
    generate_dataset,
    generate_unconditioned_dataset,
    make_training_example,
    parse_pairs,
)

__version__ = "0.1.0"
