import re

import numpy as np
import pytest
from hypothesis import settings

from quest.backend import CharTokenizer, RefConfig, ReferenceBackend, train_reference
from quest.backend.session import AdaptableModuleInfo, ModelSession
from quest.supervision import format_answer_prompt

# property tests draw the same examples on every run and replay no local
# example database, so a pass or a failure does not depend on the checkout
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SMALL_CFG = RefConfig(n_layer=2, d_model=32, n_head=4, max_len=256)


class StubBackend:
    """Scriptable backend: char-level tokenizer, completions from a callable
    ``fn(prompt_text, call_index) -> text``. Gradient entry points report a
    loss of 1.0 per example with zero gradients so optimization paths run
    unchanged."""

    name = "stub"

    def __init__(self, completion_fn, max_len=1_000_000):
        self._tok = CharTokenizer()
        self._fn = completion_fn
        self.vocab_size = self._tok.vocab_size
        self.max_len = max_len
        self.eos_id = self._tok.eos_id
        self.calls = 0

    def tokenize(self, text):
        return self._tok.encode(text)

    def detokenize(self, ids):
        return self._tok.decode(ids)

    def adaptable_modules(self):
        return [AdaptableModuleInfo("proj", 8, 8)]

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        self.calls += 1
        ids = self.tokenize(self._fn(self.detokenize(prompt), self.calls))
        return ids[:max_new_tokens]

    def forward_logits(self, tokens, adapter=None):
        return np.zeros((len(tokens), self.vocab_size), dtype=np.float32)

    def masked_nll_with_grads(self, tokens, loss_mask, adapter, dropout_rng=None, lengths=None):
        zeros = {
            name: (np.zeros_like(a), np.zeros_like(b))
            for name, (a, b) in adapter.factors.items()
        }
        return (1 if lengths is None else len(lengths)) * 1.0, zeros


@pytest.fixture(scope="session")
def fresh_backend():
    return ReferenceBackend.fresh(SMALL_CFG, seed=11)


@pytest.fixture(scope="session")
def ab_backend():
    cfg = RefConfig(charset="ab", n_layer=1, d_model=16, n_head=2, max_len=32)
    return train_reference(["ab" * 12] * 4, cfg, steps=150, lr=1e-2, seed=0)


@pytest.fixture(scope="session")
def random_backend():
    """Small model with every tensor non-zero, for gradient/merge checks."""
    rng = np.random.default_rng(7)
    from quest.backend.reference import init_params

    cfg = RefConfig(charset="abcdefgh ", n_layer=2, d_model=16, n_head=2, max_len=64, dtype="float64")
    params = init_params(cfg, seed=1)
    for key, value in params.items():
        params[key] = rng.normal(0, 0.25, value.shape)
    return ReferenceBackend(cfg, params)


# -- the pattern-completion world (hidden-rule benchmark) -----------------------

PATTERN_SYMS = "defghijklmnopqrstu"
PATTERN_TAGS = "vwxy"


class PatternStub:
    """Scripted generator standing in for the auxiliary-pair sampler: reads the
    query symbol and variation index off the generation prompt and emits one
    exemplar of the query's hidden rule (the first one a near-duplicate)."""

    name = "pattern-stub"
    eos_id = 0
    max_len = 1_000_000

    def __init__(self, backend, tag_of):
        self._b = backend
        self._tag_of = tag_of
        self.vocab_size = backend.vocab_size

    def tokenize(self, text):
        return self._b.tokenize(text)

    def detokenize(self, ids):
        return self._b.detokenize(ids)

    def adaptable_modules(self):
        return []

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        text = self.detokenize(prompt)
        sym = re.search(r"Q: (\S) ->", text).group(1)
        idx = int(re.search(r"problem (\d+) ", text).group(1))
        pool = [sym] + [s for s in PATTERN_SYMS if s != sym][:4]
        s = pool[(idx - 1) % len(pool)]
        tag = self._tag_of[sym]
        out = f"<problem>Q: {s} ->\nA:</problem><solution>\\boxed{{{s}{tag}}}</solution>"
        return self.tokenize(out)


def build_pattern_corpus(seed=0, n_docs=1000, headed_fraction=0.7):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        tag = PATTERN_TAGS[rng.integers(len(PATTERN_TAGS))]
        sym = PATTERN_SYMS[rng.integers(len(PATTERN_SYMS))]
        body = format_answer_prompt(f"Q: {sym} ->\nA:", "") + f"\\boxed{{{sym}{tag}}}"
        docs.append(f"rule: {tag}\n{body}" if rng.random() < headed_fraction else body)
    return docs


@pytest.fixture(scope="session")
def pattern_world():
    cfg = RefConfig(n_layer=2, d_model=64, n_head=4, max_len=128)
    backend = train_reference(build_pattern_corpus(), cfg, steps=1500, lr=3e-3, seed=0)
    qrng = np.random.default_rng(42)
    tag_of = {
        s: PATTERN_TAGS[i % len(PATTERN_TAGS)]
        for i, s in enumerate(qrng.permutation(list(PATTERN_SYMS)))
    }
    return {
        "backend": backend,
        "tag_of": tag_of,
        "stub": PatternStub(backend, tag_of),
        "qrng_seed": 42,
    }


@pytest.fixture
def session(fresh_backend):
    return ModelSession(backend=fresh_backend, seed=0)
