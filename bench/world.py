"""The benchmark's inputs: corpus, reference model, items and scripted pairs.

The corpus, and so the reference model trained on it, is fixed: it is part of
the benchmark's definition, like the weights of a real model would be. The
``--seed`` argument picks everything a user would bring: the hidden rule of
each query symbol and the queries of every round.

The corpus mixes two kinds of document:

* hidden-rule answer documents, as in the test suite's pattern corpus: the
  answer to ``Q: <sym> ->`` is ``\\boxed{<sym><tag>}``, where the tag is
  named by a ``rule:`` header on 70% of documents and never in a query. A
  worked line of 10 to 40 repeated symbols precedes the boxed answer, so
  sampled answers run to tens or hundreds of tokens;
* pair-generation documents: the program's own generation prompt followed by
  one ``<problem>...</problem><solution>...</solution>`` pair, so the model
  can generate parseable pairs for itself.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quest import backend as qbackend
from quest.backend import RefConfig, save_checkpoint
from quest.supervision import Query, build_generation_prompt, format_answer_prompt

SYMS = "defghijklmnopqrstu"
TAGS = "vwxy"

MODEL_CONFIG = RefConfig(n_layer=2, d_model=64, n_head=4, max_len=256)
TRAIN_STEPS = 1000
TRAIN_LR = 3e-3
CORPUS_SEED = 0
RULE_DOCS = 600
GENERATION_DOCS = 400
WORK_MIN, WORK_MAX = 10, 40

# Round r of a workload evaluates the items of file r % ROUND_FILES. Every
# round asks about each symbol once, in a seeded order, so that rounds cost
# the same whatever the seed: per-symbol costs differ severalfold.
ROUND_FILES = 8
QUERIES_PER_ROUND = len(SYMS)


def query_text(sym: str) -> str:
    return f"Q: {sym} ->\nA:"


def build_corpus(seed: int = CORPUS_SEED) -> list[str]:
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(RULE_DOCS):
        tag = TAGS[rng.integers(len(TAGS))]
        sym = SYMS[rng.integers(len(SYMS))]
        work = " ".join([sym] * int(rng.integers(WORK_MIN, WORK_MAX + 1)))
        body = format_answer_prompt(query_text(sym), "") + f"{work}\n\\boxed{{{sym}{tag}}}"
        docs.append(f"rule: {tag}\n{body}" if rng.random() < 0.7 else body)
    for _ in range(GENERATION_DOCS):
        sym = SYMS[rng.integers(len(SYMS))]
        index = int(rng.integers(1, 6))
        other = sym if rng.random() < 0.5 else SYMS[rng.integers(len(SYMS))]
        tag = TAGS[rng.integers(len(TAGS))]
        prompt = build_generation_prompt(Query(id="doc", text=query_text(sym), system_prompt=""), index)
        docs.append(prompt + pair_text(other, tag))
    return docs


def hidden_rules(seed: int) -> dict[str, str]:
    """The tag each query symbol's answer carries; never shown in a query."""
    rng = np.random.default_rng([seed, 0])
    return {s: TAGS[i % len(TAGS)] for i, s in enumerate(rng.permutation(list(SYMS)))}


def round_items(seed: int, workload_index: int, round_index: int, tag_of: dict[str, str]) -> list[dict]:
    rng = np.random.default_rng([seed, 1 + workload_index, round_index])
    syms = rng.permutation(list(SYMS)).tolist()
    return [
        {"id": f"r{round_index:02d}q{i:02d}", "problem": query_text(s), "answer": f"{s}{tag_of[s]}"}
        for i, s in enumerate(syms)
    ]


def pair_text(sym: str, tag: str) -> str:
    return f"<problem>{query_text(sym)}</problem><solution>\\boxed{{{sym}{tag}}}</solution>"


def scripted_pair(query_sym: str, index: int) -> str:
    """Symbol of the pair the scripted generator emits for slot ``index``:
    the query's own symbol first, then four others."""
    pool = [query_sym] + [s for s in SYMS if s != query_sym][:4]
    return pool[(index - 1) % len(pool)]


class ScriptedGenerator:
    """Pair generator of the ``hidden_rule`` workload.

    Stands in for the model-as-generator: reads the query symbol and slot
    index off the program's generation prompt and emits one exemplar of the
    query's hidden rule. ``on_tokens`` receives the length of every output.
    """

    name = "scripted"
    eos_id = 0
    max_len = 1_000_000

    def __init__(self, backend, tag_of: dict[str, str]):
        self._backend = backend
        self._tag_of = tag_of
        self.vocab_size = backend.vocab_size
        self.on_tokens = None

    def tokenize(self, text):
        return self._backend.tokenize(text)

    def detokenize(self, ids):
        return self._backend.detokenize(ids)

    def adaptable_modules(self):
        return []

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        text = self.detokenize(prompt)
        sym = re.search(r"Q: (\S) ->", text).group(1)
        index = int(re.search(r"problem (\d+) ", text).group(1))
        other = scripted_pair(sym, index)
        out = self.tokenize(pair_text(other, self._tag_of[sym]))[:max_new_tokens]
        if self.on_tokens is not None:
            self.on_tokens(len(out))
        return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class World:
    backend: object
    checkpoint: Path
    checkpoint_sha256: str
    tag_of: dict[str, str]
    round_files: list[Path]
    workdir: Path

    def round_file(self, round_index: int) -> Path:
        return self.round_files[round_index % len(self.round_files)]


def write_rounds(workdir: Path, seed: int, workload_index: int, tag_of: dict[str, str]) -> list[Path]:
    paths = []
    for r in range(ROUND_FILES):
        path = workdir / f"round{r:02d}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for item in round_items(seed, workload_index, r, tag_of):
                f.write(json.dumps(item) + "\n")
        paths.append(path)
    return paths


def build_world(workdir: Path, seed: int, workload_index: int) -> World:
    """Train the reference model, save its checkpoint and write the rounds'
    benchmark files. Everything here is timed as ``setup_s``."""
    backend = qbackend.train_reference(
        build_corpus(), MODEL_CONFIG, steps=TRAIN_STEPS, lr=TRAIN_LR, seed=CORPUS_SEED
    )
    checkpoint = workdir / "model.qstb"
    save_checkpoint(backend, checkpoint)
    tag_of = hidden_rules(seed)
    rounds = write_rounds(workdir, seed, workload_index, tag_of)
    return World(backend, checkpoint, sha256_file(checkpoint), tag_of, rounds, workdir)
