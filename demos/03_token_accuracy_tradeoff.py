"""Token cost vs accuracy: sampling-based scaling against test-time training.

Self-consistency buys accuracy by sampling ever more completions, so its
token bill grows linearly in N. Test-time self-training spends a fixed budget
(pair generation + adapter updates + one greedy answer) per query. This demo
sweeps N over {1, 2, 4, 8, 16} on the hidden-rule benchmark and writes the
curve next to the single quest point, mirroring how the two regimes are
usually compared.

Run:
    python demos/03_token_accuracy_tradeoff.py        # writes runs/tradeoff/
"""

import re
import time

import numpy as np

from quest import (
    BenchmarkItem,
    GenConfig,
    ModelSession,
    OptConfig,
    RefConfig,
    emit_report,
    evaluate,
    spec_for_all_modules,
    train_reference,
)
from quest.supervision import format_answer_prompt

SYMS = "defghijklmnopqrstu"
TAGS = "vwxy"

rng = np.random.default_rng(0)
docs = []
for _ in range(1000):
    tag = TAGS[rng.integers(len(TAGS))]
    sym = SYMS[rng.integers(len(SYMS))]
    body = format_answer_prompt(f"Q: {sym} ->\nA:", "") + f"\\boxed{{{sym}{tag}}}"
    docs.append(f"rule: {tag}\n{body}" if rng.random() < 0.7 else body)

t0 = time.perf_counter()
backend = train_reference(docs, RefConfig(n_layer=2, d_model=64, n_head=4, max_len=128),
                          steps=1500, lr=3e-3, seed=0)
print(f"pretrained base model in {time.perf_counter() - t0:.1f}s")


class ScriptedGenerator:
    name = "scripted"
    eos_id = 0
    max_len = 1_000_000

    def __init__(self, ref, tag_of):
        self._ref = ref
        self._tag_of = tag_of
        self.vocab_size = ref.vocab_size

    def tokenize(self, text):
        return self._ref.tokenize(text)

    def detokenize(self, ids):
        return self._ref.detokenize(ids)

    def adaptable_modules(self):
        return []

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        text = self.detokenize(prompt)
        sym = re.search(r"Q: (\S) ->", text).group(1)
        idx = int(re.search(r"problem (\d+) ", text).group(1))
        pool = [sym] + [s for s in SYMS if s != sym][:4]
        s = pool[(idx - 1) % len(pool)]
        out = f"<problem>Q: {s} ->\nA:</problem><solution>\\boxed{{{s}{self._tag_of[sym]}}}</solution>"
        return self.tokenize(out)


qrng = np.random.default_rng(42)
tag_of = {s: TAGS[i % len(TAGS)] for i, s in enumerate(qrng.permutation(list(SYMS)))}
items = []
for i in range(30):
    sym = SYMS[qrng.integers(len(SYMS))]
    items.append(BenchmarkItem(id=f"t{i:02d}", problem=f"Q: {sym} ->\nA:", answer=f"{sym}{tag_of[sym]}"))

session = ModelSession(backend=backend, seed=7)
generator = ModelSession(backend=ScriptedGenerator(backend, tag_of), seed=7)
spec = spec_for_all_modules(backend.adaptable_modules(), rank=8, alpha=16, dropout=0.05)

print("\nself-consistency sweep:")
# each item draws 16 samples once; budget N votes on the first N of them
budgets = (1, 2, 4, 8, 16)
all_records, summaries = evaluate(
    session, items, "self_consistency", sc_samples=budgets, sc_temperature=0.8,
    max_new_tokens=16, seed=5, system_prompt="",
)
for n, summary in zip(budgets, summaries):
    print(f"  N={n:<3} accuracy {summary['accuracy']:.2f}  mean tokens {summary['mean_tokens']:7.1f}")

records, (summary,) = evaluate(
    session, items, "quest",
    gen_cfg=GenConfig(n_pairs=5, max_new_tokens=64, temperature=0.8),
    adapter_spec=spec,
    opt_cfg=OptConfig(steps=200, lr=3e-3, grad_accumulation=4),
    max_new_tokens=16, seed=5, system_prompt="", generator_session=generator,
)
all_records.extend(records)
print(f"  quest accuracy {summary['accuracy']:.2f}  mean tokens {summary['mean_tokens']:7.1f}"
      f"  (generation + trained-example tokens)")

paths = emit_report(all_records, "runs/tradeoff", benchmark="hidden-rule")
print(f"\nwrote {paths['curve']} and {paths['results']}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    rows = [line.split(",") for line in open(paths["curve"]).read().splitlines()[1:]]
    sc = [(float(r[2]), float(r[3])) for r in rows if r[0] == "self_consistency"]
    qp = [(float(r[2]), float(r[3])) for r in rows if r[0] == "quest"]
    plt.figure(figsize=(5, 3.2))
    plt.plot([x for x, _ in sc], [y for _, y in sc], "o-", label="self-consistency")
    plt.plot([x for x, _ in qp], [y for _, y in qp], "r*", markersize=14, label="test-time training")
    plt.xlabel("mean test-time tokens per query")
    plt.ylabel("accuracy")
    plt.legend()
    plt.tight_layout()
    plt.savefig("runs/tradeoff/curve.png", dpi=150)
    print("wrote runs/tradeoff/curve.png")
except ImportError:
    pass
