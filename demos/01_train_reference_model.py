"""Train the tiny reference transformer from scratch and poke at it.

The reference backend is a character-level decoder-only model that trains in
seconds on a CPU. It exists so every pipeline contract (adapters, test-time
updates, decoding, checkpoints) can be verified end to end without any
pretrained weights.

Run:
    python demos/01_train_reference_model.py
"""

import time

import numpy as np

from quest.backend import RefConfig, load_checkpoint, save_checkpoint, train_reference

# A toy corpus: counting lines. After training, the model should continue
# "3 4 5" patterns on its own.
rng = np.random.default_rng(0)
docs = []
for _ in range(400):
    start = int(rng.integers(0, 5))
    docs.append(" ".join(str(start + k) for k in range(6)))

print(f"corpus: {len(docs)} docs, e.g. {docs[0]!r}")

config = RefConfig(n_layer=2, d_model=64, n_head=4, max_len=64)
t0 = time.perf_counter()
backend = train_reference(docs, config, steps=1200, lr=3e-3, seed=0, log_every=300)
print(f"trained {config.n_layer}-layer/{config.d_model}-dim model in {time.perf_counter() - t0:.1f}s")

for prompt in ("0 1 2", "4 5 6", "2 3"):
    out = backend.generate(backend.tokenize(prompt), max_new_tokens=12, temperature=0.0)
    print(f"  greedy continuation of {prompt!r} -> {backend.detokenize(out)!r}")

# Sampled generation is seeded and reproducible.
ids = backend.tokenize("1 2")
a = backend.generate(ids, 10, temperature=0.8, seed=1)
b = backend.generate(ids, 10, temperature=0.8, seed=1)
print(f"  sampled twice, identical: {a == b}")

# Checkpoints round-trip through the binary container.
save_checkpoint(backend, "reference.qstb")
reloaded = load_checkpoint("reference.qstb")
print(f"checkpoint round trip ok: {reloaded.checksum() == backend.checksum()}")
print("saved reference.qstb (use it with `quest ... --checkpoint reference.qstb`)")
