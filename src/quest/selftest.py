"""Built-in invariant suite over the reference backend.

Covers the contracts a user must be able to trust before attaching a real
backend: default-config fidelity, adapter identity at init, merge
equivalence, gradient fidelity against finite differences, frozen-base
isolation, lock-step decoding equal to one-request decoding, and the
answer-equivalence scorer. Returns a process exit code;
each check prints one PASS/FAIL line.
"""

from __future__ import annotations

import numpy as np

from .adapters import init_adapter, merge, spec_for_all_modules, unmerge
from .backend import ModelSession, RefConfig, ReferenceBackend, param_shapes
from .evalkit import answers_equivalent, majority_vote
from .engine import OptConfig, quest, tent, tlm
from .supervision import GenConfig, Query


def _check_config_defaults() -> None:
    from .cli import RunConfig

    cfg = RunConfig()
    expectations = {
        "rank": (cfg.rank, 16),
        "alpha": (cfg.alpha, 32.0),
        "dropout": (cfg.dropout, 0.05),
        "lr": (cfg.optimization.lr, 1e-4),
        "steps": (cfg.optimization.steps, 10),
        "grad_accumulation": (cfg.optimization.grad_accumulation, 4),
        "max_seq_len": (cfg.optimization.max_seq_len, 4096),
        "n_pairs": (cfg.generation.n_pairs, 5),
        "gen_max_new_tokens": (cfg.generation.max_new_tokens, 4096),
        "answer_max_new_tokens": (cfg.answer_max_new_tokens, 4096),
    }
    for name, (got, want) in expectations.items():
        assert got == want, f"default {name} = {got!r}, expected {want!r}"


def _small_backend(dtype: str = "float32") -> ReferenceBackend:
    cfg = RefConfig(charset="abcdefgh <>/:\n", n_layer=2, d_model=32, n_head=4, max_len=64, dtype=dtype)
    return ReferenceBackend.fresh(cfg, seed=3)


def _check_identity_at_init() -> None:
    be = _small_backend()
    spec = spec_for_all_modules(be.adaptable_modules(), init_seed=1)
    adapter = init_adapter(spec, be.adaptable_modules())
    rng = np.random.default_rng(0)
    for _ in range(25):
        ids = rng.integers(1, be.vocab_size, size=rng.integers(2, 30)).tolist()
        plain = be.forward_logits(ids)
        adapted = be.forward_logits(ids, adapter=adapter)
        assert np.array_equal(plain, adapted), "fresh adapter changed logits"


def _check_merge_equivalence() -> None:
    be = _small_backend()
    spec = spec_for_all_modules(be.adaptable_modules(), rank=4, init_seed=2)
    adapter = init_adapter(spec, be.adaptable_modules())
    rng = np.random.default_rng(1)
    for a, b in adapter.factors.values():
        a[:] = rng.normal(0, 0.2, a.shape).astype(a.dtype)
        b[:] = rng.normal(0, 0.2, b.shape).astype(b.dtype)
    session = ModelSession(backend=be)
    snapshot = merge(session, adapter)
    merged = be.with_params(snapshot.params)
    for _ in range(10):
        ids = rng.integers(1, be.vocab_size, size=12).tolist()
        diff = np.abs(
            be.forward_logits(ids, adapter=adapter) - merged.forward_logits(ids)
        ).max()
        assert diff < 1e-5, f"merged/attached diverge by {diff}"
    restored = unmerge(snapshot)
    for name, arr in be.params.items():
        assert np.abs(restored[name] - arr).max() < 1e-5, f"unmerge failed for {name}"


def _check_gradient_fidelity() -> None:
    be = _small_backend(dtype="float64")
    spec = spec_for_all_modules(be.adaptable_modules(), rank=4, dropout=0.0, init_seed=4)
    adapter = init_adapter(spec, be.adaptable_modules())
    rng = np.random.default_rng(2)
    for a, b in adapter.factors.values():
        a[:] = rng.normal(0, 0.3, a.shape)
        b[:] = rng.normal(0, 0.3, b.shape)
    ids = rng.integers(1, be.vocab_size, size=16).tolist()
    mask = [0] + [1] * (len(ids) - 1)
    _, grads = be.masked_nll_with_grads(ids, mask, adapter)
    h = 1e-6
    for name in ("layers.0.attn.q", "layers.1.attn.o"):
        a, b = adapter.factors[name]
        for arr, g in ((a, grads[name][0]), (b, grads[name][1])):
            for _ in range(5):
                i, j = rng.integers(arr.shape[0]), rng.integers(arr.shape[1])
                keep = arr[i, j]
                arr[i, j] = keep + h
                hi = be.masked_nll(ids, mask, adapter=adapter)
                arr[i, j] = keep - h
                lo = be.masked_nll(ids, mask, adapter=adapter)
                arr[i, j] = keep
                fd = (hi - lo) / (2 * h)
                rel = abs(fd - g[i, j]) / max(abs(fd), 1e-6)
                assert rel < 1e-3, f"gradient mismatch at {name}[{i},{j}]: rel {rel:.2e}"


def _check_frozen_base() -> None:
    be = _small_backend()
    session = ModelSession(backend=be, seed=0)
    before = be.checksum()
    query = Query(id="probe", text="abc ->", system_prompt="")
    spec = spec_for_all_modules(be.adaptable_modules(), rank=2, init_seed=0)
    gen = GenConfig(n_pairs=2, max_new_tokens=16, temperature=0.7, max_parse_retries=0)
    opt = OptConfig(steps=2, lr=1e-3, grad_accumulation=2)
    quest(session, query, gen, spec, opt, max_new_tokens=8)
    tent(session, query, spec, opt, max_new_tokens=8)
    tlm(session, query, spec, opt, max_new_tokens=8)
    assert be.checksum() == before, "base parameters changed"
    assert session.adapter is None, "adapter left attached"


def _check_prefetch_matches_generate() -> None:
    """``prefetch`` then ``generate`` returns what ``generate`` alone decodes."""
    cfg = RefConfig(charset="abcdefgh <>/:\n", n_layer=2, d_model=32, n_head=4, max_len=40)
    rng = np.random.default_rng(5)
    params = {name: rng.normal(0, 0.3, shape) for name, shape in param_shapes(cfg).items()}
    # prompts of three lengths, then a repeated request and a bad token id, both skipped
    requests = [
        (rng.integers(1, cfg.vocab_size, size=n).tolist(), seed)
        for n, seed in ((3, 0), (3, 1), (9, 2), (3, 3), (30, 4), (9, 5), (3, 6))
    ]
    requests += [requests[1], ([1, cfg.vocab_size], 7)]
    for temperature in (0.0, 1.5):
        lockstep, alone = ReferenceBackend(cfg, params), ReferenceBackend(cfg, params)
        lockstep.prefetch(requests, 24, temperature)
        distinct = {(tuple(p), s if temperature else None) for p, s in requests[:-1]}
        assert len(lockstep._memo) == len(distinct), "prefetch left requests undecoded"
        for prompt, seed in requests[:-1]:
            want = alone.generate(prompt, 24, temperature, seed=seed)
            assert lockstep.generate(prompt, 24, temperature, seed=seed) == want, (
                f"lock-step output differs for seed {seed} at temperature {temperature}"
            )


def _check_scorer() -> None:
    cases = [
        ("1/2", "0.5", True),
        ("0.3333333", "1/3", True),
        ("042", "42", True),
        ("1,000", "1000", True),
        ("\\frac{1}{2}", "1/2", True),
        ("12", "13", False),
    ]
    for a, b, want in cases:
        assert answers_equivalent(a, b) is want, f"scorer({a!r}, {b!r}) != {want}"
        assert answers_equivalent(b, a) is want, "scorer asymmetry"
    assert majority_vote(["4", "4", "5"]) == "4"
    assert majority_vote([None, None]) is None


CHECKS = [
    ("config-defaults", _check_config_defaults),
    ("adapter-identity-at-init", _check_identity_at_init),
    ("merge-equivalence", _check_merge_equivalence),
    ("gradient-fidelity", _check_gradient_fidelity),
    ("frozen-base-isolation", _check_frozen_base),
    ("prefetch-matches-generate", _check_prefetch_matches_generate),
    ("answer-scorer", _check_scorer),
]


def run_selftest(verbose: bool = True) -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"PASS {name}")
    if verbose:
        total = len(CHECKS)
        print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0
