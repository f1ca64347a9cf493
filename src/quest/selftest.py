"""The invariant checks, shared by ``quest selftest`` and the acceptance tests.

Covers the contracts a user must be able to trust before plugging in a real
backend: default-config fidelity, adapter identity at init, merge
equivalence, gradient fidelity against finite differences, frozen-base
isolation, lock-step decoding equal to one-request decoding, and the
answer-equivalence scorer. Each ``check_*`` function takes its sizes as
arguments and raises ``AssertionError`` on a violation; ``run_selftest`` runs
them all at small sizes on the reference backend, prints one PASS/FAIL line
per check and returns a process exit code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .adapters import init_adapter, merge, spec_for_all_modules, unmerge
from .backend import ModelSession, RefConfig, ReferenceBackend, param_shapes
from .backend import reference
from .evalkit import answers_equivalent, majority_vote
from .engine import OptConfig, quest, tent, tlm
from .supervision import GenConfig, Query


def check_config_defaults() -> None:
    """The default run config is the reference recipe."""
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


def random_backend(dtype: str = "float32") -> ReferenceBackend:
    """A small reference model with every weight random. A fresh model's output
    head is zero, so its logits are constant and would pass every check."""
    cfg = RefConfig(
        charset="abcdefgh <>/:\n", n_layer=2, d_model=32, n_head=4, max_len=64, dtype=dtype
    )
    rng = np.random.default_rng(3)
    return ReferenceBackend(cfg, {k: rng.normal(0, 0.2, v) for k, v in param_shapes(cfg).items()})


def _random_factors(adapter, rng: np.random.Generator, std: float) -> None:
    for a, b in adapter.factors.values():
        a[:] = rng.normal(0, std, a.shape).astype(a.dtype)
        b[:] = rng.normal(0, std, b.shape).astype(b.dtype)


def check_identity_at_init(backend, n_inputs: int, max_tokens: int) -> None:
    """A fresh adapter leaves the logits of random inputs bitwise unchanged."""
    mods = backend.adaptable_modules()
    adapter = init_adapter(spec_for_all_modules(mods, init_seed=1), mods)
    rng = np.random.default_rng(0)
    for _ in range(n_inputs):
        ids = rng.integers(1, backend.vocab_size, size=rng.integers(1, max_tokens + 1)).tolist()
        plain = backend.forward_logits(ids)
        assert plain.std() > 0, "constant logits would pass unchanged whatever the adapter did"
        adapted = backend.forward_logits(ids, adapter=adapter)
        assert np.array_equal(plain, adapted), "fresh adapter changed logits"


def check_merge_equivalence(backend, n_inputs: int, n_tokens: int) -> None:
    """Merged and adapted logits agree within 1e-5; unmerge restores the base."""
    mods = backend.adaptable_modules()
    adapter = init_adapter(spec_for_all_modules(mods, rank=4, init_seed=5), mods)
    rng = np.random.default_rng(2)
    _random_factors(adapter, rng, 0.05)
    snapshot = merge(backend, adapter)
    merged = backend.with_params(snapshot.params)
    for _ in range(n_inputs):
        ids = rng.integers(1, backend.vocab_size, size=n_tokens).tolist()
        adapted = backend.forward_logits(ids, adapter=adapter)
        assert not np.allclose(adapted, backend.forward_logits(ids)), "adapter moves no logit"
        diff = np.abs(adapted - merged.forward_logits(ids)).max()
        assert diff < 1e-5, f"merged/adapted diverge by {diff}"
    restored = unmerge(snapshot)
    for name, arr in backend.params.items():
        assert np.abs(restored[name] - arr).max() < 1e-5, f"unmerge failed for {name}"


def check_gradient_fidelity(backend, n_coords: int, n_tokens: int, targets: Sequence[str] = ()) -> float:
    """Adapter gradients match central finite differences within relative
    error 1e-3 on coordinates taken from every factor in turn; ``backend``
    must compute in float64. The adapter targets ``targets``, or every
    adaptable module when none are given. Returns the worst relative error."""
    mods = backend.adaptable_modules()
    spec = spec_for_all_modules(mods, rank=4, dropout=0.0, init_seed=3)
    adapter = init_adapter(replace(spec, target_modules=tuple(targets) or spec.target_modules), mods)
    rng = np.random.default_rng(1)
    _random_factors(adapter, rng, 0.3)
    ids = rng.integers(1, backend.vocab_size, size=n_tokens).tolist()
    mask = [0] + [1] * (len(ids) - 1)
    _, grads = backend.masked_nll_with_grads(ids, mask, adapter)
    factors = [(name, k) for name in adapter.factors for k in (0, 1)]
    h = 1e-6
    worst = largest = 0.0
    for c in range(n_coords):
        name, k = factors[c % len(factors)]
        arr, grad = adapter.factors[name][k], grads[name][k]
        i, j = int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1]))
        keep = arr[i, j]
        arr[i, j] = keep + h
        hi = backend.masked_nll_with_grads(ids, mask, adapter)[0]
        arr[i, j] = keep - h
        lo = backend.masked_nll_with_grads(ids, mask, adapter)[0]
        arr[i, j] = keep
        fd = (hi - lo) / (2 * h)
        rel = abs(fd - grad[i, j]) / max(abs(fd), 1e-6)
        assert rel < 1e-3, f"gradient mismatch at {name}[{i},{j}]: rel {rel:.2e}"
        worst, largest = max(worst, rel), max(largest, abs(fd))
    assert largest > 1e-3, f"gradients vanish (largest {largest:.1e}), so any would match"
    return worst


def check_frozen_base(session, query, n_pairs: int, steps: int, generator_session=None) -> None:
    """quest, TENT and TLM leave the base bitwise unchanged."""
    backend = session.backend
    before = backend.checksum()
    spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, init_seed=2)
    gen = GenConfig(n_pairs=n_pairs, max_new_tokens=16, temperature=0.8, max_parse_retries=0)
    opt = OptConfig(steps=steps, lr=1e-3, grad_accumulation=2)
    quest(session, query, gen, spec, opt, generator_session=generator_session, max_new_tokens=8)
    tent(session, query, spec, opt, max_new_tokens=8)
    tlm(session, query, spec, opt, max_new_tokens=8)
    assert backend.checksum() == before, "base parameters changed"


def _prefetch_on(backend: ReferenceBackend, requests: list, procs: int) -> None:
    """``backend.prefetch(requests)`` with its chunks dealt to ``procs``
    decode processes."""
    default = reference._DECODE_PROCS
    reference._DECODE_PROCS = procs
    try:
        backend.prefetch(requests)
    finally:
        reference._DECODE_PROCS = default


def check_prefetch_matches_generate() -> None:
    """One ``prefetch`` of mixed requests (with and without adapters, greedy
    and sampled, two budgets), then ``generate``, returns what ``generate``
    alone decodes; ``prefetch`` decodes each distinct request once, the
    read-backs decode nothing, and a prompt that fills the context window
    decodes nothing. Decoded requests are counted as rows of prompt forwards,
    in one process. The same call dealt to forked decode workers holds the
    same bytes: they are a property of this machine's CPU and BLAS."""
    cfg = RefConfig(charset="abcdefgh <>/:\n", n_layer=2, d_model=32, n_head=4, max_len=40)
    rng = np.random.default_rng(5)
    params = {name: rng.normal(0, 0.3, shape) for name, shape in param_shapes(cfg).items()}
    mods = ReferenceBackend(cfg, params).adaptable_modules()
    # an identity adapter and two trained-looking ones, all of one spec
    adapters = [init_adapter(spec_for_all_modules(mods, rank=2, init_seed=k), mods) for k in range(3)]
    for adapter in adapters[1:]:
        _random_factors(adapter, rng, 0.3)
    # prompts of three lengths, the adapted 3-token ones more than one
    # lock-step chunk holds, each greedy and sampled
    lengths = [3] * (2 * reference._LOCKSTEP_ROWS) + [9, 30, 9, 30]
    requests = []
    for seed, n in enumerate(lengths):
        prompt = rng.integers(1, cfg.vocab_size, size=n).tolist()
        adapter = None if seed % 4 == 0 else adapters[seed % 3]
        budget = 5 if seed % 5 == 0 else 24
        requests += [(prompt, budget, temperature, adapter, seed) for temperature in (0.0, 1.5)]
    # then a repeat, a full-window prompt and a bad token id, all skipped
    full = rng.integers(1, cfg.vocab_size, size=cfg.max_len).tolist()
    skipped = [requests[3], (full, 24, 0.0, None, 0), (full, 24, 1.5, adapters[1], 0)]
    lockstep, alone = ReferenceBackend(cfg, params), ReferenceBackend(cfg, params)
    prompt_rows = []
    forward = lockstep._core.forward

    def counting(ids, *args, **kwargs):
        if not kwargs.get("start"):  # a prompt forward, one row per decoded request
            prompt_rows.append(len(ids))
        return forward(ids, *args, **kwargs)

    lockstep._core.forward = counting
    given = requests + skipped + [([1, cfg.vocab_size], 24, 1.5, adapters[1], 99)]
    # counted in this process: a forked decode worker's forwards go uncounted
    _prefetch_on(lockstep, given, procs=1)
    distinct = {(tuple(p), m, t, s if t else None, id(a)) for p, m, t, a, s in requests}
    assert sum(prompt_rows) == len(distinct), "prefetch did not decode each request once"
    forked = ReferenceBackend(cfg, params)
    _prefetch_on(forked, given, procs=max(2, reference._DECODE_PROCS))
    assert forked._held == lockstep._held, "forked decode workers changed a prefetched output"
    prompt_rows.clear()
    ends = set()
    for prompt, budget, temperature, adapter, seed in requests + skipped:
        want = alone.generate(prompt, budget, temperature, adapter=adapter, seed=seed)
        got = lockstep.generate(prompt, budget, temperature, adapter=adapter, seed=seed)
        assert got == want, f"lock-step output differs for seed {seed} at temperature {temperature}"
        if adapter is adapters[0]:
            assert got == alone.generate(prompt, budget, temperature, seed=seed), (
                "an identity adapter changed a lock-step output"
            )
        if len(prompt) == cfg.max_len:
            assert got == [], "a prompt that fills the context window decoded a token"
        elif adapter is not None:
            end = "budget" if len(got) == budget else "window" if len(prompt) + len(got) == 40 else "eos"
            ends.add(end)
    assert not prompt_rows, "generate decoded a prefetched request again"
    assert ends == {"eos", "budget", "window"}, f"adapted rows only ended at {sorted(ends)}"
    try:
        lockstep.generate([1, cfg.vocab_size], 24, 1.5, adapter=adapters[1], seed=99)
    except ValueError:
        pass
    else:
        raise AssertionError("generate accepted an out-of-range token id")


def check_scorer() -> None:
    """Hand-picked equivalences hold both ways; the vote groups equivalents."""
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
    ("config-defaults", check_config_defaults),
    ("adapter-identity-at-init", lambda: check_identity_at_init(random_backend(), 25, 29)),
    ("merge-equivalence", lambda: check_merge_equivalence(random_backend(), 10, 12)),
    ("gradient-fidelity", lambda: check_gradient_fidelity(random_backend("float64"), 20, 16)),
    (
        "frozen-base-isolation",
        lambda: check_frozen_base(ModelSession(random_backend()), Query("p", "abc ->", ""), 2, 2),
    ),
    ("prefetch-matches-generate", check_prefetch_matches_generate),
    ("answer-scorer", check_scorer),
]


def run_selftest() -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0
