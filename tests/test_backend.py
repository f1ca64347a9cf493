from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from quest.adapters import init_adapter, spec_for_all_modules
from quest.backend import (
    CharTokenizer,
    ModelSession,
    RefConfig,
    ReferenceBackend,
    create_session,
    load_checkpoint,
    register_backend,
    save_checkpoint,
)
from quest.backend import reference
from quest.backend.reference import _draw, _RefCore, init_params, param_names


class TestTokenizer:
    def test_empty_text(self):
        tok = CharTokenizer()
        assert tok.encode("") == []
        assert tok.decode([]) == ""

    def test_repeated_char_maps_to_equal_ids(self):
        tok = CharTokenizer()
        ids = tok.encode("aa")
        assert len(ids) == 2 and ids[0] == ids[1]

    def test_text_round_trip(self):
        tok = CharTokenizer()
        text = "Solve: 3 * x + 1 = 10\n\\boxed{3}"
        assert tok.decode(tok.encode(text)) == text

    def test_id_round_trip_random_sequences(self):
        tok = CharTokenizer()
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids = rng.integers(1, tok.vocab_size, size=rng.integers(1, 40)).tolist()
            assert tok.encode(tok.decode(ids)) == ids

    def test_invalid_id_names_offending_index(self):
        tok = CharTokenizer()
        with pytest.raises(ValueError, match="position 1"):
            tok.decode([1, tok.vocab_size])

    def test_unknown_chars_replaced(self):
        tok = CharTokenizer()
        assert tok.decode(tok.encode("aéb")) == "a?b"

    def test_crlf_normalized(self):
        tok = CharTokenizer()
        assert tok.decode(tok.encode("a\r\nb")) == "a\nb"


class TestForward:
    def test_logit_shape_single_token(self, fresh_backend):
        logits = fresh_backend.forward_logits([1])
        assert logits.shape == (1, fresh_backend.vocab_size)

    def test_deterministic(self, fresh_backend):
        ids = fresh_backend.tokenize("determinism check")
        a = fresh_backend.forward_logits(ids)
        b = fresh_backend.forward_logits(ids)
        assert np.array_equal(a, b)

    def test_too_long_errors(self, fresh_backend):
        ids = [1] * (fresh_backend.max_len + 1)
        with pytest.raises(ValueError, match="max length"):
            fresh_backend.forward_logits(ids)

    def test_fresh_model_is_uniform(self, fresh_backend):
        # zero-initialized output head: logits exactly zero everywhere
        logits = fresh_backend.forward_logits(fresh_backend.tokenize("abc"))
        assert np.all(logits == 0.0)


class TestGenerate:
    def test_zero_budget(self, fresh_backend):
        assert fresh_backend.generate(fresh_backend.tokenize("ab"), 0) == []

    # a second backend over the same parameters decodes again instead of
    # answering from the first one's memo
    def test_greedy_deterministic(self, ab_backend):
        prompt = ab_backend.tokenize("ab")
        twin = ab_backend.with_params(ab_backend.params)
        assert ab_backend.generate(prompt, 8, 0.0, seed=3) == twin.generate(prompt, 8, 0.0, seed=3)

    def test_overfit_model_continues_pattern(self, ab_backend):
        out = ab_backend.generate(ab_backend.tokenize("ab"), 10, 0.0)
        assert ab_backend.detokenize(out) == "ababababab"

    def test_sampled_deterministic_per_seed(self, ab_backend):
        prompt = ab_backend.tokenize("a")
        twin = ab_backend.with_params(ab_backend.params)
        assert ab_backend.generate(prompt, 8, 0.9, seed=5) == twin.generate(prompt, 8, 0.9, seed=5)

    def test_prompt_too_long(self, fresh_backend):
        with pytest.raises(ValueError, match="exceeds max length"):
            fresh_backend.generate([1] * (fresh_backend.max_len + 1), 1)

    def test_incremental_matches_full_recompute(self, ab_backend):
        prompt = ab_backend.tokenize("ab")
        fast = ab_backend.generate(prompt, 6, 0.0)
        ids = list(prompt)
        slow = []
        for _ in range(6):
            nxt = int(np.argmax(ab_backend.forward_logits(ids)[-1]))
            if nxt == ab_backend.eos_id:
                break
            slow.append(nxt)
            ids.append(nxt)
        assert fast == slow

    def test_stays_within_context_window(self, ab_backend):
        prompt = ab_backend.tokenize("ab")
        out = ab_backend.generate(prompt, 10_000, 0.9, seed=1)
        assert len(prompt) + len(out) <= ab_backend.max_len

    # outputs of the token-at-a-time decoder this one replaced, on the same model
    @pytest.mark.parametrize(
        "prompt,temperature,seed,want",
        [
            ("ab", 0.0, None, "ababababababababababab"),
            ("ba", 0.0, None, "bbabababababababababab"),
            ("bbb", 0.0, None, "babababababababababab"),
            ("a", 2.0, 1, "babababab"),
            ("ab", 2.0, 7, "ababababababaababbabab"),
            ("ba", 2.0, 1, "bbababababbabbababbabbbabababa"),
            ("abab", 0.9, 1, "abaabbababababababab"),
            ("bbb", 2.0, 7, "bababbabababbabababa"),
        ],
    )
    def test_matches_pinned_outputs(self, ab_backend, prompt, temperature, seed, want):
        out = ab_backend.generate(ab_backend.tokenize(prompt), 40, temperature, seed=seed)
        assert ab_backend.detokenize(out) == want

    def test_draw_matches_generator_choice(self):
        rng = np.random.default_rng(0)
        mine, ref = np.random.default_rng(123), np.random.default_rng(123)
        for i in range(12_000):
            size = 2 + i % 97
            probs = rng.dirichlet(np.full(size, 0.05 if i % 2 else 1.0))
            assert _draw(probs, mine) == ref.choice(size, p=probs)


@pytest.fixture
def forward_shapes(monkeypatch):
    """The shape of the ids of every ``_RefCore.forward`` call."""
    calls = []
    forward = _RefCore.forward

    def counting(self, ids, *args, **kwargs):
        calls.append(np.shape(ids))
        return forward(self, ids, *args, **kwargs)

    monkeypatch.setattr(_RefCore, "forward", counting)
    return calls


@pytest.fixture
def counted(ab_backend, forward_shapes):
    """A backend with an empty memo, and the ids shape of every forward it runs."""
    return ab_backend.with_params(ab_backend.params), forward_shapes


class TestGenerateMemo:
    def test_repeat_runs_no_forward(self, counted):
        backend, calls = counted
        prompt = backend.tokenize("ab")
        for temperature, seed in ((0.0, None), (2.0, 7)):
            first = backend.generate(prompt, 20, temperature, seed=seed)
            n = len(calls)
            assert n > 0
            assert backend.generate(prompt, 20, temperature, seed=seed) == first
            assert len(calls) == n
            calls.clear()

    def test_adapter_calls_always_decode(self, counted):
        backend, calls = counted
        mods = backend.adaptable_modules()
        adapter = init_adapter(spec_for_all_modules(mods, rank=2, alpha=4.0), mods)
        prompt = backend.tokenize("ab")
        first = backend.generate(prompt, 10, 0.0, adapter=adapter)
        n = len(calls)
        assert backend.generate(prompt, 10, 0.0, adapter=adapter) == first
        assert len(calls) == 2 * n
        # nor do they fill the memo for adapter-free calls
        assert backend.generate(prompt, 10, 0.0) == first
        assert len(calls) == 3 * n

    def test_greedy_hits_across_seeds_sampled_do_not(self, counted):
        backend, calls = counted
        prompt = backend.tokenize("ba")
        greedy = backend.generate(prompt, 20, 0.0, seed=1)
        n = len(calls)
        assert backend.generate(prompt, 20, 0.0, seed=2) == greedy
        assert backend.generate(prompt, 20, 0.0) == greedy
        assert len(calls) == n
        backend.generate(prompt, 20, 2.0, seed=1)
        n = len(calls)
        backend.generate(prompt, 20, 2.0, seed=2)
        assert len(calls) > n

    def test_returned_list_is_a_copy(self, counted):
        backend, _ = counted
        prompt = backend.tokenize("ab")
        out = backend.generate(prompt, 12, 2.0, seed=3)
        want = list(out)
        out[0] = backend.eos_id
        out.append(1)
        assert backend.generate(prompt, 12, 2.0, seed=3) == want

    def test_evicts_least_recently_used(self, counted, monkeypatch):
        backend, calls = counted
        monkeypatch.setattr(reference, "_MEMO_ENTRIES", 2)
        prompt = backend.tokenize("ab")

        def sample(seed):
            before = len(calls)
            return backend.generate(prompt, 16, 2.0, seed=seed), len(calls) > before

        a, _ = sample(1)
        b, _ = sample(2)
        assert sample(1) == (a, False)  # a is now the most recently used
        sample(3)  # evicts b
        assert sample(1) == (a, False)
        assert sample(2) == (b, True)

    def test_bad_tokens_raise_on_every_call(self, counted):
        backend, _ = counted
        backend.generate([1, 2], 4, 0.0)
        for _ in range(2):
            # 258 is 2 modulo 256: the memo must not see [1, 2] here
            with pytest.raises(ValueError, match="token id out of range"):
                backend.generate([1, 258], 4, 0.0)


def _mixed_requests(backend, seed=8):
    """Requests over prompts of three lengths; with 24 new tokens some rows
    of ``random_backend`` end at the end-of-sequence token, some at the
    budget and the 50-token ones at the 64-token window."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(1, backend.vocab_size, size=n).tolist(), k)
        for k, n in enumerate((3, 12, 50, 3, 12, 50, 3, 12, 50, 3))
    ]


class TestPrefetch:
    """``prefetch`` then ``generate`` against ``generate`` on an empty memo."""

    @pytest.mark.parametrize("temperature", [0.0, 2.0], ids=["greedy", "sampled"])
    def test_matches_generate_alone(self, random_backend, forward_shapes, temperature):
        backend = random_backend.with_params(random_backend.params)
        requests = _mixed_requests(backend)
        backend.prefetch(requests, 24, temperature)
        # one prefill per prompt length, each over all of its rows
        prefills = [shape for shape in forward_shapes if shape[1] > 1]
        assert prefills == [(4, 3), (3, 12), (3, 50)]
        n_forwards = len(forward_shapes)
        lockstep = [backend.generate(p, 24, temperature, seed=s) for p, s in requests]
        assert len(forward_shapes) == n_forwards
        twin = random_backend.with_params(random_backend.params)
        assert lockstep == [twin.generate(p, 24, temperature, seed=s) for p, s in requests]

    @pytest.mark.parametrize("temperature", [0.0, 2.0], ids=["greedy", "sampled"])
    def test_rows_leave_at_eos_budget_and_window_on_different_steps(self, random_backend, temperature):
        backend = random_backend.with_params(random_backend.params)
        requests = _mixed_requests(backend)
        backend.prefetch(requests, 24, temperature)
        twin = random_backend.with_params(random_backend.params)
        ends = {}
        for prompt, seed in requests:
            out = backend.generate(prompt, 24, temperature, seed=seed)
            assert out == twin.generate(prompt, 24, temperature, seed=seed)
            if len(out) == 24:
                reason = "budget"
            elif len(prompt) + len(out) == backend.max_len:
                reason = "window"
            else:
                reason = "eos"
            ends.setdefault(reason, set()).add(len(out))
        assert set(ends) == {"eos", "budget", "window"}
        # and the end-of-sequence rows leave on several steps
        assert len(ends["eos"]) > 2

    def test_skips_repeats_and_memo_hits(self, random_backend, forward_shapes):
        backend = random_backend.with_params(random_backend.params)
        (a, sa), (b, sb), (c, sc) = _mixed_requests(backend)[:3]
        want_a = backend.generate(a, 24, 2.0, seed=sa)
        forward_shapes.clear()
        backend.prefetch([(a, sa), (b, sb), (b, sb), (c, sc), (b, sb)], 24, 2.0)
        assert [shape for shape in forward_shapes if shape[1] > 1] == [(1, 12), (1, 50)]
        n_forwards = len(forward_shapes)
        assert backend.generate(a, 24, 2.0, seed=sa) == want_a
        backend.generate(b, 24, 2.0, seed=sb)
        backend.generate(c, 24, 2.0, seed=sc)
        assert len(forward_shapes) == n_forwards

    def test_invalid_requests_skipped_and_still_raise(self, random_backend, forward_shapes):
        backend = random_backend.with_params(random_backend.params)
        good = [1, 2, 3]
        bad = {
            "token id out of range": [1, backend.vocab_size],
            "exceeds max length": [1] * (backend.max_len + 1),
            "empty prompt": [],
        }
        backend.prefetch([(good, 0)] + [(ids, 0) for ids in bad.values()], 8, 2.0)
        assert [shape for shape in forward_shapes if shape[1] > 1] == [(1, 3)]
        n_forwards = len(forward_shapes)
        backend.generate(good, 8, 2.0, seed=0)
        assert len(forward_shapes) == n_forwards
        for message, ids in bad.items():
            with pytest.raises(ValueError, match=message):
                backend.generate(ids, 8, 2.0, seed=0)

    def test_budget_stop_runs_no_extra_forward(self, counted):
        backend, calls = counted
        prompts = [backend.tokenize(text) for text in ("ab", "ba", "bb")]
        # these continue the pattern for 22 tokens before any end-of-sequence
        backend.prefetch([(p, None) for p in prompts], 8, 0.0)
        assert calls == [(3, 2)] + [(3, 1)] * 7
        assert all(len(backend.generate(p, 8, 0.0)) == 8 for p in prompts)
        # the one-row miss path of generate is the same loop
        calls.clear()
        assert len(backend.generate(prompts[0], 9, 0.0)) == 9
        assert calls == [(1, 2)] + [(1, 1)] * 8


def _cached_chunk_logits(backend, ids, n_prompt, adapter):
    """Last-position logits of a prompt forward, then of one-token forwards,
    all through one one-row key/value cache."""
    kv = backend._core.empty_kv(1)
    rows = [backend._core.forward([ids[:n_prompt]], adapter=adapter, kv=kv)[0][0, -1]]
    for pos in range(n_prompt, len(ids)):
        logits, _ = backend._core.forward([ids[pos : pos + 1]], adapter=adapter, kv=kv, start=pos)
        rows.append(logits[0, -1])
    return np.array(rows)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("with_adapter", [False, True])
def test_stacked_rows_match_single_rows(random_backend, dtype, with_adapter):
    """A (B, T) forward gives each row the bits of that row's own forward,
    for a prompt chunk and for a one-token step through the cache."""
    backend = ReferenceBackend(replace(random_backend.config, dtype=dtype), random_backend.params)
    core = backend._core
    adapter = None
    if with_adapter:
        mods = backend.adaptable_modules()
        adapter = init_adapter(spec_for_all_modules(mods, rank=2, alpha=4.0, init_seed=4), mods)
        rng = np.random.default_rng(5)
        for _, b in adapter.factors.values():
            b[:] = rng.normal(0, 0.1, b.shape)
    rng = np.random.default_rng(8)
    for rows, n_prompt in ((1, 1), (2, 7), (5, 1), (8, 30), (3, 63)):
        ids = rng.integers(1, backend.vocab_size, size=(rows, n_prompt + 1))
        kv = core.empty_kv(rows)
        prompt_logits = core.forward(ids[:, :-1], adapter=adapter, kv=kv)[0]
        step_logits = core.forward(ids[:, -1:], adapter=adapter, kv=kv, start=n_prompt)[0]
        for r in range(rows):
            np.testing.assert_array_equal(prompt_logits[r], backend.forward_logits(ids[r, :-1].tolist(), adapter))
            alone = _cached_chunk_logits(backend, ids[r].tolist(), n_prompt, adapter)
            np.testing.assert_array_equal(step_logits[r, 0], alone[-1])


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-10)])
@pytest.mark.parametrize("with_adapter", [False, True])
def test_cached_chunks_match_full_forward(random_backend, dtype, tol, with_adapter):
    backend = ReferenceBackend(replace(random_backend.config, dtype=dtype), random_backend.params)
    adapter = None
    if with_adapter:
        mods = backend.adaptable_modules()
        adapter = init_adapter(spec_for_all_modules(mods, rank=2, alpha=4.0, init_seed=4), mods)
        rng = np.random.default_rng(5)
        for _, b in adapter.factors.values():
            b[:] = rng.normal(0, 0.1, b.shape)
    ids = np.random.default_rng(6).integers(1, backend.vocab_size, size=40).tolist()
    n_prompt = 17
    full = backend.forward_logits(ids, adapter=adapter)[n_prompt - 1 :]
    cached = _cached_chunk_logits(backend, ids, n_prompt, adapter)
    assert cached.dtype == np.dtype(dtype)
    np.testing.assert_allclose(cached, full, rtol=0, atol=tol)


def _packed_setup(random_backend, dtype):
    """``random_backend``'s weights in ``dtype`` with room for examples past the
    row cap, and an adapter with every factor non-zero and dropout on."""
    cfg = replace(random_backend.config, dtype=dtype, max_len=2 * reference._STACK_TOKENS)
    params = dict(random_backend.params)
    params["wpe"] = np.random.default_rng(2).normal(0, 0.25, (cfg.max_len, cfg.d_model))
    backend = ReferenceBackend(cfg, params)
    mods = backend.adaptable_modules()
    adapter = init_adapter(spec_for_all_modules(mods, rank=2, alpha=4.0, dropout=0.05, init_seed=4), mods)
    rng = np.random.default_rng(5)
    for _, b in adapter.factors.values():
        b[:] = rng.normal(0, 0.1, b.shape)
    return backend, adapter


def _examples(backend, lengths, seed=9):
    rng = np.random.default_rng(seed)
    out = []
    for n in lengths:
        mask = [0] + rng.integers(0, 2, size=n - 1).tolist()
        mask[-1] = 1
        out.append((rng.integers(1, backend.vocab_size, size=n).tolist(), mask))
    return out


def _grads_call(backend, loss, tokens, mask, adapter, rng, lengths=None):
    if loss == "entropy":
        return backend.entropy_with_grads(tokens, adapter, dropout_rng=rng, lengths=lengths)
    return backend.masked_nll_with_grads(tokens, mask, adapter, dropout_rng=rng, lengths=lengths)


class TestPackedGrads:
    """One packed call over a micro-batch gives the bits of one call per
    example, summed in example order, and leaves the dropout rng where those
    calls would."""

    CAP = reference._STACK_TOKENS
    LENGTHS = {
        "equal": [22, 22, 22, 22],
        "mixed": [22, 23, 22, 23],
        # the first length splits into two stacks, the last runs one row alone
        "past-cap": [CAP // 3 + 1] * 3 + [CAP + 3],
    }

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("loss", ["nll", "entropy"])
    @pytest.mark.parametrize("case", list(LENGTHS))
    def test_packed_equals_one_call_per_example(self, random_backend, dtype, loss, case):
        backend, adapter = _packed_setup(random_backend, dtype)
        examples = _examples(backend, self.LENGTHS[case])
        tokens = [t for ids, _ in examples for t in ids]
        mask = [m for _, ms in examples for m in ms]
        packed_rng, alone_rng = np.random.default_rng(3), np.random.default_rng(3)
        value, grads = _grads_call(
            backend, loss, tokens, mask, adapter, packed_rng, [len(ids) for ids, _ in examples]
        )
        total, summed = 0.0, {}
        for ids, ms in examples:
            v, g = _grads_call(backend, loss, ids, ms, adapter, alone_rng)
            total += v
            for name, (ga, gb) in g.items():
                if name in summed:
                    summed[name][0] += ga
                    summed[name][1] += gb
                else:
                    summed[name] = [ga.copy(), gb.copy()]
        assert value == total
        assert list(grads) == list(summed)
        for name, (ga, gb) in grads.items():
            assert ga.dtype == gb.dtype == np.dtype(dtype)
            assert np.array_equal(ga, summed[name][0]) and np.array_equal(gb, summed[name][1])
        assert packed_rng.random() == alone_rng.random()
        # dropout took part: without it the gradients differ
        _, plain = _grads_call(backend, loss, examples[0][0], examples[0][1], adapter, None)
        _, dropped = _grads_call(
            backend, loss, examples[0][0], examples[0][1], adapter, np.random.default_rng(3)
        )
        assert any(not np.array_equal(plain[n][0], dropped[n][0]) for n in plain)

    def test_lengths_must_cover_the_tokens(self, random_backend):
        backend, adapter = _packed_setup(random_backend, "float64")
        (ids, mask), = _examples(backend, [6])
        with pytest.raises(ValueError, match="sum to 5, but 6 tokens"):
            backend.masked_nll_with_grads(ids, mask, adapter, lengths=[2, 3])
        with pytest.raises(ValueError, match="must be positive"):
            backend.entropy_with_grads(ids, adapter, lengths=[6, 0])

    def test_every_example_mask_checked(self, random_backend):
        backend, adapter = _packed_setup(random_backend, "float64")
        (a, ma), (b, mb) = _examples(backend, [4, 5])
        with pytest.raises(ValueError, match="position 0"):
            backend.masked_nll_with_grads(a + b, ma + [1] + mb[1:], adapter, lengths=[4, 5])
        with pytest.raises(ValueError, match="no positions"):
            backend.masked_nll_with_grads(a + b, ma + [0] * 5, adapter, lengths=[4, 5])


class TestAdaptableModules:
    def test_count_two_layers(self, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        assert len(mods) == 8  # 4 projections x 2 layers

    def test_dims_match_true_weights(self, fresh_backend):
        for mod in fresh_backend.adaptable_modules():
            weight = fresh_backend.params[mod.name]
            assert weight.shape == (mod.d_out, mod.d_in)

    def test_stable_ordering(self, fresh_backend):
        assert fresh_backend.adaptable_modules() == fresh_backend.adaptable_modules()


class TestMaskedNll:
    def test_uniform_model(self):
        be = ReferenceBackend.fresh(RefConfig(charset="abc", d_model=16, n_head=2, max_len=16), seed=0)
        ids = be.tokenize("abca")
        value = be.masked_nll(ids, [0, 1, 1, 1])
        assert value == pytest.approx(np.log(4), abs=1e-9)

    def test_matches_log_softmax_oracle(self, random_backend):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ids = rng.integers(1, random_backend.vocab_size, size=10).tolist()
            mask = [0] + rng.integers(0, 2, size=9).tolist()
            if not any(mask):
                mask[-1] = 1
            got = random_backend.masked_nll(ids, mask)
            logits = random_backend.forward_logits(ids).astype(np.float64)
            want = 0.0
            total = 0
            for t, m in enumerate(mask):
                if not m:
                    continue
                row = logits[t - 1]
                want += -(row[ids[t]] - np.log(np.exp(row - row.max()).sum()) - row.max())
                total += 1
            assert got == pytest.approx(want / total, abs=1e-6)

    def test_near_perfect_prediction_near_zero(self, ab_backend):
        ids = ab_backend.tokenize("ab" * 10)
        assert ab_backend.masked_nll(ids, [0] + [1] * (len(ids) - 1)) < 0.05

    def test_all_zero_mask_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="no positions"):
            fresh_backend.masked_nll([1, 2], [0, 0])

    def test_position_zero_mask_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="position 0"):
            fresh_backend.masked_nll([1, 2], [1, 1])

    def test_length_mismatch_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="length"):
            fresh_backend.masked_nll([1, 2], [0, 1, 1])


class TestFrozenBase:
    def test_parameters_not_writable(self, fresh_backend):
        for arr in fresh_backend.params.values():
            assert not arr.flags.writeable

    def test_checksum_stable_across_operations(self, fresh_backend):
        before = fresh_backend.checksum()
        ids = fresh_backend.tokenize("abc def")
        fresh_backend.forward_logits(ids)
        fresh_backend.generate(ids, 4, 0.8, seed=1)
        fresh_backend.masked_nll(ids, [0] + [1] * (len(ids) - 1))
        assert fresh_backend.checksum() == before

    def test_constructor_copies_caller_arrays(self):
        cfg = RefConfig(charset="ab", d_model=16, n_head=2, max_len=16)
        params = init_params(cfg, seed=0)
        be = ReferenceBackend(cfg, params)
        params["wte"][0, 0] = 123.0  # caller's array must stay writable and detached
        assert be.params["wte"][0, 0] != 123.0


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path, ab_backend):
        path = tmp_path / "model.qstb"
        save_checkpoint(ab_backend, path)
        loaded = load_checkpoint(path)
        assert loaded.checksum() == ab_backend.checksum()
        assert loaded.config == ab_backend.config

    def test_magic_bytes(self, tmp_path, ab_backend):
        path = tmp_path / "model.qstb"
        save_checkpoint(ab_backend, path)
        assert path.read_bytes()[:4] == b"QSTB"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.qstb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_param_order_is_declaration_order(self):
        names = param_names(2)
        assert names[0] == "wte" and names[1] == "wpe" and names[-1] == "lm_head"
        assert names[2:6] == [
            "layers.0.attn.q",
            "layers.0.attn.k",
            "layers.0.attn.v",
            "layers.0.attn.o",
        ]


class TestRegistry:
    def test_reference_registered(self):
        sess = create_session("reference", seed=4, charset="ab", d_model=16, n_head=2, max_len=16)
        assert sess.backend.name == "reference"
        assert sess.seed == 4

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown backend"):
            create_session("missing")

    def test_user_registered_backend(self):
        register_backend("fixture-null", lambda: None)
        sess = create_session("fixture-null")
        assert sess.backend is None


def test_session_clone_is_independent(fresh_backend):
    sess = ModelSession(backend=fresh_backend, seed=1)
    clone = sess.clone(seed=9)
    assert clone.seed == 9 and clone.backend is fresh_backend
    with pytest.raises(FrozenInstanceError):
        clone.seed = 1
    assert sess.seed == 1
