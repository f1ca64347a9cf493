import os
import re
import threading
import time
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from quest.adapters import init_adapter, spec_for_all_modules
from quest.backend import (
    AdaptableModuleInfo,
    CharTokenizer,
    ModelSession,
    RefConfig,
    ReferenceBackend,
    load_checkpoint,
    save_checkpoint,
)
from quest.backend import reference
from quest.backend.reference import _draw, _RefCore, init_params, param_names
from quest.backend.serialize import read_header, write_header


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

    # a second backend over the same parameters decodes the same tokens
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
        window = ab_backend.max_len
        # a short prompt, prompts one token short of the window, and prompts
        # that fill it, which decode nothing
        prompts = [ab_backend.tokenize(text) for text in ("ab", ("ab" * 16)[1:], ("ba" * 16)[1:])]
        prompts += [ab_backend.tokenize(text) for text in ("ab" * 16, "ba" * 16, "b" * window)]
        for temperature in (0.0, 0.9):
            for prefetched in (False, True):
                backend = ab_backend.with_params(ab_backend.params)
                if prefetched:
                    backend.prefetch([(p, 10_000, temperature, None, 1) for p in prompts])
                for prompt in prompts:
                    out = backend.generate(prompt, 10_000, temperature, seed=1)
                    assert len(prompt) + len(out) <= window
                    backend.forward_logits(prompt + out)  # the sequence fits the model
                    if len(prompt) == window:
                        assert out == []
                # token ids of a full-window prompt are still checked
                with pytest.raises(ValueError, match="token id out of range"):
                    backend.generate(prompts[-1][:-1] + [backend.vocab_size], 1, temperature, seed=1)

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
        # one row over many vocabulary sizes
        rng = np.random.default_rng(0)
        mine, ref = np.random.default_rng(123), np.random.default_rng(123)
        for i in range(12_000):
            size = 2 + i % 97
            probs = rng.dirichlet(np.full(size, 0.05 if i % 2 else 1.0))
            assert _draw(probs[None], [mine]) == [ref.choice(size, p=probs)]

    def test_draw_over_rows_matches_generator_choice(self):
        # one generator per row, and rows leaving between draws as in decoding
        rng = np.random.default_rng(1)
        mine = [np.random.default_rng(100 + k) for k in range(16)]
        ref = [np.random.default_rng(100 + k) for k in range(16)]
        for step in range(1_500):
            live = [k for k in range(16) if k % (1 + step % 5) == 0]
            probs = rng.dirichlet(np.full(98, 0.05 if step % 2 else 1.0), size=len(live))
            want = [ref[k].choice(98, p=row) for k, row in zip(live, probs)]
            assert _draw(probs, [mine[k] for k in live]) == want


@pytest.fixture
def forward_shapes(monkeypatch, one_decode_process):
    """The shape of the ids of every ``_RefCore.forward`` call, all of them
    in this process."""
    calls = []
    forward = _RefCore.forward

    def counting(self, ids, *args, **kwargs):
        calls.append(np.shape(ids))
        return forward(self, ids, *args, **kwargs)

    monkeypatch.setattr(_RefCore, "forward", counting)
    return calls


@pytest.fixture
def counted(ab_backend, forward_shapes):
    """A backend that holds no prefetched outputs, and the ids shape of every
    forward it runs."""
    return ab_backend.with_params(ab_backend.params), forward_shapes


class TestGenerateMemo:
    """``generate`` reads what the latest ``prefetch`` call holds, and keeps
    nothing of its own."""

    def test_greedy_hits_across_seeds_sampled_do_not(self, counted):
        backend, calls = counted
        prompt = backend.tokenize("ba")
        backend.prefetch([(prompt, 20, 0.0, None, 1)])
        n = len(calls)
        greedy = backend.generate(prompt, 20, 0.0, seed=1)
        assert backend.generate(prompt, 20, 0.0, seed=2) == greedy
        assert backend.generate(prompt, 20, 0.0) == greedy
        assert len(calls) == n
        backend.prefetch([(prompt, 20, 2.0, None, 1)])
        n = len(calls)
        backend.generate(prompt, 20, 2.0, seed=1)
        assert len(calls) == n
        backend.generate(prompt, 20, 2.0, seed=2)
        assert len(calls) > n

    def test_returned_list_is_a_copy(self, counted):
        backend, _ = counted
        prompt = backend.tokenize("ab")
        backend.prefetch([(prompt, 12, 2.0, None, 3)])
        out = backend.generate(prompt, 12, 2.0, seed=3)
        want = list(out)
        out[0] = backend.eos_id
        out.append(1)
        assert backend.generate(prompt, 12, 2.0, seed=3) == want

    def test_bad_tokens_raise_on_every_call(self, counted):
        backend, _ = counted
        backend.prefetch([([1, 2], 4, 0.0, None, None)])
        for _ in range(2):
            # 258 is 2 modulo 256: the held [1, 2] must not answer here
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
    """``prefetch`` then ``generate`` against ``generate`` alone."""

    @pytest.mark.parametrize("temperature", [0.0, 2.0], ids=["greedy", "sampled"])
    def test_matches_generate_alone(self, random_backend, forward_shapes, temperature):
        backend = random_backend.with_params(random_backend.params)
        requests = _mixed_requests(backend)
        backend.prefetch([(p, 24, temperature, None, s) for p, s in requests])
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
        backend.prefetch([(p, 24, temperature, None, s) for p, s in requests])
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
        """Repeats decode once, and the read-backs hit what the call holds;
        an output ``generate`` decoded before is not kept, so it decodes too."""
        backend = random_backend.with_params(random_backend.params)
        (a, sa), (b, sb), (c, sc) = _mixed_requests(backend)[:3]
        want_a = backend.generate(a, 24, 2.0, seed=sa)
        forward_shapes.clear()
        repeated = [(a, sa), (b, sb), (b, sb), (c, sc), (b, sb)]
        backend.prefetch([(p, 24, 2.0, None, s) for p, s in repeated])
        assert [shape for shape in forward_shapes if shape[1] > 1] == [(1, 3), (1, 12), (1, 50)]
        n_forwards = len(forward_shapes)
        assert backend.generate(a, 24, 2.0, seed=sa) == want_a
        backend.generate(b, 24, 2.0, seed=sb)
        backend.generate(c, 24, 2.0, seed=sc)
        assert len(forward_shapes) == n_forwards

    def test_generate_between_prefetch_and_read_backs_decodes_only_its_request(self, counted):
        backend, calls = counted
        prompt = backend.tokenize("ab")
        requests = [(prompt, 16, 2.0, None, seed) for seed in range(12)]
        backend.prefetch(requests)
        n = len(calls)
        other = backend.generate(prompt, 16, 2.0, seed=12)
        # rows decoded: one per row of a prefill forward over the prompt
        assert sum(shape[0] for shape in calls[n:] if shape[1] > 1) == 1
        n = len(calls)
        outs = [backend.generate(*request) for request in requests]
        assert len(calls) == n
        twin = backend.with_params(backend.params)
        assert outs == [twin.generate(*request) for request in requests]
        assert other == twin.generate(prompt, 16, 2.0, seed=12)

    def test_next_prefetch_drops_the_outputs_of_the_last(self, counted):
        """A call decodes every request it is given, even one the last call
        held, and holds its own outputs only."""
        backend, calls = counted
        prompt = backend.tokenize("ab")
        first, second = [(prompt, 16, 2.0, None, seed) for seed in (1, 2)]
        backend.prefetch([first])
        n = len(calls)
        backend.prefetch([first, second])
        assert sum(shape[0] for shape in calls[n:] if shape[1] > 1) == 2
        backend.prefetch([second])
        n = len(calls)
        backend.generate(*second)
        assert len(calls) == n
        backend.generate(*first)
        assert sum(shape[0] for shape in calls[n:] if shape[1] > 1) == 1

    def test_invalid_requests_skipped_and_still_raise(self, random_backend, forward_shapes):
        backend = random_backend.with_params(random_backend.params)
        good = [1, 2, 3]
        bad = [
            ("token id out of range", [1, backend.vocab_size], 2.0),
            ("exceeds max length", [1] * (backend.max_len + 1), 2.0),
            ("empty prompt", [], 2.0),
            ("temperature must be finite and >= 0, got nan", good, float("nan")),
            ("temperature must be finite and >= 0, got inf", good, float("inf")),
            ("temperature must be finite and >= 0, got -1.0", good, -1.0),
        ]
        settings = [(good, 2.0)] + [(ids, temperature) for _, ids, temperature in bad]
        backend.prefetch([(ids, 8, temperature, None, 0) for ids, temperature in settings])
        assert [shape for shape in forward_shapes if shape[1] > 1] == [(1, 3)]
        n_forwards = len(forward_shapes)
        backend.generate(good, 8, 2.0, seed=0)
        assert len(forward_shapes) == n_forwards
        for message, ids, temperature in bad:
            with pytest.raises(ValueError, match=re.escape(message)):
                backend.generate(ids, 8, temperature, seed=0)

    def test_adapted_outputs_hit_only_for_equal_factor_values(self, random_backend, forward_shapes):
        backend = random_backend.with_params(random_backend.params)
        mods = backend.adaptable_modules()
        adapter = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=1), mods)
        for a, b in adapter.factors.values():
            b[:] = 0.1
        prompt = [1, 2, 3]
        backend.prefetch([(prompt, 12, 2.0, adapter, 5)])
        n_forwards = len(forward_shapes)
        first = backend.generate(prompt, 12, 2.0, adapter=adapter, seed=5)
        twin = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=1), mods)
        twin.buffer[:] = adapter.buffer
        assert backend.generate(prompt, 12, 2.0, adapter=twin, seed=5) == first
        assert len(forward_shapes) == n_forwards
        # another value, another scaling or no adapter decodes again
        twin.buffer[0] += 1.0
        backend.generate(prompt, 12, 2.0, adapter=twin, seed=5)
        assert len(forward_shapes) > n_forwards
        for other in (replace(adapter, spec=replace(adapter.spec, alpha=8.0)), None):
            n_forwards = len(forward_shapes)
            backend.generate(prompt, 12, 2.0, adapter=other, seed=5)
            assert len(forward_shapes) > n_forwards

    def test_one_call_groups_by_budget_and_temperature(self, random_backend, forward_shapes):
        backend = random_backend.with_params(random_backend.params)
        (a, _), (b, _), _, (c, _) = _mixed_requests(backend)[:4]
        settings = [(24, 0.0), (24, 2.0), (8, 2.0), (0, 2.0)]
        requests = [(p, n, t, None, s) for s, (n, t) in enumerate(settings) for p in (a, c)]
        requests.append((b, 8, 2.0, None, 2))
        backend.prefetch(requests)
        # one prefill per setting and prompt length; a zero budget skips only
        # its own requests
        prefills = [shape for shape in forward_shapes if shape[1] > 1]
        assert prefills == [(2, 3), (2, 3), (2, 3), (1, 12)]
        keys = [backend._request(*request) for request in requests]
        reached = [key is not None and key[0] in backend._held for key in keys]
        assert reached == [True] * 6 + [False] * 2 + [True]
        n_forwards = len(forward_shapes)
        lockstep = [backend.generate(*request) for request in requests]
        assert len(forward_shapes) == n_forwards
        twin = random_backend.with_params(random_backend.params)
        assert lockstep == [twin.generate(*request) for request in requests]

    def test_budget_stop_runs_no_extra_forward(self, counted):
        backend, calls = counted
        prompts = [backend.tokenize(text) for text in ("ab", "ba", "bb")]
        # these continue the pattern for 22 tokens before any end-of-sequence
        backend.prefetch([(p, 8, 0.0, None, None) for p in prompts])
        assert calls == [(3, 2)] + [(3, 1)] * 7
        assert all(len(backend.generate(p, 8, 0.0)) == 8 for p in prompts)
        # the one-row miss path of generate is the same loop
        calls.clear()
        assert len(backend.generate(prompts[0], 9, 0.0)) == 9
        assert calls == [(1, 2)] + [(1, 1)] * 8


def _forking_requests(backend):
    """Greedy and sampled requests over three prompt lengths, plain and under
    two adapters of one spec, in more chunks than three processes take; then
    one under factors too narrow for the model, whose chunk ``_decode``
    rejects."""
    mods = backend.adaptable_modules()
    spec = spec_for_all_modules(mods, rank=2, alpha=4.0, init_seed=2)
    rng = np.random.default_rng(4)
    adapters = [None]
    for seed in (2, 3):
        adapter = init_adapter(replace(spec, init_seed=seed), mods)
        for _, b in adapter.factors.values():
            b[:] = rng.normal(0, 0.1, b.shape)
        adapters.append(adapter)
    narrow = init_adapter(spec, [AdaptableModuleInfo(m.name, 8, 8, m.dtype) for m in mods])
    requests = [
        (prompt, 24, temperature, adapters[seed % 3], seed)
        for prompt, seed in _mixed_requests(backend)
        for temperature in (0.0, 2.0)
    ]
    return requests + [(requests[0][0], 24, 2.0, narrow, 0)]


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` starts."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("procs", [1, 2, 3, 4])
def test_dealing_puts_each_chunk_in_one_share(procs):
    sizes = [144, 18, 1, 5, 33, 2]
    shares = reference._shares(sizes, procs)
    chunks = [chunk for share in shares for chunk in share]
    assert len(shares) == min(procs, len(chunks))
    for g, n in enumerate(sizes):
        spans = sorted((lo, hi) for h, lo, hi in chunks if h == g)
        # each row of the group is in exactly one chunk, as few as the row cap allows
        assert [row for lo, hi in spans for row in range(lo, hi)] == list(range(n))
        assert max(hi - lo for lo, hi in spans) - min(hi - lo for lo, hi in spans) <= 1
        assert len(spans) == -(-n // reference._LOCKSTEP_ROWS)
    # dealt in turn: the shares' chunk counts differ by at most one
    assert max(map(len, shares)) - min(map(len, shares)) <= 1
    assert reference._shares([144], 64) == [[(0, lo, lo + 16)] for lo in range(0, 144, 16)]


class TestForkedPrefetch:
    """``prefetch`` decodes its chunks on forked workers, one per CPU, and
    holds the bytes that one process decodes."""

    @pytest.mark.parametrize("procs", [2, 3])
    def test_forked_outputs_equal_one_process(self, random_backend, monkeypatch, forks, procs):
        requests = _forking_requests(random_backend)
        held = {}
        for n in (1, procs):
            monkeypatch.setattr(reference, "_DECODE_PROCS", n)
            backend = random_backend.with_params(random_backend.params)
            backend.prefetch(requests)
            held[n] = backend._held
        assert len(forks) == procs - 1
        _no_child_left()
        assert held[procs] == held[1]
        # every request decoded but the one under unfit factors, on both paths
        assert len(held[1]) == len(requests) - 1
        assert backend._request(*requests[-1])[0] not in held[1]

    def test_a_failing_worker_raises_and_is_reaped(self, random_backend, monkeypatch, forks):
        monkeypatch.setattr(reference, "_DECODE_PROCS", 2)
        parent, decode = os.getpid(), ReferenceBackend._decode

        def failing_in_worker(self, *args):
            if os.getpid() != parent:
                raise RuntimeError("worker fault")
            return decode(self, *args)

        monkeypatch.setattr(ReferenceBackend, "_decode", failing_in_worker)
        backend = random_backend.with_params(random_backend.params)
        with pytest.raises(RuntimeError, match=r"decode worker \d+ exited with status 1"):
            backend.prefetch(_forking_requests(backend))
        assert len(forks) == 1
        _no_child_left()

    def test_a_fault_here_kills_the_workers(self, random_backend, monkeypatch, forks):
        monkeypatch.setattr(reference, "_DECODE_PROCS", 2)
        parent, decode = os.getpid(), ReferenceBackend._decode

        def slow_in_worker_failing_here(self, *args):
            if os.getpid() == parent:
                raise RuntimeError("fault here")
            time.sleep(60)
            return decode(self, *args)

        monkeypatch.setattr(ReferenceBackend, "_decode", slow_in_worker_failing_here)
        backend = random_backend.with_params(random_backend.params)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="fault here"):
            backend.prefetch(_forking_requests(backend))
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        _no_child_left()

    def test_each_process_decodes_on_one_blas_thread(self):
        blas = reference._openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS thread count cannot be set here")
        get, put = blas
        before = get()
        put(2)
        try:
            assert reference._fork_map(lambda share: (share, get()), [0, 1, 2]) == [(0, 1), (1, 1), (2, 1)]
            assert get() == 2
        finally:
            put(before)
        _no_child_left()

    @pytest.mark.parametrize("fallback", ["one-cpu", "second-thread", "fork-fails"])
    def test_fallbacks_decode_in_this_process(self, random_backend, monkeypatch, fallback):
        requests = _forking_requests(random_backend)
        monkeypatch.setattr(reference, "_DECODE_PROCS", 1)
        alone = random_backend.with_params(random_backend.params)
        alone.prefetch(requests)
        monkeypatch.setattr(reference, "_DECODE_PROCS", 1 if fallback == "one-cpu" else 2)
        attempts = []

        def refused():
            attempts.append(fallback)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refused)
        prefilled = []
        forward = _RefCore.forward

        def counting(self, ids, *args, **kwargs):
            out = forward(self, ids, *args, **kwargs)
            if kwargs.get("kv") is not None and not kwargs.get("start"):
                prefilled.append(np.shape(ids)[0])  # one row per decoded request
            return out

        monkeypatch.setattr(_RefCore, "forward", counting)
        backend = random_backend.with_params(random_backend.params)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if fallback == "second-thread":
            other.start()
        try:
            backend.prefetch(requests)
        finally:
            release.set()
            if other.is_alive():
                other.join(timeout=30)
        assert not other.is_alive()
        assert backend._held == alone._held
        assert sum(prefilled) == len(alone._held)
        assert attempts == (["fork-fails"] if fallback == "fork-fails" else [])


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

    @pytest.mark.parametrize(
        "lengths, shapes",
        [
            ([22] * 4, [(4, 22)]),  # bench/'s hidden_rule micro-batch
            ([10] * 4, [(4, 10)]),  # TENT and TLM cycling one short query
            ([154] * 4, [(1, 154)] * 4),  # self_generated: each past the cap
            ([22, 23, 22, 23], [(1, 22), (1, 23), (1, 22), (1, 23)]),
            ([43, 43, 43, 131], [(2, 43), (1, 43), (1, 131)]),
        ],
        ids=["hidden-rule", "tent-tlm", "self-generated", "alternating", "split-run"],
    )
    def test_stack_plan(self, random_backend, forward_shapes, lengths, shapes):
        """Runs of consecutive equal lengths stack up to the row cap; the bit
        tests above would pass with one row per forward."""
        backend, adapter = _packed_setup(random_backend, "float64")
        examples = _examples(backend, lengths)
        tokens = [t for ids, _ in examples for t in ids]
        mask = [m for _, ms in examples for m in ms]
        for loss in ("nll", "entropy"):
            forward_shapes.clear()
            _grads_call(backend, loss, tokens, mask, adapter, np.random.default_rng(3), lengths)
            assert forward_shapes == shapes

    def test_no_adapter_runs_no_backward(self, random_backend, forward_shapes, monkeypatch):
        """Without an adapter there is nothing to differentiate: each stack
        runs its forward alone and the gradients are empty."""
        backend, _ = _packed_setup(random_backend, "float64")
        examples = _examples(backend, [22, 22])
        tokens = [t for ids, _ in examples for t in ids]
        mask = [m for _, ms in examples for m in ms]
        backwards = []
        backward = _RefCore.backward

        def counting(self, cache, dlogits, **kwargs):
            backwards.append(dlogits.shape)
            return backward(self, cache, dlogits, **kwargs)

        monkeypatch.setattr(_RefCore, "backward", counting)
        for loss in ("nll", "entropy"):
            forward_shapes.clear()
            value, grads = _grads_call(backend, loss, tokens, mask, None, np.random.default_rng(3), [22, 22])
            assert grads == {} and forward_shapes == [(2, 22)]
            assert value == sum(_grads_call(backend, loss, ids, ms, None, None)[0] for ids, ms in examples)
        assert backwards == []

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
        value = be.masked_nll_with_grads(ids, [0, 1, 1, 1], None)[0]
        assert value == pytest.approx(np.log(4), abs=1e-9)

    def test_matches_log_softmax_oracle(self, random_backend):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ids = rng.integers(1, random_backend.vocab_size, size=10).tolist()
            mask = [0] + rng.integers(0, 2, size=9).tolist()
            if not any(mask):
                mask[-1] = 1
            got = random_backend.masked_nll_with_grads(ids, mask, None)[0]
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
        assert ab_backend.masked_nll_with_grads(ids, [0] + [1] * (len(ids) - 1), None)[0] < 0.05

    def test_all_zero_mask_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="no positions"):
            fresh_backend.masked_nll_with_grads([1, 2], [0, 0], None)

    def test_position_zero_mask_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="position 0"):
            fresh_backend.masked_nll_with_grads([1, 2], [1, 1], None)

    def test_length_mismatch_rejected(self, fresh_backend):
        with pytest.raises(ValueError, match="length"):
            fresh_backend.masked_nll_with_grads([1, 2], [0, 1, 1], None)


class TestFrozenBase:
    def test_parameters_not_writable(self, fresh_backend):
        for arr in fresh_backend.params.values():
            assert not arr.flags.writeable

    def test_checksum_stable_across_operations(self, fresh_backend):
        before = fresh_backend.checksum()
        ids = fresh_backend.tokenize("abc def")
        fresh_backend.forward_logits(ids)
        fresh_backend.generate(ids, 4, 0.8, seed=1)
        fresh_backend.masked_nll_with_grads(ids, [0] + [1] * (len(ids) - 1), None)
        assert fresh_backend.checksum() == before

    def test_constructor_copies_caller_arrays(self):
        cfg = RefConfig(charset="ab", d_model=16, n_head=2, max_len=16)
        params = init_params(cfg, seed=0)
        be = ReferenceBackend(cfg, params)
        params["wte"][0, 0] = 123.0  # caller's array must stay writable and detached
        assert be.params["wte"][0, 0] != 123.0


class TestRefConfig:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"dtype": "int32"}, "dtype must be float32 or float64, got 'int32'"),
            ({"dtype": "float16"}, "dtype must be float32 or float64, got 'float16'"),
            ({"n_layer": 0}, "n_layer must be at least 1, got 0"),
            ({"d_model": 0}, "d_model must be at least 1, got 0"),
            ({"n_head": 0}, "n_head must be at least 1, got 0"),
            ({"n_head": 3}, "d_model must be divisible by n_head"),
        ],
        ids=["int32", "float16", "n_layer-0", "d_model-0", "n_head-0", "n_head-3"],
    )
    def test_unrunnable_model_rejected(self, settings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RefConfig(**settings)


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path, ab_backend):
        path = tmp_path / "model.qstb"
        save_checkpoint(ab_backend, path)
        loaded = load_checkpoint(path)
        assert loaded.checksum() == ab_backend.checksum()
        assert loaded.config == ab_backend.config

    def test_every_config_field_round_trips(self, tmp_path):
        cfg = RefConfig(charset="xyz01", n_layer=1, d_model=8, n_head=2, max_len=12,
                        dtype="float64", init_std=0.05)
        backend = ReferenceBackend.fresh(cfg, seed=3)
        path = tmp_path / "model.qstb"
        save_checkpoint(backend, path)
        with open(path, "rb") as f:
            header = read_header(f, b"QSTB")
        assert set(header) == {f.name for f in fields(RefConfig)}
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.checksum() == backend.checksum()

    def test_integer_dtype_header_rejected(self, tmp_path, ab_backend):
        path = tmp_path / "model.qstb"
        save_checkpoint(ab_backend, path)
        with open(path, "rb") as f:
            header = read_header(f, b"QSTB")
            payload = f.read()
        assert header["dtype"] == "float32"
        with open(path, "wb") as f:
            write_header(f, b"QSTB", {**header, "dtype": "int32"})
            f.write(payload)  # same length: int32 is four bytes too
        with pytest.raises(ValueError, match="dtype must be float32 or float64, got 'int32'"):
            load_checkpoint(path)

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


def test_session_clone_is_independent(fresh_backend):
    sess = ModelSession(backend=fresh_backend, seed=1)
    clone = sess.clone(seed=9)
    assert clone.seed == 9 and clone.backend is fresh_backend
    with pytest.raises(FrozenInstanceError):
        clone.seed = 1
    assert sess.seed == 1
