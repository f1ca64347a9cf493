import hashlib
from dataclasses import replace

import numpy as np
import pytest

from quest.adapters import init_adapter, spec_for_all_modules, trainable_parameters
from quest.backend import ModelSession, RefConfig, ReferenceBackend
from quest.backend.reference import init_params
from quest.engine import (
    AdaptTelemetry,
    MethodResult,
    OptConfig,
    adapt,
    base_answer,
    derive_item_seeds,
    quest,
    quest_no_lora,
    quest_no_query,
    self_consistency,
    sft_update,
    tent,
    tlm,
)
from quest.optim import AdamW
from quest.supervision import AuxPair, GenConfig, Query, make_training_example

from conftest import StubBackend

WELL_FORMED = "<problem>Q: f ->\nA:</problem><solution>\\boxed{fw}</solution>"


def pattern_session(pattern_world, seed=3):
    return ModelSession(backend=pattern_world["backend"], seed=seed)


def fixed_pairs():
    return [
        AuxPair(problem=f"Q: {s} ->\nA:", solution=f"\\boxed{{{s}w}}", source_index=i + 1)
        for i, s in enumerate("defgh")
    ]


class TestOptConfig:
    def test_defaults(self):
        cfg = OptConfig()
        assert (cfg.steps, cfg.lr, cfg.grad_accumulation, cfg.max_seq_len) == (10, 1e-4, 4, 4096)
        assert cfg.betas == (0.9, 0.999) and cfg.weight_decay == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            OptConfig(steps=-1)
        with pytest.raises(ValueError):
            OptConfig(grad_accumulation=0)


class TestMethodResult:
    def test_label_validated(self):
        with pytest.raises(ValueError, match="unknown method label"):
            MethodResult("", None, AdaptTelemetry(), "not_a_method")


class TestSftUpdate:
    def _setup(self, backend, lr=1e-3, weight_decay=0.01):
        mods = backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2, dropout=0.0, init_seed=1), mods)
        opt = AdamW(trainable_parameters(state), lr=lr, weight_decay=weight_decay)
        example = make_training_example(AuxPair(problem="ab?", solution="ba"), backend)
        return state, opt, example

    def test_empty_batch(self, fresh_backend):
        state, opt, _ = self._setup(fresh_backend)
        with pytest.raises(ValueError, match="empty batch"):
            sft_update(fresh_backend, state, [], opt)

    def test_unknown_loss(self, fresh_backend):
        state, opt, example = self._setup(fresh_backend)
        with pytest.raises(ValueError, match="unknown loss"):
            sft_update(fresh_backend, state, [example], opt, loss="kl")

    def test_base_checksum_unchanged(self, fresh_backend):
        before = fresh_backend.checksum()
        state, opt, example = self._setup(fresh_backend)
        sft_update(fresh_backend, state, [example], opt)
        assert fresh_backend.checksum() == before

    def test_zero_lr_zero_decay_is_noop(self, fresh_backend):
        state, opt, example = self._setup(fresh_backend, lr=0.0, weight_decay=0.0)
        keep = {k: v.copy() for k, v in trainable_parameters(state).items()}
        sft_update(fresh_backend, state, [example], opt)
        for key, arr in trainable_parameters(state).items():
            assert np.array_equal(arr, keep[key])

    def test_step_counter_and_a_factor_move(self, fresh_backend):
        state, opt, example = self._setup(fresh_backend)
        keep_a = {name: a.copy() for name, (a, _) in state.factors.items()}
        sft_update(fresh_backend, state, [example], opt)
        assert state.step_count == 1
        # the optimizer steps the flat tensor; the factors are views of it
        moved = any(not np.array_equal(a, keep_a[name]) for name, (a, _) in state.factors.items())
        assert moved  # weight decay moves A even while its gradient is still zero


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("loss", ["nll", "entropy"])
def test_sft_update_matches_per_example_loop(random_backend, dtype, loss):
    """20 packed updates leave the adapter bytes and losses that one call per
    example, summed in order, and AdamW over each factor separately give."""
    backend = ReferenceBackend(replace(random_backend.config, dtype=dtype), random_backend.params)
    mods = backend.adaptable_modules()
    spec = spec_for_all_modules(mods, rank=2, alpha=4.0, dropout=0.05, init_seed=3)
    rng = np.random.default_rng(4)
    examples = []
    for n in (22, 23, 22, 23, 9, 50):
        ids = rng.integers(1, backend.vocab_size, size=n).tolist()
        examples.append((ids, [0] + [1] * (n - 1)))
    packed, alone = init_adapter(spec, mods), init_adapter(spec, mods)
    packed_opt = AdamW(trainable_parameters(packed), lr=3e-2, weight_decay=0.01)
    tensors = {f"{name}.{k}": pair[i] for name, pair in alone.factors.items() for i, k in enumerate("AB")}
    alone_opt = AdamW(tensors, lr=3e-2, weight_decay=0.01)
    packed_rng, alone_rng = np.random.default_rng(6), np.random.default_rng(6)
    for step in range(20):
        batch = [examples[(4 * step + j) % len(examples)] for j in range(4)]
        value = sft_update(backend, packed, batch, packed_opt, dropout_rng=packed_rng, loss=loss)
        total, summed = 0.0, {}
        for ids, mask in batch:
            if loss == "entropy":
                v, grads = backend.entropy_with_grads(ids, alone, dropout_rng=alone_rng)
            else:
                v, grads = backend.masked_nll_with_grads(ids, mask, alone, dropout_rng=alone_rng)
            total += v
            for name, pair in grads.items():
                for k, g in zip("AB", pair):
                    key = f"{name}.{k}"
                    summed[key] = summed[key] + g if key in summed else g.copy()
        alone_opt.step({key: g * (1.0 / len(batch)) for key, g in summed.items()})
        alone.step_count += 1
        assert value == total * (1.0 / len(batch))
    laid = b"".join(g.tobytes() for pair in alone.factors.values() for g in pair)
    assert trainable_parameters(packed)["factors"].tobytes() == laid
    assert packed.step_count == alone.step_count == 20
    assert not np.array_equal(packed.factors[mods[0].name][1], 0)


# Recorded with one forward and backward per example and AdamW over each
# factor, before training was packed: the loss of each of 6 float32 updates
# and a sha256 of the adapter's factor bytes, A then B, in factor order.
SFT_PINS = {
    "nll": (
        [2.477054544214406, 2.666693667002649, 2.409720459093615,
         2.142558045921929, 2.2723575429578964, 2.149017323846836],
        "687213b42204c47d2c5bc46e725e65953210667a6285a19def873cf121cdc388",
    ),
    "entropy": (
        [1.9471986463833182, 1.8207732696869705, 1.6663498692614063,
         1.5607804945361041, 1.403076065837662, 1.2731350533344339],
        "b58505b34d833f7ab314b5fc7453318cc8fda1f85a5a72ef1ad5f20e76521026",
    ),
}


@pytest.mark.parametrize("loss", list(SFT_PINS))
def test_sft_update_matches_pinned_bits(random_backend, loss):
    """float32 updates with dropout over mixed lengths, so some lengths stack
    and some run alone, keep the exact losses and adapter bytes of the
    one-example-per-call trainer."""
    backend = ReferenceBackend(replace(random_backend.config, dtype="float32"), random_backend.params)
    mods = backend.adaptable_modules()
    state = init_adapter(spec_for_all_modules(mods, rank=2, alpha=4.0, dropout=0.05, init_seed=3), mods)
    opt = AdamW(trainable_parameters(state), lr=3e-2, weight_decay=0.01)
    rng = np.random.default_rng(4)
    examples = []
    for n in (22, 23, 22, 23, 9, 50):
        ids = rng.integers(1, backend.vocab_size, size=n).tolist()
        examples.append((ids, [0] + [1] * (n - 1)))
    dropout_rng = np.random.default_rng(6)
    losses = []
    for step in range(6):
        batch = [examples[(4 * step + j) % len(examples)] for j in range(4)]
        losses.append(sft_update(backend, state, batch, opt, dropout_rng=dropout_rng, loss=loss))
    digest = hashlib.sha256()
    for pair in state.factors.values():
        for g in pair:
            assert g.dtype == np.float32
            digest.update(g.tobytes())
    want_losses, want_digest = SFT_PINS[loss]
    assert losses == want_losses
    assert digest.hexdigest() == want_digest


class TestAdapt:
    def test_empty_dataset_rejected(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend)
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2)
        with pytest.raises(ValueError, match="empty"):
            adapt(sess, [], spec, OptConfig())

    def test_t_zero_returns_identity(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend)
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2, init_seed=5)
        state, telemetry = adapt(sess, fixed_pairs(), spec, OptConfig(steps=0))
        assert state.step_count == 0
        assert telemetry.loss_trajectory == []
        assert all(np.all(b == 0) for _, b in state.factors.values())

    def test_budget_and_cycle_order(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend)
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2)
        pairs = fixed_pairs()
        cfg = OptConfig(steps=10, lr=1e-4, grad_accumulation=4)
        state, telemetry = adapt(sess, pairs, spec, cfg)
        assert len(telemetry.loss_trajectory) == 10
        assert state.step_count == 10
        lengths = [len(make_training_example(p, fresh_backend)[0]) for p in pairs]
        visits = [lengths[i % len(pairs)] for i in range(10 * 4)]
        assert telemetry.trained_tokens == sum(visits)
        assert telemetry.pairs_used == len(pairs)

    def test_same_seed_bitwise_identical(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend)
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2, init_seed=3)
        cfg = OptConfig(steps=5, lr=1e-3, grad_accumulation=2, seed=11)
        s1, _ = adapt(sess, fixed_pairs(), spec, cfg)
        s2, _ = adapt(sess, fixed_pairs(), spec, cfg)
        for name in s1.factors:
            assert np.array_equal(s1.factors[name][0], s2.factors[name][0])
            assert np.array_equal(s1.factors[name][1], s2.factors[name][1])

    def test_initial_loss_is_dataset_mean_nll(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend)
        pairs = fixed_pairs()
        spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, dropout=0.05, init_seed=2)
        cfg = OptConfig(steps=1, lr=1e-4, grad_accumulation=len(pairs))
        _, telemetry = adapt(sess, pairs, spec, cfg)
        want = np.mean(
            [backend.masked_nll(*make_training_example(p, backend)) for p in pairs]
        )
        assert telemetry.loss_trajectory[0] == pytest.approx(want, abs=1e-6)

    def test_overfit_single_pair(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend)
        pair = AuxPair(problem="Q: k ->\nA:", solution="\\boxed{kv}")
        spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, dropout=0.0, init_seed=1)
        cfg = OptConfig(steps=50, lr=1e-3, grad_accumulation=1, weight_decay=0.0)
        _, telemetry = adapt(sess, [pair], spec, cfg)
        assert telemetry.loss_trajectory[-1] < telemetry.loss_trajectory[0]


class TestQuest:
    def test_deterministic_and_resetting(self, pattern_world):
        sess = pattern_session(pattern_world)
        stub_sess = ModelSession(backend=pattern_world["stub"], seed=3)
        q = Query(id="qd", text="Q: d ->\nA:", system_prompt="")
        spec = spec_for_all_modules(sess.backend.adaptable_modules(), rank=8, alpha=16, init_seed=4)
        gen = GenConfig(n_pairs=5, max_new_tokens=64, temperature=0.8)
        opt = OptConfig(steps=30, lr=3e-3, grad_accumulation=4, seed=6)
        r1 = quest(sess, q, gen, spec, opt, generator_session=stub_sess, max_new_tokens=16)
        r2 = quest(sess, q, gen, spec, opt, generator_session=stub_sess, max_new_tokens=16)
        assert r1.answer_text == r2.answer_text
        assert r1.telemetry.loss_trajectory == r2.telemetry.loss_trajectory
        assert r1.telemetry.generated_tokens == r2.telemetry.generated_tokens
        assert r1.telemetry.trained_tokens == r2.telemetry.trained_tokens
        assert r1.method_label == "quest"

    def test_base_answer_unchanged_after_quest(self, pattern_world):
        sess = pattern_session(pattern_world)
        stub_sess = ModelSession(backend=pattern_world["stub"], seed=3)
        probe = Query(id="probe", text="Q: m ->\nA:", system_prompt="")
        before = base_answer(sess, probe, max_new_tokens=12).answer_text
        spec = spec_for_all_modules(sess.backend.adaptable_modules(), rank=8, alpha=16, init_seed=4)
        quest(
            sess,
            Query(id="qe", text="Q: e ->\nA:", system_prompt=""),
            GenConfig(n_pairs=3, max_new_tokens=64, temperature=0.8),
            spec,
            OptConfig(steps=10, lr=3e-3, grad_accumulation=2),
            generator_session=stub_sess,
            max_new_tokens=16,
        )
        assert base_answer(sess, probe, max_new_tokens=12).answer_text == before

    def test_empty_dataset_falls_back_to_base(self, fresh_backend):
        stub = StubBackend(lambda prompt, call: "never well formed")
        sess = ModelSession(backend=fresh_backend, seed=0)
        gen_sess = ModelSession(backend=stub, seed=0)
        q = Query(id="q", text="abc", system_prompt="")
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2)
        result = quest(
            sess, q, GenConfig(n_pairs=2, max_parse_retries=0), spec, OptConfig(),
            generator_session=gen_sess, max_new_tokens=8,
        )
        assert result.method_label == "quest"
        assert result.telemetry.pairs_used == 0
        assert result.answer_text == base_answer(sess, q, max_new_tokens=8).answer_text

    def test_no_query_variant_label_and_flags(self, fresh_backend):
        stub = StubBackend(lambda prompt, call: WELL_FORMED)
        sess = ModelSession(backend=fresh_backend, seed=0)
        gen_sess = ModelSession(backend=stub, seed=0)
        q = Query(id="q", text="DISTINCTIVEQUERYTEXT", system_prompt="")
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2)
        result = quest_no_query(
            sess, q, GenConfig(n_pairs=2, max_new_tokens=256), spec, OptConfig(steps=1),
            generator_session=gen_sess, max_new_tokens=4,
        )
        assert result.method_label == "quest_no_query"
        assert result.telemetry.pairs_used == 2


class TestTent:
    def test_uniform_entropy_value(self):
        be = ReferenceBackend.fresh(RefConfig(charset="abc", d_model=16, n_head=2, max_len=16), seed=0)
        ids = be.tokenize("abcab")
        assert be.mean_entropy(ids) == pytest.approx(np.log(4), abs=1e-12)

    def test_entropy_matches_independent_oracle(self, random_backend):
        rng = np.random.default_rng(5)
        ids = rng.integers(1, random_backend.vocab_size, size=12).tolist()
        got = random_backend.mean_entropy(ids)
        logits = random_backend.forward_logits(ids).astype(np.float64)
        want = 0.0
        for row in logits:
            z = row - row.max()
            p = np.exp(z) / np.exp(z).sum()
            want += -(p * np.log(p)).sum()
        assert got == pytest.approx(want / len(ids), abs=1e-6)

    def test_one_hot_model_has_zero_gradient(self):
        cfg = RefConfig(charset="abcd", d_model=16, n_head=2, max_len=16, dtype="float64")
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        params["lm_head"] = rng.normal(0, 1.0, params["lm_head"].shape) * 1e5
        be = ReferenceBackend(cfg, params)
        ids = be.tokenize("abcd")
        assert be.mean_entropy(ids) == 0.0
        sess = ModelSession(backend=be, seed=0)
        spec = spec_for_all_modules(be.adaptable_modules(), rank=2, dropout=0.0, init_seed=7)
        fresh = init_adapter(spec, be.adaptable_modules())
        opt = OptConfig(steps=3, lr=1e-2, grad_accumulation=1, weight_decay=0.0)
        result = tent(sess, Query(id="q", text="abcd", system_prompt=""), spec, opt, max_new_tokens=2)
        assert result.telemetry.loss_trajectory == [0.0, 0.0, 0.0]
        # zero gradient + zero weight decay: the answer-time adapter was identity
        assert result.answer_text == base_answer(sess, Query(id="q", text="abcd", system_prompt=""), max_new_tokens=2).answer_text

    def test_label(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend, seed=0)
        spec = spec_for_all_modules(fresh_backend.adaptable_modules(), rank=2)
        result = tent(sess, Query(id="q", text="ab", system_prompt=""), spec, OptConfig(steps=1), max_new_tokens=2)
        assert result.method_label == "tent"


class TestTlm:
    def test_initial_loss_equals_query_nll(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend, seed=0)
        text = "Q: d ->\nA:"
        spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, init_seed=3)
        result = tlm(sess, Query(id="q", text=text, system_prompt=""), spec,
                     OptConfig(steps=1, lr=1e-4, grad_accumulation=2), max_new_tokens=2)
        ids = backend.tokenize(text)
        want = backend.masked_nll(ids, [0] + [1] * (len(ids) - 1))
        assert result.telemetry.loss_trajectory[0] == pytest.approx(want, abs=1e-9)

    def test_descent_on_query(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend, seed=0)
        spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, dropout=0.0, init_seed=3)
        result = tlm(sess, Query(id="q", text="Q: d ->\nA:", system_prompt=""), spec,
                     OptConfig(steps=50, lr=1e-3, grad_accumulation=1, weight_decay=0.0),
                     max_new_tokens=2)
        assert result.telemetry.loss_trajectory[-1] < result.telemetry.loss_trajectory[0]

    def test_zero_lr_answer_matches_base(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend, seed=0)
        q = Query(id="q", text="Q: d ->\nA:", system_prompt="")
        spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, init_seed=3)
        result = tlm(sess, q, spec, OptConfig(steps=5, lr=0.0, weight_decay=0.0), max_new_tokens=12)
        assert result.answer_text == base_answer(sess, q, max_new_tokens=12).answer_text


class TestObjectivePins:
    """tent and tlm on ``random_backend`` (float64): loss trajectories and
    answers recorded when each baseline still had its own accumulation loop."""

    QUERY = Query(id="q", text="bad cafe fade", system_prompt="")
    WANT = {
        "tent": (
            [1.8798976711849338, 1.6946808697495452, 1.5718119290864245, 1.519145205547984],
            "eeeeffeeee",
        ),
        "tlm": (
            [2.6993513057321503, 2.099740952866288, 1.8197921462183881, 1.6267568362774032],
            "dfba",
        ),
    }

    @pytest.mark.parametrize("method", [tent, tlm], ids=["tent", "tlm"])
    def test_matches_pinned_run(self, random_backend, method):
        sess = ModelSession(backend=random_backend, seed=1)
        spec = spec_for_all_modules(
            random_backend.adaptable_modules(), rank=2, alpha=4.0, dropout=0.05, init_seed=3
        )
        opt = OptConfig(steps=4, lr=3e-2, grad_accumulation=2, seed=5)
        result = method(sess, self.QUERY, spec, opt, max_new_tokens=10)
        losses, answer = self.WANT[method.__name__]
        assert result.telemetry.loss_trajectory == pytest.approx(losses, rel=1e-9, abs=0)
        assert result.answer_text == answer
        assert answer != base_answer(sess, self.QUERY, max_new_tokens=10).answer_text
        assert result.telemetry.trained_tokens == 4 * 2 * len(random_backend.tokenize(self.QUERY.text))
        assert result.telemetry.pairs_used == 0


class TestSelfConsistency:
    def test_single_sample(self, pattern_world):
        backend = pattern_world["backend"]
        sess = ModelSession(backend=backend, seed=12)
        q = Query(id="q", text="Q: d ->\nA:", system_prompt="")
        result = self_consistency(sess, q, 1, 0.8, max_new_tokens=12)
        assert result.method_label == "self_consistency"
        assert result.telemetry.generated_tokens == len(backend.tokenize(result.answer_text))

    def test_majority_wins(self):
        outputs = iter(["\\boxed{4}", "\\boxed{4}", "\\boxed{5}"])
        stub = StubBackend(lambda prompt, call: next(outputs))
        sess = ModelSession(backend=stub, seed=0)
        result = self_consistency(sess, Query(id="q", text="x", system_prompt=""), 3, 0.7, max_new_tokens=64)
        assert result.extracted == "4"

    def test_token_additivity(self):
        stub = StubBackend(lambda prompt, call: "x" * 100)
        sess = ModelSession(backend=stub, seed=0)
        result = self_consistency(sess, Query(id="q", text="y", system_prompt=""), 4, 0.7, max_new_tokens=512)
        assert result.telemetry.generated_tokens == 400

    def test_invalid_arguments(self, fresh_backend):
        sess = ModelSession(backend=fresh_backend, seed=0)
        q = Query(id="q", text="ab", system_prompt="")
        with pytest.raises(ValueError):
            self_consistency(sess, q, 0, 0.7)
        with pytest.raises(ValueError):
            self_consistency(sess, q, 2, 0.0)


class TestQuestNoLora:
    def test_checksum_unchanged_and_prompt_contains_pairs(self, fresh_backend):
        before = fresh_backend.checksum()
        outputs = iter(
            [
                "<problem>first P</problem><solution>first S</solution>",
                "<problem>second P</problem><solution>second S</solution>",
            ]
        )
        gen_stub = StubBackend(lambda prompt, call: next(outputs))
        prompts_seen = []

        def record(prompt, call):
            prompts_seen.append(prompt)
            return "\\boxed{1}"

        solver = StubBackend(record)
        sess = ModelSession(backend=solver, seed=0)
        gen_sess = ModelSession(backend=gen_stub, seed=0)
        q = Query(id="q", text="THEQUESTION", system_prompt="SYS")
        result = quest_no_lora(
            sess, q, GenConfig(n_pairs=2, max_new_tokens=512), generator_session=gen_sess,
            max_new_tokens=64,
        )
        assert result.method_label == "quest_no_lora"
        assert fresh_backend.checksum() == before
        final_prompt = prompts_seen[-1]
        order = [
            final_prompt.index("first P"),
            final_prompt.index("first S"),
            final_prompt.index("second P"),
            final_prompt.index("second S"),
            final_prompt.index("THEQUESTION"),
        ]
        assert order == sorted(order)

    def test_empty_dataset_equals_base(self, pattern_world):
        backend = pattern_world["backend"]
        gen_stub = StubBackend(lambda prompt, call: "nothing parseable")
        sess = ModelSession(backend=backend, seed=4)
        q = Query(id="q", text="Q: d ->\nA:", system_prompt="")
        result = quest_no_lora(
            sess, q, GenConfig(n_pairs=2, max_parse_retries=0),
            generator_session=ModelSession(backend=gen_stub, seed=4), max_new_tokens=12,
        )
        assert result.answer_text == base_answer(sess, q, max_new_tokens=12).answer_text


def test_derive_item_seeds_stable():
    a = derive_item_seeds(7, "item-1")
    b = derive_item_seeds(7, "item-1")
    c = derive_item_seeds(7, "item-2")
    assert a == b and a != c
    assert set(a) == {"session", "adapter", "opt"}
