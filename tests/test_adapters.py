import re
from types import SimpleNamespace

import numpy as np
import pytest

from quest.adapters import (
    AdapterSpec,
    AdapterState,
    init_adapter,
    load_adapter,
    merge,
    num_trainable,
    save_adapter,
    spec_for_all_modules,
    trainable_parameters,
    unmerge,
)
from quest.backend import ModelSession
from quest.backend.session import AdaptableModuleInfo
from quest.engine import generate_answer
from quest.supervision import Query


def modules_64():
    return [AdaptableModuleInfo(f"m{i}", 64, 64) for i in range(8)]


class TestSpec:
    def test_scaling(self):
        assert AdapterSpec(rank=16, alpha=32.0, target_modules=("m0",)).scaling == 2.0

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            AdapterSpec(rank=0, target_modules=("m0",))

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            AdapterSpec(dropout=1.0, target_modules=("m0",))


class TestInit:
    def test_b_factors_all_zero(self):
        spec = spec_for_all_modules(modules_64(), rank=4)
        state = init_adapter(spec, modules_64())
        assert all(np.all(b == 0) for _, b in state.factors.values())
        assert state.step_count == 0

    def test_same_seed_bitwise_identical(self):
        spec = spec_for_all_modules(modules_64(), rank=4, init_seed=9)
        s1 = init_adapter(spec, modules_64())
        s2 = init_adapter(spec, modules_64())
        for name in s1.factors:
            assert np.array_equal(s1.factors[name][0], s2.factors[name][0])

    def test_a_std_matches_rank_rule(self):
        mods = [AdaptableModuleInfo("m0", 4096, 4096)]
        spec = spec_for_all_modules(mods, rank=16, init_seed=0)
        a, _ = init_adapter(spec, mods).factors["m0"]
        assert a.std() == pytest.approx(1 / np.sqrt(16), rel=0.05)

    def test_per_module_parameter_count(self):
        mods = [AdaptableModuleInfo("m0", 64, 64)]
        spec = spec_for_all_modules(mods, rank=16)
        state = init_adapter(spec, mods)
        assert num_trainable(state) == 16 * (64 + 64)

    def test_unknown_target_listed(self):
        spec = AdapterSpec(rank=2, target_modules=("m0", "ghost"))
        with pytest.raises(ValueError, match="ghost"):
            init_adapter(spec, modules_64())

    def test_rank_exceeding_dimension(self):
        mods = [AdaptableModuleInfo("m0", 8, 64)]
        spec = AdapterSpec(rank=16, target_modules=("m0",))
        with pytest.raises(ValueError, match="rank 16"):
            init_adapter(spec, mods)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="no target"):
            init_adapter(AdapterSpec(rank=2), modules_64())


def merged_weight(base, a, b, alpha):
    """The weight ``merge`` folds for one module "m0" with factors (A, B)."""
    backend = SimpleNamespace(params={"m0": base})
    spec = AdapterSpec(rank=a.shape[0], alpha=alpha, target_modules=("m0",))
    return merge(backend, AdapterState(spec=spec, factors={"m0": (a, b)})).params["m0"]


class TestEffectiveWeight:
    """W + scaling * (B @ A), the weight ``merge`` computes per module."""

    def test_zero_b_returns_base_exactly(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 8)).astype(np.float32)
        a = rng.normal(size=(2, 8)).astype(np.float32)
        b = np.zeros((8, 2), dtype=np.float32)
        assert np.array_equal(merged_weight(base, a, b, 4.0), base)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 8))
        a = rng.normal(size=(3, 8))
        b = rng.normal(size=(8, 3))
        scaling = 32.0 / 3
        got = merged_weight(base, a, b, 32.0)
        want = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                want[i, j] = base[i, j] + scaling * sum(b[i, r] * a[r, j] for r in range(3))
        assert np.abs(got - want).max() < 1e-6

    def test_never_mutates_base(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(4, 4))
        keep = base.copy()
        merged_weight(base, rng.normal(size=(2, 4)), rng.normal(size=(4, 2)), 2.0)
        assert np.array_equal(base, keep)


def logits_vary(logits):
    """A comparison of constant logits would pass whatever the adapter did."""
    return logits.std() > 0


class TestAttach:
    """An adapter passed as ``adapter=`` to the backend's calls."""

    def test_fresh_adapter_transparent(self, random_backend):
        spec = spec_for_all_modules(random_backend.adaptable_modules(), rank=2, init_seed=1)
        state = init_adapter(spec, random_backend.adaptable_modules())
        ids = random_backend.tokenize("abc")
        plain = random_backend.forward_logits(ids)
        assert logits_vary(plain)
        assert np.array_equal(random_backend.forward_logits(ids, adapter=state), plain)

    def test_unknown_module_rejected(self, fresh_backend):
        mods = [AdaptableModuleInfo("not.a.module", 32, 32)]
        state = init_adapter(spec_for_all_modules(mods, rank=2), mods)
        session = ModelSession(backend=fresh_backend)
        with pytest.raises(ValueError, match="not.a.module"):
            generate_answer(session, Query(id="q", text="abc"), state, 4)

    def test_wrong_width_rejected(self, fresh_backend):
        # factors built for a d=16 model, given to the d=32 one
        mods = [AdaptableModuleInfo(m.name, 16, 16) for m in fresh_backend.adaptable_modules()]
        state = init_adapter(spec_for_all_modules(mods, rank=4), mods)
        session = ModelSession(backend=fresh_backend)
        want = (
            "adapter factors of layers.0.attn.q do not fit the module: expected A (4, 32) and "
            "B (32, 4) of float32, got A (4, 16) of float32 and B (16, 4) of float32"
        )
        with pytest.raises(ValueError, match=re.escape(want)):
            generate_answer(session, Query(id="q", text="abc"), state, 4)

    def test_wrong_dtype_rejected(self, fresh_backend):
        mods = [
            AdaptableModuleInfo(m.name, m.d_in, m.d_out, "float64")
            for m in fresh_backend.adaptable_modules()
        ]
        state = init_adapter(spec_for_all_modules(mods, rank=4), mods)
        session = ModelSession(backend=fresh_backend)
        with pytest.raises(ValueError, match=re.escape("of float32, got A (4, 32) of float64")):
            generate_answer(session, Query(id="q", text="abc"), state, 4)

    def test_perturbed_b_changes_logits(self, random_backend):
        mods = random_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=3), mods)
        ids = random_backend.tokenize("abc de")
        plain = random_backend.forward_logits(ids)
        state.factors["layers.0.attn.v"][1][0, 0] = 0.5
        adapted = random_backend.forward_logits(ids, adapter=state)
        assert not np.array_equal(adapted, plain)


class TestMerge:
    def _random_adapter(self, backend, seed=5):
        mods = backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=4, init_seed=seed), mods)
        rng = np.random.default_rng(seed)
        for a, b in state.factors.values():
            a[:] = rng.normal(0, 0.2, a.shape).astype(a.dtype)
            b[:] = rng.normal(0, 0.2, b.shape).astype(b.dtype)
        return state

    def test_zero_adapter_merges_to_base_bitwise(self, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2), mods)
        snapshot = merge(fresh_backend, state)
        for name, arr in fresh_backend.params.items():
            assert np.array_equal(snapshot.params[name], arr)

    def test_merged_equals_attached_within_tolerance(self, random_backend):
        state = self._random_adapter(random_backend)
        snapshot = merge(random_backend, state)
        merged = random_backend.with_params(snapshot.params)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(1, random_backend.vocab_size, size=12).tolist()
            adapted = random_backend.forward_logits(ids, adapter=state)
            assert logits_vary(adapted)
            assert not np.allclose(adapted, random_backend.forward_logits(ids))
            assert np.abs(adapted - merged.forward_logits(ids)).max() < 1e-5

    def test_merge_unmerge_round_trip(self, random_backend):
        state = self._random_adapter(random_backend, seed=8)
        snapshot = merge(random_backend, state)
        assert any(np.abs(delta).max() > 1e-3 for delta in snapshot.deltas.values())
        restored = unmerge(snapshot)
        for name, arr in random_backend.params.items():
            assert np.abs(restored[name] - arr).max() < 1e-5


class TestTrainableParameters:
    def test_total_count(self):
        spec = spec_for_all_modules(modules_64(), rank=16)
        state = init_adapter(spec, modules_64())
        assert num_trainable(state) == 8 * 16 * (64 + 64)

    def test_view_excludes_base(self, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2), mods)
        params = trainable_parameters(state)
        assert list(params) == ["factors"]
        flat = params["factors"]
        assert flat.ndim == 1 and flat.size == num_trainable(state) == len(mods) * 2 * (32 + 32)
        assert not any(np.shares_memory(flat, w) for w in fresh_backend.params.values())

    def test_views_alias_live_factors(self, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2), mods)
        flat = trainable_parameters(state)["factors"]
        flat[:] = np.arange(flat.size)
        # a write through the flat tensor reaches every factor, A then B of
        # each module in factor order
        laid = np.concatenate([g.ravel() for pair in state.factors.values() for g in pair])
        assert np.array_equal(laid, np.arange(flat.size))

    def test_loaded_factors_share_one_buffer(self, tmp_path, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=4), mods)
        save_adapter(state, tmp_path / "a.qsta")
        loaded = load_adapter(tmp_path / "a.qsta")
        flat = trainable_parameters(loaded)["factors"]
        assert np.array_equal(flat, trainable_parameters(state)["factors"])
        flat[0] = 9.0
        assert next(iter(loaded.factors.values()))[0][0, 0] == 9.0

    def test_hand_built_factors_have_no_flat_tensor(self):
        a, b = np.zeros((1, 4)), np.zeros((4, 1))
        state = AdapterState(spec=AdapterSpec(rank=1, target_modules=("m0",)), factors={"m0": (a, b)})
        with pytest.raises(ValueError, match="one buffer"):
            trainable_parameters(state)


class TestAdapterFile:
    def test_round_trip(self, tmp_path, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=3, alpha=6.0, init_seed=2), mods)
        rng = np.random.default_rng(1)
        for a, b in state.factors.values():
            b[:] = rng.normal(0, 0.1, b.shape).astype(b.dtype)
        state.step_count = 12
        path = tmp_path / "adapter.qsta"
        save_adapter(state, path)
        assert path.read_bytes()[:4] == b"QSTA"
        loaded = load_adapter(path)
        assert loaded.spec == state.spec
        assert loaded.step_count == 12
        for name in state.factors:
            assert np.array_equal(loaded.factors[name][0], state.factors[name][0])
            assert np.array_equal(loaded.factors[name][1], state.factors[name][1])

    def test_float64_round_trip(self, tmp_path, random_backend):
        mods = random_backend.adaptable_modules()
        state = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=3), mods)
        rng = np.random.default_rng(2)
        for a, b in state.factors.values():
            b[:] = rng.normal(0, 0.1, b.shape)
        path = tmp_path / "adapter.qsta"
        save_adapter(state, path)
        loaded = load_adapter(path)
        for name, (a, b) in state.factors.items():
            assert a.dtype == b.dtype == np.float64
            assert loaded.factors[name][0].dtype == loaded.factors[name][1].dtype == np.float64
            assert np.array_equal(loaded.factors[name][0], a)
            assert np.array_equal(loaded.factors[name][1], b)

    def test_trailing_bytes_rejected(self, tmp_path, fresh_backend):
        mods = fresh_backend.adaptable_modules()
        path = tmp_path / "adapter.qsta"
        save_adapter(init_adapter(spec_for_all_modules(mods, rank=2), mods), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_adapter(path)

    def test_repeated_target_rejected(self, tmp_path):
        from quest.backend.serialize import read_header, write_header

        mods = [AdaptableModuleInfo("m0", 4, 4), AdaptableModuleInfo("m1", 4, 4)]
        path = tmp_path / "adapter.qsta"
        save_adapter(init_adapter(spec_for_all_modules(mods, rank=2), mods), path)
        with open(path, "rb") as f:
            meta = read_header(f, b"QSTA")
            payload = f.read()
        meta["targets"][1]["name"] = "m0"
        with open(path, "wb") as f:
            write_header(f, b"QSTA", meta)
            f.write(payload)
        with pytest.raises(ValueError, match="lists a target module twice"):
            load_adapter(path)

    def test_header_without_dtype_reads_float32(self, tmp_path, random_backend):
        from quest.backend.serialize import read_header, write_header

        mods = random_backend.adaptable_modules()
        path = tmp_path / "adapter.qsta"
        save_adapter(init_adapter(spec_for_all_modules(mods, rank=2), mods), path)
        with open(path, "rb") as f:
            meta = read_header(f, b"QSTA")
            payload = f.read()
        assert meta.pop("dtype") == "float64"
        with open(path, "wb") as f:
            write_header(f, b"QSTA", meta)
            f.write(payload)
        # float64 payload read as float32 leaves half of it over
        with pytest.raises(ValueError, match="trailing bytes"):
            load_adapter(path)
        with open(path, "wb") as f:
            write_header(f, b"QSTA", meta)
            f.write(np.frombuffer(payload, "<f8").astype("<f4").tobytes())
        loaded = load_adapter(path)
        assert all(a.dtype == b.dtype == np.float32 for a, b in loaded.factors.values())


def test_generate_transparent_with_zero_b(ab_backend):
    mods = ab_backend.adaptable_modules()
    state = init_adapter(spec_for_all_modules(mods, rank=2, init_seed=6), mods)
    prompt = ab_backend.tokenize("ab")
    assert ab_backend.generate(prompt, 8, 0.0, adapter=state) == ab_backend.generate(prompt, 8, 0.0)
    assert ab_backend.generate(prompt, 8, 0.9, adapter=state, seed=3) == ab_backend.generate(
        prompt, 8, 0.9, seed=3
    )


def test_dropout_off_at_evaluation(random_backend):
    # dropout > 0 must not make eval-mode forward or generation stochastic
    mods = random_backend.adaptable_modules()
    state = init_adapter(spec_for_all_modules(mods, rank=2, dropout=0.5, init_seed=4), mods)
    rng = np.random.default_rng(2)
    for a, b in state.factors.values():
        b[:] = rng.normal(0, 0.2, b.shape).astype(b.dtype)
    ids = random_backend.tokenize("abcd")
    first = random_backend.forward_logits(ids, adapter=state)
    second = random_backend.forward_logits(ids, adapter=state)
    assert logits_vary(first)
    assert np.array_equal(first, second)
    g1 = random_backend.generate(ids, 6, 0.0, adapter=state)
    g2 = random_backend.generate(ids, 6, 0.0, adapter=state)
    assert g1 == g2
