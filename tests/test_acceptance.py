"""Acceptance criteria for the whole pipeline, one test per criterion.

Each test pins the tolerance stated in its docstring and prints a PASS line
(visible under ``pytest -v -s tests/test_acceptance.py``)."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quest.adapters import init_adapter, spec_for_all_modules
from quest.backend import ModelSession
from quest.cli import load_config, run_command
from quest.engine import OptConfig, adapt, quest
from quest.evalkit import (
    BenchmarkItem,
    answers_equivalent,
    emit_report,
    evaluate,
    extract_boxed,
    majority_vote,
)
from quest.selftest import (
    check_config_defaults,
    check_frozen_base,
    check_gradient_fidelity,
    check_identity_at_init,
    check_merge_equivalence,
    check_prefetch_matches_generate,
    check_scorer,
    random_backend,
)
from quest.supervision import AuxPair, GenConfig, Query

from conftest import PATTERN_SYMS, StubBackend
from test_evalkit import oracle_vote

DATA = Path(__file__).parent / "data"


def synthetic_pairs():
    return [
        AuxPair(problem=f"Q: {s} ->\nA:", solution=f"\\boxed{{{s}w}}", source_index=i + 1)
        for i, s in enumerate("defgh")
    ]


def test_criterion_1_lora_identity():
    """Fresh adapter leaves logits bitwise unchanged on 100 random inputs."""
    check_identity_at_init(random_backend(), n_inputs=100, max_tokens=47)
    print("PASS criterion-1 lora-identity (100/100 bitwise)")


def test_criterion_2_gradient_fidelity():
    """Adapter gradients match central finite differences, rel err < 1e-3 on
    >= 200 random coordinates of a 2-layer reference model."""
    backend = random_backend("float64")
    assert len(backend.adaptable_modules()) == 8
    # 13 coordinates from each of the 16 factors
    worst = check_gradient_fidelity(backend, n_coords=208, n_tokens=24)
    print(f"PASS criterion-2 gradient-fidelity (208 coords, worst rel {worst:.1e})")


@pytest.mark.parametrize(
    "targets",
    [
        ("layers.1.attn.q", "layers.1.attn.k", "layers.1.attn.v", "layers.1.attn.o"),
        ("layers.0.attn.o",),
        ("layers.0.attn.q", "layers.0.attn.v"),
    ],
    ids=["layer-1-only", "layer-0-o-only", "layer-0-q-v"],
)
def test_criterion_2_gradient_fidelity_partial_targets(targets):
    """The backward stops at the lowest adapted module; the gradients of
    adapters that leave modules out still match finite differences."""
    worst = check_gradient_fidelity(random_backend("float64"), n_coords=16 * len(targets), n_tokens=24, targets=targets)
    print(f"PASS criterion-2 gradient-fidelity {','.join(targets)} (worst rel {worst:.1e})")


def test_criterion_3_merge_equivalence():
    """Merged vs adapted logits within 1e-5 absolute on 20 random inputs;
    merge -> unmerge recovers base within 1e-5."""
    check_merge_equivalence(random_backend(), n_inputs=20, n_tokens=16)
    print("PASS criterion-3 merge-equivalence (20 inputs < 1e-5, round trip < 1e-5)")


def test_criterion_4_frozen_base_isolation(pattern_world):
    """Base checksum constant across quest+tent+tlm; adapter moves iff
    lr > 0 and T > 0."""
    backend = pattern_world["backend"]
    session = ModelSession(backend=backend, seed=3)
    before = backend.checksum()
    check_frozen_base(
        session,
        Query(id="qc4", text="Q: d ->\nA:", system_prompt=""),
        n_pairs=3,
        steps=5,
        generator_session=ModelSession(backend=pattern_world["stub"], seed=3),
    )

    spec = spec_for_all_modules(backend.adaptable_modules(), rank=4, init_seed=2)
    fresh = init_adapter(spec, backend.adaptable_modules())
    pairs = synthetic_pairs()

    live, _ = adapt(session, pairs, spec, OptConfig(steps=5, lr=1e-3, grad_accumulation=2))
    changed = any(
        not np.array_equal(live.factors[n][k], fresh.factors[n][k])
        for n in live.factors
        for k in (0, 1)
    )
    assert changed, "lr>0, T>0 left the adapter untouched"

    frozen_lr, _ = adapt(session, pairs, spec, OptConfig(steps=5, lr=0.0, grad_accumulation=2))
    frozen_t, _ = adapt(session, pairs, spec, OptConfig(steps=0, lr=1e-3, grad_accumulation=2))
    for state in (frozen_lr, frozen_t):
        for name in state.factors:
            assert np.array_equal(state.factors[name][0], fresh.factors[name][0])
            assert np.array_equal(state.factors[name][1], fresh.factors[name][1])
    assert backend.checksum() == before
    print("PASS criterion-4 frozen-base-isolation")


def test_criterion_5_descent(pattern_world):
    """Fixed 5-pair dataset, lr 1e-4, T=50: final loss < initial loss in
    >= 19 of 20 seeded runs."""
    backend = pattern_world["backend"]
    session = ModelSession(backend=backend, seed=0)
    pairs = synthetic_pairs()
    wins = 0
    for run in range(20):
        spec = spec_for_all_modules(
            backend.adaptable_modules(), rank=16, alpha=32, dropout=0.05, init_seed=run
        )
        cfg = OptConfig(steps=50, lr=1e-4, grad_accumulation=4, seed=1000 + run)
        _, telemetry = adapt(session, pairs, spec, cfg)
        assert len(telemetry.loss_trajectory) == 50
        if telemetry.loss_trajectory[-1] < telemetry.loss_trajectory[0]:
            wins += 1
    assert wins >= 19, f"descent in only {wins}/20 runs"
    print(f"PASS criterion-5 descent ({wins}/20 runs)")


def test_criterion_6_adaptation_efficacy(pattern_world):
    """50 hidden-rule queries: quest accuracy >= base accuracy + 0.20, while
    quest with T = 0 reproduces base answers exactly."""
    backend = pattern_world["backend"]
    tag_of = pattern_world["tag_of"]
    qrng = np.random.default_rng(pattern_world["qrng_seed"])
    items = []
    for i in range(50):
        sym = PATTERN_SYMS[qrng.integers(len(PATTERN_SYMS))]
        items.append(
            BenchmarkItem(id=f"p{i:02d}", problem=f"Q: {sym} ->\nA:", answer=f"{sym}{tag_of[sym]}")
        )
    session = ModelSession(backend=backend, seed=7)
    gen_session = ModelSession(backend=pattern_world["stub"], seed=7)
    spec = spec_for_all_modules(backend.adaptable_modules(), rank=8, alpha=16, dropout=0.05)
    gen_cfg = GenConfig(n_pairs=5, max_new_tokens=64, temperature=0.8)
    opt_cfg = OptConfig(steps=200, lr=3e-3, grad_accumulation=4)

    base_records, (base_summary,) = evaluate(
        session, items, "base", max_new_tokens=16, seed=5, system_prompt=""
    )
    quest_records, (quest_summary,) = evaluate(
        session, items, "quest", gen_cfg=gen_cfg, adapter_spec=spec, opt_cfg=opt_cfg,
        max_new_tokens=16, seed=5, system_prompt="", generator_session=gen_session,
    )
    zero_records, _ = evaluate(
        session, items, "quest", gen_cfg=gen_cfg, adapter_spec=spec,
        opt_cfg=replace(opt_cfg, steps=0),
        max_new_tokens=16, seed=5, system_prompt="", generator_session=gen_session,
    )
    gap = quest_summary["accuracy"] - base_summary["accuracy"]
    assert gap >= 0.20, f"gap {gap:.2f} below 20 points"
    for zero, base in zip(zero_records, base_records):
        assert zero.raw_output == base.raw_output, f"T=0 diverged on {zero.item_id}"
    print(
        f"PASS criterion-6 adaptation-efficacy "
        f"(base {base_summary['accuracy']:.2f}, quest {quest_summary['accuracy']:.2f}, "
        f"gap {gap * 100:.0f} pts, T=0 identical)"
    )


def test_criterion_7_per_query_reset(pattern_world):
    """quest on A, then B, then A again: both A runs byte-identical."""
    backend = pattern_world["backend"]
    stub = pattern_world["stub"]
    spec = spec_for_all_modules(backend.adaptable_modules(), rank=8, alpha=16, init_seed=3)
    gen = GenConfig(n_pairs=5, max_new_tokens=64, temperature=0.8)
    opt = OptConfig(steps=30, lr=3e-3, grad_accumulation=4, seed=8)

    def run(query):
        return quest(
            ModelSession(backend=backend, seed=4),
            query,
            gen,
            spec,
            opt,
            generator_session=ModelSession(backend=stub, seed=4),
            max_new_tokens=16,
        )

    q_a = Query(id="qa", text="Q: d ->\nA:", system_prompt="")
    q_b = Query(id="qb", text="Q: m ->\nA:", system_prompt="")
    first = run(q_a)
    run(q_b)
    second = run(q_a)
    assert first.answer_text == second.answer_text
    assert first.telemetry.loss_trajectory == second.telemetry.loss_trajectory
    print("PASS criterion-7 per-query-reset (A-B-A byte-identical)")


def test_criterion_8_scoring_oracle():
    """50/50 on the hand-verified fixture; majority vote matches a brute-force
    grouping oracle on 1000 random inputs."""
    check_scorer()
    cases = [
        json.loads(line)
        for line in (DATA / "equivalence_fixture.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert len(cases) == 50
    hits = 0
    for case in cases:
        extracted = extract_boxed(case["output"])
        got = extracted is not None and answers_equivalent(extracted, case["gold"])
        assert got is case["verdict"], f"{case['output']!r} vs {case['gold']!r}"
        hits += 1
    pool = ["4", "4.0", "8/2", "0.5", "1/2", "3", "03", "5", "five", "-1", None]
    rng = np.random.default_rng(3)
    votes = 0
    for _ in range(1000):
        answers = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 8))]
        assert majority_vote(answers) == oracle_vote(answers)
        votes += 1
    print(f"PASS criterion-8 scoring-oracle ({hits}/50 fixture, {votes}/1000 votes)")


def test_criterion_9_token_accounting(tmp_path):
    """Self-consistency with n in {1,2,4,8} on 10 stub queries of completion
    length L=50: mean tokens == n*L exactly; report has a monotone curve plus
    a quest point equal to generated + trained tokens."""
    L = 50
    pair_block = "<problem>P1</problem><solution>S1</solution>"

    def completion(prompt, call):
        if "Compose practice problem" in prompt:
            return pair_block
        return "x" * L

    items = [BenchmarkItem(id=f"s{k}", problem=f"stub query {k}", answer="x" * L) for k in range(10)]
    all_records = []
    means = []
    for n in (1, 2, 4, 8):
        stub = StubBackend(completion)
        session = ModelSession(backend=stub, seed=0)
        records, (summary,) = evaluate(
            session, items, "self_consistency", sc_samples=(n,), sc_temperature=0.7,
            max_new_tokens=4096, seed=1,
        )
        assert summary["mean_tokens"] == n * L, f"n={n}: {summary['mean_tokens']}"
        assert all(r.generated_tokens == n * L for r in records)
        means.append(summary["mean_tokens"])
        all_records.extend(records)
    assert means == sorted(means) and len(set(means)) == len(means)

    stub = StubBackend(completion)
    session = ModelSession(backend=stub, seed=0)
    quest_records, _ = evaluate(
        session, items, "quest",
        gen_cfg=GenConfig(n_pairs=5, max_new_tokens=4096, temperature=0.7),
        adapter_spec=spec_for_all_modules(stub.adaptable_modules(), rank=2, alpha=4),
        opt_cfg=OptConfig(steps=4, lr=1e-3, grad_accumulation=2),
        max_new_tokens=4096, seed=1,
    )
    for record in quest_records:
        assert record.total_tokens == record.generated_tokens + record.trained_tokens
        # 5 pair-generation calls plus the final answer, counted exactly
        assert record.generated_tokens == 5 * len(pair_block) + L
        assert record.trained_tokens > 0
    all_records.extend(quest_records)

    paths = emit_report(all_records, tmp_path)
    rows = [row.split(",") for row in paths["curve"].read_text().splitlines()[1:]]
    sc_rows = [row for row in rows if row[0] == "self_consistency"]
    quest_rows = [row for row in rows if row[0] == "quest"]
    sc_tokens = [float(row[2]) for row in sc_rows]
    assert sc_tokens == sorted(sc_tokens) and len(sc_rows) == 4
    assert len(quest_rows) == 1
    want = sum(r.total_tokens for r in quest_records) / len(quest_records)
    assert float(quest_rows[0][2]) == pytest.approx(want, abs=0.01)
    print("PASS criterion-9 token-accounting (sc mean = n*L exactly; quest point = gen + trained)")


def test_lockstep_decoding_matches_generate():
    """Requests decoded together by ``prefetch`` read back through ``generate``
    as the tokens ``generate`` alone decodes; the same check runs in selftest."""
    check_prefetch_matches_generate()
    print("PASS lockstep-decoding (prefetch then generate == generate alone)")


def test_criterion_10_config_fidelity(tmp_path, capsys):
    """selftest (exit 0) asserts the default run config reproduces the
    reference hyperparameters exactly."""
    check_config_defaults()
    # final answers are always greedy; a config that sets their temperature is rejected
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"answer_temperature": 0.0}))
    with pytest.raises(ValueError, match="unknown key 'answer_temperature'"):
        load_config(path)
    assert run_command(["selftest"]) == 0
    assert "PASS config-defaults" in capsys.readouterr().out
    print("PASS criterion-10 config-fidelity (defaults match, selftest exit 0)")
