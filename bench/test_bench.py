"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload's check pass must accept the records of a real round and reject
them once corrupted: a wrong answer, a dropped loss entry, an off-by-one token
count, a mutated base weight or checkpoint. Smoke runs drive ``run.py`` end
to end on every workload. About three minutes on two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import world as world_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from quest.backend import RefConfig, ReferenceBackend  # noqa: E402
from quest.backend.reference import init_params  # noqa: E402
from quest.evalkit import answers_equivalent, majority_vote  # noqa: E402

SEED = 3
NAMES = ("hidden_rule", "self_generated", "compare_baselines")


@pytest.fixture(scope="module")
def shared_world(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("world")
    return world_mod.build_world(workdir, SEED, 0)


@pytest.fixture(scope="module")
def round_outputs(shared_world, tmp_path_factory):
    """One real round of every workload, over one trained model."""
    out = {}
    for index, name in enumerate(NAMES):
        workdir = tmp_path_factory.mktemp(name)
        w = world_mod.World(
            backend=shared_world.backend,
            checkpoint=shared_world.checkpoint,
            checkpoint_sha256=shared_world.checkpoint_sha256,
            tag_of=shared_world.tag_of,
            round_files=world_mod.write_rounds(workdir, SEED, index, shared_world.tag_of),
            workdir=workdir,
        )
        bench = WORKLOADS[name](w, SEED)
        out[name] = (bench, [(0, bench.run_round(0))])
    return out


def corrupted(rounds, method, mutate, pick=lambda record: True):
    """A copy of ``rounds`` with the first matching record of ``method`` mutated."""
    rounds = deepcopy(rounds)
    mutate(next(r for r in rounds[0][1] if r.method == method and pick(r)))
    return rounds


def test_every_workload_passes_its_checks(round_outputs):
    for name in NAMES:
        bench, rounds = round_outputs[name]
        assert all(r.error is None for r in rounds[0][1]), name
        bench.check(rounds)


# -- hidden_rule ------------------------------------------------------------------


def test_hidden_rule_rejects_wrong_answers(round_outputs):
    bench, rounds = round_outputs["hidden_rule"]

    def wrong(record):
        record.raw_output, record.extracted, record.correct = "\\boxed{zz}", "zz", False

    bad = deepcopy(rounds)
    for r in bad[0][1]:
        if r.method == "quest":
            wrong(r)
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        bench.check(bad)
    # a base answer that T=0 does not reproduce
    with pytest.raises(checks.CheckFailed, match="differs from base"):
        bench.check(corrupted(rounds, "base", wrong))


def test_hidden_rule_rejects_dropped_loss(round_outputs):
    bench, rounds = round_outputs["hidden_rule"]
    with pytest.raises(checks.CheckFailed, match="losses"):
        bench.check(corrupted(rounds, "quest", lambda r: r.loss_trajectory.pop()))
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        bench.check(corrupted(rounds, "quest", lambda r: r.loss_trajectory.__setitem__(3, math.nan)))


def test_hidden_rule_rejects_off_by_one_tokens(round_outputs):
    bench, rounds = round_outputs["hidden_rule"]

    def plus_one(record):
        record.trained_tokens += 1

    with pytest.raises(checks.CheckFailed, match="trained tokens"):
        bench.check(corrupted(rounds, "quest", plus_one))


def test_hidden_rule_rejects_mutated_base_weight(round_outputs):
    bench, rounds = round_outputs["hidden_rule"]
    weight = bench.world.backend.params["layers.0.attn.q"]
    saved = float(weight[0, 0])
    weight.setflags(write=True)
    try:
        weight[0, 0] += 1e-3
        with pytest.raises(checks.CheckFailed, match="checksum"):
            bench.check(rounds)
    finally:
        weight[0, 0] = saved
        weight.setflags(write=False)


# -- self_generated ---------------------------------------------------------------


def test_self_generated_rejects_dropped_loss(round_outputs):
    bench, rounds = round_outputs["self_generated"]
    with pytest.raises(checks.CheckFailed, match="losses"):
        bench.check(corrupted(rounds, "quest", lambda r: r.loss_trajectory.pop()))


def test_self_generated_rejects_wrong_answer(round_outputs):
    bench, rounds = round_outputs["self_generated"]
    assert any(r.loss_trajectory for r in rounds[0][1]), "no item adapted"

    def wrong(record):
        record.raw_output += "x"

    with pytest.raises(checks.CheckFailed, match="staged replay"):
        bench.check(corrupted(rounds, "quest", wrong, lambda r: bool(r.loss_trajectory)))


def test_self_generated_rejects_changed_checkpoint(round_outputs):
    bench, rounds = round_outputs["self_generated"]
    path = bench.world.checkpoint
    original = path.read_bytes()
    try:
        changed = bytearray(original)
        changed[-1] ^= 1
        path.write_bytes(bytes(changed))
        with pytest.raises(checks.CheckFailed):
            bench.check(rounds)
    finally:
        path.write_bytes(original)


# -- compare_baselines ------------------------------------------------------------


def test_compare_rejects_wrong_vote_and_token_count(round_outputs):
    bench, rounds = round_outputs["compare_baselines"]
    first_item = rounds[0][1][0].item_id

    def largest_budget(record):
        return record.item_id == first_item and record.n_samples == max(bench.budgets)

    def wrong_vote(record):
        record.extracted = "zz"

    def plus_one(record):
        record.generated_tokens += 1

    with pytest.raises(checks.CheckFailed, match="vote"):
        bench.check(corrupted(rounds, "self_consistency", wrong_vote, largest_budget))
    with pytest.raises(checks.CheckFailed, match="sampled tokens"):
        bench.check(corrupted(rounds, "self_consistency", plus_one, largest_budget))


def test_compare_rejects_dropped_loss_and_wrong_base(round_outputs):
    bench, rounds = round_outputs["compare_baselines"]
    for method in ("tent", "tlm"):
        with pytest.raises(checks.CheckFailed, match="losses"):
            bench.check(corrupted(rounds, method, lambda r: r.loss_trajectory.pop()))

    def wrong(record):
        record.raw_output = ("q" if record.raw_output[:1] != "q" else "r") + record.raw_output[1:]

    with pytest.raises(checks.CheckFailed, match="argmax"):
        bench.check(corrupted(rounds, "base", wrong))


# -- pure checks ------------------------------------------------------------------


def test_greedy_tokens_matches_generate_and_rejects_a_changed_token():
    cfg = RefConfig(charset="abcdefgh ", n_layer=1, d_model=16, n_head=2, max_len=48)
    rng = np.random.default_rng(0)
    params = {k: rng.normal(0, 0.5, v.shape) for k, v in init_params(cfg, seed=0).items()}
    backend = ReferenceBackend(cfg, params)
    prompt = backend.tokenize("abc")
    answer = backend.generate(prompt, 20, 0.0)
    logits = backend.forward_logits(prompt + answer)
    checks.greedy_tokens(logits, len(prompt), answer, backend.eos_id, cfg.max_len, 20, "ok")
    bad = list(answer)
    bad[0] = (bad[0] % (backend.vocab_size - 1)) + 1
    logits = backend.forward_logits(prompt + bad)
    with pytest.raises(checks.CheckFailed, match="argmax"):
        checks.greedy_tokens(logits, len(prompt), bad, backend.eos_id, cfg.max_len, 20, "bad")


def test_brute_force_vote_agrees_with_majority_vote():
    cases = [
        ["a", "b", "b", None],
        ["1/2", "0.5", "b", "b"],
        [None, None],
        ["x", "y", "z", "y", "x"],
        ["7", "07", "7.0", "8", "8", "8"],
    ]
    for answers in cases:
        assert checks.brute_force_vote(answers, answers_equivalent) == majority_vote(answers)


def test_token_totals_rejects_off_by_one():
    class R:
        generated_tokens, trained_tokens = 10, 20

    counts = {"backend.generate.new_tokens": 7, "scripted.new_tokens": 3, "backend.grads.tokens": 20}
    checks.token_totals(counts, [R()])
    with pytest.raises(checks.CheckFailed, match="generated"):
        checks.token_totals({**counts, "scripted.new_tokens": 4}, [R()])
    with pytest.raises(checks.CheckFailed, match="trained"):
        checks.token_totals({**counts, "backend.grads.tokens": 19}, [R()])


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.phase = "timed"
    tracer.spans = [
        ["outer", "q", None, 0.0, 10.0, "timed"],
        ["inner", "q", 0, 1.0, 4.0, "timed"],
        ["inner", "q", 0, 5.0, 7.0, "timed"],
    ]
    assert tracer.self_times("timed") == {"outer": 5.0, "inner": 5.0}


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    tracer = tracing.Tracer()
    printed = set(tracing.layer_metrics(tracer, 1)) | {"trace.query_s", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for m in spec["per_layer"]:
        if not m["name"].startswith("trace."):
            assert m["unit"] == tracing.unit_of(m["name"])


# -- smoke runs of the command ------------------------------------------------------


def run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(name):
    proc = run_command("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = run_command("--workload", "compare_baselines", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["backend.generate.new_tokens"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(
        "--workload", "hidden_rule", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
