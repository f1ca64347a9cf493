import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quest import cli, engine
from quest.adapters import init_adapter, save_adapter, spec_for_all_modules
from quest.backend import (
    AdaptableModuleInfo,
    ModelSession,
    RefConfig,
    ReferenceBackend,
    save_checkpoint,
)
from quest.backend.reference import _RefCore
from quest.cli import RunConfig, dump_config, load_config, run_command
from quest.engine import OptConfig
from quest.evalkit import BenchmarkItem, evaluate
from quest.selftest import check_config_defaults

from conftest import PatternStub, StubBackend


class HybridPatternBackend:
    """Reference model that answers queries itself but delegates pair-generation
    prompts to the scripted pattern stub; lets the CLI run the full fused and
    staged pipelines through one registered backend."""

    name = "pattern-hybrid"

    def __init__(self, ref, tag_of):
        self._ref = ref
        self._stub = PatternStub(ref, tag_of)
        self.vocab_size = ref.vocab_size
        self.max_len = 4096  # generation prompts bypass the reference window
        self.eos_id = ref.eos_id

    def tokenize(self, text):
        return self._ref.tokenize(text)

    def detokenize(self, ids):
        return self._ref.detokenize(ids)

    def adaptable_modules(self):
        return self._ref.adaptable_modules()

    def checksum(self):
        return self._ref.checksum()

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        if "Compose practice problem" in self.detokenize(prompt):
            return self._stub.generate(prompt, max_new_tokens, temperature, seed=seed)
        return self._ref.generate(prompt, max_new_tokens, temperature, adapter=adapter, seed=seed)

    def forward_logits(self, tokens, adapter=None):
        return self._ref.forward_logits(tokens, adapter=adapter)

    def masked_nll_with_grads(self, tokens, loss_mask, adapter, dropout_rng=None, lengths=None):
        return self._ref.masked_nll_with_grads(
            tokens, loss_mask, adapter, dropout_rng=dropout_rng, lengths=lengths
        )

    def entropy_with_grads(self, tokens, adapter, dropout_rng=None, lengths=None):
        return self._ref.entropy_with_grads(tokens, adapter, dropout_rng=dropout_rng, lengths=lengths)


@pytest.fixture
def hybrid_backend(pattern_world, monkeypatch):
    """Makes the hybrid backend the CLI's default for the test's commands."""
    backend = HybridPatternBackend(pattern_world["backend"], pattern_world["tag_of"])
    monkeypatch.setattr(cli, "_reference", lambda checkpoint: backend)
    return backend


@pytest.fixture
def untrained_checkpoint(tmp_path):
    """A fresh reference model's checkpoint: its output head is zero."""
    path = tmp_path / "untrained.qstb"
    save_checkpoint(ReferenceBackend.fresh(RefConfig(), seed=0), path)
    return path


@pytest.fixture
def bench_path(tmp_path, pattern_world):
    tag_of = pattern_world["tag_of"]
    path = tmp_path / "bench.jsonl"
    with open(path, "w") as f:
        for i, sym in enumerate("dkp"):
            f.write(
                json.dumps(
                    {"id": f"it{i}", "problem": f"Q: {sym} ->\nA:", "answer": f"{sym}{tag_of[sym]}"}
                )
                + "\n"
            )
    return path


COMMON = [
    "--pairs", "5", "--gen-max-new", "64", "--rank", "8", "--alpha", "16",
    "--steps", "30", "--lr", "3e-3", "--answer-max-new", "16",
    "--system-prompt", "", "--seed", "9",
]
# the flags of COMMON that `answer` reads
ANSWER = ["--answer-max-new", "16", "--system-prompt", "", "--seed", "9"]

# the flag groups of the CLI, and the commands that take them
RUN = ["--config", "--checkpoint", "--benchmark", "--out", "--seed"]
GENERATION = ["--pairs", "--gen-temperature", "--gen-max-new", "--retries"]
TRAINING = ["--rank", "--alpha", "--dropout", "--steps", "--lr", "--accumulation", "--max-seq-len"]
SWEEP = RUN + GENERATION + TRAINING + ["--system-prompt", "--answer-max-new", "--sc-samples",
                                       "--sc-temperature"]
TAKES = {
    "generate": RUN + GENERATION + ["--item-id"],
    "adapt": RUN + TRAINING + ["--system-prompt", "--item-id"],
    "answer": RUN + ["--system-prompt", "--answer-max-new", "--item-id", "--adapter"],
    "eval": SWEEP + ["--method"],
    "compare": SWEEP + ["--methods"],
    "selftest": [],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _options(sub: argparse.ArgumentParser) -> set[str]:
    return {
        option for action in sub._actions for option in action.option_strings
        if option not in ("-h", "--help")
    }


class TestLoadConfig:
    def test_pure_defaults(self, tmp_path):
        check_config_defaults()
        assert load_config() == RunConfig()
        # final answers are always greedy, and each item's choices decide its
        # answer format; there is no knob for either
        path = tmp_path / "cfg.json"
        for key, value in (("answer_temperature", 0.0), ("answer_mode", "boxed")):
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                load_config(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimization": {"steps": 10}, "seed": 1}))
        cfg = load_config(path, {"optimization": {"steps": 40}})
        assert cfg.optimization.steps == 40
        assert cfg.seed == 1

    def test_unknown_key_suggests(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ranks": 8}))
        with pytest.raises(ValueError, match="did you mean 'rank"):
            load_config(path)

    def test_unknown_section_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generation": {"temperture": 0.5}}))
        with pytest.raises(ValueError, match="generation.'temperture'"):
            load_config(path)

    @pytest.mark.parametrize(
        "removed",
        [{"workers": 2}, {"optimization": {"steps_count_micro": True}},
         {"backend_options": {"checkpoint": "model.qstb"}}, {"backend": "reference"}],
        ids=["workers", "steps_count_micro", "backend_options", "backend"],
    )
    def test_removed_keys_rejected(self, tmp_path, removed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(removed))
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_method_alias(self):
        assert load_config(None, {"method": "sc"}).method == "self_consistency"

    @pytest.mark.parametrize(
        "layer, message",
        [
            ({"rank": 2.7}, "config key 'rank' must be int, got 2.7"),
            ({"optimization": {"steps": 10.9}}, "config key 'optimization.steps' must be int"),
            ({"seed": "3"}, "config key 'seed' must be int, got '3'"),
            ({"generation": {"n_pairs": True}}, "config key 'generation.n_pairs' must be int"),
            ({"target_modules": "layers.0.attn.q"}, "config key 'target_modules' must be"),
            ({"optimization": {"betas": [0.9]}}, "config key 'optimization.betas' must be"),
            ({"sc_samples": [1.5]}, "config key 'sc_samples' must be"),
            ({"optimization": 5}, "config key 'optimization' must be an object"),
            ({"sc_temperature": 0}, "sc_temperature must be finite and > 0, got 0.0"),
            ({"sc_temperature": -1.0}, "sc_temperature must be finite and > 0, got -1.0"),
            ({"answer_max_new_tokens": 0}, "answer_max_new_tokens must be >= 1, got 0"),
            ({"optimization": {"shuffle": True}}, "unknown key optimization.'shuffle'"),
            ({"optimization": {"seed": 7}}, "optimizer seed derives from the top-level 'seed'"),
            ({"checkpoint": 7}, "config key 'checkpoint' must be str, got 7"),
            ({"checkpoint": False}, "config key 'checkpoint' must be str, got False"),
        ],
        ids=[
            "rank-float", "steps-float", "seed-str", "n_pairs-bool", "target_modules-str",
            "betas-one", "sc_samples-float", "section-int", "sc_temperature-0",
            "sc_temperature-negative", "answer_max_new-0", "shuffle-removed", "opt-seed",
            "checkpoint-int", "checkpoint-false",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, layer, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(layer))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)

    def test_lossless_values_accepted(self):
        cfg = load_config(None, {"alpha": 8, "optimization": {"betas": [0, 0.5]}})
        assert cfg.alpha == 8.0 and isinstance(cfg.alpha, float)
        assert cfg.optimization.betas == (0.0, 0.5)
        assert all(isinstance(beta, float) for beta in cfg.optimization.betas)

    @pytest.mark.parametrize("budgets", [[], [0, 2]])
    def test_sc_budgets_must_be_positive(self, budgets):
        with pytest.raises(ValueError, match="positive budgets"):
            load_config(None, {"sc_samples": budgets})

    def test_sc_budgets_must_be_distinct(self):
        with pytest.raises(ValueError, match="repeats a budget: 2,2"):
            load_config(None, {"sc_samples": [2, 2]})

    def test_echo_round_trip(self, tmp_path):
        cfg = load_config(None, {"seed": 5, "optimization": {"steps": 3}, "method": "tent"})
        path = tmp_path / "echo.json"
        dump_config(cfg, path)
        assert "seed" not in json.loads(path.read_text())["optimization"]
        assert load_config(path) == cfg


class TestCommands:
    def test_selftest_exit_zero(self, capsys):
        assert run_command(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS config-defaults" in out

    def test_missing_benchmark_is_one_line_error(self, capsys):
        assert run_command(["eval", "--method", "base"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_backend_factory_gets_the_runs_checkpoint(self, tmp_path, bench_path):
        stub = StubBackend(lambda prompt, call: "\\boxed{1}")
        given = []

        def factory(checkpoint):
            given.append(checkpoint)
            return stub

        run = ["eval", "--method", "base", "--rank", "4", "--benchmark", str(bench_path)]
        assert run_command(run + ["--out", str(tmp_path / "a")], backend=factory) == 0
        assert run_command(
            run + ["--checkpoint", "my-model", "--out", str(tmp_path / "b")], backend=factory
        ) == 0
        assert given == [None, "my-model"]
        assert stub.calls == 6  # one answer per item and run
        records = (tmp_path / "b" / "base" / "records.jsonl").read_text().splitlines()
        assert [json.loads(line)["raw_output"] for line in records] == ["\\boxed{1}"] * 3

    def test_eval_methods_write_disjoint_records(self, tmp_path, hybrid_backend, bench_path):
        out = tmp_path / "run"
        for method in ("base", "quest"):
            code = run_command(
                ["eval", "--benchmark", str(bench_path),
                 "--method", method, "--out", str(out)] + COMMON
            )
            assert code == 0
        assert (out / "base" / "records.jsonl").exists()
        assert (out / "quest" / "records.jsonl").exists()
        assert (out / "config.json").exists()
        base_records = (out / "base" / "records.jsonl").read_text().splitlines()
        quest_records = (out / "quest" / "records.jsonl").read_text().splitlines()
        assert len(base_records) == len(quest_records) == 3

    def test_stage_replay_matches_fused_eval(self, tmp_path, hybrid_backend, bench_path):
        fused = tmp_path / "fused"
        code = run_command(
            ["eval", "--method", "quest",
             "--benchmark", str(bench_path), "--out", str(fused)] + COMMON
        )
        assert code == 0

        # the stages replay the fused run from its echoed config
        staged = tmp_path / "staged"
        args = ["--config", str(fused / "config.json"), "--out", str(staged)]
        for command in ("generate", "adapt", "answer"):
            assert run_command([command] + args) == 0
        records = {
            json.loads(line)["item_id"]: json.loads(line)
            for line in (fused / "quest" / "records.jsonl").read_text().splitlines()
        }
        for item_id, record in records.items():
            staged_answer = (staged / item_id / "answer.txt").read_text()
            assert staged_answer == record["raw_output"], item_id
            assert (staged / item_id / "pairs.jsonl").exists()
            assert (staged / item_id / "adapter.qsta").exists()
            assert (staged / item_id / "telemetry.json").exists()
        # the staged pipeline actually adapted (answers carry trained pairs)
        assert any(json.loads(p)["problem"] for p in
                   (staged / "it0" / "pairs.jsonl").read_text().splitlines())

    def test_adapt_without_pairs_removes_a_stale_adapter(self, tmp_path, hybrid_backend, bench_path):
        out = tmp_path / "staged"
        run = ["--benchmark", str(bench_path), "--item-id", "it0", "--seed", "9"]
        adapt = ["adapt", "--rank", "8", "--alpha", "16", "--steps", "30", "--lr", "3e-3",
                 "--system-prompt", "", "--out", str(out)] + run
        assert run_command(["generate", "--pairs", "5", "--gen-max-new", "64", "--out", str(out)] + run) == 0
        assert run_command(adapt) == 0
        assert (out / "it0" / "adapter.qsta").exists()
        # a later run generated no pairs: its answer is the base model's, as
        # in the fused pipeline, not the earlier run's adapter's
        (out / "it0" / "pairs.jsonl").write_text("")
        assert run_command(adapt) == 0
        assert not (out / "it0" / "adapter.qsta").exists()
        assert not (out / "it0" / "telemetry.json").exists()
        answer = ["answer", "--answer-max-new", "16", "--system-prompt", ""] + run
        assert run_command(answer + ["--out", str(out)]) == 0
        assert run_command(answer + ["--out", str(tmp_path / "base")]) == 0
        base = (tmp_path / "base" / "it0" / "answer.txt").read_text()
        assert (out / "it0" / "answer.txt").read_text() == base

    def test_compare_writes_curve_with_quest_point(self, tmp_path, hybrid_backend, bench_path):
        out = tmp_path / "cmp"
        code = run_command(
            ["compare", "--methods", "base,quest,sc",
             "--benchmark", str(bench_path), "--out", str(out),
             "--sc-samples", "1,2", "--sc-temperature", "0.8"] + COMMON
        )
        assert code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "method,n_samples,mean_tokens,accuracy"
        methods = [row.split(",")[0] for row in curve[1:]]
        assert "quest" in methods and methods.count("self_consistency") == 2
        results = (out / "results.csv").read_text().splitlines()
        assert any(row.startswith("self_consistency@2,") for row in results)

    def test_eval_sc_samples_its_budget(self, tmp_path, hybrid_backend, bench_path):
        args = ["--benchmark", str(bench_path),
                "--sc-samples", "2", "--sc-temperature", "0.8"] + COMMON
        assert run_command(["eval", "--method", "sc", "--out", str(tmp_path / "e")] + args) == 0
        assert run_command(["compare", "--methods", "sc", "--out", str(tmp_path / "c")] + args) == 0

        def records(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            for row in rows:
                row.pop("wall_seconds")
            return rows

        evaluated = records(tmp_path / "e" / "self_consistency" / "records.jsonl")
        assert [r["n_samples"] for r in evaluated] == [2, 2, 2]
        # compare always sampled each budget it was given
        assert evaluated == records(tmp_path / "c" / "records.jsonl")
        assert all(0 < r["generated_tokens"] <= 2 * 16 for r in evaluated)

    def test_compare_sweep_matches_separate_evals(self, tmp_path, hybrid_backend, bench_path):
        args = ["--benchmark", str(bench_path),
                "--sc-temperature", "0.8"] + COMMON

        def records(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            for row in rows:
                row.pop("wall_seconds")
            return rows

        separate = []
        for n in (1, 2, 4):
            out = tmp_path / f"e{n}"
            assert run_command(["eval", "--method", "sc", "--sc-samples", str(n), "--out", str(out)] + args) == 0
            separate += records(out / "self_consistency" / "records.jsonl")
        out = tmp_path / "c"
        assert run_command(["compare", "--methods", "sc", "--sc-samples", "1,2,4", "--out", str(out)] + args) == 0
        assert records(out / "records.jsonl") == separate
        assert [r["n_samples"] for r in separate] == [1] * 3 + [2] * 3 + [4] * 3

    def test_compare_decodes_each_pair_request_once(
        self, tmp_path, bench_path, untrained_checkpoint, monkeypatch, one_decode_process
    ):
        requests, prefills = [], []
        generate, forward = ReferenceBackend.generate, _RefCore.forward

        def counting_generate(self, prompt, max_new_tokens, temperature=0.0, adapter=None, seed=None):
            if "Compose practice problem" in self.detokenize(prompt):
                requests.append((tuple(prompt), max_new_tokens, temperature, seed))
            return generate(self, prompt, max_new_tokens, temperature, adapter=adapter, seed=seed)

        def counting_forward(self, ids, *args, **kwargs):
            if kwargs.get("kv") is not None and not kwargs.get("start"):
                # a lock-step prefill feeds one prompt per row
                prefills.extend(tuple(row) for row in np.atleast_2d(ids).tolist())
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(ReferenceBackend, "generate", counting_generate)
        monkeypatch.setattr(_RefCore, "forward", counting_forward)
        # an untrained reference model samples unparseable text, so every
        # pair slot uses all of its retries
        code = run_command(
            ["compare", "--methods", "quest,quest_no_lora", "--checkpoint", str(untrained_checkpoint),
             "--benchmark", str(bench_path), "--out", str(tmp_path / "c")]
            + COMMON + ["--gen-max-new", "8", "--retries", "1"]
        )
        assert code == 0
        assert len(requests) == 2 * 3 * 5 * 2  # methods x items x slots x attempts
        # both methods ask for the same requests, and each method decodes
        # every one of them exactly once
        decoded = [ids for ids in prefills if ids in {r[0] for r in requests}]
        assert len(decoded) == len(requests) == 2 * len(set(requests))

    def test_compare_draws_each_item_once_for_every_budget_and_emits_ascending(
        self, tmp_path, bench_path, untrained_checkpoint, monkeypatch, one_decode_process, capsys
    ):
        requests, sampled = [], []
        generate, forward = ReferenceBackend.generate, _RefCore.forward

        def counting_generate(self, prompt, max_new_tokens, temperature=0.0, adapter=None, seed=None):
            if temperature > 0:
                requests.append((tuple(prompt), seed))
            return generate(self, prompt, max_new_tokens, temperature, adapter=adapter, seed=seed)

        def counting_forward(self, ids, *args, **kwargs):
            if kwargs.get("kv") is not None and not kwargs.get("start"):
                sampled.append(np.shape(ids)[0])
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(ReferenceBackend, "generate", counting_generate)
        monkeypatch.setattr(_RefCore, "forward", counting_forward)
        out = tmp_path / "c"
        code = run_command(
            ["compare", "--methods", "sc", "--sc-samples", "1,2,4,8", "--sc-temperature", "0.8",
             "--checkpoint", str(untrained_checkpoint), "--benchmark", str(bench_path),
             "--out", str(out)] + COMMON
        )
        assert code == 0
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        assert [r["n_samples"] for r in records] == [1] * 3 + [2] * 3 + [4] * 3 + [8] * 3
        summaries = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:4]]
        assert summaries == [f"self_consistency@{n}" for n in (1, 2, 4, 8)]
        # the three items' 24 samples decode once, together, in two balanced
        # lock-step chunks; each budget reads back a prefix of its item's 8
        assert len(requests) == 3 * (1 + 2 + 4 + 8)
        assert sampled == [12, 12]
        assert len(set(requests)) == 3 * 8

    def test_compare_checks_every_method_before_running(
        self, tmp_path, hybrid_backend, bench_path, monkeypatch, capsys
    ):
        evaluated = []
        run_eval = cli.evaluate

        def counting_evaluate(session, items, method, **kwargs):
            evaluated.append(method)
            return run_eval(session, items, method, **kwargs)

        monkeypatch.setattr(cli, "evaluate", counting_evaluate)
        code = run_command(
            ["compare", "--methods", "base,sc,bogus",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")] + COMMON
        )
        assert code == 1
        assert "unknown method 'bogus'" in capsys.readouterr().err
        assert evaluated == []
        assert not (tmp_path / "x").exists()

    def test_method_flag_rejected_before_run_dir(self, tmp_path, hybrid_backend, bench_path, capsys):
        with pytest.raises(SystemExit) as caught:
            run_command(
                ["compare", "--method", "tent",
                 "--benchmark", str(bench_path), "--out", str(tmp_path / "x")] + COMMON
            )
        assert caught.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --method tent\n")
        assert not (tmp_path / "x").exists()

    def test_each_command_takes_only_the_flags_it_reads(self):
        commands = _subparsers()
        taken = {name: sorted(_options(sub)) for name, sub in commands.items()}
        assert taken == {name: sorted(flags) for name, flags in TAKES.items()}
        assert sum(map(len, taken.values())) == 75
        assert not any(sub.allow_abbrev for sub in commands.values())

    def test_readme_flag_table_matches_the_parsers(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        head = next(i for i, line in enumerate(lines) if line.startswith("| flags |"))
        names = re.findall(r"`(\w+)`", lines[head])
        documented = {name: set() for name in names}
        for line in lines[head + 2:]:
            if not line.startswith("|"):
                break
            first, *marks = (cell.strip() for cell in line.strip("|").split("|"))
            flags = " ".join(re.findall(r"`([^`]+)`", first)).split()
            for name, mark in zip(names, marks, strict=True):
                if mark == "✓":
                    documented[name].update(flags)
        assert documented == {name: _options(sub) for name, sub in _subparsers().items()}

    def test_readme_command_lines_parse_and_name_a_model(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [
            shlex.split(line, comments=True)[1:] for line in lines if line.split()[:1] == ["quest"]
        ]
        assert len(commands) >= 10
        parser = cli._parser()
        for argv in commands:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README line does not parse: quest {shlex.join(argv)}")
            # every command but selftest builds a session, which needs a model
            if args.command != "selftest":
                assert args.checkpoint or args.config, f"quest {shlex.join(argv)}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--method", "tent"],
            ["generate", "--sc-samples", "3"],
            ["answer", "--rank", "0"],
            ["selftest", "--rank", "0"],
            ["eval", "--pair", "2"],  # not read as --pairs
            ["compare", "--method", "tent"],  # not read as --methods
            ["generate", "--backend", "reference"],
            ["adapt", "--backend", "reference"],
            ["answer", "--backend", "reference"],
            ["eval", "--backend", "reference"],
            ["compare", "--backend", "reference"],
        ],
        ids=["generate-method", "generate-sc-samples", "answer-rank", "selftest-rank",
             "eval-pair", "compare-method", "generate-backend", "adapt-backend", "answer-backend",
             "eval-backend", "compare-backend"],
    )
    def test_stray_flag_is_an_argparse_error(self, tmp_path, hybrid_backend, bench_path, capsys, argv):
        out = tmp_path / "x"
        run = ["--benchmark", str(bench_path), "--out", str(out)]
        with pytest.raises(SystemExit) as caught:
            run_command(argv + (run if argv[0] != "selftest" else []))
        assert caught.value.code == 2
        stray = " ".join(argv[1:])
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {stray}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "adapt", "answer", "eval", "compare"])
    def test_reference_run_without_a_checkpoint_fails_before_run_dir(
        self, tmp_path, bench_path, capsys, command
    ):
        # a fresh model would answer every item with nothing and exit 0
        out = tmp_path / "x"
        assert run_command([command, "--benchmark", str(bench_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the reference backend needs a model checkpoint: pass --checkpoint FILE.qstb\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "adapt", "answer"])
    def test_stages_reject_another_method(self, tmp_path, hybrid_backend, bench_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "tent"}))
        code = run_command(
            [command, "--config", str(path),
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {command} runs quest's stages only, but the config names method 'tent'\n"
        )
        assert not (tmp_path / "x").exists()

    def test_compare_rejects_a_config_method(self, tmp_path, hybrid_backend, bench_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "tent"}))
        code = run_command(
            ["compare", "--config", str(path), "--methods", "base",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: compare runs the methods of --methods and never reads config key 'method', "
            "but the config names method 'tent'\n"
        )
        assert not (tmp_path / "x").exists()
        # the default, spelled out, is not a conflict
        path.write_text(json.dumps({"method": "quest"}))
        code = run_command(
            ["compare", "--config", str(path), "--methods", "base",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "y"), *COMMON]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["eval", "--method", "sc", "--sc-samples", "2", "--sc-temperature", "0"], None,
             "sc_temperature must be finite and > 0, got 0.0"),
            (["compare", "--methods", "base,sc", "--sc-temperature", "-1"], None,
             "sc_temperature must be finite and > 0, got -1.0"),
            (["eval", "--method", "base", "--answer-max-new", "0"], None,
             "answer_max_new_tokens must be >= 1, got 0"),
            (["adapt", "--max-seq-len", "-5"], None, "max_seq_len must be >= 2, got -5"),
            (["eval", "--method", "tlm"], {"optimization": {"betas": [1.0, 0.999]}},
             "betas must each lie in [0, 1), got (1.0, 0.999)"),
            (["eval", "--method", "tlm", "--lr", "nan"], None, "lr must be finite and >= 0, got nan"),
            (["adapt", "--lr", "inf"], None, "lr must be finite and >= 0, got inf"),
            (["eval", "--method", "tlm"], {"optimization": {"weight_decay": -1}},
             "weight_decay must be finite and >= 0, got -1.0"),
            (["eval", "--method", "tlm", "--alpha", "nan"], None,
             "alpha must be finite and positive, got nan"),
            (["adapt", "--alpha", "inf"], None, "alpha must be finite and positive, got inf"),
            (["eval", "--method", "sc", "--sc-samples", "2", "--sc-temperature", "nan"], None,
             "sc_temperature must be finite and > 0, got nan"),
            (["compare", "--methods", "sc", "--sc-temperature", "inf"], None,
             "sc_temperature must be finite and > 0, got inf"),
            (["generate", "--gen-temperature", "nan"], None,
             "temperature must be finite and >= 0, got nan"),
        ],
        ids=["eval-sc-temperature-0", "compare-sc-temperature-negative", "answer-max-new-0",
             "adapt-max-seq-len-negative", "eval-tlm-beta1-one", "eval-tlm-lr-nan",
             "adapt-lr-inf", "eval-tlm-weight-decay-negative", "eval-tlm-alpha-nan",
             "adapt-alpha-inf", "eval-sc-temperature-nan", "compare-sc-temperature-inf",
             "generate-gen-temperature-nan"],
    )
    def test_unusable_settings_fail_before_any_item(
        self, tmp_path, hybrid_backend, bench_path, capsys, argv, config, message
    ):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code = run_command(
            argv + ["--benchmark", str(bench_path),
                    "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["eval", "--method", "base", "--rank", "0"], None, "rank must be positive"),
            (["eval", "--method", "quest", "--rank", "100"], None,
             "rank 100 exceeds dimensions of module layers.0.attn.q (64x64)"),
            (["compare", "--methods", "base,tent"], {"target_modules": ["layers.9.attn.q"]},
             "unknown target modules: layers.9.attn.q"),
            (["adapt", "--rank", "0"], None, "rank must be positive"),
        ],
        ids=["eval-rank-0", "eval-rank-100", "compare-unknown-module", "adapt-rank-0"],
    )
    def test_unbuildable_adapter_fails_before_run_dir(
        self, tmp_path, hybrid_backend, bench_path, capsys, argv, config, message
    ):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code = run_command(
            argv + ["--benchmark", str(bench_path),
                    "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x" / "config.json").exists()

    def test_sc_samples_error_names_the_flag(self, tmp_path, hybrid_backend, bench_path, capsys):
        with pytest.raises(SystemExit):
            run_command(
                ["compare", "--methods", "sc", "--sc-samples", "2,x",
                 "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
            )
        assert "argument --sc-samples: expected comma-separated integers, got '2,x'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "x").exists()

    def test_unknown_method_is_one_error_everywhere(
        self, tmp_path, hybrid_backend, bench_path, capsys
    ):
        with pytest.raises(ValueError) as caught:
            load_config(None, {"method": "magic"})
        message = str(caught.value)
        assert message.startswith("unknown method 'magic'; expected one of base, quest,")
        session = ModelSession(backend=StubBackend(lambda prompt, call: ""), seed=0)
        with pytest.raises(ValueError) as caught:
            evaluate(session, [BenchmarkItem(id="i", problem="p", answer="1")], "magic")
        assert str(caught.value) == message
        args = ["--benchmark", str(bench_path), "--out", str(tmp_path)]
        for argv in (["eval", "--method", "magic"], ["compare", "--methods", "base,magic"]):
            assert run_command(argv + args) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_fits_every_item_before_answering(
        self, tmp_path, hybrid_backend, bench_path, monkeypatch
    ):
        """evaluate and compare run each item's runner from engine.METHODS,
        with the session first and the query second, in item order, and
        every item of a method is fitted before any of its answers is read."""
        events = []

        def traced(name, run):
            def runner(session, query, **settings):
                steps = run(session, query, **settings)
                requests = next(steps)
                events.append(("fitted", name, type(session).__name__, query.id))
                yield requests
                try:
                    steps.send(None)
                except StopIteration as stop:
                    events.append(("answered", name, query.id))
                    return stop.value

            return runner

        for name in ("base", "quest", "tent"):
            method = engine.METHODS[name]
            monkeypatch.setitem(engine.METHODS, name, replace(method, run=traced(name, method.run)))
        ids = ["it0", "it1", "it2"]

        def want(names):
            return [
                event
                for name in names
                for event in [("fitted", name, "ModelSession", i) for i in ids]
                + [("answered", name, i) for i in ids]
            ]

        code = run_command(
            ["compare", "--methods", "base,quest,tent",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "c"), *COMMON, "--steps", "1"]
        )
        assert code == 0 and events == want(["base", "quest", "tent"])
        events.clear()
        session = ModelSession(backend=StubBackend(lambda prompt, call: ""), seed=0)
        items = [BenchmarkItem(id=i, problem="p", answer="1") for i in ids]
        for method in ("base", "quest"):
            evaluate(session, items, method, opt_cfg=OptConfig(steps=1))
        assert events == want(["base", "quest"])

    def test_compare_rejects_repeated_method(self, tmp_path, hybrid_backend, bench_path, capsys):
        code = run_command(
            ["compare", "--methods", "base,sc,self_consistency",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "self_consistency more than once" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_eval_rejects_sc_budget_list(self, tmp_path, hybrid_backend, bench_path, capsys):
        code = run_command(
            ["eval", "--method", "sc", "--sc-samples", "2,4",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "one self-consistency budget" in capsys.readouterr().err

    def test_conflicting_method_keys_rejected(self, tmp_path, hybrid_backend, bench_path, capsys):
        code = run_command(
            ["eval", "--method", "base", "--sc-samples", "4",
             "--benchmark", str(bench_path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "conflicting method-specific keys" in capsys.readouterr().err

    def test_rerun_from_echoed_config_reproduces(self, tmp_path, hybrid_backend, bench_path):
        out1 = tmp_path / "r1"
        assert run_command(
            ["eval", "--method", "quest",
             "--benchmark", str(bench_path), "--out", str(out1)] + COMMON
        ) == 0
        out2 = tmp_path / "r2"
        assert run_command(
            ["eval", "--config", str(out1 / "config.json"),
             "--benchmark", str(bench_path), "--out", str(out2)]
        ) == 0

        def essence(run_dir):
            rows = []
            for line in (run_dir / "quest" / "records.jsonl").read_text().splitlines():
                obj = json.loads(line)
                rows.append((obj["item_id"], obj["raw_output"], obj["extracted"], obj["correct"]))
            return rows

        assert essence(out1) == essence(out2)

    def test_answer_without_adapter_uses_base(self, tmp_path, hybrid_backend, bench_path):
        out = tmp_path / "ans"
        code = run_command(
            ["answer", "--benchmark", str(bench_path),
             "--item-id", "it0", "--out", str(out)] + ANSWER
        )
        assert code == 0
        assert (out / "it0" / "answer.txt").exists()

    def test_answer_rejects_adapter_for_unknown_module(
        self, tmp_path, hybrid_backend, bench_path, capsys
    ):
        mods = [AdaptableModuleInfo("layers.9.attn.q", 64, 64)]
        path = tmp_path / "ghost.qsta"
        save_adapter(init_adapter(spec_for_all_modules(mods, rank=2), mods), path)
        code = run_command(
            ["answer", "--benchmark", str(bench_path),
             "--item-id", "it0", "--adapter", str(path), "--out", str(tmp_path / "ans")] + ANSWER
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown target modules: layers.9.attn.q\n"
        assert not (tmp_path / "ans").exists()  # neither config.json nor answer.txt

    def test_answer_rejects_adapter_of_wrong_shape(self, tmp_path, hybrid_backend, bench_path, capsys):
        # the module names exist, but the factors were built for a d=32 model
        mods = [AdaptableModuleInfo("layers.0.attn.q", 32, 32)]
        path = tmp_path / "narrow.qsta"
        save_adapter(init_adapter(spec_for_all_modules(mods, rank=2), mods), path)
        code = run_command(
            ["answer", "--benchmark", str(bench_path),
             "--item-id", "it0", "--adapter", str(path), "--out", str(tmp_path / "ans")] + ANSWER
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: adapter factors of layers.0.attn.q do not fit the module: expected A (2, 64) "
            "and B (64, 2) of float32, got A (2, 32) of float32 and B (32, 2) of float32\n"
        )
        assert not (tmp_path / "ans").exists()


    def test_answer_rejects_missing_adapter_file(self, tmp_path, hybrid_backend, bench_path, capsys):
        code = run_command(
            ["answer", "--benchmark", str(bench_path), "--item-id", "it0",
             "--adapter", str(tmp_path / "absent.qsta"), "--out", str(tmp_path / "ans")] + ANSWER
        )
        assert code == 1
        assert "absent.qsta" in capsys.readouterr().err
        assert not (tmp_path / "ans").exists()

def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quest.cli", "selftest"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS config-defaults" in proc.stdout
