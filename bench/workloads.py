"""The three workloads: one round of timed work each, and the check pass.

A round evaluates the ``QUERIES_PER_ROUND`` queries of one benchmark file
with every method of the workload; the timed phase runs whole rounds. After
it, ``check`` verifies the records of every round and runs the extra passes
the checks need (T=0, staged replay, sample capture), untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

from quest import cli, engine, evalkit
from quest.adapters import load_adapter, spec_for_all_modules
from quest.backend import ModelSession, load_checkpoint
from quest.evalkit import EvalRecord, answers_equivalent, extract_boxed, item_to_query
from quest.supervision import DEFAULT_SYSTEM_PROMPT, GenConfig, format_answer_prompt

import checks
from world import ScriptedGenerator, World, scripted_pair, sha256_file


def run_cli(argv: list[str]) -> None:
    """One ``quest`` command; its progress lines are kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_command(argv)
    if code != 0:
        raise RuntimeError(f"quest {argv[0]} exited with {code}")


def read_records(path: Path) -> list[EvalRecord]:
    with open(path, encoding="utf-8") as f:
        return [EvalRecord.from_dict(json.loads(line)) for line in f]


def greedy_check(backend, prompt_text: str, answer_text: str, adapter, what: str) -> None:
    prompt = backend.tokenize(prompt_text)
    answer = backend.tokenize(answer_text)
    logits = backend.forward_logits(prompt + answer, adapter=adapter)
    checks.greedy_tokens(
        logits, len(prompt), answer, backend.eos_id, backend.max_len, engine.ANSWER_MAX_NEW_TOKENS, what
    )


class Capture:
    """Backend proxy that keeps every sequence ``generate`` returns."""

    def __init__(self, backend):
        self._backend = backend
        self.outputs: list[list[int]] = []

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        out = self._backend.generate(prompt, max_new_tokens, temperature, adapter=adapter, seed=seed)
        self.outputs.append(list(out))
        return out


class Workload:
    name = ""
    methods_per_query = 1

    def __init__(self, world: World, seed: int, tracer=None):
        self.world = world
        self.seed = seed

    def items(self, round_index: int):
        return evalkit.load_benchmark(self.world.round_file(round_index))

    def run_round(self, round_index: int) -> list[EvalRecord]:
        raise NotImplementedError

    def check(self, rounds: list[tuple[int, list[EvalRecord]]]) -> None:
        raise NotImplementedError


class HiddenRule(Workload):
    """``evalkit.evaluate`` of base and quest, pairs from the scripted generator."""

    name = "hidden_rule"
    methods_per_query = 2
    gen_cfg = GenConfig(n_pairs=5, max_new_tokens=64, temperature=0.8)
    opt_cfg = engine.OptConfig(steps=200, lr=3e-3, grad_accumulation=4)
    answer_max_new = 16
    min_gap = 0.20

    def __init__(self, world, seed, tracer=None):
        super().__init__(world, seed, tracer)
        backend = world.backend
        self.checksum = backend.checksum()
        self.session = ModelSession(backend=backend, seed=seed)
        generator = ScriptedGenerator(backend, world.tag_of)
        if tracer is not None:
            generator.on_tokens = lambda n: tracer.count("scripted.new_tokens", n)
        self.generator = ModelSession(backend=generator, seed=seed)
        self.spec = spec_for_all_modules(backend.adaptable_modules(), rank=8, alpha=16, dropout=0.05)

    def evaluate(self, items, method, opt_cfg=None):
        records, _ = evalkit.evaluate(
            self.session, items, method,
            gen_cfg=self.gen_cfg, adapter_spec=self.spec, opt_cfg=opt_cfg or self.opt_cfg,
            max_new_tokens=self.answer_max_new, seed=self.seed, system_prompt="",
            generator_session=self.generator,
        )
        return records

    def run_round(self, round_index):
        items = self.items(round_index)
        return self.evaluate(items, "base") + self.evaluate(items, "quest")

    def expected_trained_tokens(self, problem: str) -> int:
        sym = problem.split()[1]
        tag = self.world.tag_of[sym]
        lengths = []
        for index in range(1, self.gen_cfg.n_pairs + 1):
            other = scripted_pair(sym, index)
            # prompt "Q: s ->\nA:\n", solution "\boxed{st}", end-of-sequence
            lengths.append(len(f"Q: {other} ->\nA:\n") + len(f"\\boxed{{{other}{tag}}}") + 1)
        return checks.visited_tokens(lengths, self.opt_cfg.steps, self.opt_cfg.grad_accumulation)

    def check(self, rounds):
        base = [r for _, recs in rounds for r in recs if r.method == "base"]
        adapted = [r for _, recs in rounds for r in recs if r.method == "quest"]
        checks.accuracy_gap(base, adapted, self.min_gap)
        checks.losses(adapted, self.opt_cfg.steps)
        checks.descent_on_most(adapted)
        for round_index, recs in rounds:
            items = {item.id: item for item in self.items(round_index)}
            checks.trained_tokens(
                [r for r in recs if r.method == "quest"],
                {i: self.expected_trained_tokens(item.problem) for i, item in items.items()},
            )
        first, recs = rounds[0]
        zero = self.evaluate(self.items(first), "quest", replace(self.opt_cfg, steps=0))
        checks.same_answers(zero, {r.item_id: r.raw_output for r in recs if r.method == "base"}, "base")
        checks.equal(self.world.backend.checksum(), self.checksum, "base checksum")


# T of the paper's default recipe, which both CLI workloads run with.
DEFAULT_STEPS = 10


class SelfGenerated(Workload):
    """``quest eval --method quest`` with the default recipe; the model
    generates its own pairs."""

    name = "self_generated"
    replay_items = 2

    def run_round(self, round_index):
        out = self.world.workdir / "runs" / f"r{round_index:03d}"
        run_cli([
            "eval", "--checkpoint", str(self.world.checkpoint),
            "--benchmark", str(self.world.round_file(round_index)),
            "--method", "quest", "--seed", str(self.seed), "--out", str(out),
        ])
        return read_records(out / "quest" / "records.jsonl")

    def stage(self, command: str, round_index: int, item_id: str, out: Path) -> None:
        run_cli([
            command, "--checkpoint", str(self.world.checkpoint),
            "--benchmark", str(self.world.round_file(round_index)),
            "--item-id", item_id, "--seed", str(self.seed), "--out", str(out),
        ])

    def check(self, rounds):
        backend = load_checkpoint(self.world.checkpoint)
        session = ModelSession(backend=backend, seed=self.seed)
        for round_index, recs in rounds:
            checks.losses([r for r in recs if r.loss_trajectory], DEFAULT_STEPS)
            fallback = [r for r in recs if not r.loss_trajectory]
            if fallback:
                ids = {r.item_id for r in fallback}
                items = [item for item in self.items(round_index) if item.id in ids]
                base, _ = evalkit.evaluate(session, items, "base", seed=self.seed)
                checks.equal(
                    [r.trained_tokens for r in fallback], [0] * len(fallback), "fallback trained tokens"
                )
                checks.same_answers(fallback, {r.item_id: r.raw_output for r in base}, "base")

        adapted = [(i, r) for i, recs in rounds for r in recs if r.loss_trajectory]
        replayed = (adapted or [(i, r) for i, recs in rounds for r in recs])[: self.replay_items]
        stage_dir = self.world.workdir / "stage"
        for round_index, record in replayed:
            for command in ("generate", "adapt", "answer"):
                self.stage(command, round_index, record.item_id, stage_dir)
            qdir = stage_dir / record.item_id
            replay = (qdir / "answer.txt").read_text(encoding="utf-8")
            checks.equal(replay, record.raw_output, f"staged replay of {record.item_id}")
            adapter_path = qdir / "adapter.qsta"
            adapter = load_adapter(adapter_path) if adapter_path.exists() else None
            item = next(i for i in self.items(round_index) if i.id == record.item_id)
            greedy_check(
                backend, format_answer_prompt(item.problem, DEFAULT_SYSTEM_PROMPT),
                record.raw_output, adapter, f"quest {record.item_id}",
            )
        checks.equal(sha256_file(self.world.checkpoint), self.world.checkpoint_sha256, "checkpoint bytes")


class CompareBaselines(Workload):
    """``quest compare --methods base,tent,tlm,sc --sc-samples 1,2,4,8``."""

    name = "compare_baselines"
    methods_per_query = 7
    budgets = (1, 2, 4, 8)
    sc_temperature = 0.8
    sampled_items = 2

    def run_round(self, round_index):
        out = self.world.workdir / "runs" / f"r{round_index:03d}"
        run_cli([
            "compare", "--checkpoint", str(self.world.checkpoint),
            "--benchmark", str(self.world.round_file(round_index)),
            "--methods", "base,tent,tlm,sc", "--sc-samples", ",".join(map(str, self.budgets)),
            "--sc-temperature", str(self.sc_temperature), "--system-prompt", "",
            "--seed", str(self.seed), "--out", str(out),
        ])
        return read_records(out / "records.jsonl")

    def check(self, rounds):
        backend = load_checkpoint(self.world.checkpoint)
        for round_index, recs in rounds:
            checks.losses([r for r in recs if r.method in ("tent", "tlm")], DEFAULT_STEPS)
            items = {item.id: item for item in self.items(round_index)}
            for r in recs:
                if r.method == "base":
                    greedy_check(
                        backend, format_answer_prompt(items[r.item_id].problem, ""),
                        r.raw_output, None, f"base {r.item_id}",
                    )

        first, recs = rounds[0]
        by_budget = {
            (r.item_id, r.n_samples): r for r in recs if r.method == "self_consistency"
        }
        for item in self.items(first)[: self.sampled_items]:
            session_seed = engine.derive_item_seeds(self.seed, item.id)["session"]
            samples = {}
            for n in self.budgets:
                capture = Capture(backend)
                engine.self_consistency(
                    ModelSession(backend=capture, seed=session_seed), item_to_query(item, ""),
                    n, self.sc_temperature,
                )
                samples[n] = capture.outputs
            full = samples[max(self.budgets)]
            answers = [extract_boxed(backend.detokenize(out)) for out in full]
            for n in self.budgets:
                checks.equal(samples[n], full[:n], f"samples of {item.id} at budget {n}")
                record = by_budget[(item.id, n)]
                vote = checks.brute_force_vote(answers[:n], answers_equivalent)
                checks.equal(record.extracted, vote, f"vote of {item.id} at budget {n}")
                checks.equal(
                    record.generated_tokens, sum(len(out) for out in full[:n]),
                    f"sampled tokens of {item.id} at budget {n}",
                )
        checks.equal(sha256_file(self.world.checkpoint), self.world.checkpoint_sha256, "checkpoint bytes")


WORKLOADS = {w.name: w for w in (HiddenRule, SelfGenerated, CompareBaselines)}
