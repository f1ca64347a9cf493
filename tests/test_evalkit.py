import csv
import json
import re
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quest.adapters import spec_for_all_modules
from quest.backend import ModelSession
from quest.backend.reference import _RefCore
from quest import engine
from quest.engine import OptConfig
from quest.evalkit import (
    BenchmarkItem,
    EvalRecord,
    answers_equivalent,
    emit_report,
    evaluate,
    extract_boxed,
    extract_choice,
    item_to_query,
    load_benchmark,
    majority_vote,
    normalize_answer,
)

from quest.supervision import GenConfig, Query, format_answer_prompt

from conftest import StubBackend

FIXTURE = Path(__file__).parent / "data" / "equivalence_fixture.jsonl"


def fixture_cases():
    return [json.loads(line) for line in FIXTURE.read_text().splitlines() if line.strip()]


class TestExtractBoxed:
    def test_simple(self):
        assert extract_boxed("thus \\boxed{42}.") == "42"

    def test_nested_braces(self):
        assert extract_boxed("\\boxed{\\frac{1}{2}}") == "\\frac{1}{2}"

    def test_last_of_two(self):
        assert extract_boxed("\\boxed{1} and \\boxed{2}") == "2"

    def test_absent(self):
        assert extract_boxed("no answer") is None

    def test_unbalanced(self):
        assert extract_boxed("\\boxed{open") is None

    def test_last_balanced_wins_over_trailing_junk(self):
        assert extract_boxed("\\boxed{ok} later \\boxed{broken") == "ok"

    @given(st.text(alphabet="ab{}\\dexo1", max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_never_returns_unbalanced(self, text):
        out = extract_boxed(text)
        if out is not None:
            assert out.count("{") == out.count("}")


class TestExtractChoice:
    def test_boxed_letter(self):
        assert extract_choice("\\boxed{C}", 4) == "C"

    def test_answer_context(self):
        assert extract_choice("The answer is (B).", 4) == "B"
        # the letter must stand alone: "clearly" and "approximately" are words
        assert extract_choice("I think the answer is clearly B", 4) == "B"
        assert extract_choice("The answer is approximately (D)", 4) == "D"

    def test_out_of_range_boxed(self):
        assert extract_choice("\\boxed{E}", 4) is None

    def test_final_standalone_letter(self):
        assert extract_choice("after weighing options: D", 4) == "D"

    def test_case_insensitive_context(self):
        assert extract_choice("ANSWER: c", 4) == "C"

    def test_none_when_no_signal(self):
        assert extract_choice("it is unclear", 4) is None


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,want",
        [
            (" \\frac{1}{2} ", "1/2"),
            ("042", "42"),
            ("1,000", "1000"),
            ("$3$", "3"),
            ("\\left(1,2\\right)", "(1,2)"),
            ("7.", "7"),
            ("\\dfrac{a}{b}", "a/b"),
            ("Two Words", "two words"),
            ("\\text{odd}", "odd"),
            ("-042", "-42"),
        ],
    )
    def test_rules(self, raw, want):
        assert normalize_answer(raw) == want

    @given(st.text(alphabet="0123456789abzABZ./,${} \\", max_size=30))
    @example(". .")
    @example("1. .")
    @example("$1$.")
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once


class TestEquivalence:
    def test_rational_vs_decimal_exact(self):
        assert answers_equivalent("1/2", "0.5")

    def test_decimal_tolerance_against_fraction(self):
        # |0.3333333 - 1/3| = 1/30000000, under the 1e-6 relative tolerance
        assert abs(Fraction("0.3333333") - Fraction(1, 3)) < Fraction(1, 10**6)
        assert answers_equivalent("0.3333333", "1/3")
        assert not answers_equivalent("0.3333", "1/3")

    def test_plain_mismatch(self):
        assert not answers_equivalent("12", "13")

    def test_exact_rationals_not_tolerance_matched(self):
        # rational forms compare exactly: a nearby but unequal fraction is wrong
        assert not answers_equivalent("1000000/3000001", "1/3")
        assert answers_equivalent("2/6", "1/3")

    @given(st.text(alphabet="0123456789ab./-", max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_reflexive(self, s):
        assert answers_equivalent(s, s)

    @given(
        st.sampled_from(["1/2", "0.5", "3", "03", "x", "-2", "2e0", "0.499999", "1/3"]),
        st.sampled_from(["1/2", "0.5", "3", "03", "x", "-2", "2e0", "0.499999", "1/3"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, a, b):
        assert answers_equivalent(a, b) == answers_equivalent(b, a)

    def test_fixture_passes_50_of_50(self):
        cases = fixture_cases()
        assert len(cases) == 50
        for case in cases:
            extracted = extract_boxed(case["output"])
            got = extracted is not None and answers_equivalent(extracted, case["gold"])
            assert got is case["verdict"], f"{case['output']!r} vs {case['gold']!r}"


def oracle_vote(answers):
    """Exact-value grouping oracle: group by Fraction value (string key when
    non-numeric), return earliest representative of the largest group."""

    def key(s):
        text = normalize_answer(s)
        m = re.fullmatch(r"([+-]?\d+)\s*/\s*([+-]?\d+)", text)
        try:
            if m:
                return ("num", Fraction(int(m.group(1)), int(m.group(2))))
            return ("num", Fraction(text))
        except (ValueError, ZeroDivisionError):
            return ("str", text)

    groups = {}
    for idx, ans in enumerate(answers):
        if ans is None:
            continue
        entry = groups.setdefault(key(ans), [0, idx, ans])
        entry[0] += 1
    if not groups:
        return None
    count, first, rep = max(groups.values(), key=lambda g: (g[0], -g[1]))
    return rep


class TestMajorityVote:
    def test_simple_majority(self):
        assert majority_vote(["4", "4", "5"]) == "4"

    def test_equivalence_grouping(self):
        assert majority_vote(["1/2", "0.5", "3"]) == "1/2"

    def test_all_absent(self):
        assert majority_vote([None, None]) is None

    def test_tie_prefers_earliest_group(self):
        assert majority_vote(["7", "9", "9", "7"]) == "7"

    def test_matches_brute_force_oracle(self):
        pool = ["4", "4.0", "8/2", "0.5", "1/2", "3", "03", "5", "five", "-1", None]
        rng = np.random.default_rng(0)
        for _ in range(1000):
            answers = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 8))]
            assert majority_vote(answers) == oracle_vote(answers)


class TestLoadBenchmark:
    def test_two_items(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text(
            '{"problem": "1+1?", "answer": "2"}\n{"id": "x", "problem": "2+2?", "answer": "4"}\n'
        )
        items = load_benchmark(path)
        assert len(items) == 2
        assert items[0].id == "0000" and items[1].id == "x"

    def test_missing_answer_reports_line(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"problem": "ok", "answer": "1"}\n{"problem": "broken"}\n')
        with pytest.raises(ValueError, match=":2"):
            load_benchmark(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text("not-json\n")
        with pytest.raises(ValueError, match=":1"):
            load_benchmark(path)

    def test_gsm8k_gold_rule(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        answer = "Natalia sold 48/2 = 24 clips.\\n#### 1,242"
        path.write_text(json.dumps({"problem": "p", "answer": answer}) + "\n")
        assert load_benchmark(path)[0].answer == "1242"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text(
            '{"id": "a", "problem": "p", "answer": "1"}\n'
            '{"id": "b", "problem": "p", "answer": "1"}\n'
            '{"id": "a", "problem": "q", "answer": "2"}\n'
        )
        with pytest.raises(ValueError, match=r"bench\.jsonl:3: duplicate id 'a' \(first on line 1"):
            load_benchmark(path)

    @pytest.mark.parametrize("bad", ["", ".", "..", "../escape", "a/b", "a\\b"])
    def test_id_must_be_plain_name(self, tmp_path, bad):
        path = tmp_path / "bench.jsonl"
        lines = [{"problem": "p", "answer": "1"}, {"id": bad, "problem": "p", "answer": "1"}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        with pytest.raises(ValueError, match=r"bench\.jsonl:2: id .* is not a plain name"):
            load_benchmark(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"problem answer"', "expected a JSON object, got 'problem answer'"),
            ('{"problem": "   ", "answer": "1"}', "item 0001: problem is blank"),
            ('{"problem": "p", "answer": "   "}', "item 0001: answer is blank"),
            ('{"problem": "p", "answer": "#### "}', "item 0001: answer is blank"),
            ('{"problem": null, "answer": "1"}', "problem must be text, got None"),
            ('{"problem": 7, "answer": "1"}', "problem must be text, got 7"),
            ('{"problem": "p", "answer": null}', "answer must be text or an integer, got None"),
            ('{"problem": "p", "answer": true}', "answer must be text or an integer, got True"),
            ('{"problem": "p", "answer": [1, 2]}', "answer must be text or an integer, got [1, 2]"),
            ('{"id": null, "problem": "p", "answer": "1"}', "id must be text or an integer, got None"),
            ('{"id": false, "problem": "p", "answer": "1"}', "id must be text or an integer, got False"),
        ],
    )
    def test_fields_must_hold_text(self, tmp_path, line, message):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"problem": "p", "answer": 1}\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bench.jsonl:2: {message}")):
            load_benchmark(path)

    def test_integer_answer_and_id_read_as_text(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"id": 7, "problem": "p", "answer": 42}\n')
        (item,) = load_benchmark(path)
        assert (item.id, item.answer) == ("7", "42")

    def test_item_with_blank_problem_rejected(self):
        with pytest.raises(ValueError, match="item x: problem is blank"):
            BenchmarkItem(id="x", problem=" \n", answer="1")

    def test_choice_mode_validation(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        letters = [chr(ord("A") + k) for k in range(27)]
        for choices, answer, message in (
            (["w", "x", "y", "z"], "E", "gold 'E' outside choices A..D"),
            (["w", "x", "y", "z"], "AB", "gold 'AB' outside choices A..D"),
            ("ABCD", "A", "choices must be a list of strings, got 'ABCD'"),
            (["w", 2], "A", "choices must be a list of strings, got ['w', 2]"),
            ([], "A", "0 choices, not 1 to 26"),
            (letters, "A", "27 choices, not 1 to 26"),
        ):
            lines = [
                {"problem": "p", "answer": "1"}, {"problem": "q", "answer": answer, "choices": choices}
            ]
            path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
            with pytest.raises(ValueError, match=r"bench\.jsonl:2: .*" + re.escape(message)):
                load_benchmark(path)
        path.write_text(json.dumps({"problem": "p", "answer": "z", "choices": letters[:26]}) + "\n")
        assert load_benchmark(path)[0].choices == tuple(letters[:26])

    def test_choice_item_query_rendered(self):
        item = BenchmarkItem(id="g1", problem="Pick one.", answer="B", choices=("u", "v"))
        query = item_to_query(item, system_prompt="S")
        assert query.text == "Pick one.\n(A) u\n(B) v" and query.n_choices == 2
        boxed = item_to_query(BenchmarkItem(id="g2", problem="Sum?", answer="3"), system_prompt="S")
        assert boxed.text == "Sum?" and boxed.n_choices == 0


def gold_echo_stub(items):
    lookup = {item.problem: item.answer for item in items}

    def fn(prompt, call):
        for problem, answer in lookup.items():
            if problem in prompt:
                return f"\\boxed{{{answer}}}"
        return "\\boxed{???}"

    return StubBackend(fn)


class TestEvaluate:
    def _items(self, n=4):
        return [
            BenchmarkItem(id=f"i{k}", problem=f"problem number {k}?", answer=str(k)) for k in range(n)
        ]

    def test_echo_stub_scores_perfectly(self):
        items = self._items()
        sess = ModelSession(backend=gold_echo_stub(items), seed=0)
        records, (summary,) = evaluate(sess, items, "base", max_new_tokens=64)
        assert summary["accuracy"] == 1.0
        assert all(r.correct for r in records)

    def test_empty_items_rejected(self, session):
        with pytest.raises(ValueError, match="no benchmark items"):
            evaluate(session, [], "base")

    def test_unknown_method_rejected(self, session):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(session, self._items(1), "magic")

    @pytest.mark.parametrize(
        "budgets, temperature, message",
        [
            ((2,), 0.0, "sc_temperature must be finite and > 0, got 0.0"),
            ((0,), 0.8, "positive budgets"),
            ((), 0.8, "positive budgets"),
            ((4, -1), 0.8, "positive budgets"),
            ((1, 2, 2), 0.8, "repeats a budget: 1,2,2"),
        ],
        ids=[
            "2-0.0-temperature > 0", "0-0.8-n_samples must be positive", "empty", "negative", "repeated",
        ],
    )
    def test_unusable_sampling_fails_before_any_item(self, budgets, temperature, message):
        stub = StubBackend(lambda prompt, call: "\\boxed{1}")
        sess = ModelSession(backend=stub, seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate(sess, self._items(3), "sc", sc_samples=budgets, sc_temperature=temperature)
        assert stub.calls == 0

    def test_recount_matches_summary(self):
        items = self._items(5)
        sess = ModelSession(backend=gold_echo_stub(items[:3]), seed=0)  # 2 items miss
        records, (summary,) = evaluate(sess, items, "base", max_new_tokens=64)
        assert summary["accuracy"] == sum(r.correct for r in records) / len(records)
        assert summary["total_tokens"] == sum(r.total_tokens for r in records)
        assert summary["mean_tokens"] == summary["total_tokens"] / len(records)

    def test_item_error_recorded_not_fatal(self):
        items = self._items(3)

        def fn(prompt, call):
            if items[1].problem in prompt:
                raise RuntimeError("backend exploded")
            for item in items:
                if item.problem in prompt:
                    return f"\\boxed{{{item.answer}}}"
            return ""

        sess = ModelSession(backend=StubBackend(fn), seed=0)
        records, (summary,) = evaluate(sess, items, "base", max_new_tokens=64)
        assert len(records) == 3
        failed = [r for r in records if r.error]
        assert len(failed) == 1 and not failed[0].correct
        assert "backend exploded" in failed[0].error
        assert summary["accuracy"] == pytest.approx(2 / 3)

    def test_choice_mode_scoring(self):
        items = [BenchmarkItem(id="c0", problem="pick", answer="B", choices=("p", "q", "r"))]
        sess = ModelSession(backend=StubBackend(lambda p, c: "the answer is (B)"), seed=0)
        records, (summary,) = evaluate(sess, items, "base", max_new_tokens=64)
        assert records[0].extracted == "B" and summary["accuracy"] == 1.0
        # with no flag the item's choices alone make every method answer by
        # letter: a boxed reading would take the one boxed "C" as sc's vote
        replies = ["the answer is (B)", "\\boxed{C}", "(B)"]
        for method in ("base", "tlm", "sc"):
            prompts = []

            def reply(prompt, call):
                prompts.append(prompt)
                return replies[(call - 1) % len(replies)]

            stub = StubBackend(reply)
            records, (summary,) = evaluate(
                ModelSession(backend=stub, seed=0), items, method, max_new_tokens=64,
                adapter_spec=spec_for_all_modules(stub.adaptable_modules(), rank=2),
                opt_cfg=OptConfig(steps=1), sc_samples=(3,),
            )
            assert records[0].extracted == "B" and summary["accuracy"] == 1.0, method
            assert all("pick\n(A) p\n(B) q\n(C) r\n" in prompt for prompt in prompts)


class WithoutPrefetch:
    """A backend with its ``prefetch`` hidden: every ``generate`` decodes."""

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, name):
        if name == "prefetch":
            raise AttributeError(name)
        return getattr(self._backend, name)


class SilentOn:
    """The pattern stub, except that it writes no pairs for one symbol."""

    def __init__(self, stub, sym):
        self._stub, self._sym = stub, sym

    def __getattr__(self, name):
        return getattr(self._stub, name)

    def generate(self, prompt, max_new_tokens, temperature, adapter=None, seed=None):
        if f"Q: {self._sym} ->" in self.detokenize(prompt):
            return self.tokenize("no pairs here")
        return self._stub.generate(prompt, max_new_tokens, temperature, seed=seed)


class TestLockstepAnswers:
    """``evaluate`` answers all items together; its records equal those of
    a backend that decodes every ``generate`` call alone."""

    SETTINGS = dict(
        gen_cfg=GenConfig(n_pairs=3, max_new_tokens=32, temperature=0.8),
        opt_cfg=OptConfig(steps=3, lr=3e-3, grad_accumulation=2),
        sc_samples=(4, 1), sc_temperature=0.8, max_new_tokens=16, seed=4, system_prompt="",
    )

    def _run(self, pattern_world, backend, items, method):
        ref = pattern_world["backend"]
        spec = spec_for_all_modules(ref.adaptable_modules(), rank=4, alpha=8)
        generator = ModelSession(backend=SilentOn(pattern_world["stub"], "k"), seed=0)
        records, _ = evaluate(
            ModelSession(backend=backend, seed=0), items, method,
            adapter_spec=spec, generator_session=generator, **self.SETTINGS,
        )
        return [{k: v for k, v in asdict(r).items() if k != "wall_seconds"} for r in records]

    @pytest.mark.parametrize("method", ["base", "tent", "tlm", "quest", "quest_no_lora", "sc"])
    def test_records_match_decoding_alone(self, pattern_world, method):
        ref = pattern_world["backend"]
        items = [
            BenchmarkItem(id=f"i{k}", problem=f"Q: {sym} ->\nA:", answer=f"{sym}v")
            for k, sym in enumerate("dkpqr")
        ]
        lockstep = self._run(pattern_world, ref.with_params(ref.params), items, method)
        alone = self._run(pattern_world, WithoutPrefetch(ref.with_params(ref.params)), items, method)
        assert lockstep == alone
        assert all(r["error"] is None for r in lockstep)
        if method == "quest":
            # item i1 ("k") got no pairs and fell back to the base answer
            assert [bool(r["loss_trajectory"]) for r in lockstep] == [True, False, True, True, True]

    def test_one_round_of_greedy_and_sampled_runners(self, pattern_world):
        ref = pattern_world["backend"]
        spec = spec_for_all_modules(ref.adaptable_modules(), rank=4, alpha=8)
        opt = self.SETTINGS["opt_cfg"]

        class CountingPrefetch(WithoutPrefetch):
            def __init__(self, backend):
                super().__init__(backend)
                self.calls = []

            def prefetch(self, requests):
                self.calls.append(list(requests))
                return self._backend.prefetch(requests)

        def results(backend):
            runners = []
            for k, sym in enumerate("dkp"):
                session = ModelSession(backend=backend, seed=k)
                query = Query(f"i{k}", f"Q: {sym} ->\nA:", "")
                runners += [
                    engine._base_steps(session, query, max_new_tokens=16),
                    engine._objective_steps(
                        session, query, spec=spec, opt_cfg=opt, loss="entropy", max_new_tokens=16
                    ),
                    engine._sc_steps(session, query, budgets=(4,), temperature=0.8, max_new_tokens=16),
                ]
            results = []
            for outcome, _ in engine.run_together(backend, runners):
                # self-consistency returns one result per budget
                results += outcome if isinstance(outcome, list) else [outcome]
            return [(r.answer_text, r.extracted, asdict(r.telemetry)) for r in results]

        counting = CountingPrefetch(ref.with_params(ref.params))
        lockstep = results(counting)
        (requests,) = counting.calls
        assert sorted({(r.max_new_tokens, r.temperature) for r in requests}) == [(16, 0.0), (16, 0.8)]
        assert len(requests) == 3 * (1 + 1 + 4)
        assert lockstep == results(WithoutPrefetch(ref.with_params(ref.params)))

    def test_a_failing_item_keeps_its_error(self, pattern_world, monkeypatch, one_decode_process):
        ref = pattern_world["backend"]
        items = [BenchmarkItem(id=f"i{k}", problem=f"Q: {sym} ->\nA:", answer="x") for k, sym in enumerate("dkpq")]
        items.insert(2, BenchmarkItem(id="long", problem="Q: " + "d" * ref.max_len, answer="x"))
        cached = []
        forward = _RefCore.forward

        def counting(self, ids, *args, **kwargs):
            if kwargs.get("kv") is not None:
                cached.append((np.shape(ids), kwargs.get("start", 0)))
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(_RefCore, "forward", counting)
        records = self._run(pattern_world, ref.with_params(ref.params), items, "tent")
        assert [r["error"] is not None for r in records] == [False, False, True, False, False]
        assert "exceeds max length" in records[2]["error"]
        n_prompt = len(ref.tokenize(format_answer_prompt("Q: d ->\nA:", "")))
        # the four other answers decode as one group, under their own adapters:
        # each prompt is fed alone, then every step feeds all four rows
        assert cached[:5] == [((1, n_prompt), 0)] * 4 + [((4, 1), n_prompt)]


def make_record(method, item_id, correct, tokens, n_samples=None, seconds=0.25):
    return EvalRecord(
        item_id=item_id,
        method=method,
        raw_output="",
        extracted="1" if correct else None,
        correct=correct,
        generated_tokens=tokens,
        trained_tokens=0,
        wall_seconds=seconds,
        n_samples=n_samples,
    )


class TestEmitReport:
    def test_accuracy_row(self, tmp_path):
        records = [make_record("base", f"i{k}", k < 7, 10) for k in range(10)]
        paths = emit_report(records, tmp_path, benchmark="toy")
        rows = paths["results"].read_text().splitlines()
        assert rows[0] == "method,benchmark,accuracy,mean_tokens,mean_seconds"
        assert rows[1].startswith("base,toy,0.7000,10.00")

    @pytest.mark.parametrize("name", ["math,v2", 'say "hi"', 'a,"b",c'])
    def test_benchmark_name_is_one_field(self, tmp_path, name):
        records = [make_record("base", "i0", True, 3, seconds=0.1)]
        paths = emit_report(records, tmp_path, benchmark=name)
        with open(paths["results"], newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[1] == ["base", name, "1.0000", "3.00", "0.1000"]
        assert all(len(row) == 5 for row in rows)

    def test_curve_tokens_increase_with_samples(self, tmp_path):
        records = []
        for n in (1, 2, 4):
            records += [
                make_record("self_consistency", f"i{k}", True, 100 * n, n_samples=n)
                for k in range(5)
            ]
        paths = emit_report(records, tmp_path)
        rows = [r.split(",") for r in paths["curve"].read_text().splitlines()[1:]]
        tokens = [float(r[2]) for r in rows]
        assert [r[1] for r in rows] == ["1", "2", "4"]
        assert tokens == sorted(tokens) and tokens[0] < tokens[-1]

    def test_budgets_sort_as_numbers(self, tmp_path):
        records = [
            make_record("self_consistency", "i0", True, 10 * n, n_samples=n) for n in (16, 2)
        ] + [make_record("base", "i0", True, 5)]
        paths = emit_report(records, tmp_path)
        results = [r.split(",")[0] for r in paths["results"].read_text().splitlines()[1:]]
        assert results == ["base", "self_consistency@2", "self_consistency@16"]
        curve = [r.split(",")[:2] for r in paths["curve"].read_text().splitlines()[1:]]
        assert curve == [["base", ""], ["self_consistency", "2"], ["self_consistency", "16"]]

    def test_reemit_is_byte_identical(self, tmp_path):
        records = [make_record("quest", f"i{k}", k % 2 == 0, 37 + k) for k in range(4)]
        first = emit_report(records, tmp_path)
        blobs = {name: path.read_bytes() for name, path in first.items()}
        second = emit_report(records, tmp_path)
        assert {name: path.read_bytes() for name, path in second.items()} == blobs

    def test_records_round_trip(self, tmp_path):
        records = [make_record("tent", "i0", True, 5)]
        paths = emit_report(records, tmp_path)
        loaded = [
            EvalRecord.from_dict(json.loads(line))
            for line in paths["records"].read_text().splitlines()
        ]
        assert loaded == records
