import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quest.backend import ModelSession
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

    def test_choice_mode_validation(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"problem": "p", "answer": "E", "choices": ["w", "x", "y", "z"]}\n')
        with pytest.raises(ValueError, match="outside choices"):
            load_benchmark(path, mode="choice-letter")

    def test_choice_item_query_rendered(self):
        item = BenchmarkItem(
            id="g1", problem="Pick one.", answer="B", mode="choice-letter", choices=("u", "v")
        )
        query = item_to_query(item, system_prompt="S")
        assert "(A) u" in query.text and "(B) v" in query.text


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
        records, summary = evaluate(sess, items, "base", max_new_tokens=64)
        assert summary["accuracy"] == 1.0
        assert all(r.correct for r in records)

    def test_empty_items_rejected(self, session):
        with pytest.raises(ValueError, match="no benchmark items"):
            evaluate(session, [], "base")

    def test_unknown_method_rejected(self, session):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(session, self._items(1), "magic")

    def test_recount_matches_summary(self):
        items = self._items(5)
        sess = ModelSession(backend=gold_echo_stub(items[:3]), seed=0)  # 2 items miss
        records, summary = evaluate(sess, items, "base", max_new_tokens=64)
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
        records, summary = evaluate(sess, items, "base", max_new_tokens=64)
        assert len(records) == 3
        failed = [r for r in records if r.error]
        assert len(failed) == 1 and not failed[0].correct
        assert "backend exploded" in failed[0].error
        assert summary["accuracy"] == pytest.approx(2 / 3)

    def test_choice_mode_scoring(self):
        items = [
            BenchmarkItem(
                id="c0", problem="pick", answer="B", mode="choice-letter", choices=("p", "q", "r")
            )
        ]
        sess = ModelSession(backend=StubBackend(lambda p, c: "the answer is (B)"), seed=0)
        records, summary = evaluate(sess, items, "base", max_new_tokens=64)
        assert records[0].extracted == "B" and summary["accuracy"] == 1.0


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
