import json
import re

import numpy as np
import pytest

from quest.backend import ModelSession
from quest.backend.reference import _RefCore
from quest.supervision import (
    AuxPair,
    GenConfig,
    ParseFailure,
    Query,
    SolutionTruncated,
    build_generation_prompt,
    build_unconditioned_prompt,
    dump_pairs,
    format_answer_prompt,
    generate_dataset,
    generate_unconditioned_dataset,
    load_pairs,
    make_training_example,
    parse_pairs,
)

from conftest import StubBackend

WELL_FORMED = "<problem>P</problem><solution>S</solution>"


class TestTypes:
    def test_query_requires_text(self):
        with pytest.raises(ValueError):
            Query(id="q", text="   ")

    def test_aux_pair_requires_both_fields(self):
        with pytest.raises(ValueError):
            AuxPair(problem="p", solution=" ")

    def test_gen_config_defaults(self):
        cfg = GenConfig()
        assert cfg.n_pairs == 5 and cfg.max_new_tokens == 4096


class TestPrompts:
    def test_contains_query_verbatim(self):
        q = Query(id="q", text="Find the area of a hexagon with side 4.")
        assert q.text in build_generation_prompt(q, 1)

    def test_index_is_only_difference(self):
        q = Query(id="q", text="Compute 2+2.")
        p0 = build_generation_prompt(q, 0).replace("problem 0", "problem N")
        p1 = build_generation_prompt(q, 1).replace("problem 1", "problem N")
        assert p0 == p1

    def test_unconditioned_never_mentions_query(self):
        q = Query(id="q", text="UNIQUEMARKER 9137")
        prompt = build_unconditioned_prompt(3, domain="mathematics")
        assert "UNIQUEMARKER" not in prompt and "9137" not in prompt

    def test_answer_prompt_layout(self):
        assert format_answer_prompt("P", "SYS") == "SYS\nP\n"
        assert format_answer_prompt("P") == "P\n"


class TestParsePairs:
    def test_single_pair(self):
        pairs = parse_pairs(WELL_FORMED)
        assert [(p.problem, p.solution) for p in pairs] == [("P", "S")]

    def test_missing_solution_is_failure(self):
        result = parse_pairs("<problem>P</problem>")
        assert isinstance(result, ParseFailure)
        assert result.raw == "<problem>P</problem>"

    def test_two_pairs_in_order(self):
        raw = (
            "<problem>A</problem><solution>1</solution>"
            "chatter <problem>B</problem><solution>2</solution>"
        )
        pairs = parse_pairs(raw)
        assert [(p.problem, p.solution) for p in pairs] == [("A", "1"), ("B", "2")]

    def test_empty_body_rejected(self):
        assert isinstance(parse_pairs("<problem> </problem><solution>S</solution>"), ParseFailure)

    def test_unmatched_trailing_delimiter(self):
        result = parse_pairs(WELL_FORMED + "</solution>")
        assert isinstance(result, ParseFailure)
        assert "unmatched" in result.reason

    def test_no_delimiters(self):
        assert isinstance(parse_pairs("just prose"), ParseFailure)

    def test_surrounding_chatter_allowed(self):
        pairs = parse_pairs(f"Sure! Here you go. {WELL_FORMED} Hope that helps.")
        assert len(pairs) == 1


class TestGenerateDataset:
    def test_stub_yields_exactly_n(self):
        stub = StubBackend(lambda prompt, call: WELL_FORMED)
        sess = ModelSession(backend=stub, seed=0)
        q = Query(id="q", text="anything")
        gen = generate_dataset(sess, q, GenConfig(n_pairs=5, max_new_tokens=512))
        assert len(gen.pairs) == 5
        assert all(p.conditioned for p in gen.pairs)
        assert [p.source_index for p in gen.pairs] == [1, 2, 3, 4, 5]

    def test_never_parses_gives_empty_after_budget(self):
        stub = StubBackend(lambda prompt, call: "no delimiters here")
        sess = ModelSession(backend=stub, seed=0)
        cfg = GenConfig(n_pairs=5, max_new_tokens=64, max_parse_retries=2)
        gen = generate_dataset(sess, Query(id="q", text="x"), cfg)
        assert gen.pairs == ()
        assert stub.calls == 5 * 3  # n * (retries + 1)

    def test_token_telemetry_counts_failures(self):
        texts = iter(["garbage", WELL_FORMED] * 5)
        stub = StubBackend(lambda prompt, call: next(texts))
        sess = ModelSession(backend=stub, seed=0)
        cfg = GenConfig(n_pairs=2, max_new_tokens=512, max_parse_retries=2)
        gen = generate_dataset(sess, Query(id="q", text="x"), cfg)
        assert len(gen.pairs) == 2
        expected = 2 * (len("garbage") + len(WELL_FORMED))
        assert gen.generated_tokens == expected
        assert gen.calls == 4

    def test_unconditioned_flags_and_prompt(self):
        seen = []

        def fn(prompt, call):
            seen.append(prompt)
            return WELL_FORMED

        sess = ModelSession(backend=StubBackend(fn), seed=0)
        gen = generate_unconditioned_dataset(sess, GenConfig(n_pairs=3, max_new_tokens=512))
        assert all(not p.conditioned for p in gen.pairs)
        assert all("practice problem" in p for p in seen)

    def test_retry_uses_fresh_seed(self, ab_backend):
        # real backend: retries must not replay the identical failed sample
        seeds_seen = []

        class Recorder:
            name = "rec"
            vocab_size = ab_backend.vocab_size
            max_len = 100000
            eos_id = 0
            tokenize = staticmethod(ab_backend.tokenize)
            detokenize = staticmethod(ab_backend.detokenize)

            def adaptable_modules(self):
                return []

            def generate(self, prompt, max_new, temperature, adapter=None, seed=None):
                seeds_seen.append(seed)
                return self.tokenize("nope")

        sess = ModelSession(backend=Recorder(), seed=3)
        generate_dataset(sess, Query(id="q", text="x"), GenConfig(n_pairs=1, max_parse_retries=2))
        assert len(seeds_seen) == len(set(seeds_seen)) == 3

    def test_first_attempts_decode_in_lockstep(self, fresh_backend, monkeypatch):
        # an untrained model samples unparseable text, so every slot retries
        prefills = []
        forward = _RefCore.forward

        def counting(self, ids, *args, **kwargs):
            if kwargs.get("kv") is not None and not kwargs.get("start"):
                prefills.append(np.shape(ids))
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(_RefCore, "forward", counting)
        query = Query(id="q", text="1 + 1 =")
        cfg = GenConfig(n_pairs=4, max_new_tokens=8, max_parse_retries=1)
        backend = fresh_backend.with_params(fresh_backend.params)
        lockstep = generate_dataset(ModelSession(backend=backend, seed=3), query, cfg)
        n_prompt = len(backend.tokenize(build_generation_prompt(query, 1)))
        # the four first attempts share one forward, and so do the four retries
        assert prefills == [(4, n_prompt)] * 2
        assert lockstep.calls == 8

        class WithoutPrefetch:
            def __init__(self, backend):
                self._backend = backend

            def __getattr__(self, name):
                if name == "prefetch":
                    raise AttributeError(name)
                return getattr(self._backend, name)

        fresh = WithoutPrefetch(fresh_backend.with_params(fresh_backend.params))
        alone = generate_dataset(ModelSession(backend=fresh, seed=3), query, cfg)
        assert alone == lockstep and alone.generated_tokens > 0


class TestTrainingExample:
    def test_mask_shape_and_sum(self, fresh_backend):
        pair = AuxPair(problem="What is 1+1?", solution="2")
        tokens, mask = make_training_example(pair, fresh_backend)
        assert len(tokens) == len(mask)
        assert sum(mask) == len(fresh_backend.tokenize("2")) + 1  # + end marker
        assert mask[0] == 0

    def test_masked_targets_reproduce_solution(self, fresh_backend):
        pair = AuxPair(problem="Compute 3*4.", solution="12 because 3*4=12")
        tokens, mask = make_training_example(pair, fresh_backend)
        target_ids = [t for t, m in zip(tokens, mask) if m]
        assert fresh_backend.detokenize(target_ids) == pair.solution

    def test_ends_with_eos(self, fresh_backend):
        pair = AuxPair(problem="p?", solution="s")
        tokens, mask = make_training_example(pair, fresh_backend)
        assert tokens[-1] == fresh_backend.eos_id and mask[-1] == 1

    def test_truncation_warns_and_clips(self, fresh_backend, caplog):
        pair = AuxPair(problem="p" * 40, solution="s" * 400)
        with caplog.at_level("WARNING"):
            tokens, mask = make_training_example(pair, fresh_backend)
        assert len(tokens) == fresh_backend.max_len
        assert "truncated" in caplog.text

    def test_fully_truncated_solution_invalid(self, fresh_backend):
        pair = AuxPair(problem="p" * 500, solution="s")
        with pytest.raises(SolutionTruncated):
            make_training_example(pair, fresh_backend)

    def test_max_seq_len_caps_below_backend_limit(self, fresh_backend):
        pair = AuxPair(problem="pp", solution="s" * 100)
        tokens, _ = make_training_example(pair, fresh_backend, max_seq_len=32)
        assert len(tokens) == 32

    def test_system_prompt_prepended_and_unmasked(self, fresh_backend):
        pair = AuxPair(problem="p?", solution="s")
        tokens, mask = make_training_example(pair, fresh_backend, system_prompt="SYS")
        n_prompt = len(fresh_backend.tokenize(format_answer_prompt("p?", "SYS")))
        assert mask[:n_prompt] == [0] * n_prompt


class TestPairFiles:
    def test_round_trip(self, tmp_path):
        pairs = [
            AuxPair(problem="a?", solution="1", source_index=1, conditioned=True, gen_tokens=7),
            AuxPair(problem="b?", solution="2", source_index=2, conditioned=False, gen_tokens=9),
        ]
        path = tmp_path / "pairs.jsonl"
        dump_pairs(pairs, path, query_id="q7")
        assert [json.loads(l)["query_id"] for l in path.read_text().splitlines()] == ["q7", "q7"]
        loaded = load_pairs(path)
        assert loaded == pairs

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"problem": "p", "solution": "s"}\n{"problem": "only"}\n')
        with pytest.raises(ValueError, match=":2:"):
            load_pairs(path)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ([1, 2], "expected a JSON object, got [1, 2]"),
            ({"problem": 3, "solution": "s"}, "problem must be str, got 3"),
            ({"problem": "p", "solution": None}, "solution must be str, got None"),
            ({"problem": "p", "solution": "s", "index": None}, "index must be int, got None"),
            ({"problem": "p", "solution": "s", "index": True}, "index must be int, got True"),
            ({"problem": "p", "solution": "s", "conditioned": "false"}, "conditioned must be bool, got 'false'"),
            ({"problem": "p", "solution": "s", "gen_tokens": 1.5}, "gen_tokens must be int, got 1.5"),
        ],
    )
    def test_mistyped_line_reports_number(self, tmp_path, bad, reason):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"problem": "p", "solution": "s"}\n' + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"pairs.jsonl:2: malformed pair line ({reason})")):
            load_pairs(path)
