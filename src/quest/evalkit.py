"""Benchmark loading, answer extraction and equivalence, metrics, reports.

The scorer is deliberately conservative: a missing or unextractable answer is
wrong, never excluded from the denominator. Equivalence goes exact-rational
first (fractions and integers compared as exact rationals) and falls back to
a 1e-6 relative tolerance over arbitrary-precision decimal values, so "1/2"
vs "0.5" can never be a false negative.
"""

from __future__ import annotations

import csv
import json
import re
import string
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

# -- extraction -----------------------------------------------------------------


def extract_boxed(text: str) -> Optional[str]:
    """Content of the last balanced ``\\boxed{...}`` group, nested braces included."""
    if not text:
        return None
    found = None
    i = 0
    marker = "\\boxed{"
    while True:
        start = text.find(marker, i)
        if start < 0:
            break
        depth = 1
        j = start + len(marker)
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        if depth == 0:
            found = text[start + len(marker) : j - 1].strip()
            i = j
        else:
            i = start + len(marker)
    return found


_CHOICE_CONTEXT = re.compile(
    r"(?:answer|option|choice)\s*(?:is|:)?\s*\**\(?([A-Za-z])(?![A-Za-z])\)?", re.IGNORECASE
)
_CHOICE_FINAL = re.compile(r"\(?\b([A-Za-z])\)?\s*\.?\s*$")


def extract_choice(text: str, k: int) -> Optional[str]:
    """Choice letter among the first k; boxed wins, else answer-flavored context."""
    letters = string.ascii_uppercase[:k]
    boxed = extract_boxed(text)
    if boxed is not None:
        candidate = re.sub(r"\\text\{(.*)\}", r"\1", boxed).strip().strip("()").strip()
        if len(candidate) == 1 and candidate.isalpha():
            return candidate.upper() if candidate.upper() in letters else None
    matches = [m.group(1).upper() for m in _CHOICE_CONTEXT.finditer(text)]
    for letter in reversed(matches):
        if letter in letters:
            return letter
    tail = _CHOICE_FINAL.search(text.strip())
    if tail and tail.group(1).upper() in letters:
        return tail.group(1).upper()
    return None


def extract_answer(text: str, n_choices: int = 0) -> Optional[str]:
    """The answer in ``text``: a letter among the first ``n_choices`` for a
    multiple-choice query, else the last boxed group."""
    return extract_choice(text, n_choices) if n_choices else extract_boxed(text)


# -- normalization and equivalence ----------------------------------------------

_FRAC = re.compile(r"\\frac\{([^{}]*)\}\{([^{}]*)\}")
_THOUSANDS = re.compile(r"(?<=\d),(?=\d{3}(?:[^\d]|$))")


def normalize_answer(s: str) -> str:
    """Canonical comparison form for boxed math answers; normalizing the
    result again changes nothing."""
    # one pass can expose more to strip ('. .' -> '.'), so passes repeat; a pass
    # only shortens, lowercases or turns whitespace into spaces, so this ends
    prev = None
    while s != prev:
        prev, s = s, _normalize_pass(s)
    return s


def _normalize_pass(s: str) -> str:
    s = s.strip()
    m = re.fullmatch(r"\\text\{(.*)\}", s, re.DOTALL)
    if m:
        s = m.group(1).strip()
    while len(s) >= 2 and s.startswith("$") and s.endswith("$"):
        s = s[1:-1].strip()
    s = s.replace("\\left", "").replace("\\right", "")
    s = s.rstrip(".").strip()
    s = s.replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")
    prev = None
    while prev != s:
        prev = s
        s = _FRAC.sub(r"\1/\2", s)
    s = _THOUSANDS.sub("", s)
    s = re.sub(r"\s+", " ", s).strip()
    s = re.sub(r"^(-?)0+(\d)", r"\1\2", s)
    if re.fullmatch(r"[A-Za-z ]+", s):
        s = s.lower()
    return s


def _rational_form(s: str) -> Optional[Fraction]:
    """Exact rational *notation* only: an integer or an integer fraction."""
    m = re.fullmatch(r"([+-]?\d+)\s*/\s*([+-]?\d+)", s)
    if m:
        den = int(m.group(2))
        return Fraction(int(m.group(1)), den) if den else None
    if re.fullmatch(r"[+-]?\d+", s):
        return Fraction(int(s))
    return None


def _numeric_value(s: str) -> Optional[Fraction]:
    """Exact value of any rational, decimal, or scientific-notation string."""
    rational = _rational_form(s)
    if rational is not None:
        return rational
    try:
        return Fraction(s.replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        return None


def answers_equivalent(a: str, b: str) -> bool:
    """Normalized string match, exact-rational match, then 1e-6 relative
    closeness over exact decimal values; symmetric by construction."""
    if a is None or b is None:
        return False
    na, nb = normalize_answer(str(a)), normalize_answer(str(b))
    if na == nb:
        return True
    ra, rb = _rational_form(na), _rational_form(nb)
    if ra is not None and rb is not None:
        return ra == rb
    va, vb = _numeric_value(na), _numeric_value(nb)
    if va is not None and vb is not None:
        tol = Fraction(1, 10**6) * max(Fraction(1), abs(va), abs(vb))
        return abs(va - vb) <= tol
    return False


def majority_vote(answers: Sequence[Optional[str]]) -> Optional[str]:
    """Largest equivalence group's first-seen representative; ties go to the
    earliest-seen group, absent entries are ignored."""
    groups: list[list] = []  # [representative, count, first_index]
    for idx, ans in enumerate(answers):
        if ans is None:
            continue
        for group in groups:
            if answers_equivalent(ans, group[0]):
                group[1] += 1
                break
        else:
            groups.append([ans, 1, idx])
    if not groups:
        return None
    best = max(groups, key=lambda g: (g[1], -g[2]))
    return best[0]


# -- benchmarks ------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkItem:
    """One benchmark question. An item with ``choices`` is multiple choice: its
    options are rendered into the prompt and it is answered and scored by
    letter, so its gold must be one of its letters."""

    id: str
    problem: str
    answer: str
    choices: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.problem.strip():
            raise ValueError(f"item {self.id}: problem is blank")
        if not self.answer.strip():
            raise ValueError(f"item {self.id}: answer is blank")
        if self.choices is not None:
            if not 1 <= len(self.choices) <= len(string.ascii_uppercase):
                raise ValueError(f"item {self.id}: {len(self.choices)} choices, not 1 to 26")
            letters = tuple(string.ascii_uppercase[: len(self.choices)])
            if self.answer.strip().upper() not in letters:
                raise ValueError(
                    f"item {self.id}: gold {self.answer!r} outside choices A..{letters[-1]}"
                )


def _extract_gold(raw: str) -> str:
    """Benchmark-side gold cleanup, e.g. the GSM8K '#### 42' suffix rule."""
    gold = str(raw)
    if "####" in gold:
        return gold.rsplit("####", 1)[1].strip().replace(",", "")
    return gold.strip()


def load_benchmark(path: Union[str, Path]) -> list[BenchmarkItem]:
    """JSON Lines with fields {id?, problem, answer, choices?}; missing ids become
    zero-padded indices, malformed lines fail with their line number.

    Each line is an object. ``problem`` is text that is not blank; ``answer``,
    and ``id`` when present, are text or an integer, never a bool, and the
    gold read from ``answer`` (after a ``####`` marker) is not blank. Ids name
    per-item directories and seed labels, so each must be unique and one
    plain path component. ``choices``, when present, must be a list of 1 to
    26 strings; it alone makes an item multiple choice, with a gold letter.
    """
    items = []
    line_of_id: dict[str, int] = {}
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {obj!r}")
            for fname in ("problem", "answer"):
                if fname not in obj:
                    raise ValueError(f"{path}:{lineno}: missing field {fname!r}")
            for fname, kinds in (("problem", str), ("answer", (str, int)), ("id", (str, int))):
                value = obj.get(fname, "")
                # a bool is an int to isinstance, and would read as "True"
                if not isinstance(value, kinds) or isinstance(value, bool):
                    kind = "text" if kinds is str else "text or an integer"
                    raise ValueError(f"{path}:{lineno}: {fname} must be {kind}, got {value!r}")
            item_id = str(obj.get("id", f"{len(items):04d}"))
            if item_id in ("", ".", "..") or "/" in item_id or "\\" in item_id:
                raise ValueError(f"{path}:{lineno}: id {item_id!r} is not a plain name")
            if item_id in line_of_id:
                first = line_of_id[item_id]
                raise ValueError(f"{path}:{lineno}: duplicate id {item_id!r} (first on line {first})")
            line_of_id[item_id] = lineno
            choices = obj.get("choices")
            if choices is not None and not (
                isinstance(choices, list) and all(isinstance(c, str) for c in choices)
            ):
                raise ValueError(f"{path}:{lineno}: choices must be a list of strings, got {choices!r}")
            try:
                items.append(
                    BenchmarkItem(
                        id=item_id,
                        problem=obj["problem"],
                        answer=_extract_gold(obj["answer"]),
                        choices=None if choices is None else tuple(choices),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return items


def item_to_query(item: BenchmarkItem, system_prompt: str):
    """The item's query; a multiple-choice item's options follow its problem."""
    from .supervision import Query

    choices = item.choices or ()
    text = "\n".join(
        [item.problem]
        + [f"({letter}) {choice}" for letter, choice in zip(string.ascii_uppercase, choices)]
    )
    return Query(id=item.id, text=text, system_prompt=system_prompt, n_choices=len(choices))


# -- records and evaluation -------------------------------------------------------


@dataclass
class EvalRecord:
    item_id: str
    method: str
    raw_output: str
    extracted: Optional[str]
    correct: bool
    generated_tokens: int
    trained_tokens: int
    wall_seconds: float
    loss_trajectory: list[float] = field(default_factory=list)
    gold: str = ""
    n_samples: Optional[int] = None
    error: Optional[str] = None

    @property
    def total_tokens(self) -> int:
        return self.generated_tokens + self.trained_tokens

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalRecord":
        return cls(**obj)


def _method_key(record: EvalRecord) -> str:
    if record.n_samples is None:
        return record.method
    return f"{record.method}@{record.n_samples}"


def evaluate(
    session,
    items: Sequence[BenchmarkItem],
    method: str,
    *,
    gen_cfg=None,
    adapter_spec=None,
    opt_cfg=None,
    sc_samples: Sequence[int] = (8,),
    sc_temperature: float = 0.8,
    max_new_tokens: int = 4096,
    seed: int = 0,
    system_prompt: Optional[str] = None,
    generator_session=None,
) -> tuple[list[EvalRecord], list[dict]]:
    """Run one method (a name or alias of ``engine.METHODS``) over a benchmark
    with a fresh adapter per item.

    Every item is fitted first (pair generation and adaptation, one item at
    a time), then the answers of all items decode together
    (``engine.run_together``). A record's ``wall_seconds`` is its item's own
    running time plus its share of the lock-step decoding.

    A sampled method runs once for every budget of ``sc_samples``: each item
    draws the largest budget's samples, and budget n votes on the first n.
    Records come budget-major, in the order of ``sc_samples``, with one
    summary per budget (an unsampled method has one); every budget's record
    of an item carries the item's seconds.

    Budgets that are empty, repeated or not positive, or a temperature that
    cannot sample, fail before any item runs. Per-item errors are recorded
    as incorrect (with the error text) and never abort the sweep. Fully
    deterministic for a fixed seed on the reference backend.
    """
    from . import engine
    from .adapters import spec_for_all_modules
    from .supervision import DEFAULT_SYSTEM_PROMPT, GenConfig

    if not items:
        raise ValueError("no benchmark items to evaluate")
    method = engine.method_named(method)
    runner = engine.METHODS[method]
    budgets = tuple(sc_samples) if runner.sampled else (None,)
    if runner.sampled:
        engine.check_sampling(budgets, sc_temperature)
    gen_cfg = gen_cfg if gen_cfg is not None else GenConfig()
    opt_cfg = opt_cfg if opt_cfg is not None else engine.OptConfig()
    if adapter_spec is None:
        adapter_spec = spec_for_all_modules(session.backend.adaptable_modules())
    if system_prompt is None:
        system_prompt = DEFAULT_SYSTEM_PROMPT

    def steps(item: BenchmarkItem) -> "engine.Runner":
        seeds = engine.derive_item_seeds(seed, item.id)
        return runner.run(
            session.clone(seed=seeds["session"]),
            item_to_query(item, system_prompt),
            gen_cfg=gen_cfg,
            spec=replace(adapter_spec, init_seed=seeds["adapter"]),
            opt_cfg=replace(opt_cfg, seed=seeds["opt"]),
            generator_session=(
                generator_session.clone(seed=seeds["session"])
                if generator_session is not None
                else None
            ),
            max_new_tokens=max_new_tokens,
            budgets=budgets,
            temperature=sc_temperature,
        )

    def record(item: BenchmarkItem, n_samples, result, seconds: float) -> EvalRecord:
        if isinstance(result, Exception):  # recorded, never fatal for the sweep
            return EvalRecord(
                item_id=item.id, method=method, raw_output="", extracted=None,
                correct=False, generated_tokens=0, trained_tokens=0,
                wall_seconds=seconds, gold=item.answer,
                n_samples=n_samples, error=f"{type(result).__name__}: {result}",
            )
        # a multiple-choice item's extracted letter is equivalent only to
        # its own gold letter, whatever the gold's case
        extracted = result.extracted
        correct = extracted is not None and answers_equivalent(extracted, item.answer)
        return EvalRecord(
            item_id=item.id, method=method, raw_output=result.answer_text,
            extracted=extracted, correct=correct,
            generated_tokens=result.telemetry.generated_tokens,
            trained_tokens=result.telemetry.trained_tokens,
            wall_seconds=seconds,
            loss_trajectory=list(result.telemetry.loss_trajectory),
            gold=item.answer, n_samples=n_samples,
        )

    outcomes = engine.run_together(session.backend, [steps(item) for item in items])
    runs: list[list[EvalRecord]] = [[] for _ in budgets]
    for item, (result, seconds) in zip(items, outcomes):
        if runner.sampled and not isinstance(result, Exception):
            results = result
        else:  # an error, or an unsampled method's one result, stands for every budget
            results = [result] * len(budgets)
        for run, n, one in zip(runs, budgets, results):
            run.append(record(item, n, one, seconds))
    return [r for run in runs for r in run], [summarize(run) for run in runs]


def summarize(records: Sequence[EvalRecord]) -> dict:
    """Accuracy/token/time summary; total_tokens is exact, means are derived."""
    n = len(records)
    total_tokens = sum(r.total_tokens for r in records)
    return {
        "method": _method_key(records[0]) if n else "",
        "n_items": n,
        "accuracy": sum(r.correct for r in records) / n if n else 0.0,
        "total_tokens": total_tokens,
        "mean_tokens": total_tokens / n if n else 0.0,
        "mean_seconds": sum(r.wall_seconds for r in records) / n if n else 0.0,
    }


def emit_report(
    records: Sequence[EvalRecord], out_dir: Union[str, Path], benchmark: str = ""
) -> dict[str, Path]:
    """Write records.jsonl, a per-method results.csv, and curve.csv points
    (token cost vs accuracy, one point per sampling budget plus each
    single-configuration method). Pure function of the records: re-running
    on the same records reproduces byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.jsonl",
        "results": out / "results.csv",
        "curve": out / "curve.csv",
    }

    with open(paths["records"], "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(asdict(record), ensure_ascii=False, sort_keys=True) + "\n")

    by_key: dict[str, list[EvalRecord]] = {}
    for record in records:
        by_key.setdefault(_method_key(record), []).append(record)

    def key_order(key: str):
        # self_consistency@2 before @16: budgets sort as numbers
        method, _, n = key.partition("@")
        return (method, int(n) if n else 0)

    keys = sorted(by_key, key=key_order)

    with open(paths["results"], "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")  # quotes a benchmark name holding a comma
        writer.writerow(["method", "benchmark", "accuracy", "mean_tokens", "mean_seconds"])
        for key in keys:
            s = summarize(by_key[key])
            writer.writerow([key, benchmark, f"{s['accuracy']:.4f}", f"{s['mean_tokens']:.2f}",
                             f"{s['mean_seconds']:.4f}"])

    with open(paths["curve"], "w", encoding="utf-8") as f:
        f.write("method,n_samples,mean_tokens,accuracy\n")
        for key in keys:
            s = summarize(by_key[key])
            method, _, n = key.partition("@")
            f.write(f"{method},{n},{s['mean_tokens']:.2f},{s['accuracy']:.4f}\n")

    return paths
