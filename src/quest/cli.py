"""Command-line surface: run the pipeline end to end or replay it in stages.

Subcommands: ``generate`` (emit pairs.jsonl per query), ``adapt`` (pairs ->
adapter + telemetry), ``answer`` (query + optional adapter -> text), ``eval``
(one-method sweep with reports), ``compare`` (multi-method sweep including the
sampling curve), ``selftest`` (invariant suite on the reference backend).

Configuration precedence is flags > config file > defaults; the resolved
config is echoed into the run directory as JSON and can be fed back in with
``--config``. ``QUEST_RUN_DIR`` overrides the output directory.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from . import engine
from .adapters import AdapterSpec, check_adapter, init_adapter, load_adapter, save_adapter
from .backend import create_session
from .engine import OptConfig, derive_item_seeds
from .evalkit import emit_report, evaluate, item_to_query, load_benchmark
from .supervision import (
    DEFAULT_SYSTEM_PROMPT,
    GenConfig,
    dump_pairs,
    generate_dataset,
    load_pairs,
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings; defaults reproduce the reference recipe
    (N=5 pairs, T=10 updates, rank 16, alpha 32, dropout 0.05, lr 1e-4,
    accumulation 4, 4096-token budgets, greedy final decoding)."""

    backend: str = "reference"
    backend_options: dict = field(default_factory=dict)
    benchmark: Optional[str] = None
    answer_mode: str = "boxed"
    method: str = "quest"
    generation: GenConfig = field(default_factory=GenConfig)
    rank: int = 16
    alpha: float = 32.0
    dropout: float = 0.05
    target_modules: tuple[str, ...] = ()
    optimization: OptConfig = field(default_factory=OptConfig)
    sc_samples: tuple[int, ...] = (1, 2, 4, 8)
    sc_temperature: float = 0.8
    answer_max_new_tokens: int = 4096
    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    out_dir: str = "runs/quest"
    seed: int = 0

    def adapter_spec(self, modules) -> AdapterSpec:
        targets = self.target_modules or tuple(m.name for m in modules)
        return AdapterSpec(
            rank=self.rank, alpha=self.alpha, dropout=self.dropout, target_modules=targets
        )


_SECTIONS = {"generation": GenConfig, "optimization": OptConfig}


def _typed(value: Any, hint: Any, key: str) -> Any:
    """``value`` as a field of type ``hint`` holds it, or an error naming the
    key. Nothing is coerced but what loses nothing: an integer for a float and
    a list for a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[...]
        return None if value is None else _typed(value, args[0], key)
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            types = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(types) == len(value):
                return tuple(_typed(item, t, key) for item, t in zip(value, types))
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is float and isinstance(value, (int, float)):
        return float(value)
    elif isinstance(value, hint):
        return value
    want = hint.__name__ if isinstance(hint, type) else hint
    raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _apply_section(defaults, updates: dict, context: str):
    hints = typing.get_type_hints(type(defaults))
    for key, value in updates.items():
        if key not in hints:
            close = difflib.get_close_matches(key, hints, n=1)
            suffix = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"unknown key {context}{key!r}{suffix}")
        defaults = replace(defaults, **{key: _typed(value, hints[key], context + key)})
    return defaults


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Resolve a RunConfig from defaults, an optional JSON file, and overrides.

    Unknown keys fail with a closest-match suggestion, and a value of the
    wrong type fails with its key. The result round-trips through
    ``dump_config``.
    """
    cfg = RunConfig()
    layers = []
    if path:
        with open(path, encoding="utf-8") as f:
            layers.append(json.load(f))
    if overrides:
        layers.append(overrides)
    for layer in layers:
        flat = {}
        for key, value in layer.items():
            if key in _SECTIONS:
                if not isinstance(value, dict):
                    raise ValueError(f"config key {key!r} must be an object, got {value!r}")
                if key == "optimization" and "seed" in value:
                    raise ValueError(
                        "config key 'optimization.seed' cannot be set: each item's "
                        "optimizer seed derives from the top-level 'seed'"
                    )
                section = _apply_section(getattr(cfg, key), value, f"{key}.")
                cfg = replace(cfg, **{key: section})
            else:
                flat[key] = value
        cfg = _apply_section(cfg, flat, "")
    cfg = replace(cfg, method=engine.method_named(cfg.method))
    if not cfg.sc_samples or min(cfg.sc_samples) < 1:
        raise ValueError("sc_samples must hold one or more positive budgets")
    if len(set(cfg.sc_samples)) != len(cfg.sc_samples):
        raise ValueError(f"sc_samples repeats a budget: {','.join(map(str, cfg.sc_samples))}")
    if cfg.sc_temperature <= 0:
        raise ValueError(f"sc_temperature must be > 0, got {cfg.sc_temperature}")
    if cfg.answer_max_new_tokens < 1:
        raise ValueError(f"answer_max_new_tokens must be >= 1, got {cfg.answer_max_new_tokens}")
    run_dir = os.environ.get("QUEST_RUN_DIR")
    if run_dir:
        cfg = replace(cfg, out_dir=run_dir)
    return cfg


def dump_config(cfg: RunConfig, path) -> None:
    obj = asdict(cfg)
    del obj["optimization"]["seed"]  # derived per item from ``seed``; not a setting
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# -- command plumbing ------------------------------------------------------------


def _budgets(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--backend", dest="backend")
    p.add_argument("--checkpoint", help="reference checkpoint file (.qstb)")
    p.add_argument("--benchmark", dest="benchmark")
    p.add_argument("--mode", dest="answer_mode", choices=["boxed", "choice-letter"])
    p.add_argument("--method", dest="method")
    p.add_argument("--pairs", dest="generation.n_pairs", type=int)
    p.add_argument("--gen-temperature", dest="generation.temperature", type=float)
    p.add_argument("--gen-max-new", dest="generation.max_new_tokens", type=int)
    p.add_argument("--retries", dest="generation.max_parse_retries", type=int)
    p.add_argument("--rank", dest="rank", type=int)
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--dropout", dest="dropout", type=float)
    p.add_argument("--steps", dest="optimization.steps", type=int)
    p.add_argument("--lr", dest="optimization.lr", type=float)
    p.add_argument("--accumulation", dest="optimization.grad_accumulation", type=int)
    p.add_argument("--max-seq-len", dest="optimization.max_seq_len", type=int)
    p.add_argument(
        "--sc-samples", dest="sc_samples", type=_budgets, help="comma-separated, e.g. 1,2,4,8"
    )
    p.add_argument("--sc-temperature", dest="sc_temperature", type=float)
    p.add_argument("--answer-max-new", dest="answer_max_new_tokens", type=int)
    p.add_argument("--system-prompt", dest="system_prompt")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", dest="seed", type=int)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, Any] = {}
    for key, value in vars(args).items():
        if key in ("config", "command", "item_id", "adapter", "checkpoint", "methods", "fn") or value is None:
            continue
        if "." in key:
            section, _, name = key.partition(".")
            overrides.setdefault(section, {})[name] = value
        else:
            overrides[key] = value
    cfg = load_config(args.config, overrides)
    if getattr(args, "checkpoint", None):
        cfg = replace(cfg, backend_options={**cfg.backend_options, "checkpoint": args.checkpoint})
    return cfg


def _load_items(cfg: RunConfig, item_id: Optional[str] = None):
    if not cfg.benchmark:
        raise ValueError("a --benchmark file is required")
    items = load_benchmark(cfg.benchmark, mode=cfg.answer_mode)
    if item_id is not None:
        items = [item for item in items if item.id == item_id]
        if not items:
            raise ValueError(f"item {item_id!r} not found in {cfg.benchmark}")
    return items


def _check_adapter_settings(cfg: RunConfig, session) -> None:
    """Build one adapter from the settings, so a rank or target module the
    backend cannot take fails before the run directory is made."""
    modules = session.backend.adaptable_modules()
    init_adapter(cfg.adapter_spec(modules), modules)


def _echo_config(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "config.json")
    return out


def _cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    items = _load_items(cfg, args.item_id)
    out = _echo_config(cfg)
    for item in items:
        seeds = derive_item_seeds(cfg.seed, item.id)
        isess = session.clone(seed=seeds["session"])
        query = item_to_query(item, cfg.system_prompt)
        gen = generate_dataset(isess, query, cfg.generation)
        qdir = engine.query_artifact_dir(out, item.id)
        dump_pairs(gen.pairs, qdir / "pairs.jsonl", query_id=item.id)
        print(f"{item.id}: {len(gen.pairs)} pairs, {gen.generated_tokens} generated tokens")
    return 0


def _cmd_adapt(args) -> int:
    cfg = _config_from_args(args)
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    items = _load_items(cfg, args.item_id)
    _check_adapter_settings(cfg, session)
    out = _echo_config(cfg)
    for item in items:
        qdir = engine.query_artifact_dir(out, item.id)
        pairs_path = qdir / "pairs.jsonl"
        if not pairs_path.exists():
            raise FileNotFoundError(f"{pairs_path} (run `generate` first)")
        pairs = load_pairs(pairs_path)
        if not pairs:
            print(f"{item.id}: no pairs, skipping adaptation")
            continue
        seeds = derive_item_seeds(cfg.seed, item.id)
        isess = session.clone(seed=seeds["session"])
        spec = replace(
            cfg.adapter_spec(session.backend.adaptable_modules()), init_seed=seeds["adapter"]
        )
        opt = replace(cfg.optimization, seed=seeds["opt"])
        adapter, telemetry = engine.adapt(isess, pairs, spec, opt, system_prompt=cfg.system_prompt)
        save_adapter(adapter, qdir / "adapter.qsta")
        engine.save_telemetry(telemetry, qdir / "telemetry.json")
        print(
            f"{item.id}: {len(telemetry.loss_trajectory)} updates, "
            f"loss {telemetry.loss_trajectory[0]:.4f} -> {telemetry.loss_trajectory[-1]:.4f}"
            if telemetry.loss_trajectory
            else f"{item.id}: 0 updates (identity adapter)"
        )
    return 0


def _cmd_answer(args) -> int:
    cfg = _config_from_args(args)
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    items = _load_items(cfg, args.item_id)
    given = None
    if args.adapter:
        # a file that cannot serve this backend fails before the run directory is made
        given = load_adapter(args.adapter)
        check_adapter(given, session.backend.adaptable_modules())
    out = _echo_config(cfg)
    for item in items:
        seeds = derive_item_seeds(cfg.seed, item.id)
        isess = session.clone(seed=seeds["session"])
        query = item_to_query(item, cfg.system_prompt)
        qdir = engine.query_artifact_dir(out, item.id)
        adapter = given
        if adapter is None and (qdir / "adapter.qsta").exists():
            adapter = load_adapter(qdir / "adapter.qsta")
        text, _ = engine.generate_answer(isess, query, adapter, cfg.answer_max_new_tokens)
        (qdir / "answer.txt").write_text(text, encoding="utf-8")
        print(f"{item.id}: {text}")
    return 0


def _run_eval(cfg: RunConfig, session, items, method: str, sc_samples: Optional[int]):
    """One ``evaluate`` sweep; ``sc_samples`` is the budget of a sampled
    method and is unused by the others."""
    spec = cfg.adapter_spec(session.backend.adaptable_modules())
    return evaluate(
        session, items, method,
        gen_cfg=cfg.generation, adapter_spec=spec, opt_cfg=cfg.optimization,
        sc_samples=sc_samples, sc_temperature=cfg.sc_temperature,
        max_new_tokens=cfg.answer_max_new_tokens, seed=cfg.seed, system_prompt=cfg.system_prompt,
    )


def _cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    sampled = engine.METHODS[cfg.method].sampled
    flags = (("--sc-samples", args.sc_samples), ("--sc-temperature", args.sc_temperature))
    conflicting = [flag for flag, value in flags if value is not None and not sampled]
    if conflicting:
        raise ValueError(
            f"conflicting method-specific keys for method {cfg.method!r}: " + ", ".join(conflicting)
        )
    if sampled and len(cfg.sc_samples) != 1:
        raise ValueError(
            "eval samples one self-consistency budget, got sc_samples "
            + ",".join(map(str, cfg.sc_samples))
            + "; pass --sc-samples N, or run compare for a sweep"
        )
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    items = _load_items(cfg)
    _check_adapter_settings(cfg, session)
    out = _echo_config(cfg)
    records, summary = _run_eval(cfg, session, items, cfg.method, cfg.sc_samples[0])
    bench = Path(cfg.benchmark).stem
    paths = emit_report(records, out / cfg.method, benchmark=bench)
    print(
        f"{cfg.method}: accuracy {summary['accuracy']:.4f}, "
        f"mean tokens {summary['mean_tokens']:.1f} -> {paths['results']}"
    )
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    names = (args.methods or "base,quest,self_consistency").split(",")
    methods = [engine.method_named(name.strip()) for name in names]
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"--methods names {', '.join(repeated)} more than once")
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    items = _load_items(cfg)
    _check_adapter_settings(cfg, session)
    out = _echo_config(cfg)
    runs = [
        (method, n)
        for method in methods
        for n in (cfg.sc_samples if engine.METHODS[method].sampled else (None,))
    ]
    # largest budget first: its samples decode in lock-step and the smaller
    # budgets, which draw a prefix of them, read the memo
    order = sorted(runs, key=lambda run: (methods.index(run[0]), -(run[1] or 0)))
    results = {run: _run_eval(cfg, session, items, *run) for run in order}
    all_records = []
    for run in runs:
        records, summary = results[run]
        all_records.extend(records)
        print(f"{summary['method']}: accuracy {summary['accuracy']:.4f}")
    paths = emit_report(all_records, out, benchmark=Path(cfg.benchmark).stem)
    print(f"reports -> {paths['results']}, {paths['curve']}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


def run_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quest", description="query-conditioned test-time self-training"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", _cmd_generate),
        ("adapt", _cmd_adapt),
        ("answer", _cmd_answer),
        ("eval", _cmd_eval),
        ("compare", _cmd_compare),
        ("selftest", _cmd_selftest),
    ):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name in ("generate", "adapt", "answer"):
            p.add_argument("--item-id", dest="item_id", default=None)
        if name == "answer":
            p.add_argument("--adapter", dest="adapter", default=None)
        if name == "compare":
            p.add_argument("--methods", dest="methods", default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(list(argv))
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        # KeyError's str() wraps the message in quotes; everything else prints as-is
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
