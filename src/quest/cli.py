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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from . import engine
from .adapters import AdapterSpec, load_adapter, save_adapter
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

METHOD_ALIASES = {"sc": "self_consistency"}


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


def _coerce(value: Any, template: Any) -> Any:
    if isinstance(template, bool):
        return bool(value)
    if isinstance(template, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(template, float):
        return float(value)
    if isinstance(template, tuple):
        return tuple(value)
    return value


def _apply_section(defaults, updates: dict, context: str):
    known = asdict(defaults)
    for key, value in updates.items():
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ValueError(f"unknown key {context}{key!r}{suffix}")
        defaults = replace(defaults, **{key: _coerce(value, known[key])})
    return defaults


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Resolve a RunConfig from defaults, an optional JSON file, and overrides.

    Unknown keys fail with a closest-match suggestion. The result round-trips
    through ``dump_config``.
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
                section = _apply_section(getattr(cfg, key), value, f"{key}.")
                cfg = replace(cfg, **{key: section})
            else:
                flat[key] = value
        cfg = _apply_section(cfg, flat, "")
    if cfg.method in METHOD_ALIASES:
        cfg = replace(cfg, method=METHOD_ALIASES[cfg.method])
    if cfg.method not in engine.METHOD_LABELS:
        raise ValueError(f"unknown method {cfg.method!r}")
    if not cfg.sc_samples or min(cfg.sc_samples) < 1:
        raise ValueError("sc_samples must hold one or more positive budgets")
    if len(set(cfg.sc_samples)) != len(cfg.sc_samples):
        raise ValueError(f"sc_samples repeats a budget: {','.join(map(str, cfg.sc_samples))}")
    run_dir = os.environ.get("QUEST_RUN_DIR")
    if run_dir:
        cfg = replace(cfg, out_dir=run_dir)
    return cfg


def dump_config(cfg: RunConfig, path) -> None:
    obj = asdict(cfg)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# -- command plumbing ------------------------------------------------------------


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
    p.add_argument("--sc-samples", dest="sc_samples", help="comma-separated, e.g. 1,2,4,8")
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
        if key == "sc_samples" and isinstance(value, str):
            value = [int(x) for x in value.split(",") if x.strip()]
        if "." in key:
            section, _, name = key.partition(".")
            overrides.setdefault(section, {})[name] = value
        else:
            overrides[key] = value
    cfg = load_config(args.config, overrides)
    if getattr(args, "checkpoint", None):
        cfg = replace(cfg, backend_options={**cfg.backend_options, "checkpoint": args.checkpoint})
    return cfg


def _make_sessions(cfg: RunConfig):
    session = create_session(cfg.backend, seed=cfg.seed, **cfg.backend_options)
    return session


def _load_items(cfg: RunConfig, item_id: Optional[str] = None):
    if not cfg.benchmark:
        raise ValueError("a --benchmark file is required")
    items = load_benchmark(cfg.benchmark, mode=cfg.answer_mode)
    if item_id is not None:
        items = [item for item in items if item.id == item_id]
        if not items:
            raise ValueError(f"item {item_id!r} not found in {cfg.benchmark}")
    return items


def _echo_config(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "config.json")
    return out


def _cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    session = _make_sessions(cfg)
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
    session = _make_sessions(cfg)
    items = _load_items(cfg, args.item_id)
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
    session = _make_sessions(cfg)
    items = _load_items(cfg, args.item_id)
    out = _echo_config(cfg)
    for item in items:
        seeds = derive_item_seeds(cfg.seed, item.id)
        isess = session.clone(seed=seeds["session"])
        query = item_to_query(item, cfg.system_prompt)
        qdir = engine.query_artifact_dir(out, item.id)
        adapter_path = Path(args.adapter) if args.adapter else qdir / "adapter.qsta"
        adapter = load_adapter(adapter_path) if adapter_path.exists() else None
        text = engine.answer_with_adapter(isess, query, adapter, cfg.answer_max_new_tokens)
        (qdir / "answer.txt").write_text(text, encoding="utf-8")
        print(f"{item.id}: {text}")
    return 0


def _run_eval(cfg: RunConfig, session, items, method: str, sc_samples: int):
    """One ``evaluate`` sweep; ``sc_samples`` is the self-consistency budget
    and is unused by the other methods."""
    spec = cfg.adapter_spec(session.backend.adaptable_modules())
    return evaluate(
        session,
        items,
        method,
        gen_cfg=cfg.generation,
        adapter_spec=spec,
        opt_cfg=cfg.optimization,
        sc_samples=sc_samples,
        sc_temperature=cfg.sc_temperature,
        max_new_tokens=cfg.answer_max_new_tokens,
        seed=cfg.seed,
        system_prompt=cfg.system_prompt,
    )


def _cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    if cfg.method != "self_consistency":
        conflicting = [
            flag
            for flag, value in (("--sc-samples", args.sc_samples), ("--sc-temperature", args.sc_temperature))
            if value is not None
        ]
        if conflicting:
            raise ValueError(
                f"conflicting method-specific keys for method {cfg.method!r}: "
                + ", ".join(conflicting)
            )
    elif len(cfg.sc_samples) != 1:
        raise ValueError(
            "eval samples one self-consistency budget, got sc_samples "
            + ",".join(map(str, cfg.sc_samples))
            + "; pass --sc-samples N, or run compare for a sweep"
        )
    session = _make_sessions(cfg)
    items = _load_items(cfg)
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
    methods = [m.strip() for m in (args.methods or "base,quest,self_consistency").split(",")]
    methods = [METHOD_ALIASES.get(m, m) for m in methods]
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"--methods names {', '.join(repeated)} more than once")
    unknown = [m for m in methods if m not in engine.METHOD_LABELS]
    if unknown:
        raise ValueError(
            f"unknown method {', '.join(map(repr, unknown))}; expected one of {engine.METHOD_LABELS}"
        )
    session = _make_sessions(cfg)
    items = _load_items(cfg)
    out = _echo_config(cfg)
    all_records = []
    for method in methods:
        if method == "self_consistency":
            # largest budget first: its samples decode in lock-step and the
            # smaller budgets, which draw a prefix of them, read the memo
            sweep = {}
            for n in sorted(cfg.sc_samples, reverse=True):
                sweep[n] = _run_eval(cfg, session, items, method, n)
            for n in cfg.sc_samples:
                records, summary = sweep[n]
                all_records.extend(records)
                print(f"self_consistency@{n}: accuracy {summary['accuracy']:.4f}")
        else:
            records, summary = _run_eval(cfg, session, items, method, cfg.sc_samples[0])
            all_records.extend(records)
            print(f"{method}: accuracy {summary['accuracy']:.4f}")
    paths = emit_report(all_records, out, benchmark=Path(cfg.benchmark).stem)
    print(f"reports -> {paths['results']}, {paths['curve']}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(verbose=True)


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
