"""Command-line surface: run the pipeline end to end or replay it in stages.

Subcommands: ``generate`` (emit pairs.jsonl per query), ``adapt`` (pairs ->
adapter + telemetry), ``answer`` (query + optional adapter -> text), ``eval``
(one-method sweep with reports), ``compare`` (multi-method sweep including the
sampling curve), ``selftest`` (invariant suite on the reference backend).
Each command runs on the model that ``run_command``'s ``backend`` factory
builds from the run's ``checkpoint`` setting; by default that is the reference
checkpoint.

Configuration precedence is flags > config file > defaults; the resolved
config is echoed into the run directory as JSON and can be fed back in with
``--config``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import engine
from .adapters import AdapterSpec, check_adapter, init_adapter, load_adapter, save_adapter
from .backend import ModelSession, load_checkpoint
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

    checkpoint: Optional[str] = None
    benchmark: Optional[str] = None
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
    engine.check_sampling(cfg.sc_samples, cfg.sc_temperature)
    if cfg.answer_max_new_tokens < 1:
        raise ValueError(f"answer_max_new_tokens must be >= 1, got {cfg.answer_max_new_tokens}")
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


# (commands, flags): each flag is its option, the config key it sets (None if
# none) and its argparse keywords. A command takes a flag only if it reads the
# setting, so a flag it would ignore is an argparse error, not a config value.
_FLAGS = (
    (("generate", "adapt", "answer", "eval", "compare"), (
        ("--config", None, {"help": "JSON config file"}),
        ("--checkpoint", "checkpoint", {"help": "reference checkpoint file (.qstb)"}),
        ("--benchmark", "benchmark", {}),
        ("--out", "out_dir", {}),
        ("--seed", "seed", {"type": int}),
    )),
    (("generate", "eval", "compare"), (
        ("--pairs", "generation.n_pairs", {"type": int}),
        ("--gen-temperature", "generation.temperature", {"type": float}),
        ("--gen-max-new", "generation.max_new_tokens", {"type": int}),
        ("--retries", "generation.max_parse_retries", {"type": int}),
    )),
    (("adapt", "eval", "compare"), (
        ("--rank", "rank", {"type": int}),
        ("--alpha", "alpha", {"type": float}),
        ("--dropout", "dropout", {"type": float}),
        ("--steps", "optimization.steps", {"type": int}),
        ("--lr", "optimization.lr", {"type": float}),
        ("--accumulation", "optimization.grad_accumulation", {"type": int}),
        ("--max-seq-len", "optimization.max_seq_len", {"type": int}),
    )),
    # not generate: pair prompts are built from the query text alone
    (("adapt", "answer", "eval", "compare"), (("--system-prompt", "system_prompt", {}),)),
    (("answer", "eval", "compare"), (("--answer-max-new", "answer_max_new_tokens", {"type": int}),)),
    (("eval", "compare"), (
        ("--sc-samples", "sc_samples", {"type": _budgets, "help": "comma-separated, e.g. 1,2,4,8"}),
        ("--sc-temperature", "sc_temperature", {"type": float}),
    )),
    (("generate", "adapt", "answer"), (("--item-id", None, {}),)),
    (("answer",), (("--adapter", None, {}),)),
    (("eval",), (("--method", "method", {}),)),
    (("compare",), (("--methods", None, {}),)),
)


def _flags(command: str) -> list[tuple]:
    return [flag for commands, flags in _FLAGS if command in commands for flag in flags]


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, Any] = {}
    for _, key, _ in _flags(args.command):
        value = getattr(args, key) if key else None
        if value is not None:
            section, _, name = key.rpartition(".")
            (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return load_config(args.config, overrides)


def _reference(checkpoint: Optional[str]):
    """The default backend: the reference model saved at ``checkpoint``."""
    if checkpoint is None:
        # a fresh model's output head is zero: it would answer every item with nothing
        raise ValueError(
            "the reference backend needs a model checkpoint: pass --checkpoint FILE.qstb"
        )
    return load_checkpoint(checkpoint)


def _session(cfg: RunConfig, backend) -> ModelSession:
    return ModelSession(backend=backend(cfg.checkpoint), seed=cfg.seed)


def _load_items(cfg: RunConfig, item_id: Optional[str] = None):
    if not cfg.benchmark:
        raise ValueError("a --benchmark file is required")
    items = load_benchmark(cfg.benchmark)
    if item_id is not None:
        items = [item for item in items if item.id == item_id]
        if not items:
            raise ValueError(f"item {item_id!r} not found in {cfg.benchmark}")
    return items


def _adapter_spec(cfg: RunConfig, session) -> AdapterSpec:
    """The run's adapter spec, built into one adapter so that a rank or target
    module the backend cannot take fails before the run directory is made."""
    modules = session.backend.adaptable_modules()
    spec = cfg.adapter_spec(modules)
    init_adapter(spec, modules)
    return spec


def _echo_config(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "config.json")
    return out


def _stage(args, backend):
    """The config, session and items of one of quest's stages. A config that
    names another method fails here, before the run directory is made."""
    cfg = _config_from_args(args)
    if cfg.method != "quest":
        raise ValueError(
            f"{args.command} runs quest's stages only, but the config names method {cfg.method!r}"
        )
    items = _load_items(cfg, args.item_id)
    return cfg, _session(cfg, backend), items


def _cmd_generate(args, backend) -> int:
    cfg, session, items = _stage(args, backend)
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


def _cmd_adapt(args, backend) -> int:
    cfg, session, items = _stage(args, backend)
    spec = _adapter_spec(cfg, session)
    out = _echo_config(cfg)
    for item in items:
        qdir = engine.query_artifact_dir(out, item.id)
        pairs_path = qdir / "pairs.jsonl"
        if not pairs_path.exists():
            raise FileNotFoundError(f"{pairs_path} (run `generate` first)")
        pairs = load_pairs(pairs_path)
        if not pairs:
            # answer then uses the base model, as the fused pipeline does,
            # not an adapter an earlier run left here
            for stale in ("adapter.qsta", "telemetry.json"):
                (qdir / stale).unlink(missing_ok=True)
            print(f"{item.id}: no pairs, skipping adaptation")
            continue
        seeds = derive_item_seeds(cfg.seed, item.id)
        isess = session.clone(seed=seeds["session"])
        opt = replace(cfg.optimization, seed=seeds["opt"])
        adapter, telemetry = engine.adapt(
            isess, pairs, replace(spec, init_seed=seeds["adapter"]), opt,
            system_prompt=cfg.system_prompt,
        )
        save_adapter(adapter, qdir / "adapter.qsta")
        engine.save_telemetry(telemetry, qdir / "telemetry.json")
        print(
            f"{item.id}: {len(telemetry.loss_trajectory)} updates, "
            f"loss {telemetry.loss_trajectory[0]:.4f} -> {telemetry.loss_trajectory[-1]:.4f}"
            if telemetry.loss_trajectory
            else f"{item.id}: 0 updates (identity adapter)"
        )
    return 0


def _cmd_answer(args, backend) -> int:
    cfg, session, items = _stage(args, backend)
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


def _sweep(cfg: RunConfig, methods: list[str], report_dir: Path, backend):
    """``evaluate`` each method, a sampled one at every budget of ``sc_samples``,
    and report all records in ``report_dir``; returns the summaries and paths."""
    items = _load_items(cfg)
    session = _session(cfg, backend)
    spec = _adapter_spec(cfg, session)
    _echo_config(cfg)
    results = [
        evaluate(
            session, items, method, gen_cfg=cfg.generation, adapter_spec=spec,
            opt_cfg=cfg.optimization, sc_samples=cfg.sc_samples, sc_temperature=cfg.sc_temperature,
            max_new_tokens=cfg.answer_max_new_tokens, seed=cfg.seed,
            system_prompt=cfg.system_prompt,
        )
        for method in methods
    ]
    records = [record for method_records, _ in results for record in method_records]
    paths = emit_report(records, report_dir, benchmark=Path(cfg.benchmark).stem)
    return [summary for _, summaries in results for summary in summaries], paths


def _cmd_eval(args, backend) -> int:
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
    (summary,), paths = _sweep(cfg, [cfg.method], Path(cfg.out_dir) / cfg.method, backend)
    print(
        f"{cfg.method}: accuracy {summary['accuracy']:.4f}, "
        f"mean tokens {summary['mean_tokens']:.1f} -> {paths['results']}"
    )
    return 0


def _cmd_compare(args, backend) -> int:
    cfg = _config_from_args(args)
    if cfg.method != RunConfig.method:
        raise ValueError(
            f"compare runs the methods of --methods and never reads config key 'method', "
            f"but the config names method {cfg.method!r}"
        )
    names = (args.methods or "base,quest,self_consistency").split(",")
    methods = [engine.method_named(name.strip()) for name in names]
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"--methods names {', '.join(repeated)} more than once")
    summaries, paths = _sweep(cfg, methods, Path(cfg.out_dir), backend)
    for summary in summaries:
        print(f"{summary['method']}: accuracy {summary['accuracy']:.4f}")
    print(f"reports -> {paths['results']}, {paths['curve']}")
    return 0


def _cmd_selftest(args, backend) -> int:
    from .selftest import run_selftest

    return run_selftest()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quest", description="query-conditioned test-time self-training"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", _cmd_generate), ("adapt", _cmd_adapt), ("answer", _cmd_answer),
        ("eval", _cmd_eval), ("compare", _cmd_compare), ("selftest", _cmd_selftest),
    ):
        # no abbreviations: `--pair 2` must not be read as `--pairs 2`
        p = sub.add_parser(name, allow_abbrev=False)
        for option, key, keywords in _flags(name):
            p.add_argument(option, dest=key, **keywords)
        p.set_defaults(fn=fn)
    return parser


def run_command(
    argv: Sequence[str], backend: Optional[Callable[[Optional[str]], Any]] = None
) -> int:
    """Run one ``quest`` command on the model ``backend(checkpoint)`` returns,
    called with the run's ``checkpoint`` setting (``None`` when unset). The
    default loads the reference checkpoint."""
    args = _parser().parse_args(list(argv))
    try:
        return args.fn(args, backend or _reference)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
