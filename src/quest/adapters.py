"""Low-rank adapter mathematics: init, merging, serialization.

An adapter augments a frozen weight matrix W with ``scaling * B @ A`` where
A is (rank, d_in), B is (d_out, rank) and scaling = alpha / rank. A starts
random at std 1/sqrt(rank), B starts at zero, so a fresh adapter is an exact
identity: the adapted model *is* the base model until the first update.
An adapter is a value: it reaches the backend as the ``adapter=`` argument of
each call that should see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .backend.session import AdaptableModuleInfo

ADAPTER_MAGIC = b"QSTA"
ADAPTER_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class AdapterSpec:
    rank: int = 16
    alpha: float = 32.0
    dropout: float = 0.05
    target_modules: tuple[str, ...] = ()
    init_seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass
class AdapterState:
    """Per-module (A, B) factor pairs; the only trainable state at test time."""

    spec: AdapterSpec
    factors: dict[str, tuple[np.ndarray, np.ndarray]]
    step_count: int = 0

    @property
    def scaling(self) -> float:
        return self.spec.scaling


def init_adapter(spec: AdapterSpec, modules: Sequence[AdaptableModuleInfo]) -> AdapterState:
    """Fresh adapter over the spec's target modules.

    A ~ N(0, 1/sqrt(rank)) seeded by the spec's init seed, B = 0, so passing
    the result to the backend changes nothing until optimized.
    """
    if not spec.target_modules:
        raise ValueError("adapter spec has no target modules")
    check_targets(spec.target_modules, modules)
    by_name = {m.name: m for m in modules}
    rng = np.random.default_rng(spec.init_seed)
    factors = {}
    for name in spec.target_modules:
        mod = by_name[name]
        if spec.rank > min(mod.d_in, mod.d_out):
            raise ValueError(
                f"rank {spec.rank} exceeds dimensions of module {name} "
                f"({mod.d_in}x{mod.d_out})"
            )
        dt = np.dtype(mod.dtype)
        a = rng.normal(0.0, 1.0 / np.sqrt(spec.rank), (spec.rank, mod.d_in)).astype(dt)
        b = np.zeros((mod.d_out, spec.rank), dtype=dt)
        factors[name] = (a, b)
    return AdapterState(spec=spec, factors=factors)


def check_targets(names: Iterable[str], modules: Sequence[AdaptableModuleInfo]) -> None:
    """Reject adapter targets the backend does not expose, naming each one.

    A backend looks factors up by module name, so a factor under an unknown
    name would be skipped silently and the base model would answer.
    """
    known = {m.name for m in modules}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown target modules: {', '.join(unknown)}")


def spec_for_all_modules(
    modules: Sequence[AdaptableModuleInfo],
    rank: int = 16,
    alpha: float = 32.0,
    dropout: float = 0.05,
    init_seed: int = 0,
) -> AdapterSpec:
    """Convenience: target every adaptable module the backend exposes."""
    return AdapterSpec(
        rank=rank,
        alpha=alpha,
        dropout=dropout,
        target_modules=tuple(m.name for m in modules),
        init_seed=init_seed,
    )


@dataclass
class MergedSnapshot:
    """Base parameters with adapter deltas folded in; keeps the deltas so the
    original base can be recovered."""

    params: dict[str, np.ndarray]
    deltas: dict[str, np.ndarray]


def merge(backend, state: AdapterState) -> MergedSnapshot:
    """Fold ``scaling * B @ A`` into copies of the backend's targeted base matrices."""
    params = {k: v.copy() for k, v in backend.params.items()}
    deltas = {}
    for name, (a, b) in state.factors.items():
        delta = (state.scaling * (b @ a)).astype(params[name].dtype)
        params[name] = params[name] + delta
        deltas[name] = delta
    return MergedSnapshot(params=params, deltas=deltas)


def unmerge(snapshot: MergedSnapshot) -> dict[str, np.ndarray]:
    """Recover the original base parameters from a merged snapshot."""
    params = {k: v.copy() for k, v in snapshot.params.items()}
    for name, delta in snapshot.deltas.items():
        params[name] = params[name] - delta
    return params


def trainable_parameters(state: AdapterState) -> dict[str, np.ndarray]:
    """Flat name -> tensor view of every A and B factor, in module order."""
    out = {}
    for name, (a, b) in state.factors.items():
        out[f"{name}.A"] = a
        out[f"{name}.B"] = b
    return out


def num_trainable(state: AdapterState) -> int:
    return sum(arr.size for arr in trainable_parameters(state).values())


# -- serialization ("QSTA" container) ------------------------------------------


def save_adapter(state: AdapterState, path: Union[str, Path]) -> None:
    from .backend.serialize import write_header, write_tensor

    dtypes = {arr.dtype.name for pair in state.factors.values() for arr in pair}
    if len(dtypes) != 1 or not dtypes <= set(ADAPTER_DTYPES):
        raise ValueError(f"adapter factors must share one of {ADAPTER_DTYPES}, got {sorted(dtypes)}")
    meta = {
        "dtype": dtypes.pop(),
        "rank": state.spec.rank,
        "alpha": state.spec.alpha,
        "dropout": state.spec.dropout,
        "init_seed": state.spec.init_seed,
        "step_count": state.step_count,
        "targets": [
            {"name": name, "d_in": a.shape[1], "d_out": b.shape[0]}
            for name, (a, b) in state.factors.items()
        ],
    }
    with open(path, "wb") as f:
        write_header(f, ADAPTER_MAGIC, meta)
        for name, (a, b) in state.factors.items():
            write_tensor(f, a)
            write_tensor(f, b)


def load_adapter(path: Union[str, Path]) -> AdapterState:
    from .backend.serialize import read_header, read_tensor

    with open(path, "rb") as f:
        meta = read_header(f, ADAPTER_MAGIC)
        rank = meta["rank"]
        # files written before the header carried a dtype hold float32 factors
        dtype = meta.get("dtype", "float32")
        if dtype not in ADAPTER_DTYPES:
            raise ValueError(f"unsupported adapter dtype {dtype!r}")
        factors = {}
        for entry in meta["targets"]:
            a = read_tensor(f, (rank, entry["d_in"]), dtype)
            b = read_tensor(f, (entry["d_out"], rank), dtype)
            factors[entry["name"]] = (a, b)
        if f.read(1):
            raise ValueError("trailing bytes after adapter factors")
    spec = AdapterSpec(
        rank=rank,
        alpha=meta["alpha"],
        dropout=meta["dropout"],
        target_modules=tuple(entry["name"] for entry in meta["targets"]),
        init_seed=meta["init_seed"],
    )
    return AdapterState(spec=spec, factors=factors, step_count=meta["step_count"])
