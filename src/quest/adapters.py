"""Low-rank adapter mathematics: init, merging, serialization.

An adapter augments a frozen weight matrix W with ``scaling * B @ A`` where
A is (rank, d_in), B is (d_out, rank) and scaling = alpha / rank. A starts
random at std 1/sqrt(rank), B starts at zero, so a fresh adapter is an exact
identity: the adapted model *is* the base model until the first update.
An adapter is a value: it reaches the backend as the ``adapter=`` argument of
each call that should see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass
class AdapterState:
    """Per-module (A, B) factor pairs; the only trainable state at test time.

    Every factor is a view of ``buffer``, one contiguous tensor holding A
    then B of each module in factor order, so an optimizer steps them all at
    once. ``init_adapter`` and ``load_adapter`` build adapters in this form.
    """

    spec: AdapterSpec
    factors: dict[str, tuple[np.ndarray, np.ndarray]]
    buffer: np.ndarray = field(repr=False)
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
    targets = [by_name[name] for name in spec.target_modules]
    for mod in targets:
        if spec.rank > min(mod.d_in, mod.d_out):
            raise ValueError(
                f"rank {spec.rank} exceeds dimensions of module {mod.name} "
                f"({mod.d_in}x{mod.d_out})"
            )
    dtypes = sorted({mod.dtype for mod in targets})
    if len(dtypes) != 1:
        raise ValueError(f"target modules must share one dtype, got {', '.join(dtypes)}")
    state = _laid_out(spec, {mod.name: (mod.d_in, mod.d_out) for mod in targets}, dtypes[0])
    rng = np.random.default_rng(spec.init_seed)
    for a, _ in state.factors.values():
        a[...] = rng.normal(0.0, 1.0 / np.sqrt(spec.rank), a.shape)
    return state


def _laid_out(spec: AdapterSpec, dims: dict[str, tuple[int, int]], dtype: str) -> AdapterState:
    """A zero adapter over modules ``name -> (d_in, d_out)`` whose factors
    are views of one buffer, A then B of each module in order."""
    r = spec.rank
    buffer = np.zeros(sum(r * (d_in + d_out) for d_in, d_out in dims.values()), np.dtype(dtype))
    factors, start = {}, 0
    for name, (d_in, d_out) in dims.items():
        a = buffer[start : start + r * d_in].reshape(r, d_in)
        b = buffer[start + r * d_in : start + r * (d_in + d_out)].reshape(d_out, r)
        factors[name] = (a, b)
        start += r * (d_in + d_out)
    return AdapterState(spec=spec, factors=factors, buffer=buffer)


def check_targets(names: Iterable[str], modules: Sequence[AdaptableModuleInfo]) -> None:
    """Reject adapter targets the backend does not expose, naming each one.

    A backend looks factors up by module name, so a factor under an unknown
    name would be skipped silently and the base model would answer.
    """
    known = {m.name for m in modules}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown target modules: {', '.join(unknown)}")


def check_adapter(state: AdapterState, modules: Sequence[AdaptableModuleInfo]) -> None:
    """Reject an adapter the backend cannot take, naming the module: a factor
    under an unknown module name, or one whose shape or dtype does not fit
    its module (A is (rank, d_in), B is (d_out, rank), both the module's
    dtype). ``state`` may come from a file, built for another model."""
    check_targets(state.factors, modules)
    by_name = {m.name: m for m in modules}
    r = state.spec.rank
    for name, (a, b) in state.factors.items():
        mod = by_name[name]
        want = ((r, mod.d_in), (mod.d_out, r))
        if (a.shape, b.shape) != want or not a.dtype == b.dtype == np.dtype(mod.dtype):
            raise ValueError(
                f"adapter factors of {name} do not fit the module: expected A {want[0]} and "
                f"B {want[1]} of {mod.dtype}, got A {a.shape} of {a.dtype} and B {b.shape} of {b.dtype}"
            )


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
    """The one trainable tensor, ``{"factors": state.buffer}``: every A and
    B factor flattened, in factor order, and shared with ``state.factors``."""
    return {"factors": state.buffer}


# -- serialization ("QSTA" container) ------------------------------------------


def save_adapter(state: AdapterState, path: Union[str, Path]) -> None:
    from .backend.serialize import write_header, write_tensor

    dtype = state.buffer.dtype.name
    if dtype not in ADAPTER_DTYPES:
        raise ValueError(f"adapter factors must be one of {ADAPTER_DTYPES}, got {dtype}")
    meta = {
        "dtype": dtype,
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
        write_tensor(f, state.buffer)  # A then B of each target, in order


def _header_field(entry: dict, key: str, types: tuple, where: str = ""):
    """``entry[key]`` if it has one of ``types`` (a bool is no number), else an error."""
    value = entry.get(key)
    if isinstance(value, bool) or not isinstance(value, types):
        want = " or ".join(t.__name__ for t in types)
        raise ValueError(f"adapter file field '{where}{key}' must be {want}, got {value!r}")
    return value


def load_adapter(path: Union[str, Path]) -> AdapterState:
    from .backend.serialize import read_header, read_tensor

    with open(path, "rb") as f:
        meta = read_header(f, ADAPTER_MAGIC)
        # files written before the header carried a dtype hold float32 factors
        dtype = meta.get("dtype", "float32")
        if dtype not in ADAPTER_DTYPES:
            raise ValueError(f"unsupported adapter dtype {dtype!r}")
        targets = [
            [_header_field(entry, key, types, f"targets[{i}].")
             for key, types in (("name", (str,)), ("d_in", (int,)), ("d_out", (int,)))]
            for i, entry in enumerate(meta["targets"])
        ]
        spec = AdapterSpec(
            rank=_header_field(meta, "rank", (int,)),
            alpha=float(_header_field(meta, "alpha", (int, float))),
            dropout=float(_header_field(meta, "dropout", (int, float))),
            target_modules=tuple(name for name, _, _ in targets),
            init_seed=_header_field(meta, "init_seed", (int,)),
        )
        step_count = _header_field(meta, "step_count", (int,))
        dims = {name: (d_in, d_out) for name, d_in, d_out in targets}
        if len(dims) != len(targets):
            raise ValueError("adapter file lists a target module twice")
        state = _laid_out(spec, dims, dtype)
        state.buffer[...] = read_tensor(f, state.buffer.shape, dtype)
        if f.read(1):
            raise ValueError("trailing bytes after adapter factors")
    state.step_count = step_count
    return state
