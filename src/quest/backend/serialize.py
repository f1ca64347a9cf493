"""Binary container for reference checkpoints (and shared adapter-file helpers).

Layout of a checkpoint file:

    magic "QSTB" | format version u32 | u32 header length | header JSON (utf-8)
    | raw parameter tensors in declaration order

All integers and tensor payloads are little-endian; the header records the
model config, so tensor shapes and dtype are recovered without per-tensor
framing.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .reference import RefConfig, ReferenceBackend, param_names, param_shapes

CHECKPOINT_MAGIC = b"QSTB"
FORMAT_VERSION = 1


def write_header(f: BinaryIO, magic: bytes, meta: dict) -> None:
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<I", FORMAT_VERSION))
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)


def read_header(f: BinaryIO, magic: bytes) -> dict:
    got = f.read(4)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", f.read(4))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    (n,) = struct.unpack("<I", f.read(4))
    return json.loads(f.read(n).decode("utf-8"))


def write_tensor(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def read_tensor(f: BinaryIO, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    dt = np.dtype(dtype).newbyteorder("<")
    count = int(np.prod(shape)) if shape else 1
    buf = f.read(count * dt.itemsize)
    if len(buf) != count * dt.itemsize:
        raise ValueError("truncated tensor payload")
    return np.frombuffer(buf, dtype=dt).astype(np.dtype(dtype)).reshape(shape)


def save_checkpoint(backend: ReferenceBackend, path: Union[str, Path]) -> None:
    cfg = backend.config
    with open(path, "wb") as f:
        write_header(f, CHECKPOINT_MAGIC, asdict(cfg))
        for name in param_names(cfg.n_layer):
            write_tensor(f, backend.params[name])


def load_checkpoint(path: Union[str, Path]) -> ReferenceBackend:
    with open(path, "rb") as f:
        meta = read_header(f, CHECKPOINT_MAGIC)
        cfg = RefConfig(**meta)
        shapes = param_shapes(cfg)
        params = {
            name: read_tensor(f, shapes[name], cfg.dtype) for name in param_names(cfg.n_layer)
        }
        if f.read(1):
            raise ValueError("trailing bytes after parameter dump")
    return ReferenceBackend(cfg, params)
