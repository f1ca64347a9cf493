"""Reference backend: a tiny character-level decoder-only transformer in numpy.

Small enough to train from scratch in seconds, yet structurally a real GPT:
token + position embeddings, pre-norm blocks with multi-head causal attention
(q/k/v/o projections, the low-rank injection sites) and a squared-ReLU MLP,
final RMSNorm, untied output head, no biases anywhere. Forward and backward
passes are written out by hand so gradients are available both for base
pretraining and for adapter-only test-time updates, with no autograd framework
behind them.

Weight convention: every linear is ``out = x @ W.T`` with ``W`` of shape
(d_out, d_in). An adapter passed to a call adds ``scaling * (x @ A.T) @ B.T``
on the q/k/v/o projections it targets. The branch input is dropped out only
where ``_RefCore.forward`` is given keep masks; the gradient calls draw them
from a training rng.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .session import AdaptableModuleInfo, check_loss_mask

_RMS_EPS = 1e-5

# Tokens one training forward and backward stack: a run of consecutive
# examples of one length T is cut into stacks of at most
# max(1, _STACK_TOKENS // T) rows. Short examples stack (the 22-token
# micro-batches of bench/'s hidden_rule, 4 rows); long ones run one row at a
# time. Measured end to end with bench/run.py on self_generated (~154-token
# examples; 2 vCPUs, numpy 2.4.6 with OpenBLAS), 10 alternating pairs, this
# cap against one stack per length: query_s median 0.322 s against 0.379 s
# (the cap won 10 of 10) and peak_rss_mb 53.8 against 64.8 MB.
_STACK_TOKENS = 128

# Rows one lock-step decode runs at most: prefetch cuts a group of requests
# into balanced chunks of at most this many rows. Measured in-process on
# bench/'s model (compare_baselines round 01, seed 11, 18 items; 2 vCPUs,
# numpy 2.4.6 with OpenBLAS, one BLAS thread; medians of 5 interleaved reps),
# decoding ms per query of base answers, tent answers and sc@8 samples: 40.5,
# 47.9 and 250.0 one row at a time; 14.3, 18.5 and 88.6 at 8 rows; 12.1, 15.7
# and 60.4 at 16; 9.6, 12.0 and 55.0 at 32. One sampled chunk grows peak RSS
# by 4.6 MB at 16 rows and 6.9 MB at 32, in a fresh process, against 5.9 MB
# for one item's 8 samples decoded together with copying compaction before.
# Chunks are dealt to _DECODE_PROCS processes in turn, so 144 sc rows decode
# as nine chunks of 16 dealt 5/4 on two CPUs. Rounding each group's chunk
# count up to a multiple of the process count (ten chunks of 14-15, 72 rows
# each) read query_s 0.0278 s median against 0.0284 s on bench/run.py
# compare_baselines (2 vCPUs, 10 s, seeds 71-76, default BLAS threads),
# winning 2 pairs, losing 2 and tying 2, so chunks keep the size above.
_LOCKSTEP_ROWS = 16

# Processes one prefetch call decodes its chunks on: this one, and a forked
# child for each further CPU this process may run on, up to one per chunk.
# Read once at import, as the row cap is a constant. The affinity mask is
# the whole count: a cgroup CPU quota below it is not read.
_DECODE_PROCS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

DEFAULT_CHARSET = "\n\t" + "".join(chr(c) for c in range(32, 127))


class CharTokenizer:
    """Fixed character vocabulary; id 0 is the end-of-sequence token."""

    eos_id = 0

    def __init__(self, charset: str = DEFAULT_CHARSET):
        if len(set(charset)) != len(charset):
            raise ValueError("charset contains duplicate characters")
        self.charset = charset
        self.vocab_size = len(charset) + 1
        self._id_of = {ch: i + 1 for i, ch in enumerate(charset)}
        self._char_of = {i + 1: ch for i, ch in enumerate(charset)}

    def encode(self, text: str) -> list[int]:
        """Total function: CR/CRLF normalize to LF, unknown chars become '?'
        when available and are dropped otherwise."""
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        fallback = self._id_of.get("?")
        ids = []
        for ch in text:
            tid = self._id_of.get(ch, fallback)
            if tid is not None:
                ids.append(tid)
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        chars = []
        for pos, tid in enumerate(ids):
            if tid == self.eos_id:
                continue
            ch = self._char_of.get(int(tid))
            if ch is None:
                raise ValueError(f"invalid token id {tid} at position {pos}")
            chars.append(ch)
        return "".join(chars)


@dataclass(frozen=True)
class RefConfig:
    charset: str = DEFAULT_CHARSET
    n_layer: int = 2
    d_model: int = 64
    n_head: int = 4
    max_len: int = 256
    dtype: str = "float32"
    init_std: float = 0.02

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):  # the dtypes an adapter file can hold
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        for key in ("n_layer", "d_model", "n_head"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.d_model % self.n_head:
            raise ValueError("d_model must be divisible by n_head")
        if len(self.charset) + 1 > 128:
            raise ValueError("reference vocabulary is capped at 128")

    @property
    def vocab_size(self) -> int:
        return len(self.charset) + 1

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_head


def param_names(n_layer: int) -> list[str]:
    """Parameter declaration order; also the checkpoint dump order."""
    names = ["wte", "wpe"]
    for i in range(n_layer):
        names += [
            f"layers.{i}.attn.q",
            f"layers.{i}.attn.k",
            f"layers.{i}.attn.v",
            f"layers.{i}.attn.o",
            f"layers.{i}.mlp.fc1",
            f"layers.{i}.mlp.fc2",
        ]
    names.append("lm_head")
    return names


def param_shapes(config: RefConfig) -> dict[str, tuple[int, ...]]:
    d, v = config.d_model, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"wte": (v, d), "wpe": (config.max_len, d)}
    for i in range(config.n_layer):
        for proj in ("q", "k", "v", "o"):
            shapes[f"layers.{i}.attn.{proj}"] = (d, d)
        shapes[f"layers.{i}.mlp.fc1"] = (4 * d, d)
        shapes[f"layers.{i}.mlp.fc2"] = (d, 4 * d)
    shapes["lm_head"] = (v, d)
    return shapes


def init_params(config: RefConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Gaussian init; o-projection, second MLP matrix and the output head start
    at zero so a fresh model is residual-quiet and exactly uniform over tokens."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(config.dtype)
    params = {}
    for name, shape in param_shapes(config).items():
        zero = name == "lm_head" or name.endswith(".attn.o") or name.endswith(".mlp.fc2")
        if zero:
            params[name] = np.zeros(shape, dtype=dt)
        else:
            params[name] = rng.normal(0.0, config.init_std, shape).astype(dt)
    return params


# -- forward / backward core ---------------------------------------------------


def _rmsnorm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit RMS; returns (normed, per-row inverse rms)."""
    # sum / n equals .mean bit for bit and skips mean's Python-level overhead
    inv = 1.0 / np.sqrt((x * x).sum(axis=-1) / x.shape[-1] + _RMS_EPS)
    return x * inv[..., None], inv


def _rmsnorm_bwd(dy: np.ndarray, x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    dot = (x * dy).sum(axis=-1)
    return inv[..., None] * (dy - (inv * inv * dot / n)[..., None] * x)


class _RefCore:
    """Forward/backward over one parameter set. Shared by the frozen backend
    wrapper and the pretraining loop (which owns writable parameters)."""

    def __init__(self, config: RefConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        # each forward slices its causal mask from this one; building a mask
        # per call was a noticeable share of a one-token decode step
        self._causal = np.triu(np.full((config.max_len,) * 2, -np.inf, dtype=config.dtype), k=1)

    def empty_kv(self, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (key, value) buffers of shape (rows, H, max_len, hd) for a
        ``forward`` over ``rows`` sequences."""
        cfg = self.config
        shape = (rows, cfg.n_head, cfg.max_len, cfg.head_dim)
        return [(np.empty(shape, cfg.dtype), np.empty(shape, cfg.dtype)) for _ in range(cfg.n_layer)]

    # forward -------------------------------------------------------------

    def forward(
        self,
        ids: Sequence[int],
        adapter: Any = None,
        keep: Optional[np.ndarray] = None,
        kv: Optional[list[tuple[np.ndarray, np.ndarray]]] = None,
        start: int = 0,
    ) -> tuple[np.ndarray, dict]:
        """Forward over a chunk at positions ``start..start+T-1``. Returns
        (logits (T, V), cache for backward).

        ``ids`` of shape (B, T) runs B sequences side by side and returns
        logits (B, T, V). Every product stays stacked over the row dimension,
        never flattened to (B*T, d), so each row gets the bits a forward over
        that row alone would give.

        ``keep`` switches the adapter branch into training mode: boolean
        dropout masks of shape (B, n, T, d) for the n adapted modules in
        forward order (layer by layer, q, k, v, o), False where that branch
        input is dropped; only then is ``adapter.spec.dropout`` read. Eval
        calls leave it None and are fully deterministic. ``kv`` is an optional
        key/value cache from ``empty_kv(B)`` for a (B, T) chunk: the chunk's
        keys and values are written at its positions and attention runs over
        everything cached before them, so a prompt can be fed in one call and
        decoding continued one token per call. Backward needs the uncached,
        ``start=0`` form, and one row for base gradients.
        """
        cfg, p = self.config, self.params
        ids_arr = np.asarray(ids, dtype=np.intp)
        lead, T = ids_arr.shape[:-1], ids_arr.shape[-1]
        if start + T > cfg.max_len:
            raise ValueError(f"sequence length {start + T} exceeds max length {cfg.max_len}")
        if ids_arr.size and (ids_arr.min() < 0 or ids_arr.max() >= cfg.vocab_size):
            raise ValueError("token id out of range")
        factors = {} if adapter is None else adapter.factors
        # None also tells backward that no adapter ran: it gives base gradients
        scaling = None if adapter is None else float(adapter.scaling)
        # one (B, T, d) mask per adapted module, taken in forward order
        masks = None if keep is None else iter(np.moveaxis(keep, -3, 0))

        x = p["wte"][ids_arr] + p["wpe"][start : start + T]
        cache: dict[str, Any] = {"ids": ids_arr, "T": T, "scaling": scaling, "layers": []}
        H, hd = cfg.n_head, cfg.head_dim
        inv_sqrt = 1.0 / math.sqrt(hd)
        causal = self._causal[start : start + T, : start + T]
        heads, merged = (*lead, T, H, hd), (*lead, T, cfg.d_model)

        def adapted(xin: np.ndarray, name: str):
            out = xin @ p[name].T
            fac = factors.get(name)
            if fac is None:
                return out, (xin, None, None, None, None)
            A, B = fac
            mask = None
            branch_in = xin
            if masks is not None:
                mask = next(masks).astype(xin.dtype) / np.asarray(1.0 - adapter.spec.dropout, dtype=xin.dtype)
                branch_in = xin * mask
            # swapaxes, not .T: stacked per-row factors (B, r, d) take the same path
            h = branch_in @ A.swapaxes(-1, -2)
            out = out + (h @ B.swapaxes(-1, -2)) * np.asarray(scaling, dtype=xin.dtype)
            return out, (xin, branch_in, h, mask, (A, B))

        for li in range(cfg.n_layer):
            lc: dict[str, Any] = {"attn_in": x}
            a, lc["a_inv"] = _rmsnorm(x)
            q, lc["q_cache"] = adapted(a, f"layers.{li}.attn.q")
            k, lc["k_cache"] = adapted(a, f"layers.{li}.attn.k")
            v, lc["v_cache"] = adapted(a, f"layers.{li}.attn.v")
            # head-major (..., H, T, hd) layout so the contractions hit BLAS
            qh = q.reshape(heads).swapaxes(-3, -2)
            kh = k.reshape(heads).swapaxes(-3, -2)
            vh = v.reshape(heads).swapaxes(-3, -2)
            if kv is not None:
                K, V = kv[li]
                K[..., start : start + T, :] = kh
                V[..., start : start + T, :] = vh
                kh, vh = K[..., : start + T, :], V[..., : start + T, :]
            # in place: a (B, H, T, T) prompt chunk holds one such array at a time
            probs = qh @ kh.swapaxes(-1, -2)
            probs *= inv_sqrt
            probs += causal
            probs -= probs.max(axis=-1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=-1, keepdims=True)
            attn = (probs @ vh).swapaxes(-3, -2).reshape(merged)
            lc["qh"], lc["kh"], lc["vh"], lc["probs"] = qh, kh, vh, probs
            del probs  # lc holds it; a cached forward then frees it with lc
            o, lc["o_cache"] = adapted(attn, f"layers.{li}.attn.o")
            x = x + o

            lc["mlp_in"] = x
            b, b_inv = _rmsnorm(x)
            lc["b_norm"], lc["b_inv"] = b, b_inv
            h_pre = b @ p[f"layers.{li}.mlp.fc1"].T
            h_act = np.square(np.maximum(h_pre, 0.0))
            lc["h_pre"], lc["h_act"] = h_pre, h_act
            x = x + h_act @ p[f"layers.{li}.mlp.fc2"].T
            if kv is None:
                # a cached forward keeps no activations: backward never takes one
                cache["layers"].append(lc)

        cache["final_in"] = x
        xf, f_inv = _rmsnorm(x)
        cache["final_norm"], cache["final_inv"] = xf, f_inv
        logits = xf @ p["lm_head"].T
        return logits, cache

    # backward --------------------------------------------------------------

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict:
        """Backpropagate dL/dlogits through the cache of an uncached forward.

        A forward under an adapter gives gradients {module: (dA, dB)} for its
        adapted modules only. Over a (B, T) forward they are stacked per row,
        (B, rank, d_in) and (B, d_out, rank); every product stays stacked over
        rows, as in ``forward``, so each row gets the bits a backward over it
        alone would. A forward without one gives gradients for every base
        tensor, and must be over one row.
        """
        cfg, p = self.config, self.params
        ids_arr, T = cache["ids"], cache["T"]
        lead = ids_arr.shape[:-1]
        scaling = cache["scaling"]
        base_grads = scaling is None
        if base_grads and lead:
            raise ValueError("base gradients take a one-row forward")
        H, hd = cfg.n_head, cfg.head_dim
        inv_sqrt = 1.0 / math.sqrt(hd)
        base: dict[str, np.ndarray] = {}
        adapter_grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        dlogits = dlogits.astype(p["lm_head"].dtype, copy=False)

        def t(g: np.ndarray) -> np.ndarray:
            return g.swapaxes(-1, -2)

        def adapted_bwd(dout: np.ndarray, name: str, lin_cache, need_dx: bool = True) -> Optional[np.ndarray]:
            xin, branch_in, h, mask, fac = lin_cache
            dx = dout @ p[name] if need_dx else None
            if base_grads:
                base[name] = t(dout) @ xin
            if fac is not None:
                A, B = fac
                dh = scaling * (dout @ B)
                if not base_grads:
                    adapter_grads[name] = (t(dh) @ branch_in, scaling * (t(dout) @ h))
                if need_dx:
                    dbranch = dh @ A
                    if mask is not None:
                        dbranch = dbranch * mask
                    dx = dx + dbranch
            return dx

        dxf = dlogits @ p["lm_head"]
        if base_grads:
            base["lm_head"] = t(dlogits) @ cache["final_norm"]
        dx = _rmsnorm_bwd(dxf, cache["final_in"], cache["final_inv"])
        heads, merged = (*lead, T, H, hd), (*lead, T, cfg.d_model)

        def adapted(lc: dict, module: str) -> bool:
            return lc[f"{module}_cache"][4] is not None

        # adapter gradients read nothing below the lowest adapted module: the
        # backward stops in its layer, once those modules' factors have theirs
        lowest = 0 if base_grads else min(
            (li for li, lc in enumerate(cache["layers"]) if any(adapted(lc, m) for m in "qkvo")),
            default=cfg.n_layer,
        )

        for li in range(cfg.n_layer - 1, lowest - 1, -1):
            lc = cache["layers"][li]
            # MLP block
            dh_act = dx @ p[f"layers.{li}.mlp.fc2"]
            if base_grads:
                base[f"layers.{li}.mlp.fc2"] = t(dx) @ lc["h_act"]
            dh_pre = dh_act * (2.0 * np.maximum(lc["h_pre"], 0.0))
            db = dh_pre @ p[f"layers.{li}.mlp.fc1"]
            if base_grads:
                base[f"layers.{li}.mlp.fc1"] = t(dh_pre) @ lc["b_norm"]
            dx = dx + _rmsnorm_bwd(db, lc["mlp_in"], lc["b_inv"])

            # attention block, in the forward's head-major (..., H, T, hd) layout
            floor = not base_grads and li == lowest
            wanted = [m for m in "qkv" if not floor or adapted(lc, m)]
            dattn = adapted_bwd(dx, f"layers.{li}.attn.o", lc["o_cache"], need_dx=bool(wanted))
            if not wanted:
                break
            dattn_h = dattn.reshape(heads).swapaxes(-3, -2)
            probs, vh, qh, kh = lc["probs"], lc["vh"], lc["qh"], lc["kh"]
            dheads = {}
            if "q" in wanted or "k" in wanted:
                dprobs = dattn_h @ t(vh)
                dscores = probs * (dprobs - (probs * dprobs).sum(axis=-1, keepdims=True))
                if "q" in wanted:
                    dheads["q"] = (dscores @ kh) * inv_sqrt
                if "k" in wanted:
                    dheads["k"] = (t(dscores) @ qh) * inv_sqrt
            if "v" in wanted:
                dheads["v"] = t(probs) @ dattn_h

            das = [
                adapted_bwd(
                    dheads[m].swapaxes(-3, -2).reshape(merged), f"layers.{li}.attn.{m}", lc[f"{m}_cache"],
                    need_dx=not floor,
                )
                for m in wanted
            ]
            if floor:
                break
            da, dk, dv = das
            da += dk
            da += dv
            dx = dx + _rmsnorm_bwd(da, lc["attn_in"], lc["a_inv"])

        if base_grads:
            dwte = np.zeros_like(p["wte"])
            np.add.at(dwte, ids_arr, dx)
            base["wte"] = dwte
            dwpe = np.zeros_like(p["wpe"])
            dwpe[:T] = dx
            base["wpe"] = dwpe
            return base
        return adapter_grads


def _log_softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64, copy=False)
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _nll_and_dlogits(
    logits: np.ndarray, ids: np.ndarray, loss_mask: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Per row of (B, T, V) logits, the mean NLL over mask-1 targets of ``ids``
    and ``loss_mask`` (both (B, T)); plus dL/dlogits (float64)."""
    logp = _log_softmax64(logits)
    rows, targets = np.nonzero(loss_mask)  # row-major: each row's targets in order
    picked = logp[rows, targets - 1, ids[rows, targets]].tolist()
    counts = np.count_nonzero(loss_mask, axis=-1)
    w = 1.0 / counts
    losses, first = [], 0
    for n in counts.tolist():
        losses.append(-sum(picked[first : first + n]) / n)
        first += n
    probs = np.exp(logp)
    dlogits = np.zeros_like(logp)
    dlogits[rows, targets - 1] = probs[rows, targets - 1] * w[rows, None]
    dlogits[rows, targets - 1, ids[rows, targets]] -= w[rows]
    return losses, dlogits


def _entropy_and_dlogits(logits: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Per row of (B, T, V) logits, the mean per-position Shannon entropy of
    its next-token distributions; plus dL/dlogits (float64)."""
    logp = _log_softmax64(logits)
    probs = np.exp(logp)
    # p log p -> 0 (not nan) where p underflowed to exactly zero
    plogp = np.where(probs > 0.0, probs * logp, 0.0)
    row_h = -plogp.sum(axis=-1)
    dlogits = -(plogp + probs * row_h[..., None]) / logits.shape[-2]
    return row_h.mean(axis=-1).tolist(), dlogits


def _draw(probs: np.ndarray, rngs) -> list[int]:
    """The index ``rng.choice(V, p=row)`` draws for each row of ``probs``
    (rows, V), one generator per row, from the same generator state, without
    its per-call validation. Each row takes one ``random()`` from its
    generator, in row order; counting ``cdf <= u`` equals
    ``cdf.searchsorted(u, side="right")`` on a non-decreasing cdf."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1).tolist()


@dataclass(frozen=True)
class _RowFactors:
    """Adapters of one spec stacked along the row axis, for an eval forward
    over one row per adapter: A (rows, r, d_in), B (rows, d_out, r)."""

    factors: dict[str, tuple[np.ndarray, np.ndarray]]
    scaling: float


def _spec_key(adapter: Any) -> Optional[tuple]:
    """What adapters must share to stack: targets, factor shapes and dtypes
    (so the rank) and scaling. None for no adapter."""
    if adapter is None:
        return None
    shapes = tuple(
        (name, a.shape, b.shape, a.dtype.str, b.dtype.str) for name, (a, b) in adapter.factors.items()
    )
    return float(adapter.scaling), shapes


def _adapter_digest(adapter: Any) -> Optional[bytes]:
    """Digest of an adapter's spec key and factor bytes: equal exactly when
    two adapters compute the same outputs. None for no adapter."""
    if adapter is None:
        return None
    h = hashlib.blake2b(repr(_spec_key(adapter)).encode(), digest_size=16)
    for a, b in adapter.factors.values():
        h.update(a.tobytes())
        h.update(b.tobytes())
    return h.digest()


def _stack_rows(adapters: Sequence[Any]) -> Optional[_RowFactors]:
    """One stack of factors over adapters of one spec, or None when the rows
    have no adapter."""
    first = adapters[0]
    if first is None:
        return None
    factors = {
        name: tuple(np.stack([a.factors[name][k] for a in adapters]) for k in (0, 1))
        for name in first.factors
    }
    return _RowFactors(factors, float(first.scaling))


def _compact(kv: list, rows: Optional[_RowFactors], keep: list[int], filled: int):
    """Move the rows ``keep`` (ascending) of the key/value buffers, their
    first ``filled`` positions, and of the stacked factors to the front, in
    place, and return views over them. No buffer is allocated."""
    for j, i in enumerate(keep):
        if i == j:
            continue
        for K, V in kv:
            K[j, :, :filled] = K[i, :, :filled]
            V[j, :, :filled] = V[i, :, :filled]
        if rows is not None:
            for a, b in rows.factors.values():
                a[j] = a[i]
                b[j] = b[i]
    n = len(keep)
    kv = [(K[:n], V[:n]) for K, V in kv]
    if rows is not None:
        factors = {name: (a[:n], b[:n]) for name, (a, b) in rows.factors.items()}
        rows = _RowFactors(factors, rows.scaling)
    return kv, rows


def _shares(sizes: Sequence[int], procs: int) -> list[list[tuple[int, int, int]]]:
    """Deal groups of ``sizes[g]`` rows to at most ``procs`` shares of
    chunks ``(g, lo, hi)``, rows ``lo:hi`` of group g.

    Each group is cut into as few balanced chunks as ``_LOCKSTEP_ROWS``
    allows, and chunk j of the call goes to share ``j % procs``, so there
    are never more shares than chunks.
    """
    chunks = []
    for g, n in enumerate(sizes):
        n_chunks = -(-n // _LOCKSTEP_ROWS)
        bounds = [n * c // n_chunks for c in range(n_chunks + 1)]
        chunks += [(g, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [chunks[s::procs] for s in range(min(procs, len(chunks)))]


@functools.cache
def _openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The getter and setter of the thread count of the OpenBLAS that numpy's
    wheel bundles, or None where numpy uses another BLAS. The symbols belong
    to that wheel (``scipy_openblas``), so they are looked up by name."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    count; a no-op where that count cannot be set.

    With one process per CPU decoding, a second BLAS thread in each only
    contends: OpenBLAS's idle threads spin. On bench/'s ``self_generated``
    (2 vCPUs, default BLAS threads, 10 s runs), forked decoding without this
    read query_s 0.0906 s median against 0.0818 s in one process, slower in
    4 of 4 pairs (seeds 81-84); with it, 0.0799 s against 0.0797 (seeds
    91-94). Outputs on bench/'s model were byte-identical either way, and
    ``quest selftest`` compares forked with in-process bytes.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _fork_map(fn: Callable[[Any], Any], shares: Sequence[Any]) -> list:
    """``[fn(share) for share in shares]``, the first share computed in this
    process and each other in a child forked for it, each on one BLAS thread
    (``_one_blas_thread``).

    A child inherits everything ``fn`` reads, so nothing is pickled on the
    way in. It pickles its result to a pipe and leaves with ``os._exit``,
    running no exit handler and flushing no inherited buffer. A share whose
    fork fails is computed here. Every child is reaped before this returns,
    and killed first when this raises; a child that fails, or whose result
    arrives short, raises ``RuntimeError``.
    """
    if len(shares) < 2:
        return [fn(share) for share in shares]
    results: list = [None] * len(shares)
    here = [0]
    children: dict[int, tuple[int, Any]] = {}  # pid -> (share, read end of its pipe)
    with _one_blas_thread():
        try:
            for i in range(1, len(shares)):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    here.append(i)
                    continue
                if pid == 0:  # the child: never returns into the caller's frames
                    code = 1
                    try:
                        os.close(r)
                        with os.fdopen(w, "wb") as pipe:
                            pickle.dump(fn(shares[i]), pipe, protocol=pickle.HIGHEST_PROTOCOL)
                        code = 0
                    except BaseException:
                        os.write(2, traceback.format_exc().encode())
                    finally:
                        os._exit(code)
                os.close(w)
                children[pid] = (i, os.fdopen(r, "rb"))
            for i in here:
                results[i] = fn(shares[i])
            for pid in list(children):
                i, pipe = children[pid]
                data = pipe.read()
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                code = os.waitstatus_to_exitcode(status)
                if code:
                    raise RuntimeError(f"decode worker {pid} exited with status {code}")
                try:
                    results[i] = pickle.loads(data)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise RuntimeError(f"decode worker {pid} sent {len(data)} bytes, a short result") from exc
        except BaseException:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, (_, pipe) in children.items():
                pipe.close()
                os.waitpid(pid, 0)
    return results


class ReferenceBackend:
    """Frozen-parameter reference model implementing the backend interface."""

    name = "reference"

    def __init__(self, config: RefConfig, params: dict[str, np.ndarray]):
        shapes = param_shapes(config)
        missing = set(shapes) - set(params)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
        frozen = {}
        for key, shape in shapes.items():
            arr = np.array(params[key], dtype=np.dtype(config.dtype), order="C")
            if arr.shape != shape:
                raise ValueError(f"parameter {key} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            frozen[key] = arr
        self.config = config
        self.params = frozen
        self.tokenizer = CharTokenizer(config.charset)
        self._core = _RefCore(config, frozen)
        self._held: dict[tuple, bytes] = {}  # the outputs of the latest prefetch

    @classmethod
    def fresh(cls, config: Optional[RefConfig] = None, seed: int = 0) -> "ReferenceBackend":
        config = config or RefConfig()
        return cls(config, init_params(config, seed))

    # -- metadata ---------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    @property
    def max_len(self) -> int:
        return self.config.max_len

    @property
    def eos_id(self) -> int:
        return self.tokenizer.eos_id

    def adaptable_modules(self) -> list[AdaptableModuleInfo]:
        d = self.config.d_model
        return [
            AdaptableModuleInfo(f"layers.{i}.attn.{proj}", d, d, self.config.dtype)
            for i in range(self.config.n_layer)
            for proj in ("q", "k", "v", "o")
        ]

    def checksum(self) -> str:
        """Digest of all base parameters in declaration order."""
        h = hashlib.sha256()
        for name in param_names(self.config.n_layer):
            h.update(self.params[name].tobytes())
        return h.hexdigest()

    def with_params(self, params: dict[str, np.ndarray]) -> "ReferenceBackend":
        """Same architecture over a different parameter set (merge snapshots)."""
        return ReferenceBackend(self.config, params)

    # -- token ops --------------------------------------------------------

    def tokenize(self, text: str) -> list[int]:
        return self.tokenizer.encode(text)

    def detokenize(self, tokens: Sequence[int]) -> str:
        return self.tokenizer.decode(tokens)

    # -- forward / losses ---------------------------------------------------

    def forward_logits(self, tokens: Sequence[int], adapter: Any = None) -> np.ndarray:
        logits, _ = self._core.forward(tokens, adapter=adapter)
        return logits

    def masked_nll_with_grads(
        self,
        tokens: Sequence[int],
        loss_mask: Sequence[int],
        adapter: Any,
        dropout_rng: Optional[np.random.Generator] = None,
        lengths: Optional[Sequence[int]] = None,
    ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Masked NLL and adapter-factor gradients of the examples packed
        end to end in ``tokens`` and ``loss_mask``, one of ``lengths[i]``
        tokens each (None: one example); ``dropout_rng`` switches on the
        adapter's dropout. Returns the sum of the examples' losses and of
        their gradients, each added in example order."""
        check_loss_mask(tokens, loss_mask)
        return self._grads(tokens, lengths, adapter, dropout_rng, loss_mask)

    def entropy_with_grads(
        self,
        tokens: Sequence[int],
        adapter: Any,
        dropout_rng: Optional[np.random.Generator] = None,
        lengths: Optional[Sequence[int]] = None,
    ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Mean entropy and adapter-factor gradients; examples are packed
        as for ``masked_nll_with_grads``, and so are the sums."""
        return self._grads(tokens, lengths, adapter, dropout_rng, None)

    def _grads(
        self,
        tokens: Sequence[int],
        lengths: Optional[Sequence[int]],
        adapter: Any,
        dropout_rng: Optional[np.random.Generator],
        loss_mask: Optional[Sequence[int]],
    ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Summed loss and adapter gradients of the examples packed in
        ``tokens``: masked NLL under ``loss_mask``, or mean entropy when it
        is None.

        One pass over the examples in order: each run of consecutive
        examples of one length T is a stack of at most
        ``max(1, _STACK_TOKENS // T)`` rows, never padded, with one forward
        and backward. A stack draws its dropout as one (rows, modules, T, d)
        draw just before its forward, the stream one draw per example would
        give, and adds its losses and row gradients to the sums in example
        order.
        """
        lengths = [len(tokens)] if lengths is None else [int(n) for n in lengths]
        if not lengths or min(lengths) < 1:
            raise ValueError(f"example lengths must be positive, got {lengths}")
        if sum(lengths) != len(tokens):
            raise ValueError(f"example lengths sum to {sum(lengths)}, but {len(tokens)} tokens were given")
        if loss_mask is not None:
            for lo, T in zip(np.cumsum([0] + lengths[:-1]).tolist(), lengths):
                check_loss_mask(tokens[lo : lo + T], loss_mask[lo : lo + T])
            loss_mask = np.asarray(loss_mask, dtype=bool)
        ids = np.asarray(tokens, dtype=np.intp)
        factors = {} if adapter is None else adapter.factors
        n_mod = sum(m.name in factors for m in self.adaptable_modules())
        drop = dropout_rng is not None and n_mod > 0 and adapter.spec.dropout > 0.0

        total = 0.0
        summed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        lo = 0
        for T, run in groupby(lengths):
            n, cap = len(list(run)), max(1, _STACK_TOKENS // T)
            for first in range(0, n, cap):
                rows = min(cap, n - first)
                span = slice(lo, lo + rows * T)
                lo += rows * T
                batch = ids[span].reshape(rows, T)
                keep = None
                if drop:
                    keep = dropout_rng.random((rows, n_mod, T, self.config.d_model)) >= adapter.spec.dropout
                logits, cache = self._core.forward(batch, adapter=adapter, keep=keep)
                if loss_mask is None:
                    values, dlogits = _entropy_and_dlogits(logits)
                else:
                    values, dlogits = _nll_and_dlogits(logits, batch, loss_mask[span].reshape(rows, T))
                grads = {} if adapter is None else self._core.backward(cache, dlogits)
                for row, value in enumerate(values):
                    total += value
                    for name, (dA, dB) in grads.items():
                        if name in summed:
                            ga, gb = summed[name]
                            ga += dA[row]
                            gb += dB[row]
                        else:
                            summed[name] = (dA[row].copy(), dB[row].copy())
        return total, summed

    # -- generation ---------------------------------------------------------

    def _request(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float,
        adapter: Any,
        seed: Optional[int],
    ) -> Optional[tuple[tuple, np.ndarray, Optional[bytes]]]:
        """Validate one generate request. Returns None when there is nothing
        to decode (no budget, or a prompt that fills the context window),
        else its key, the prompt ids and, when sampling, the digest that
        seeds the sampler."""
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if not 0 <= temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
        if len(prompt) > self.max_len:
            raise ValueError(f"prompt length {len(prompt)} exceeds max length {self.max_len}")
        if max_new_tokens == 0:
            return None
        if not len(prompt):
            raise ValueError("cannot generate from an empty prompt")
        ids = np.asarray(prompt, dtype=np.intp)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError("token id out of range")
        if len(ids) == self.max_len:  # no position is left for a new token
            return None
        digest = None
        if temperature > 0:
            digest = hashlib.blake2b(
                (str(seed) + ":" + ",".join(map(str, prompt))).encode(), digest_size=16
            ).digest()
        # the digest seeds the sampler, so it stands for the seed in the key;
        # greedy output does not depend on the seed
        key = (ids.astype(np.uint8).tobytes(), max_new_tokens, temperature, digest, _adapter_digest(adapter))
        return key, ids, digest

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float = 0.0,
        adapter: Any = None,
        seed: Optional[int] = None,
    ) -> list[int]:
        """Greedy (``temperature == 0``) or sampled continuation of ``prompt``.

        A request the latest ``prefetch`` call decoded returns its output
        without decoding; any other decodes, and its output is not kept.
        """
        request = self._request(prompt, max_new_tokens, temperature, adapter, seed)
        if request is None:
            return []
        key, ids, digest = request
        held = self._held.get(key)
        if held is not None:
            return list(held)
        return self._decode(ids[None], max_new_tokens, temperature, [adapter], [digest])[0]

    def prefetch(self, requests: Sequence[tuple]) -> None:
        """Decode requests in lock-step and hold their outputs, in place of
        the previous call's, for the ``generate`` calls that read them back.
        Each request is ``generate``'s arguments, ``(prompt, max_new_tokens,
        temperature, adapter, seed)``.

        Requests group by prompt length, ``max_new_tokens``, ``temperature``
        and adapter spec (targets, factor shapes and scaling; or no adapter),
        and each group decodes in balanced chunks of at most
        ``_LOCKSTEP_ROWS`` rows: one forward over the chunk's prompts, then
        one forward per step for all of its rows, each row under its own
        adapter and sampling with its own seed. Its output is the one
        ``generate`` alone would give, bit for bit. A request is keyed by
        its prompt, ``max_new_tokens``, ``temperature``, when sampling its
        seed, and a digest of the adapter's factor bytes and scaling, so an
        adapter of equal values reads the same output. Repeated requests
        decode once; requests with nothing to decode and ones ``generate``
        rejects are skipped, so ``generate`` still raises for the last.

        The chunks are dealt in turn to ``_DECODE_PROCS`` processes, one
        per CPU this process may run on but never more than there are
        chunks (``_shares``): this process decodes one share and a child
        forked for this call decodes each other (``_fork_map``). A chunk's
        outputs do not depend on its chunk-mates or on the process that
        decodes it, so they are the same either way. Decoding stays in this process when there is one chunk
        or one CPU, when ``os.fork`` is missing, when another Python thread
        runs (forking it is unsafe), and for a share whose fork fails. On
        Python 3.12 and later ``os.fork`` warns (``DeprecationWarning``)
        when the process has other threads, such as OpenBLAS workers.
        """
        groups: dict[tuple, dict[tuple, tuple]] = {}
        for prompt, max_new_tokens, temperature, adapter, seed in requests:
            try:
                request = self._request(prompt, max_new_tokens, temperature, adapter, seed)
            except ValueError:
                continue
            if request is None:
                continue
            key, ids, digest = request
            setting = (len(ids), max_new_tokens, temperature, _spec_key(adapter))
            groups.setdefault(setting, {}).setdefault(key, (ids, digest, adapter))
        settings = list(groups)
        rows = [list(group.items()) for group in groups.values()]

        def decode(share: list[tuple[int, int, int]]) -> dict[tuple, bytes]:
            held = {}
            for g, lo, hi in share:
                _, max_new_tokens, temperature, _ = settings[g]
                keys, chunk = zip(*rows[g][lo:hi])
                ids, digests, adapters = zip(*chunk)
                try:
                    outs = self._decode(np.stack(ids), max_new_tokens, temperature, adapters, digests)
                except ValueError:  # factors that do not fit the model: generate raises
                    continue
                for key, out in zip(keys, outs):
                    held[key] = bytes(out)
            return held

        # a forked child is safe only where no other thread holds a lock
        procs = _DECODE_PROCS if hasattr(os, "fork") and threading.active_count() == 1 else 1
        held: dict[tuple, bytes] = {}
        for part in _fork_map(decode, _shares([len(r) for r in rows], procs)):
            held.update(part)
        self._held = held

    def _decode(
        self,
        ids: np.ndarray,
        max_new_tokens: int,
        temperature: float,
        adapters: Sequence[Any],
        digests: Sequence[Optional[bytes]],
    ) -> list[list[int]]:
        """Continue B prompts of one length, ``ids`` (B, P) with P below the
        context window, in lock-step, row b under ``adapters[b]`` (all None,
        or all of one spec).

        The prompts fill the key/value cache, in one forward without
        adapters or one per adapted row; each step then feeds one token per
        row still decoding, under the rows' stacked factors. A row stops at the
        end-of-sequence token, at ``max_new_tokens`` or at the context window;
        the rows left are compacted in place; no forward runs once none is
        left.
        """
        n_rows, pos = ids.shape
        rngs = [
            None if d is None else np.random.default_rng(np.frombuffer(d, dtype=np.uint32))
            for d in digests
        ]
        outs: list[list[int]] = [[] for _ in range(n_rows)]
        live = list(range(n_rows))
        eos, window = self.eos_id, self.max_len
        kv = self._core.empty_kv(n_rows)
        rows = _stack_rows(adapters)
        # adapter-free rows prefill together; adapted ones one at a time, as
        # generate alone would, so that a chunk of quest's long answer prompts
        # holds one row's attention scores at a time, not the chunk's
        spans = [slice(0, n_rows)] if rows is None else [slice(b, b + 1) for b in range(n_rows)]
        firsts = []
        for span in spans:
            cache = [(K[span], V[span]) for K, V in kv]
            firsts.append(self._core.forward(ids[span], adapter=adapters[span.start], kv=cache)[0][:, -1])
        logits = np.concatenate(firsts)
        while True:
            if temperature == 0:
                toks = logits.argmax(axis=1).tolist()
            else:
                z = logits.astype(np.float64) / temperature
                z -= z.max(axis=1)[:, None]
                probs = np.exp(z)
                probs /= probs.sum(axis=1)[:, None]
                toks = _draw(probs, [rngs[row] for row in live])
            fits = pos + 1 < window
            keep = []
            for i, tok in enumerate(toks):
                if tok != eos:
                    out = outs[live[i]]
                    out.append(tok)
                    if fits and len(out) < max_new_tokens:
                        keep.append(i)
            if not keep:
                return outs
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                toks = [toks[i] for i in keep]
                kv, rows = _compact(kv, rows, keep, pos)
            step = np.array(toks, dtype=np.intp)[:, None]
            logits = self._core.forward(step, adapter=rows, kv=kv, start=pos)[0][:, 0]
            pos += 1


def train_reference(
    corpus: Sequence[str],
    config: Optional[RefConfig] = None,
    *,
    steps: int = 400,
    lr: float = 1e-2,
    seed: int = 0,
    log_every: int = 0,
) -> ReferenceBackend:
    """Train a reference model from scratch on a list of text documents.

    Documents are cycled in shuffled order, one per step, each terminated by
    the end-of-sequence token; the loss covers every position after the first.
    Returns a frozen backend ready to wrap in a session.
    """
    from ..optim import AdamW

    config = config or RefConfig()
    if not corpus:
        raise ValueError("corpus is empty")
    params = init_params(config, seed)
    core = _RefCore(config, params)
    opt = AdamW(params, lr=lr)
    tok = CharTokenizer(config.charset)
    order = list(range(len(corpus)))
    np.random.default_rng(seed).shuffle(order)

    for step in range(steps):
        doc = corpus[order[step % len(order)]]
        ids = tok.encode(doc)[: config.max_len - 1] + [tok.eos_id]
        if len(ids) < 2:
            continue
        mask = np.arange(len(ids)) > 0
        logits, cache = core.forward(ids)
        losses, dlogits = _nll_and_dlogits(logits[None], np.asarray([ids]), mask[None])
        grads = core.backward(cache, dlogits[0])
        opt.step(grads)
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1:>5}/{steps}  loss {losses[0]:.4f}")

    return ReferenceBackend(config, params)
