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
on the q/k/v/o projections it targets; the branch input is dropped out only
when a training rng is supplied.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .session import AdaptableModuleInfo, check_loss_mask

_RMS_EPS = 1e-5

# Entries in a ReferenceBackend's memo of adapter-free generate outputs.
# quest compare draws self-consistency budget n's samples with seeds k < n and
# runs the largest budget first, so every smaller budget asks again for
# samples the largest one drew, and quest_no_lora asks again for quest's
# pair-generation requests. The sweep runs budget-major, so about 8 new
# entries per benchmark item (budget 8's samples, or 5 pair slots plus
# retries) come between drawing a request and asking for it again: 144 for
# 18 items, and 4096 entries keep that reuse for sweeps of about 500 items.
# The vocabulary is capped at 128, so an entry holds one byte per token, at
# most max_len bytes of prompt and output plus about 300 bytes of Python
# objects: about 2.3 MB in all at max_len 256.
_MEMO_ENTRIES = 4096

# Tokens one training forward and backward stack, as rows of equal length T:
# max(1, _STACK_TOKENS // T) rows. Short examples stack (the 22-token
# micro-batches of bench/'s hidden_rule, 4 rows); long ones run one row at a
# time. Measured end to end with bench/run.py on self_generated (~154-token
# examples; 2 vCPUs, numpy 2.4.6 with OpenBLAS), 10 alternating pairs, this
# cap against one stack per length: query_s median 0.322 s against 0.379 s
# (the cap won 10 of 10) and peak_rss_mb 53.8 against 64.8 MB.
_STACK_TOKENS = 128

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


def _adapter_view(adapter: Any) -> tuple[dict, float, float]:
    if adapter is None:
        return {}, 0.0, 0.0
    return adapter.factors, float(adapter.scaling), float(adapter.spec.dropout)


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
        input is dropped. Eval calls leave it None and are fully
        deterministic. ``kv`` is an optional key/value cache from
        ``empty_kv(B)`` for a (B, T) chunk: the chunk's keys and values are
        written at its positions and attention runs over everything cached
        before them, so a prompt can be fed in one call and decoding continued
        one token per call. Backward needs the uncached, ``start=0`` form, and
        one row for base gradients.
        """
        cfg, p = self.config, self.params
        ids_arr = np.asarray(ids, dtype=np.intp)
        lead, T = ids_arr.shape[:-1], ids_arr.shape[-1]
        if start + T > cfg.max_len:
            raise ValueError(f"sequence length {start + T} exceeds max length {cfg.max_len}")
        if ids_arr.size and (ids_arr.min() < 0 or ids_arr.max() >= cfg.vocab_size):
            raise ValueError("token id out of range")
        factors, scaling, dropout = _adapter_view(adapter)
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
                mask = next(masks).astype(xin.dtype) / np.asarray(1.0 - dropout, dtype=xin.dtype)
                branch_in = xin * mask
            h = branch_in @ A.T
            out = out + (h @ B.T) * np.asarray(scaling, dtype=xin.dtype)
            return out, (xin, branch_in, h, mask, (A, B))

        for li in range(cfg.n_layer):
            lc: dict[str, Any] = {"attn_in": x}
            a, a_inv = _rmsnorm(x)
            lc["a_norm"], lc["a_inv"] = a, a_inv
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
            lc["qh"], lc["kh"], lc["vh"], lc["probs"], lc["attn"] = qh, kh, vh, probs, attn
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

    def backward(self, cache: dict, dlogits: np.ndarray, wrt: str) -> dict:
        """Backpropagate dL/dlogits through the cache of an uncached forward.

        wrt="base": gradients for every base tensor of a one-row forward (no
        adapter may be active).
        wrt="adapter": gradients {module: (dA, dB)} for adapted modules only.
        Over a (B, T) forward they are stacked per row, (B, rank, d_in) and
        (B, d_out, rank); every product stays stacked over rows, as in
        ``forward``, so each row gets the bits a backward over it alone would.
        """
        if wrt not in ("base", "adapter"):
            raise ValueError(f"wrt must be 'base' or 'adapter', got {wrt!r}")
        cfg, p = self.config, self.params
        ids_arr, T = cache["ids"], cache["T"]
        lead = ids_arr.shape[:-1]
        if wrt == "base" and lead:
            raise ValueError("base gradients take a one-row forward")
        scaling = cache["scaling"]
        H, hd = cfg.n_head, cfg.head_dim
        inv_sqrt = 1.0 / math.sqrt(hd)
        base: dict[str, np.ndarray] = {}
        adapter_grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        dlogits = dlogits.astype(p["lm_head"].dtype, copy=False)

        def t(g: np.ndarray) -> np.ndarray:
            return g.swapaxes(-1, -2)

        def adapted_bwd(dout: np.ndarray, name: str, lin_cache) -> np.ndarray:
            xin, branch_in, h, mask, fac = lin_cache
            dx = dout @ p[name]
            if wrt == "base":
                base[name] = t(dout) @ xin
            if fac is not None:
                A, B = fac
                dh = scaling * (dout @ B)
                if wrt == "adapter":
                    adapter_grads[name] = (t(dh) @ branch_in, scaling * (t(dout) @ h))
                dbranch = dh @ A
                if mask is not None:
                    dbranch = dbranch * mask
                dx = dx + dbranch
            return dx

        dxf = dlogits @ p["lm_head"]
        if wrt == "base":
            base["lm_head"] = t(dlogits) @ cache["final_norm"]
        dx = _rmsnorm_bwd(dxf, cache["final_in"], cache["final_inv"])
        heads, merged = (*lead, T, H, hd), (*lead, T, cfg.d_model)

        for li in range(cfg.n_layer - 1, -1, -1):
            lc = cache["layers"][li]
            # MLP block
            dh_act = dx @ p[f"layers.{li}.mlp.fc2"]
            if wrt == "base":
                base[f"layers.{li}.mlp.fc2"] = t(dx) @ lc["h_act"]
            dh_pre = dh_act * (2.0 * np.maximum(lc["h_pre"], 0.0))
            db = dh_pre @ p[f"layers.{li}.mlp.fc1"]
            if wrt == "base":
                base[f"layers.{li}.mlp.fc1"] = t(dh_pre) @ lc["b_norm"]
            dx = dx + _rmsnorm_bwd(db, lc["mlp_in"], lc["b_inv"])

            # attention block, in the forward's head-major (..., H, T, hd) layout
            dattn = adapted_bwd(dx, f"layers.{li}.attn.o", lc["o_cache"])
            dattn_h = dattn.reshape(heads).swapaxes(-3, -2)
            probs, vh, qh, kh = lc["probs"], lc["vh"], lc["qh"], lc["kh"]
            dprobs = dattn_h @ t(vh)
            dvh = t(probs) @ dattn_h
            dscores = probs * (dprobs - (probs * dprobs).sum(axis=-1, keepdims=True))
            dqh = (dscores @ kh) * inv_sqrt
            dkh = (t(dscores) @ qh) * inv_sqrt

            def to_flat(g):
                return g.swapaxes(-3, -2).reshape(merged)

            da = adapted_bwd(to_flat(dqh), f"layers.{li}.attn.q", lc["q_cache"])
            da += adapted_bwd(to_flat(dkh), f"layers.{li}.attn.k", lc["k_cache"])
            da += adapted_bwd(to_flat(dvh), f"layers.{li}.attn.v", lc["v_cache"])
            dx = dx + _rmsnorm_bwd(da, lc["attn_in"], lc["a_inv"])

        if wrt == "base":
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


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, from the same
    generator state, without its per-call validation of ``probs``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
        self._memo: OrderedDict[tuple, bytes] = OrderedDict()

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

    def masked_nll(self, tokens: Sequence[int], loss_mask: Sequence[int], adapter: Any = None) -> float:
        check_loss_mask(tokens, loss_mask)
        logits, _ = self._core.forward([tokens], adapter=adapter)
        losses, _ = _nll_and_dlogits(logits, np.asarray([tokens]), np.asarray([loss_mask], dtype=bool))
        return losses[0]

    def masked_nll_with_grads(
        self,
        tokens: Sequence[int],
        loss_mask: Sequence[int],
        adapter: Any,
        dropout_rng: Optional[np.random.Generator] = None,
        lengths: Optional[Sequence[int]] = None,
    ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Training-mode masked NLL and adapter-factor gradients of the
        examples packed end to end in ``tokens`` and ``loss_mask``, one of
        ``lengths[i]`` tokens each (None: one example). Returns the sum of
        the examples' losses and of their gradients, each added in example
        order."""
        check_loss_mask(tokens, loss_mask)
        return self._grads(tokens, lengths, adapter, dropout_rng, loss_mask)

    def mean_entropy(self, tokens: Sequence[int], adapter: Any = None) -> float:
        logits, _ = self._core.forward([tokens], adapter=adapter)
        values, _ = _entropy_and_dlogits(logits)
        return values[0]

    def entropy_with_grads(
        self,
        tokens: Sequence[int],
        adapter: Any,
        dropout_rng: Optional[np.random.Generator] = None,
        lengths: Optional[Sequence[int]] = None,
    ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Training-mode mean entropy and adapter-factor gradients; examples
        are packed as for ``masked_nll_with_grads``, and so are the sums."""
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

        Examples of one length run stacked, at most ``_STACK_TOKENS // T``
        rows to a forward and backward, and are never padded. Dropout draws
        are taken before any forward, one (modules, T, d) draw per example in
        example order, so they are the stream one call per example would
        draw; only their keep masks are held, an eighth of the draws' bytes.
        """
        lengths = [len(tokens)] if lengths is None else [int(n) for n in lengths]
        if not lengths or min(lengths) < 1:
            raise ValueError(f"example lengths must be positive, got {lengths}")
        if sum(lengths) != len(tokens):
            raise ValueError(f"example lengths sum to {sum(lengths)}, but {len(tokens)} tokens were given")
        spans = list(zip(np.cumsum([0] + lengths[:-1]).tolist(), lengths))  # (start, T)
        if loss_mask is not None:
            for lo, T in spans:
                check_loss_mask(tokens[lo : lo + T], loss_mask[lo : lo + T])
            loss_mask = np.asarray(loss_mask, dtype=bool)
        ids = np.asarray(tokens, dtype=np.intp)
        groups: dict[int, list[int]] = {}
        for i, (_, T) in enumerate(spans):
            groups.setdefault(T, []).append(i)
        factors, _, dropout = _adapter_view(adapter)
        n_mod = sum(m.name in factors for m in self.adaptable_modules())
        keep: dict[int, np.ndarray] = {}
        if dropout_rng is not None and dropout > 0.0 and n_mod:
            d = self.config.d_model
            keep = {T: np.empty((len(rows), n_mod, T, d), dtype=bool) for T, rows in groups.items()}
            filled = dict.fromkeys(groups, 0)
            for _, T in spans:
                np.greater_equal(dropout_rng.random((n_mod, T, d)), dropout, out=keep[T][filled[T]])
                filled[T] += 1

        losses: list[float] = [0.0] * len(spans)
        stacks = []  # (example indices, their gradients stacked over rows)
        for T, rows in groups.items():
            cap = max(1, _STACK_TOKENS // T)
            for first in range(0, len(rows), cap):
                chunk = rows[first : first + cap]
                index = np.array([spans[i][0] for i in chunk])[:, None] + np.arange(T)
                batch = ids[index]
                masks = keep[T][first : first + cap] if keep else None
                logits, cache = self._core.forward(batch, adapter=adapter, keep=masks)
                if loss_mask is None:
                    values, dlogits = _entropy_and_dlogits(logits)
                else:
                    values, dlogits = _nll_and_dlogits(logits, batch, loss_mask[index])
                stacks.append((chunk, self._core.backward(cache, dlogits, wrt="adapter")))
                for row, i in enumerate(chunk):
                    losses[i] = values[row]

        at = {i: (grads, row) for chunk, grads in stacks for row, i in enumerate(chunk)}
        summed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for i in range(len(spans)):
            grads, row = at[i]
            for name, (dA, dB) in grads.items():
                if name in summed:
                    ga, gb = summed[name]
                    ga += dA[row]
                    gb += dB[row]
                else:
                    summed[name] = (dA[row].copy(), dB[row].copy())
        return sum(losses), summed

    # -- generation ---------------------------------------------------------

    def _request(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float,
        seed: Optional[int],
    ) -> Optional[tuple[np.ndarray, Optional[bytes]]]:
        """Validate one generate request. Returns None when there is nothing
        to decode, else the prompt ids and, when sampling, the digest that
        seeds the sampler."""
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if len(prompt) > self.max_len:
            raise ValueError(f"prompt length {len(prompt)} exceeds max length {self.max_len}")
        if max_new_tokens == 0:
            return None
        if not len(prompt):
            raise ValueError("cannot generate from an empty prompt")
        ids = np.asarray(prompt, dtype=np.intp)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError("token id out of range")
        digest = None
        if temperature > 0:
            digest = hashlib.blake2b(
                (str(seed) + ":" + ",".join(map(str, prompt))).encode(), digest_size=16
            ).digest()
        return ids, digest

    @staticmethod
    def _memo_key(ids: np.ndarray, max_new_tokens: int, temperature: float, digest) -> tuple:
        # the digest seeds the sampler, so it stands for the seed in the key;
        # greedy output does not depend on the seed
        return (ids.astype(np.uint8).tobytes(), max_new_tokens, temperature, digest)

    def _remember(self, key: tuple, out: list[int]) -> None:
        self._memo[key] = bytes(out)
        if len(self._memo) > _MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float = 0.0,
        adapter: Any = None,
        seed: Optional[int] = None,
    ) -> list[int]:
        """Greedy (``temperature == 0``) or sampled continuation of ``prompt``.

        Calls without an adapter are served from a least-recently-used memo of
        ``_MEMO_ENTRIES`` outputs, keyed by the prompt, ``max_new_tokens``,
        ``temperature`` and, when sampling, the seed; the base parameters are
        frozen, so a repeated request decodes to the same tokens. Calls with
        an adapter always decode, since an adapter changes while it trains.
        ``prefetch`` fills the memo for many requests at once.
        """
        request = self._request(prompt, max_new_tokens, temperature, seed)
        if request is None:
            return []
        ids, digest = request
        if adapter is not None:
            return self._decode(ids[None], max_new_tokens, temperature, adapter, [digest])[0]
        key = self._memo_key(ids, max_new_tokens, temperature, digest)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return list(hit)
        out = self._decode(ids[None], max_new_tokens, temperature, None, [digest])[0]
        self._remember(key, out)
        return out

    def prefetch(
        self,
        requests: Sequence[tuple[Sequence[int], Optional[int]]],
        max_new_tokens: int,
        temperature: float = 0.0,
    ) -> None:
        """Decode adapter-free ``(prompt, seed)`` requests in lock-step into
        the generate memo, so the ``generate`` calls that follow are hits.

        Requests with prompts of one length decode together, one forward per
        step for all of their rows; each row samples with its own seed, and
        its output is the one ``generate`` alone would give. Requests already
        in the memo, repeated ones and ones ``generate`` rejects are skipped,
        so ``generate`` still raises for the last.
        """
        groups: dict[int, dict[tuple, tuple[np.ndarray, Optional[bytes]]]] = {}
        for prompt, seed in requests:
            try:
                request = self._request(prompt, max_new_tokens, temperature, seed)
            except ValueError:
                continue
            if request is None:  # max_new_tokens is 0: nothing to decode
                return
            ids, digest = request
            key = self._memo_key(ids, max_new_tokens, temperature, digest)
            if key in self._memo:
                self._memo.move_to_end(key)
                continue
            groups.setdefault(len(ids), {})[key] = (ids, digest)
        for group in groups.values():
            rows = list(group.values())
            outs = self._decode(
                np.stack([ids for ids, _ in rows]),
                max_new_tokens,
                temperature,
                None,
                [digest for _, digest in rows],
            )
            for key, out in zip(group, outs):
                self._remember(key, out)

    def _decode(
        self,
        ids: np.ndarray,
        max_new_tokens: int,
        temperature: float,
        adapter: Any,
        digests: Sequence[Optional[bytes]],
    ) -> list[list[int]]:
        """Continue B prompts of one length, ``ids`` (B, P), in lock-step.

        One forward fills the key/value cache with every prompt; each step
        then feeds one token per row still decoding. A row stops at the
        end-of-sequence token, at ``max_new_tokens`` or at the context window,
        and the rows left are compacted; no forward runs once none is left.
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
        logits = self._core.forward(ids, adapter=adapter, kv=kv)[0][:, -1]
        while True:
            if temperature == 0:
                toks = logits.argmax(axis=1).tolist()
            else:
                z = logits.astype(np.float64) / temperature
                z -= z.max(axis=1)[:, None]
                probs = np.exp(z)
                probs /= probs.sum(axis=1)[:, None]
                toks = [_draw(p, rngs[row]) for p, row in zip(probs, live)]
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
                kv = [(K[keep], V[keep]) for K, V in kv]
            step = np.array(toks, dtype=np.intp)[:, None]
            logits = self._core.forward(step, adapter=adapter, kv=kv, start=pos)[0][:, 0]
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
        grads = core.backward(cache, dlogits[0], wrt="base")
        opt.step(grads)
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1:>5}/{steps}  loss {losses[0]:.4f}")

    return ReferenceBackend(config, params)
