"""Two-tower encoders: a bag-of-words MLP and a small pre-LN Transformer.

Forward and backward passes are written directly in numpy so gradients are
exact and checkable against finite differences. The forward pass keeps each
layer's activations only when a backward pass follows: `encode` keeps none.
A training cache holds the GELU's normal CDF, from which the backward pass
rebuilds GELU(u) and its derivative without a second erf. Past the
attention scores the last layer, forward and backward, runs only the rows
its caller selects: row 0 in `encode` and training, as a tower's embedding is
its CLS row, and the masked positions in MLM. A tower's parameters are a
plain dict of named arrays; the module functions take one such dict, the
config and a batch of token id lists. A transformer tower's length is the
row count of its `emb/pos` table: a longer sequence is an `EncoderError`. A
bag-of-words tower has no position table and takes any length. The
retriever itself is a `TwoTower` value: one config, a query tower of
`query_max_len` positions and a doc tower of `doc_max_len`, or one tower of
the larger length when the towers are shared.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erf

from . import util
from .corpus import NUM_SPECIALS, PAD_ID

ARCH_BOW_MLP = "bow_mlp"
ARCH_TRANSFORMER = "transformer"

CHECKPOINT_FORMAT = "twotower-checkpoint-v2"
LN_EPSILON = 1e-12

Params = Dict[str, np.ndarray]
Batch = Sequence[Sequence[int]]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


class EncoderError(ValueError):
    pass


@dataclass
class EncoderConfig:
    arch: str = ARCH_TRANSFORMER
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 256
    emb_dim: int = 32
    vocab_size: int = 0
    query_max_len: int = 16
    doc_max_len: int = 48
    share_towers: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        if self.arch not in (ARCH_BOW_MLP, ARCH_TRANSFORMER):
            raise EncoderError(f"unknown arch: {self.arch!r}")
        if self.arch == ARCH_TRANSFORMER and self.num_layers < 1:
            # With no layer the CLS state would not depend on the other tokens.
            raise EncoderError("a transformer needs num_layers >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise EncoderError("hidden_dim must be divisible by num_heads")
        if self.emb_dim < 1:
            raise EncoderError("emb_dim must be >= 1")
        if self.query_max_len < 2 or self.doc_max_len < 2:
            raise EncoderError(
                f"max lengths must be >= 2, got query {self.query_max_len} and doc {self.doc_max_len}"
            )
        if self.vocab_size < NUM_SPECIALS:
            raise EncoderError("vocab_size must cover the special tokens")

    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderConfig":
        return cls(**data)


def _truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std) with redraws outside +/- 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out.astype(dtype)


def init_params(config: EncoderConfig, rng: np.random.Generator, positions: int) -> Params:
    """Fresh tower parameters: truncated-normal weights, zero biases, unit
    LayerNorm gains; a transformer tower gets `positions` position rows."""
    dt = config.np_dtype()
    h, k, v = config.hidden_dim, config.emb_dim, config.vocab_size
    params: Params = {"emb/token": _truncated_normal(rng, (v, h), 0.02, dt)}
    if config.arch == ARCH_BOW_MLP:
        params["mlp/w1"] = _truncated_normal(rng, (h, h), 0.02, dt)
        params["mlp/b1"] = np.zeros(h, dtype=dt)
        params["mlp/w2"] = _truncated_normal(rng, (h, k), 0.02, dt)
        params["mlp/b2"] = np.zeros(k, dtype=dt)
        return params
    params["emb/pos"] = _truncated_normal(rng, (positions, h), 0.02, dt)
    for i in range(config.num_layers):
        p = f"layer{i}"
        params[f"{p}/ln1/gain"] = np.ones(h, dtype=dt)
        params[f"{p}/ln1/bias"] = np.zeros(h, dtype=dt)
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}/attn/{name}"] = _truncated_normal(rng, (h, h), 0.02, dt)
        for name in ("bq", "bk", "bv", "bo"):
            params[f"{p}/attn/{name}"] = np.zeros(h, dtype=dt)
        params[f"{p}/ln2/gain"] = np.ones(h, dtype=dt)
        params[f"{p}/ln2/bias"] = np.zeros(h, dtype=dt)
        params[f"{p}/ffn/w1"] = _truncated_normal(rng, (h, config.ff_dim), 0.02, dt)
        params[f"{p}/ffn/b1"] = np.zeros(config.ff_dim, dtype=dt)
        params[f"{p}/ffn/w2"] = _truncated_normal(rng, (config.ff_dim, h), 0.02, dt)
        params[f"{p}/ffn/b2"] = np.zeros(h, dtype=dt)
    params["final_ln/gain"] = np.ones(h, dtype=dt)
    params["final_ln/bias"] = np.zeros(h, dtype=dt)
    params["out/w"] = _truncated_normal(rng, (h, k), 0.02, dt)
    params["out/b"] = np.zeros(k, dtype=dt)
    return params


def _pad_batch(batch: Batch, max_len: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    rows = [list(seq) for seq in batch]
    if not rows:
        raise EncoderError("empty batch")
    for row in rows:
        if max_len is not None and len(row) > max_len:
            raise EncoderError(f"sequence of length {len(row)} exceeds max_len {max_len}")
        if not row:
            raise EncoderError("empty sequence in batch")
    width = max(len(row) for row in rows)
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    # PAD is masked wherever it occurs, so explicitly padded inputs encode
    # identically to their unpadded form.
    mask = ids != PAD_ID
    if not mask.any(axis=1).all():
        raise EncoderError("a sequence consists solely of PAD tokens")
    return ids, mask


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    return xhat * gain + bias, (xhat, ivar, gain)


def _lead_sum(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, as a bias gradient takes it."""
    return x.sum(axis=tuple(range(x.ndim - 1)))


def _layernorm_backward(dy: np.ndarray, cache):
    xhat, ivar, gain = cache
    dgain = _lead_sum(dy * xhat)
    dbias = _lead_sum(dy)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = ivar * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, h = x.shape
    return x.reshape(b, l, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, nh * dh)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of `x @ w` w.r.t. `w` for upstream `dy`, summed over every
    leading axis: one BLAS matmul."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _masked_softmax(scores: np.ndarray, scale: float, pad: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of `scores * scale` with the `pad` keys
    masked out, computed in place in `scores`."""
    scores *= scale
    np.copyto(scores, -np.inf, where=pad)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _gelu_cdf(u: np.ndarray) -> np.ndarray:
    """The standard normal CDF of `u`; GELU(u) = u * cdf."""
    cdf = u * _INV_SQRT_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _forward_body(
    params: Params,
    config: EncoderConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    rows: np.ndarray,
    backward: bool = True,
):
    """Run the transformer body through the final LayerNorm.

    Returns the hidden states [B, m, h] at the positions `rows` [B, m] of each
    sequence (a position may repeat) and, when `backward` is set, a cache for
    the backward pass; without it no activations are kept and the cache is None.
    """
    eps = LN_EPSILON
    nh = config.num_heads
    scale = 1.0 / math.sqrt(config.hidden_dim // nh)
    x = params["emb/token"][ids] + params["emb/pos"][: ids.shape[1]]
    pad = ~mask[:, None, None, :]
    at = (np.arange(len(ids))[:, None], rows)  # (sequence, position) of each selected row
    layers = []
    for i in range(config.num_layers):
        p = f"layer{i}"
        xn1, ln1_cache = _layernorm(x, params[f"{p}/ln1/gain"], params[f"{p}/ln1/bias"], eps)
        q = _affine(xn1, params[f"{p}/attn/wq"], params[f"{p}/attn/bq"])
        k = _affine(xn1, params[f"{p}/attn/wk"], params[f"{p}/attn/bk"])
        v = _affine(xn1, params[f"{p}/attn/wv"], params[f"{p}/attn/bv"])
        qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
        scores = qh @ kh.transpose(0, 1, 3, 2)
        if i == config.num_layers - 1:
            # From the scores on, the last layer runs on the [B * m, h] selected
            # rows; they still attend to every key. Q and the scores stay full
            # width: a one-row matmul takes BLAS's gemv path, which rounds
            # differently from the gemm of the full batch.
            by_head = (at[0][:, None], np.arange(nh)[:, None], rows[:, None])
            qh, scores = qh[by_head], scores[by_head]
            x = x[at].reshape(-1, x.shape[-1])
        probs = _masked_softmax(scores, scale, pad)
        ctx = _merge_heads(probs @ vh).reshape(x.shape)
        a = _affine(ctx, params[f"{p}/attn/wo"], params[f"{p}/attn/bo"])
        a += x
        xn2, ln2_cache = _layernorm(a, params[f"{p}/ln2/gain"], params[f"{p}/ln2/bias"], eps)
        u = _affine(xn2, params[f"{p}/ffn/w1"], params[f"{p}/ffn/b1"])
        # GELU(u) = u * cdf; the cache keeps the CDF, so backward takes no erf.
        cdf = _gelu_cdf(u)
        x = (u * cdf) @ params[f"{p}/ffn/w2"]
        x += a
        x += params[f"{p}/ffn/b2"]
        if backward:
            layers.append((xn1, ln1_cache, qh, kh, vh, probs, ctx, xn2, ln2_cache, u, cdf))
    hidden, final_cache = _layernorm(x, params["final_ln/gain"], params["final_ln/bias"], eps)
    hidden = hidden.reshape(rows.shape + hidden.shape[-1:])
    if not backward:
        return hidden, None
    cache = {
        "ids": ids,
        "mask": mask,
        "at": at,
        "layers": layers,
        "final_cache": final_cache,
        "scale": scale,
    }
    return hidden, cache


def _backward_body(params: Params, config: EncoderConfig, cache, d_hidden: np.ndarray) -> Params:
    """Gradients of sum(d_hidden * hidden) w.r.t. the body parameters;
    `d_hidden` has the shape of the forward's hidden states [B, m, h]."""
    nh = config.num_heads
    scale = cache["scale"]
    ids = cache["ids"]
    at = cache["at"]
    grads: Params = {name: np.zeros_like(arr) for name, arr in params.items()}

    dx, dg, db = _layernorm_backward(d_hidden.reshape(-1, d_hidden.shape[-1]), cache["final_cache"])
    grads["final_ln/gain"] += dg
    grads["final_ln/bias"] += db

    for i in reversed(range(config.num_layers)):
        p = f"layer{i}"
        xn1, ln1_cache, qh, kh, vh, probs, ctx, xn2, ln2_cache, u, cdf = cache["layers"][i]
        last = i == config.num_layers - 1
        # ffn sublayer: out = a + gelu(xn2 @ w1 + b1) @ w2 + b2
        da = dx.copy()
        df = dx
        grads[f"{p}/ffn/w2"] += _weight_grad(u * cdf, df)
        grads[f"{p}/ffn/b2"] += _lead_sum(df)
        # gelu'(u) = cdf(u) + u * pdf(u)
        du = (df @ params[f"{p}/ffn/w2"].T) * (cdf + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI)
        grads[f"{p}/ffn/w1"] += _weight_grad(xn2, du)
        grads[f"{p}/ffn/b1"] += _lead_sum(du)
        dxn2 = du @ params[f"{p}/ffn/w1"].T
        dx2, dg, db = _layernorm_backward(dxn2, ln2_cache)
        grads[f"{p}/ln2/gain"] += dg
        grads[f"{p}/ln2/bias"] += db
        da += dx2
        # attention sublayer: a = x + (merge(P @ V) @ wo + bo)
        dattn = da
        grads[f"{p}/attn/wo"] += _weight_grad(ctx, dattn)
        grads[f"{p}/attn/bo"] += _lead_sum(dattn)
        dctx = _split_heads((dattn @ params[f"{p}/attn/wo"].T).reshape(len(ids), -1, xn1.shape[-1]), nh)
        dprobs = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dqh = (dscores @ kh) * scale
        dkh = (dscores.transpose(0, 1, 3, 2) @ qh) * scale
        dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
        # In the last layer Q, and the residual `da`, reach only the selected rows.
        dxn1 = dk @ params[f"{p}/attn/wk"].T
        if last:
            np.add.at(dxn1, at, dq @ params[f"{p}/attn/wq"].T)
        else:
            dxn1 += dq @ params[f"{p}/attn/wq"].T
        dxn1 += dv @ params[f"{p}/attn/wv"].T
        grads[f"{p}/attn/wq"] += _weight_grad(xn1[at] if last else xn1, dq)
        grads[f"{p}/attn/wk"] += _weight_grad(xn1, dk)
        grads[f"{p}/attn/wv"] += _weight_grad(xn1, dv)
        grads[f"{p}/attn/bq"] += _lead_sum(dq)
        grads[f"{p}/attn/bk"] += _lead_sum(dk)
        grads[f"{p}/attn/bv"] += _lead_sum(dv)
        dx, dg, db = _layernorm_backward(dxn1, ln1_cache)
        grads[f"{p}/ln1/gain"] += dg
        grads[f"{p}/ln1/bias"] += db
        if last:
            np.add.at(dx, at, da.reshape(dq.shape))
        else:
            dx += da

    flat_ids = ids.reshape(-1)
    np.add.at(grads["emb/token"], flat_ids, dx.reshape(-1, dx.shape[-1]))
    grads["emb/pos"][: ids.shape[1]] += dx.sum(axis=0)
    return grads


def _forward_bow(params: Params, ids: np.ndarray, mask: np.ndarray):
    emb = params["emb/token"][ids] * mask[..., None]
    counts = mask.sum(axis=1).astype(emb.dtype)
    pooled = emb.sum(axis=1) / counts[:, None]
    pre = pooled @ params["mlp/w1"] + params["mlp/b1"]
    act = np.tanh(pre)
    out = act @ params["mlp/w2"] + params["mlp/b2"]
    return out, {"ids": ids, "mask": mask, "counts": counts, "pooled": pooled, "act": act}


def _backward_bow(params: Params, cache, grad_out: np.ndarray) -> Params:
    grads: Params = {name: np.zeros_like(arr) for name, arr in params.items()}
    act, pooled, counts = cache["act"], cache["pooled"], cache["counts"]
    grads["mlp/w2"] += act.T @ grad_out
    grads["mlp/b2"] += grad_out.sum(axis=0)
    dact = grad_out @ params["mlp/w2"].T
    dpre = dact * (1.0 - act * act)
    grads["mlp/w1"] += pooled.T @ dpre
    grads["mlp/b1"] += dpre.sum(axis=0)
    dpooled = dpre @ params["mlp/w1"].T
    ids, mask = cache["ids"], cache["mask"]
    demb = (dpooled / counts[:, None])[:, None, :] * mask[..., None]
    np.add.at(grads["emb/token"], ids.reshape(-1), demb.reshape(-1, demb.shape[-1]))
    return grads


def encode_with_cache(params: Params, config: EncoderConfig, batch: Batch, backward: bool = True):
    """Forward pass returning (embeddings [B, k], cache). With `backward`
    false no activations are kept and the cache is None."""
    if config.arch == ARCH_BOW_MLP:
        out, cache = _forward_bow(params, *_pad_batch(batch))
        return out, cache if backward else None
    ids, mask = _pad_batch(batch, len(params["emb/pos"]))
    hidden, cache = _forward_body(params, config, ids, mask, np.zeros((len(ids), 1), np.intp), backward)
    cls = hidden[:, 0]
    if backward:
        cache["cls"] = cls
    return cls @ params["out/w"] + params["out/b"], cache


def encode(params: Params, config: EncoderConfig, batch: Batch) -> np.ndarray:
    """Embeddings [B, k] of a batch; keeps no activations."""
    out, _ = encode_with_cache(params, config, batch, backward=False)
    return out


def backward_from_cache(params: Params, config: EncoderConfig, cache, grad_out: np.ndarray) -> Params:
    """Exact gradients of sum(grad_out * embeddings) w.r.t. every parameter."""
    if config.arch == ARCH_BOW_MLP:
        return _backward_bow(params, cache, grad_out)
    if grad_out.shape != (cache["ids"].shape[0], config.emb_dim):
        raise EncoderError(f"grad_out shape {grad_out.shape} does not match batch")
    grads = _backward_body(params, config, cache, grad_out @ params["out/w"].T)
    grads["out/w"] += cache["cls"].T @ grad_out
    grads["out/b"] += grad_out.sum(axis=0)
    return grads


def hidden_states(params: Params, config: EncoderConfig, batch: Batch, rows: np.ndarray):
    """Hidden states [B, m, h] after the final LayerNorm at the positions
    `rows` [B, m] of each sequence, and the cache for `hidden_backward`
    (transformer only)."""
    if config.arch != ARCH_TRANSFORMER:
        raise EncoderError("per-position hidden states require the transformer arch")
    ids, mask = _pad_batch(batch, len(params["emb/pos"]))
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or len(rows) != len(ids) or not ((rows >= 0) & (rows < ids.shape[1])).all():
        raise EncoderError(f"rows must be [{len(ids)}, m] positions below {ids.shape[1]}")
    return _forward_body(params, config, ids, mask, rows)


def hidden_backward(params: Params, config: EncoderConfig, cache, d_hidden: np.ndarray) -> Params:
    return _backward_body(params, config, cache, d_hidden)


@dataclass(eq=False)
class TwoTower:
    """A query tower and a doc tower over one config; with shared towers
    `doc is query`."""

    config: EncoderConfig
    query: Params
    doc: Params

    def __post_init__(self):
        if self.config.share_towers != (self.doc is self.query):
            raise EncoderError("share_towers must hold exactly when doc is query")

    @classmethod
    def init(cls, config: EncoderConfig, seed: int) -> "TwoTower":
        if config.share_towers:
            positions = max(config.query_max_len, config.doc_max_len)
            shared = init_params(config, util.subrng(seed, "init", "shared"), positions)
            return cls(config, shared, shared)
        return cls(
            config,
            init_params(config, util.subrng(seed, "init", "query"), config.query_max_len),
            init_params(config, util.subrng(seed, "init", "doc"), config.doc_max_len),
        )

    def params(self) -> Params:
        """Every array under one flat name, as the optimizer and the checkpoint
        see them: "tower/..." when shared, else "query/..." and "doc/..."."""
        if self.config.share_towers:
            return _prefixed("tower/", self.query)
        return {**_prefixed("query/", self.query), **_prefixed("doc/", self.doc)}

    def merge_grads(self, grads_q: Params, grads_d: Params) -> Params:
        """Per-tower gradients keyed like `params()`; a shared tower gets their sum."""
        if self.config.share_towers:
            return {f"tower/{k}": g + grads_d[k] for k, g in grads_q.items()}
        return {**_prefixed("query/", grads_q), **_prefixed("doc/", grads_d)}

    def copy(self) -> "TwoTower":
        query = {k: a.copy() for k, a in self.query.items()}
        doc = query if self.config.share_towers else {k: a.copy() for k, a in self.doc.items()}
        return TwoTower(self.config, query, doc)


def _prefixed(prefix: str, params: Params) -> Params:
    return {prefix + k: a for k, a in params.items()}


def _unprefixed(prefix: str, params: Params) -> Params:
    return {k[len(prefix) :]: a for k, a in params.items() if k.startswith(prefix)}


def save_checkpoint(prefix: str, model: TwoTower, meta: Optional[dict] = None) -> str:
    """Write the model's tensors under their `params()` names and return the
    fingerprint."""
    full_meta = {"format": CHECKPOINT_FORMAT, "config": model.config.to_dict(), **(meta or {})}
    util.save_tensors(prefix, model.params(), full_meta)
    return util.tensor_fingerprint(prefix)


def load_checkpoint(prefix: str) -> Tuple[TwoTower, dict]:
    tensors, meta = util.load_tensors(prefix)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise EncoderError(f"not a checkpoint: {prefix}")
    config = EncoderConfig.from_dict(meta["config"])
    if config.share_towers:
        tower = _unprefixed("tower/", tensors)
        return TwoTower(config, tower, tower), meta
    return TwoTower(config, _unprefixed("query/", tensors), _unprefixed("doc/", tensors)), meta
