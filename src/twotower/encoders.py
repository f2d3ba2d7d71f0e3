"""Two-tower encoders: a bag-of-words MLP and a small pre-LN Transformer.

Forward and backward passes are written directly in numpy so gradients are
exact and checkable against finite differences. The forward pass keeps each
layer's activations only when a backward pass follows. Without one, as in
`encode`, it frees each intermediate once it is used, so its peak is about
one sublayer's working set, in the attention sublayer: at the default shapes
in float32, 54 MB of numpy allocations for a 512 x 48 batch, and 3.5 MB for
an index build of 512 such candidates, which `retrieval` encodes 32 at a time.
GELU has one path, `_gelu`: it works in place, one 32768-element block at a
time, and a training pass runs it on a copy of the FFN input and keeps that
input and the normal CDF, from which the backward pass rebuilds GELU(u) and
its derivative without a second erf. That erf is a numpy port of the Cephes
erf that SciPy's `special.erf` runs, with Cephes' coefficients, evaluated in
float64 and rounded into the caller's dtype. In float32 it gives SciPy's
bits: all 2**32 float32 bit patterns matched, the NaNs aside, which stay
NaN. So the package imports no SciPy, which saves each CLI process about
0.2 s and 19 MB of start-up. From the queries on, the last layer, forward
and backward, runs only the rows its caller selects: row 0 in `encode` and
training, as a tower's embedding is its CLS row, and the masked positions in
MLM. Its Q projection and scores give the bits of the full-width ones. A
tower's parameters are a plain dict of named arrays; the module functions
take one such dict, the config and a batch of token id lists. A backward
pass returns the gradients under the same names, as arrays, but for the
token table: a batch reads 2-5% of its rows at the default shapes, and its
gradient is a `RowGrad` of those rows. A transformer tower's length is the
row count of its `emb/pos` table: a longer sequence is an `EncoderError`. A
bag-of-words tower has no position table and takes any length. The
retriever itself is a `TwoTower` value: one config, a query tower of
`query_max_len` positions and a doc tower of `doc_max_len`, or one tower of
the larger length when the towers are shared.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import util
from .corpus import NUM_SPECIALS, PAD_ID

ARCH_BOW_MLP = "bow_mlp"
ARCH_TRANSFORMER = "transformer"

CHECKPOINT_FORMAT = "twotower-checkpoint-v2"
LN_EPSILON = 1e-12

Params = Dict[str, np.ndarray]
# A gradient per parameter: an array of the parameter's shape, or a `RowGrad`.
Grads = Dict[str, Union[np.ndarray, "RowGrad"]]
Batch = Sequence[Sequence[int]]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)

# Coefficients of erf and erfc in the Cephes Math Library (S. L. Moshier,
# ndtr.c), whose erf SciPy's `special.erf` runs, from the highest degree. U
# and Q start with the leading 1 that Cephes' p1evl leaves implicit; x * 1.0
# is exact, so `_polevl` over them gives p1evl's bits.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERF_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERF_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# Elements of one erf block: 256 KB a float64 scratch buffer, so the three
# buffers stay in a core's L2 cache across the block's two dozen passes.
_ERF_BLOCK = 1 << 15
# The erf's three float64 blocks and a fourth for the CDF block of a `_gelu`
# call that keeps no CDF: one set per thread, as `retrieval._encode_all` runs
# threads at once, allocated on the thread's first `_gelu`. Allocated per
# call, they landed between the encoder's large arrays wherever the heap had
# room, and moved `experiment`'s peak RSS by up to 22 MB between inputs.
_ERF_SCRATCH = threading.local()


class EncoderError(ValueError):
    pass


@dataclass
class RowGrad:
    """The gradient of a table that a batch reads only some rows of: the rows
    it read, `rows`, ascending and distinct, and their gradient `values`
    [len(rows), width]. Every other row's gradient is zero."""

    rows: np.ndarray
    values: np.ndarray

    def dense(self, num_rows: int) -> np.ndarray:
        out = np.zeros((num_rows,) + self.values.shape[1:], self.values.dtype)
        out[self.rows] = self.values
        return out

    def __add__(self, other: "RowGrad") -> "RowGrad":
        """The sum over the union of both sides' rows. Each side is zero off
        its own rows, so each sum is that of the two dense gradients."""
        rows = np.union1d(self.rows, other.rows)
        a, b = (RowGrad(np.searchsorted(rows, g.rows), g.values).dense(len(rows)) for g in (self, other))
        a += b
        return RowGrad(rows, a)


def _row_grad(ids: np.ndarray, terms: np.ndarray) -> RowGrad:
    """The gradient of an embedding table whose rows `ids` got the gradient
    terms `terms` [*ids.shape, width]. Each row's terms are added in the
    order of `ids`, as a scatter into a zero table adds them."""
    rows, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    values = np.zeros((len(rows), terms.shape[-1]), terms.dtype)
    np.add.at(values, inverse, terms.reshape(-1, terms.shape[-1]))
    return RowGrad(rows, values)


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
        if self.doc_max_len < 3:
            # `pairs.make_doc_input` keeps [CLS], [SEP] and one body token.
            raise EncoderError(f"doc_max_len must be >= 3, got {self.doc_max_len}")
        if self.query_max_len < 2:
            raise EncoderError(
                f"max lengths must be >= 2, got query {self.query_max_len} and doc {self.doc_max_len}"
            )
        if self.vocab_size < NUM_SPECIALS:
            raise EncoderError("vocab_size must cover the special tokens")
        if self.dtype not in ("float32", "float64"):
            raise EncoderError(f"dtype must be float32 or float64, got {self.dtype!r}")


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
    dt = np.dtype(config.dtype)
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


def _row_max(x: np.ndarray) -> np.ndarray:
    """`x.max(axis=-1, keepdims=True)`, taken by halving the last axis with
    `np.maximum`: a few wide passes instead of numpy's reduction over many
    short rows. A max does not depend on the order it is taken in, so the
    result is the same but for the sign of a zero maximum."""
    half = (x.shape[-1] + 1) // 2
    top = np.maximum(x[..., :half], x[..., x.shape[-1] - half :])
    while half > 1:
        width, half = half, (half + 1) // 2
        np.maximum(top[..., : width - half], top[..., half:width], out=top[..., : width - half])
    return top[..., :1]


def _masked_softmax(scores: np.ndarray, scale: float, pad: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of `scores * scale` with the `pad` keys
    masked out, computed in place in `scores`. Subtracting a zero maximum of
    either sign gives the same exponentials."""
    scores *= scale
    np.copyto(scores, -np.inf, where=pad)
    scores -= _row_max(scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _polevl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """coefs[0] * x**n + ... + coefs[n] into `out`, by Horner's rule in the
    order of Cephes' polevl."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| > 1: sign(x) * (1 - exp(-a*a) * P(a) / Q(a)), a = |x|.
    Past a = 6 erfc(a) < 2**-54, so 1 - erfc rounds to 1 in float64, as it
    does in Cephes: a is clamped to 6, which also takes +-inf to +-1."""
    a = np.minimum(np.abs(x), 6.0)
    y = np.exp(-a * a)
    y *= _polevl(a, _ERF_P, np.empty_like(a))
    y /= _polevl(a, _ERF_Q, np.empty_like(a))
    return np.copysign(1.0 - y, x)


def _erf(x: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erf(x) into `out`, for 1-D float64 arrays of one size; `x` and `z` are
    overwritten.

    As in Cephes, erf(x) is x * T(x*x) / U(x*x) for |x| <= 1, odd in x, and
    only the elements past 1 take `_erf_tail`. In float64 the first branch
    gives SciPy's bits as well; past 1 numpy's `exp` can differ from the C
    library's in the last bit, which no float32 result has shown.
    """
    # Past |x| = 1 the first branch may overflow; `_erf_tail` replaces those.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(x, x, out=z)
        at = np.flatnonzero(z > 1.0)
        tail = x[at]
        _polevl(z, _ERF_T, out)
        out *= x
        out /= _polevl(z, _ERF_U, x)
        if at.size:
            out[at] = _erf_tail(tail)
    return out


def _gelu(u: np.ndarray, cdf: Optional[np.ndarray] = None) -> None:
    """Replace the C-contiguous float array `u` with GELU(u) = u * cdf, and
    write the standard normal CDF of u into `cdf`, a C-contiguous array of
    u's shape and dtype, when it is given.

    The CDF is 0.5 * (1 + erf(u / sqrt(2))) in the dtype of u, taken one
    `_ERF_BLOCK` at a time, with the erf of `_erf` in float64 in the calling
    thread's `_ERF_SCRATCH`, so threads may run it at once and without `cdf`
    no array of u's size is allocated. For float32 u it is the result with
    SciPy's `special.erf`, bit for bit: the erf matched on all 2**32 float32
    bit patterns, and tests/test_encoders.py sweeps about 2M of them. A NaN
    stays NaN with its own sign and payload, where SciPy returns the default
    NaN. For float64 u the CDF is within 4.5e-16 of the SciPy result.
    """
    flat = u.reshape(-1)
    cdf_flat = None if cdf is None else cdf.reshape(-1)
    if not hasattr(_ERF_SCRATCH, "blocks"):
        _ERF_SCRATCH.blocks = np.empty((4, _ERF_BLOCK))
    x, z, out, spare = _ERF_SCRATCH.blocks
    spare = spare.view(u.dtype)
    for start in range(0, flat.size, _ERF_BLOCK):
        block = flat[start : start + _ERF_BLOCK]
        n = len(block)
        c = spare[:n] if cdf_flat is None else cdf_flat[start : start + n]
        np.multiply(block, _INV_SQRT_2, out=c)
        np.copyto(x[:n], c)
        np.copyto(c, _erf(x[:n], z[:n], out[:n]))
        c += 1.0
        c *= 0.5
        block *= c


def _keep_nothing(arrays) -> None:
    """The `keep` of a forward pass that no backward pass follows."""


def _normed_affines(params: Params, x: np.ndarray, ln: str, maps, keep, rows=None) -> list:
    """The affine maps `maps`, (weight, bias) name pairs, of LayerNorm `ln`
    of x; with `rows`, an index into x, the first map reads only the rows it
    selects. The normalized x and the LayerNorm cache go to `keep`, so
    without a backward pass they are freed on return."""
    xn, ln_cache = _layernorm(x, params[f"{ln}/gain"], params[f"{ln}/bias"], LN_EPSILON)
    keep((xn, ln_cache))
    inputs = [xn if rows is None else xn[rows]] + [xn] * (len(maps) - 1)
    return [_affine(y, params[w], params[b]) for y, (w, b) in zip(inputs, maps)]


def _attention(params: Params, p: str, x: np.ndarray, pad, scale: float, nh: int, at, keep) -> np.ndarray:
    """x plus the multi-head self-attention of layer `p` over LayerNorm(x).
    With `at`, the (sequence, position) of each selected row [B, m], the
    queries are only the selected rows, which still attend to every key, and
    so are the rows past the attention [B * m, h]."""
    maps = [(f"{p}/attn/w{n}", f"{p}/attn/b{n}") for n in "qkv"]
    rows = None
    if at is not None:
        # A one-row matmul takes BLAS's gemv path, which rounds differently
        # from the gemm of the full width, where the rows of a gemm of two or
        # more match its bits: so a lone selected row is projected and scored
        # as two.
        m = at[1].shape[1]
        rows = at if m > 1 else (at[0], at[1][:, [0, 0]])
    qh, kh, vh = (_split_heads(y, nh) for y in _normed_affines(params, x, f"{p}/ln1", maps, keep, rows))
    scores = qh @ kh.transpose(0, 1, 3, 2)
    if at is not None:
        qh, scores = qh[:, :, :m], scores[:, :, :m]
        x = x[at].reshape(-1, x.shape[-1])
    probs = _masked_softmax(scores, scale, pad)
    ctx = _merge_heads(probs @ vh).reshape(x.shape)
    keep((qh, kh, vh, probs, ctx))
    a = _affine(ctx, params[f"{p}/attn/wo"], params[f"{p}/attn/bo"])
    a += x
    return a


def _ffn(params: Params, p: str, a: np.ndarray, keep, backward: bool) -> np.ndarray:
    """a plus the GELU feed-forward map of layer `p` over LayerNorm(a)."""
    (u,) = _normed_affines(params, a, f"{p}/ln2", [(f"{p}/ffn/w1", f"{p}/ffn/b1")], keep)
    # A backward pass keeps u and its CDF, so GELU runs on a copy of u.
    cdf = None
    if backward:
        cdf = np.empty_like(u)
        keep((u, cdf))
        u = u.copy()
    _gelu(u, cdf)
    x = u @ params[f"{p}/ffn/w2"]
    x += a
    x += params[f"{p}/ffn/b2"]
    return x


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
    the backward pass. Without it the cache is None, and each intermediate is
    released once it is used: a LayerNorm's output and cache after the
    projections that read it, Q, K, V, the scores and the context when the
    attention sublayer returns, and the FFN input after its first matmul.
    """
    nh = config.num_heads
    scale = 1.0 / math.sqrt(config.hidden_dim // nh)
    x = params["emb/token"][ids] + params["emb/pos"][: ids.shape[1]]
    pad = ~mask[:, None, None, :]
    at = (np.arange(len(ids))[:, None], rows)  # (sequence, position) of each selected row
    layers = []
    for i in range(config.num_layers):
        p = f"layer{i}"
        # A layer's cache, in the order the backward pass unpacks it.
        layers.append([])
        keep = layers[-1].extend if backward else _keep_nothing
        x = _attention(params, p, x, pad, scale, nh, at if i == config.num_layers - 1 else None, keep)
        x = _ffn(params, p, x, keep, backward)
    hidden, final_cache = _layernorm(x, params["final_ln/gain"], params["final_ln/bias"], LN_EPSILON)
    hidden = hidden.reshape(rows.shape + hidden.shape[-1:])
    if not backward:
        return hidden, None
    cache = {
        "ids": ids,
        "at": at,
        "layers": layers,
        "final_cache": final_cache,
        "scale": scale,
    }
    return hidden, cache


def _backward_body(params: Params, config: EncoderConfig, cache, d_hidden: np.ndarray) -> Grads:
    """Gradients of sum(d_hidden * hidden) w.r.t. the body parameters;
    `d_hidden` has the shape of the forward's hidden states [B, m, h]. The
    token table's is a `RowGrad` of the batch's tokens."""
    nh = config.num_heads
    scale = cache["scale"]
    ids = cache["ids"]
    at = cache["at"]
    grads: Grads = {name: np.zeros_like(arr) for name, arr in params.items() if name != "emb/token"}

    dx, dg, db = _layernorm_backward(d_hidden.reshape(-1, d_hidden.shape[-1]), cache["final_cache"])
    grads["final_ln/gain"] += dg
    grads["final_ln/bias"] += db

    for i in reversed(range(config.num_layers)):
        p = f"layer{i}"
        xn1, ln1_cache, qh, kh, vh, probs, ctx, xn2, ln2_cache, u, cdf = cache["layers"][i]
        last = i == config.num_layers - 1
        # ffn sublayer: out = a + gelu(xn2 @ w1 + b1) @ w2 + b2
        df = dx
        gelu = u * cdf
        grads[f"{p}/ffn/w2"] += _weight_grad(gelu, df)
        grads[f"{p}/ffn/b2"] += _lead_sum(df)
        # gelu'(u) = cdf(u) + u * pdf(u), built in the buffer of gelu(u)
        dgelu = np.multiply(u, -0.5, out=gelu)
        dgelu *= u
        np.exp(dgelu, out=dgelu)
        dgelu *= u
        dgelu *= _INV_SQRT_2PI
        dgelu += cdf
        du = df @ params[f"{p}/ffn/w2"].T
        du *= dgelu
        del gelu, dgelu
        grads[f"{p}/ffn/w1"] += _weight_grad(xn2, du)
        grads[f"{p}/ffn/b1"] += _lead_sum(du)
        dxn2 = du @ params[f"{p}/ffn/w1"].T
        dx2, dg, db = _layernorm_backward(dxn2, ln2_cache)
        grads[f"{p}/ln2/gain"] += dg
        grads[f"{p}/ln2/bias"] += db
        # df is spent, so the residual's gradient builds in its buffer.
        da = dx
        da += dx2
        # attention sublayer: a = x + (merge(P @ V) @ wo + bo)
        dattn = da
        grads[f"{p}/attn/wo"] += _weight_grad(ctx, dattn)
        grads[f"{p}/attn/bo"] += _lead_sum(dattn)
        dctx = _split_heads((dattn @ params[f"{p}/attn/wo"].T).reshape(len(ids), -1, xn1.shape[-1]), nh)
        dprobs = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = probs.transpose(0, 1, 3, 2) @ dctx
        # dscores = probs * (dprobs - rowsum(dprobs * probs)), in dprobs' buffer
        dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
        dprobs *= probs
        dscores = dprobs
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

    grads["emb/token"] = _row_grad(ids, dx)
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


def _backward_bow(params: Params, cache, grad_out: np.ndarray) -> Grads:
    grads: Grads = {name: np.zeros_like(arr) for name, arr in params.items() if name != "emb/token"}
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
    grads["emb/token"] = _row_grad(ids, demb)
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


def backward_from_cache(params: Params, config: EncoderConfig, cache, grad_out: np.ndarray) -> Grads:
    """Exact gradients of sum(grad_out * embeddings) w.r.t. every parameter;
    the token table's is a `RowGrad`."""
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


def hidden_backward(params: Params, config: EncoderConfig, cache, d_hidden: np.ndarray) -> Grads:
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

    def merge_grads(self, grads_q: Grads, grads_d: Grads) -> Grads:
        """Per-tower gradients keyed like `params()`; a shared tower gets their
        sum, a row gradient's over the union of both sides' rows."""
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
    full_meta = {"format": CHECKPOINT_FORMAT, "config": asdict(model.config), **(meta or {})}
    return util.save_tensors(prefix, model.params(), full_meta)


def load_checkpoint(prefix: str) -> Tuple[TwoTower, dict]:
    tensors, meta = util.load_tensors(prefix)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise EncoderError(f"not a checkpoint: {prefix}")
    config = EncoderConfig(**meta["config"])
    if config.share_towers:
        tower = _unprefixed("tower/", tensors)
        return TwoTower(config, tower, tower), meta
    return TwoTower(config, _unprefixed("query/", tensors), _unprefixed("doc/", tensors)), meta
