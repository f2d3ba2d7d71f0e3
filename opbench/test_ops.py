"""Op-level forward and backward timings of the numpy transformer encoder.

Opt-in: Tier-1 collects `tests/` only, so this suite runs only when named.
It times embedding, LayerNorm, QKV, attention softmax, FFN matmul and GELU,
each forward and backward, at the default encoder shapes in float32, on a
query batch (32 x 16), a doc batch (32 x 48) and an index batch (512 x 48).
It also times a whole tower: `encode` of an index batch (`tower.forward`),
a training step's `encode_with_cache` plus `backward_from_cache` on a query
and a doc batch (`tower.train`) and a masked-token step, `training._mlm_step`,
on the same two batches (`tower.mlm`).
Run it on the parent and the changed source tree in turn, three rounds with
the side that goes first alternating, so that load drift on a shared machine
reaches both sides alike, and join the runs into a BENCH file:

    run() { OPENBLAS_NUM_THREADS=1 PYTHONPATH=$1 python -m pytest opbench \\
                -q -p no:cacheprovider --benchmark-json=$2; }
    run <parent>/src parent-1.json; run src change-1.json
    run src change-2.json; run <parent>/src parent-2.json
    run <parent>/src parent-3.json; run src change-3.json
    python opbench/columns.py --parent parent-*.json --change change-*.json --out BENCH_<n>.json

Each op calls the encoder's own helper where the module has one
(`_layernorm`, `_layernorm_backward`, `_affine`, `_weight_grad`,
`_masked_softmax`, `_gelu_cdf`). The remaining lines are the expressions of
`encoders._forward_body` and `encoders._backward_body`, copied here. A tree
from before those helpers existed ran its ops inline: einsum weight
gradients, an allocating softmax and `gelu`/`gelu_grad`. For such a tree the
suite times those expressions instead.
"""

import math

import numpy as np
import pytest

from twotower import encoders, training
from twotower.corpus import NUM_SPECIALS
from twotower.util import subrng

SHAPES = {"32x16": (32, 16), "32x48": (32, 48), "512x48": (512, 48)}
CONFIG = encoders.EncoderConfig(vocab_size=3000, dtype="float32")
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

if hasattr(encoders, "_weight_grad"):
    affine, weight_grad, softmax = encoders._affine, encoders._weight_grad, encoders._masked_softmax

    def gelu_forward(u):
        cdf = encoders._gelu_cdf(u)
        return u * cdf, cdf

    def gelu_backward(dgu, u, cdf):
        return u * cdf, dgu * (cdf + u * np.exp(-0.5 * u * u) * INV_SQRT_2PI)

else:  # a tree with the ops inline in `_forward_body`/`_backward_body`

    def affine(x, w, b):
        return x @ w + b

    def weight_grad(x, dy):
        return np.einsum("blf,blh->fh", x, dy)

    def softmax(scores, scale, pad):
        scores = np.where(~pad, scores * scale, -np.inf)
        scores = scores - scores.max(axis=-1, keepdims=True)
        expd = np.exp(scores)
        return expd / expd.sum(axis=-1, keepdims=True)

    def gelu_forward(u):
        gu = encoders.gelu(u)
        return gu, gu

    def gelu_backward(dgu, u, gu):
        return gu, dgu * encoders.gelu_grad(u)


class Inputs:
    """Tower parameters and random activations of one batch shape."""

    def __init__(self, batch, length):
        cfg = CONFIG
        rng = subrng(0, "opbench", batch, length)
        self.params = encoders.init_params(cfg, subrng(0, "opbench"), cfg.doc_max_len)
        dt = cfg.np_dtype()
        h, ff, nh = cfg.hidden_dim, cfg.ff_dim, cfg.num_heads

        def normal(*shape):
            return rng.normal(size=shape).astype(dt)

        self.ids = rng.integers(NUM_SPECIALS, cfg.vocab_size, size=(batch, length))
        mask = np.ones((batch, length), dtype=bool)
        mask[batch // 2 :, length // 2 :] = False  # half the rows are half padding
        self.pad = ~mask[:, None, None, :]
        self.scale = 1.0 / math.sqrt(h // nh)
        self.x, self.dx = normal(batch, length, h), normal(batch, length, h)
        self.u, self.du = normal(batch, length, ff), normal(batch, length, ff)
        self.scores = normal(batch, nh, length, length)
        self.probs = softmax(self.scores.copy(), self.scale, self.pad)
        self.gelu_cache = gelu_forward(self.u)[1]
        self.ln_cache = layernorm_forward(self)[1]


@pytest.fixture(scope="module", params=list(SHAPES))
def inputs(request):
    return Inputs(*SHAPES[request.param])


def embedding_forward(t):
    p = t.params
    return p["emb/token"][t.ids] + p["emb/pos"][: t.ids.shape[1]]


def embedding_backward(t):
    g_token = np.zeros_like(t.params["emb/token"])
    np.add.at(g_token, t.ids.reshape(-1), t.dx.reshape(-1, t.dx.shape[-1]))
    return g_token, t.dx.sum(axis=0)


def layernorm_forward(t):
    p = t.params
    return encoders._layernorm(t.x, p["layer0/ln1/gain"], p["layer0/ln1/bias"], encoders.LN_EPSILON)


def layernorm_backward(t):
    return encoders._layernorm_backward(t.dx, t.ln_cache)


def qkv_forward(t):
    p = t.params
    return [affine(t.x, p[f"layer0/attn/w{n}"], p[f"layer0/attn/b{n}"]) for n in "qkv"]


def qkv_backward(t):
    p = t.params
    dx = t.dx @ p["layer0/attn/wq"].T + t.dx @ p["layer0/attn/wk"].T + t.dx @ p["layer0/attn/wv"].T
    grads = [(weight_grad(t.x, t.dx), t.dx.sum(axis=(0, 1))) for _ in "qkv"]
    return dx, grads


def softmax_forward(t):
    # The copy stands in for the fresh score buffer that `qh @ kh.T` makes.
    return softmax(t.scores.copy(), t.scale, t.pad)


def softmax_backward(t):
    dprobs = t.scores
    return t.probs * (dprobs - (dprobs * t.probs).sum(axis=-1, keepdims=True))


def ffn_forward(t):
    p = t.params
    u = affine(t.x, p["layer0/ffn/w1"], p["layer0/ffn/b1"])
    return u, affine(t.u, p["layer0/ffn/w2"], p["layer0/ffn/b2"])


def ffn_backward(t):
    p = t.params
    dgu = t.dx @ p["layer0/ffn/w2"].T
    g_w2 = weight_grad(t.u, t.dx)
    dxn = t.du @ p["layer0/ffn/w1"].T
    g_w1 = weight_grad(t.x, t.du)
    return dgu, dxn, g_w1, g_w2, t.dx.sum(axis=(0, 1)), t.du.sum(axis=(0, 1))


OPS = {
    "embedding": (embedding_forward, embedding_backward),
    "layernorm": (layernorm_forward, layernorm_backward),
    "qkv": (qkv_forward, qkv_backward),
    "softmax": (softmax_forward, softmax_backward),
    "ffn": (ffn_forward, ffn_backward),
    "gelu": (lambda t: gelu_forward(t.u), lambda t: gelu_backward(t.du, t.u, t.gelu_cache)),
}


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("op", list(OPS))
def test_op(benchmark, inputs, op, direction):
    benchmark.group = f"{op}.{direction}"
    benchmark(OPS[op][direction == "backward"], inputs)


def tower_batch(batch, length):
    """Token id lists of one batch shape; half the rows are half length."""
    ids = subrng(0, "opbench", batch, length).integers(NUM_SPECIALS, CONFIG.vocab_size, size=(batch, length))
    return [row[: length if i < batch // 2 else length // 2].tolist() for i, row in enumerate(ids)]


def tower_train(params, batch, grad_out):
    _, cache = encoders.encode_with_cache(params, CONFIG, batch)
    return encoders.backward_from_cache(params, CONFIG, cache, grad_out)


def tower_mlm(params, batch):
    # The same masks on every call: each call draws from a fresh generator.
    return training._mlm_step(params, CONFIG, batch, subrng(2, "opbench"))


@pytest.mark.parametrize("op,direction,inputs", [
    ("tower", "forward", "512x48"),
    ("tower", "train", "32x16"),
    ("tower", "train", "32x48"),
    ("tower", "mlm", "32x16"),
    ("tower", "mlm", "32x48"),
])
def test_tower(benchmark, op, direction, inputs):
    size, length = SHAPES[inputs]
    params = encoders.init_params(CONFIG, subrng(0, "opbench"), length)
    batch = tower_batch(size, length)
    benchmark.group = f"{op}.{direction}"
    if direction == "forward":
        benchmark(encoders.encode, params, CONFIG, batch)
    elif direction == "mlm":
        params["mlm/bias"] = np.zeros(CONFIG.vocab_size, dtype=CONFIG.np_dtype())
        benchmark(tower_mlm, params, batch)
    else:
        grad_out = subrng(1, "opbench", size).normal(size=(size, CONFIG.emb_dim)).astype(CONFIG.np_dtype())
        benchmark(tower_train, params, batch, grad_out)
