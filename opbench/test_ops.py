"""Op-level forward and backward timings of the numpy transformer encoder.

Opt-in: Tier-1 collects `tests/` only, so this suite runs only when named.
It times embedding, LayerNorm, QKV, attention softmax, FFN matmul and GELU,
each forward and backward, at the default encoder shapes in float32, on a
query batch (32 x 16), a doc batch (32 x 48), which is also the shape of one
index batch at `retrieval.ENCODE_BATCH`, and a 512 x 48 batch.
It also times a whole tower: `encode` of one index batch and of a 512 x 48
batch (`tower.forward`), a training step's `encode_with_cache` plus
`backward_from_cache` on a query and a doc batch (`tower.train`) and a
masked-token step, `training._mlm_step`, on the same two batches
(`tower.mlm`); and one `training.adam_step` of a default-shape two-tower
model on the gradients of such a query and doc batch (`adam.step`). Each
tower row and the Adam row also record, in `extra_info["peak_mb"]`, the
tracemalloc peak of one untimed call.
Run it on the parent and the changed source tree in turn, three rounds with
the side that goes first alternating, so that load drift on a shared machine
reaches both sides alike, and join the runs into a BENCH file:

    run() { OPENBLAS_NUM_THREADS=1 PYTHONPATH=$1 python -m pytest opbench \\
                -q -p no:cacheprovider --benchmark-json=$2; }
    run <parent>/src parent-1.json; run src change-1.json
    run src change-2.json; run <parent>/src parent-2.json
    run <parent>/src parent-3.json; run src change-3.json
    python opbench/columns.py --parent parent-*.json --change change-*.json --out BENCH_<n>.json

Each op calls the encoder's own helper (`_layernorm`, `_layernorm_backward`,
`_affine`, `_weight_grad`, `_masked_softmax`, `_gelu`). The remaining lines
are the expressions of `encoders._forward_body` and `encoders._backward_body`,
copied here. `gelu.forward` times training's GELU, which runs on a copy of
its input and writes the CDF.
"""

import math
import tracemalloc

import numpy as np
import pytest

from twotower import encoders, training
from twotower.corpus import NUM_SPECIALS
from twotower.util import subrng

SHAPES = {"32x16": (32, 16), "32x48": (32, 48), "512x48": (512, 48)}
CONFIG = encoders.EncoderConfig(vocab_size=3000, dtype="float32")
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

affine, weight_grad, softmax = encoders._affine, encoders._weight_grad, encoders._masked_softmax


def gelu_forward(u):
    gu, cdf = u.copy(), np.empty_like(u)
    encoders._gelu(gu, cdf)
    return gu, cdf


def gelu_backward(dgu, u, cdf):
    gelu = u * cdf
    dgelu = np.multiply(u, -0.5)
    dgelu *= u
    np.exp(dgelu, out=dgelu)
    dgelu *= u
    dgelu *= INV_SQRT_2PI
    dgelu += cdf
    return gelu, dgu * dgelu


class Inputs:
    """Tower parameters and random activations of one batch shape."""

    def __init__(self, batch, length):
        cfg = CONFIG
        rng = subrng(0, "opbench", batch, length)
        self.params = encoders.init_params(cfg, subrng(0, "opbench"), cfg.doc_max_len)
        dt = np.dtype(cfg.dtype)
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
    # The token table's gradient on the rows the batch reads.
    rows, inverse = np.unique(t.ids.reshape(-1), return_inverse=True)
    g_token = np.zeros((len(rows), t.dx.shape[-1]), t.dx.dtype)
    np.add.at(g_token, inverse, t.dx.reshape(-1, t.dx.shape[-1]))
    return rows, g_token, t.dx.sum(axis=0)


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
    # The copy stands in for the fresh `dctx @ vh.T` that the backward pass
    # turns into the score gradient in place.
    dprobs = t.scores.copy()
    dprobs -= (dprobs * t.probs).sum(axis=-1, keepdims=True)
    dprobs *= t.probs
    return dprobs


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


def peak_mb(fn, *args):
    """The tracemalloc peak of one call of fn, in MB; taken apart from the
    timed calls, which run untraced."""
    tracemalloc.start()
    try:
        fn(*args)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def tower_mlm(params, batch):
    # The same masks on every call: each call draws from a fresh generator.
    return training._mlm_step(params, CONFIG, batch, subrng(2, "opbench"))


@pytest.mark.parametrize("op,direction,inputs", [
    ("tower", "forward", "32x48"),
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
        fn, args = encoders.encode, (params, CONFIG, batch)
    elif direction == "mlm":
        params["mlm/bias"] = np.zeros(CONFIG.vocab_size, dtype=np.dtype(CONFIG.dtype))
        fn, args = tower_mlm, (params, batch)
    else:
        grad_out = subrng(1, "opbench", size).normal(size=(size, CONFIG.emb_dim)).astype(np.dtype(CONFIG.dtype))
        fn, args = tower_train, (params, batch, grad_out)
    benchmark.extra_info["peak_mb"] = peak_mb(fn, *args)
    benchmark(fn, *args)


@pytest.mark.parametrize("op,direction,inputs", [("adam", "step", "32x16+32x48")])
def test_adam_step(benchmark, op, direction, inputs):
    # One optimizer step of a default-shape model on the gradients of a
    # training step's query and doc batches, at a learning rate above 0.
    model = encoders.TwoTower.init(CONFIG, 0)
    grads = []
    for tower, shape in ((model.query, "32x16"), (model.doc, "32x48")):
        size, length = SHAPES[shape]
        grad_out = subrng(1, "opbench", size).normal(size=(size, CONFIG.emb_dim)).astype(np.dtype(CONFIG.dtype))
        grads.append(tower_train(tower, tower_batch(size, length), grad_out))
    grads = model.merge_grads(*grads)
    state = training.OptimizerState.for_params(model.params(), training.TrainRunConfig(total_steps=10**9))
    benchmark.group = f"{op}.{direction}"
    benchmark.extra_info["peak_mb"] = peak_mb(training.adam_step, model.params(), grads, state)
    benchmark(training.adam_step, model.params(), grads, state)
