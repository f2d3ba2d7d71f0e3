import hashlib
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import twotower
from twotower import encoders, retrieval, util
from twotower.corpus import NUM_SPECIALS, PAD_ID
from twotower.encoders import (
    ARCH_BOW_MLP,
    ARCH_TRANSFORMER,
    LN_EPSILON,
    EncoderConfig,
    EncoderError,
    RowGrad,
    TwoTower,
    _ERF_BLOCK,
    _affine,
    _erf,
    _ffn,
    _gelu,
    _keep_nothing,
    _masked_softmax,
    _row_max,
    backward_from_cache,
    encode,
    encode_with_cache,
    hidden_backward,
    hidden_states,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from twotower.retrieval import build_dense_index
from twotower.util import subrng


def tiny_config(arch=ARCH_TRANSFORMER, **overrides):
    base = dict(
        arch=arch,
        num_layers=2,
        hidden_dim=8,
        num_heads=2,
        ff_dim=16,
        emb_dim=4,
        vocab_size=24,
        query_max_len=8,
        doc_max_len=10,
        dtype="float64",
    )
    base.update(overrides)
    return EncoderConfig(**base)


def dense_grads(params, grads):
    """The gradients as arrays of their parameters' shapes: a `RowGrad` of a
    table, densified."""
    return {k: g.dense(len(params[k])) if isinstance(g, RowGrad) else g for k, g in grads.items()}


# ------------------------------------------------------------------ oracle
# Straight-line scalar re-implementation of the transformer forward pass,
# pure python floats and math only; used to cross-check the vectorized path.


def scalar_transformer_forward(params, cfg, token_ids):
    h = cfg.hidden_dim
    nh = cfg.num_heads
    dh = h // nh
    scale = 1.0 / math.sqrt(dh)
    eps = LN_EPSILON

    def ln(row, gain, bias):
        mu = sum(row) / h
        var = sum((v - mu) ** 2 for v in row) / h
        inv = 1.0 / math.sqrt(var + eps)
        return [(row[j] - mu) * inv * float(gain[j]) + float(bias[j]) for j in range(h)]

    def affine(row, w, b):
        n_in, n_out = w.shape
        return [
            sum(row[i] * float(w[i, o]) for i in range(n_in)) + float(b[o])
            for o in range(n_out)
        ]

    def gelu1(v):
        return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))

    length = len(token_ids)
    x = [
        [float(params["emb/token"][t, j]) + float(params["emb/pos"][i, j]) for j in range(h)]
        for i, t in enumerate(token_ids)
    ]
    for layer in range(cfg.num_layers):
        p = f"layer{layer}"
        xn = [ln(row, params[f"{p}/ln1/gain"], params[f"{p}/ln1/bias"]) for row in x]
        q = [affine(row, params[f"{p}/attn/wq"], params[f"{p}/attn/bq"]) for row in xn]
        k = [affine(row, params[f"{p}/attn/wk"], params[f"{p}/attn/bk"]) for row in xn]
        v = [affine(row, params[f"{p}/attn/wv"], params[f"{p}/attn/bv"]) for row in xn]
        ctx = [[0.0] * h for _ in range(length)]
        for head in range(nh):
            lo = head * dh
            for i in range(length):
                raw = [
                    sum(q[i][lo + d] * k[j][lo + d] for d in range(dh)) * scale
                    for j in range(length)
                ]
                peak = max(raw)
                exps = [math.exp(r - peak) for r in raw]
                denom = sum(exps)
                probs = [e / denom for e in exps]
                for d in range(dh):
                    ctx[i][lo + d] = sum(probs[j] * v[j][lo + d] for j in range(length))
        attn = [affine(row, params[f"{p}/attn/wo"], params[f"{p}/attn/bo"]) for row in ctx]
        a = [[x[i][j] + attn[i][j] for j in range(h)] for i in range(length)]
        xn2 = [ln(row, params[f"{p}/ln2/gain"], params[f"{p}/ln2/bias"]) for row in a]
        ff = []
        for row in xn2:
            u = affine(row, params[f"{p}/ffn/w1"], params[f"{p}/ffn/b1"])
            gu = [gelu1(val) for val in u]
            ff.append(affine(gu, params[f"{p}/ffn/w2"], params[f"{p}/ffn/b2"]))
        x = [[a[i][j] + ff[i][j] for j in range(h)] for i in range(length)]
    final = [ln(row, params["final_ln/gain"], params["final_ln/bias"]) for row in x]
    return affine(final[0], params["out/w"], params["out/b"])


class TestInitParams:
    def test_same_seed_bit_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, subrng(7, "init"), cfg.doc_max_len)
        b = init_params(cfg, subrng(7, "init"), cfg.doc_max_len)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_layernorm_gains_are_ones(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(0), cfg.doc_max_len)
        for name, arr in params.items():
            if name.endswith("ln1/gain") or name.endswith("ln2/gain") or name == "final_ln/gain":
                assert np.all(arr == 1.0)
            if name.endswith("bias") or name.endswith("/bq"):
                assert np.all(arr == 0.0)

    def test_truncated_normal_moments(self):
        # Independent derivation: for clipping at alpha = 2 standard deviations,
        # var factor = 1 - 2*alpha*phi(alpha)/Z with Z = erf(alpha/sqrt(2)).
        alpha = 2.0
        phi = math.exp(-0.5 * alpha * alpha) / math.sqrt(2 * math.pi)
        z = math.erf(alpha / math.sqrt(2.0))
        sigma_trunc = 0.02 * math.sqrt(1.0 - 2.0 * alpha * phi / z)
        cfg = tiny_config(vocab_size=1300)  # 1300*8 > 10,000 samples
        params = init_params(cfg, subrng(3, "moments"), cfg.doc_max_len)
        sample = params["emb/token"].ravel()[:10_000]
        band = 3.0 * sigma_trunc / math.sqrt(2 * len(sample))
        assert abs(sample.std()) - sigma_trunc < band
        assert np.abs(sample).max() <= 2.0 * 0.02 + 1e-12

    def test_invalid_config_rejected(self):
        with pytest.raises(EncoderError):
            tiny_config(hidden_dim=10, num_heads=4)
        with pytest.raises(EncoderError):
            tiny_config(emb_dim=0)
        with pytest.raises(EncoderError):
            tiny_config(vocab_size=2)
        with pytest.raises(EncoderError, match="num_layers"):
            tiny_config(num_layers=0)
        for dtype in ("float16", "int8", "foo"):
            with pytest.raises(EncoderError, match="float32 or float64"):
                tiny_config(dtype=dtype)


class TestBowMlp:
    def test_identity_diagnostics_single_token(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(5), cfg.doc_max_len)
        h, k = cfg.hidden_dim, cfg.emb_dim
        params["mlp/w1"] = np.eye(h)
        params["mlp/w2"] = np.eye(h)[:, :k]
        params["mlp/b1"][:] = 0.0
        params["mlp/b2"][:] = 0.0
        token = 7
        out = encode(params, cfg, [[token]])[0]
        expected = np.tanh(params["emb/token"][token])[:k]
        np.testing.assert_allclose(out, expected, atol=1e-15)
        # init weights are tiny, so tanh is close to a pass-through
        np.testing.assert_allclose(out, params["emb/token"][token][:k], atol=1e-4)

    def test_order_invariance_of_mean_pooling(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(6), cfg.doc_max_len)
        a = encode(params, cfg, [[7, 9, 11]])
        b = encode(params, cfg, [[11, 7, 9]])
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_takes_any_length(self):
        # No position table, so no length limit.
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        model = TwoTower.init(cfg, seed=5)
        out = encode(model.query, cfg, [[7] * (cfg.doc_max_len + 5)])
        np.testing.assert_allclose(out, encode(model.query, cfg, [[7]]), atol=1e-15)

    def test_token_embedding_gradient_sparsity(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(8), cfg.doc_max_len)
        grad_out = subrng(9).normal(size=(1, cfg.emb_dim))
        _, cache = encode_with_cache(params, cfg, [[7, 9]])
        grads = dense_grads(params, backward_from_cache(params, cfg, cache, grad_out))
        nonzero_rows = np.flatnonzero(np.abs(grads["emb/token"]).sum(axis=1))
        assert set(nonzero_rows) == {7, 9}


class TestTransformerForward:
    def test_matches_scalar_oracle(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(7, "oracle"), cfg.doc_max_len)
        tokens = [2, 7, 13]
        vectorized = encode(params, cfg, [tokens])[0]
        reference = scalar_transformer_forward(params, cfg, tokens)
        np.testing.assert_allclose(vectorized, reference, atol=1e-10)

    def test_matches_scalar_oracle_second_seed(self):
        cfg = tiny_config(num_layers=1, hidden_dim=4, num_heads=2, ff_dim=8, emb_dim=3)
        params = init_params(cfg, subrng(21, "oracle"), cfg.doc_max_len)
        tokens = [2, 5, 6, 9, 10]
        vectorized = encode(params, cfg, [tokens])[0]
        reference = scalar_transformer_forward(params, cfg, tokens)
        np.testing.assert_allclose(vectorized, reference, atol=1e-10)

    def test_pad_invariance(self):
        for arch in (ARCH_TRANSFORMER, ARCH_BOW_MLP):
            cfg = tiny_config(arch=arch)
            params = init_params(cfg, subrng(1), cfg.doc_max_len)
            base = encode(params, cfg, [[2, 7, 9]])
            padded = encode(params, cfg, [[2, 7, 9] + [PAD_ID] * 4])
            np.testing.assert_allclose(base, padded, atol=1e-10)

    def test_batch_permutation_equivariance(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(2), cfg.doc_max_len)
        batch = [[2, 7], [2, 9, 10], [2, 11, 12, 13]]
        out = encode(params, cfg, batch)
        perm = [2, 0, 1]
        out_perm = encode(params, cfg, [batch[i] for i in perm])
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_outputs_finite(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(3), cfg.doc_max_len)
        rng = subrng(4)
        for _ in range(10):
            length = int(rng.integers(1, cfg.doc_max_len + 1))
            tokens = [2] + [int(t) for t in rng.integers(5, cfg.vocab_size, size=length - 1)]
            out = encode(params, cfg, [tokens])
            assert np.isfinite(out).all()

    @pytest.mark.parametrize("tower", ["query", "doc", "shared"])
    def test_sequence_exceeding_max_len_rejected(self, tower):
        # A tower's length is its position table, which `TwoTower.init` sizes
        # to query_max_len, doc_max_len, or the larger when shared; the query
        # length is the larger one here, so a shared tower sized to
        # doc_max_len fails.
        cfg = tiny_config(share_towers=tower == "shared", query_max_len=12)
        model = TwoTower.init(cfg, seed=5)
        params, length = {
            "query": (model.query, cfg.query_max_len),
            "doc": (model.doc, cfg.doc_max_len),
            "shared": (model.query, max(cfg.query_max_len, cfg.doc_max_len)),
        }[tower]
        assert encode(params, cfg, [[2] * length]).shape == (1, cfg.emb_dim)
        with pytest.raises(EncoderError, match="exceeds max_len"):
            encode(params, cfg, [[2] * (length + 1)])

    def test_tower_separation(self):
        cfg = tiny_config()
        params_q = init_params(cfg, subrng(10, "q"), cfg.query_max_len)
        params_d = init_params(cfg, subrng(10, "d"), cfg.doc_max_len)
        docs = [[2, 7, 9]]
        before = encode(params_d, cfg, docs)
        for name in params_q:
            params_q[name] = params_q[name] + 0.5
        after = encode(params_d, cfg, docs)
        np.testing.assert_array_equal(before, after)


class TestGeluCdf:
    """`_gelu` runs a numpy port of the Cephes erf that scipy.special.erf
    runs; scipy is the oracle here and is not imported by the package."""

    # Every 1039th float32 bit pattern in [+0, 8] (about 1M values), their
    # negatives, the signed zeros and infinities, values around sqrt(2), where
    # the erf argument leaves Cephes' first branch, values past 6, and NaN.
    # scipy returns the default NaN for any NaN; the port keeps a NaN's sign
    # and payload, so only the default NaN is compared bit for bit.
    SWEEP = np.arange(0, np.float32(8.0).view(np.uint32) + 1, 1039, dtype=np.uint32).view(np.float32)
    SPECIAL = np.array([0.0, np.inf, 1.0, 1.4142135, math.sqrt(2.0), 1.4142137, 6.0, 6.5, 8.5,
                        9.0, 12.0, 1e30, 3.4e38], dtype=np.float32)
    U = np.concatenate([SWEEP, -SWEEP, SPECIAL, -SPECIAL, [np.float32(np.nan)]])

    @staticmethod
    def _oracle(u):
        return 0.5 * (1 + erf(u * (1.0 / math.sqrt(2.0))))

    @staticmethod
    def _cdf(u):
        """The CDF that `_gelu` writes for u, run on a copy of u; at u = -inf
        the GELU product -inf * 0 is NaN, which is not under test here."""
        cdf = np.empty_like(u)
        with np.errstate(invalid="ignore"):
            _gelu(u.copy(), cdf)
        return cdf

    def test_float32_bits_equal_scipy(self):
        assert self._cdf(self.U).tobytes() == self._oracle(self.U).tobytes()
        x = self.U.astype(np.float64)
        erf_bits = _erf(x, np.empty_like(x), np.empty_like(x)).astype(np.float32).tobytes()
        assert erf_bits == erf(self.U).tobytes()
        assert np.isnan(self._cdf(-self.U[-1:])).all()

    def test_float64_within_bound_of_scipy(self):
        u = np.concatenate([self.U.astype(np.float64), subrng(8, "gelu").normal(0.0, 3.0, 100_000)])
        cdf, ref = self._cdf(u), self._oracle(u)
        assert cdf.dtype == np.float64
        assert np.array_equal(np.isnan(cdf), np.isnan(u))
        finite = ~np.isnan(u)
        assert np.abs(cdf[finite] - ref[finite]).max() <= 4.5e-16

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_inplace_gelu_bits_equal_cdf_product(self, dtype):
        # Training's GELU, which writes the CDF, and encode's, which does not,
        # give u * cdf, the product the backward pass rebuilds. More than one
        # erf block, a partial last block, and elements past the erf's first
        # branch.
        u = subrng(10, "gelu").normal(0.0, 3.0, (3, _ERF_BLOCK // 2 + 7)).astype(dtype)
        u[0, :len(self.SPECIAL)] = self.SPECIAL
        trained, cdf = u.copy(), np.empty_like(u)
        _gelu(trained, cdf)
        expected = u * cdf
        _gelu(u)
        assert u.tobytes() == expected.tobytes()
        assert trained.tobytes() == expected.tobytes()

    def test_training_keeps_the_ffn_input_untouched(self):
        cfg = tiny_config(dtype="float32")
        params = init_params(cfg, subrng(9, "gelu"), cfg.doc_max_len)
        a = subrng(9, "gelu").normal(size=(3, 5, cfg.hidden_dim)).astype(np.float32)
        kept = []
        out = _ffn(params, "layer0", a, kept.extend, backward=True)
        xn, _, u, cdf = kept
        assert u.tobytes() == _affine(xn, params["layer0/ffn/w1"], params["layer0/ffn/b1"]).tobytes()
        assert cdf.tobytes() == self._oracle(u).tobytes()
        assert out.tobytes() == _ffn(params, "layer0", a, _keep_nothing, backward=False).tobytes()

    def test_cli_loads_no_scipy(self, tmp_path):
        # The CLI imports the encoder in every command, so any scipy import
        # under src/twotower shows up here, even in commands that run no GELU.
        script = textwrap.dedent("""
            import sys
            from twotower import cli

            def scipy_modules():
                return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

            assert not scipy_modules(), scipy_modules()
            root = sys.argv[1]
            corpus, qa, vocab = root + "/corpus.jsonl", root + "/qa.jsonl", root + "/vocab.txt"
            for argv in (
                ["synth", "--out", corpus, "--qa", qa, "--articles", "12", "--topics", "4",
                 "--qa-count", "24", "--seed", "3"],
                ["vocab", "--corpus", corpus, "--out", vocab],
                ["bm25-eval", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
                 "--out", root + "/bm25.json"],
            ):
                assert cli.main(argv) == cli.EXIT_OK, argv
            assert not scipy_modules(), scipy_modules()
        """)
        src = str(Path(twotower.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bm25.json").exists()


class TestThreads:
    """Threads may run `_gelu` and `encode` at once, as `retrieval._encode_all`
    does: each thread keeps its own erf scratch blocks, so two threads give
    the serial bytes."""

    @staticmethod
    def _at_once(fn, args):
        """[fn(arg) for arg in args], each on a thread of its own, all released
        together; a thread that hangs fails the test within a minute."""
        barrier = threading.Barrier(len(args), timeout=60)

        def run(arg):
            barrier.wait()
            return fn(arg)

        with ThreadPoolExecutor(len(args)) as pool:
            return list(pool.map(run, args, timeout=60))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_two_threads_gelu_give_the_serial_bits(self, dtype):
        # Several erf blocks a row, and most elements past |u / sqrt(2)| = 1,
        # where the erf takes its tail branch.
        rows = subrng(12, "threads").normal(0.0, 3.0, (2, 6 * _ERF_BLOCK + 5)).astype(dtype)
        assert (np.abs(rows) > math.sqrt(2.0)).mean() > 0.5
        serial = rows.copy()
        for row in serial:
            _gelu(row)
        for _ in range(3):
            threaded = rows.copy()
            self._at_once(_gelu, list(threaded))
            assert threaded.tobytes() == serial.tobytes()

    def test_two_threads_encoding_one_pool_give_the_serial_bits(self, monkeypatch):
        # A batch's FFN input spans 12 erf blocks; a larger `ffn/w1` than the
        # initial one takes most of it past the erf's first branch.
        cfg = tiny_config(num_layers=1, hidden_dim=32, ff_dim=256, emb_dim=16, vocab_size=50,
                          query_max_len=48, doc_max_len=48, dtype="float32")
        doc = TwoTower.init(cfg, 14).doc
        params = {**doc, "layer0/ffn/w1": doc["layer0/ffn/w1"] * 30}
        rng = subrng(14, "pool")
        seqs = [rng.integers(2, 50, size=48).tolist() for _ in range(64)]
        # Each caller encodes its batches serially, so two threads encode at once.
        monkeypatch.setattr(util, "_worker_budget", lambda: 1)
        serial = retrieval._encode_all(params, cfg, seqs).tobytes()
        for _ in range(3):
            threaded = self._at_once(lambda _: retrieval._encode_all(params, cfg, seqs), [0, 1])
            assert [emb.tobytes() for emb in threaded] == [serial, serial]


class TestEncodeKeepsNoActivations:
    """`encode` skips the activation cache but must compute the same bits as
    the forward pass that keeps it."""

    @staticmethod
    def _batch(rng, max_len, vocab_size):
        lengths = rng.integers(1, max_len + 1, size=6)
        return [[2] + rng.integers(NUM_SPECIALS, vocab_size, size=n - 1).tolist() for n in lengths]

    @pytest.mark.parametrize("arch,dtype,share", [
        (ARCH_TRANSFORMER, "float32", False),
        (ARCH_TRANSFORMER, "float64", False),
        (ARCH_TRANSFORMER, "float32", True),
        (ARCH_TRANSFORMER, "float64", True),
        (ARCH_BOW_MLP, "float32", False),
        (ARCH_BOW_MLP, "float64", False),
    ])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_bits_equal_the_cached_forward(self, arch, dtype, share, num_layers):
        # With one layer the first layer is also the last, row-selecting one.
        cfg = tiny_config(arch=arch, dtype=dtype, share_towers=share, query_max_len=6, num_layers=num_layers)
        model = TwoTower.init(cfg, seed=3)
        rng = subrng(4, "bits")
        queries = self._batch(rng, cfg.query_max_len, cfg.vocab_size)
        docs = self._batch(rng, cfg.doc_max_len, cfg.vocab_size)
        for tower, batch in ((model.query, queries), (model.doc, docs)):
            plain, cached = encode(tower, cfg, batch), encode_with_cache(tower, cfg, batch)
            assert cached[1] is not None
            assert plain.dtype == cached[0].dtype == np.dtype(dtype)
            assert plain.tobytes() == cached[0].tobytes()

    @pytest.mark.parametrize("arch", [ARCH_TRANSFORMER, ARCH_BOW_MLP])
    def test_no_cache_without_backward(self, arch):
        cfg = tiny_config(arch=arch)
        params = init_params(cfg, subrng(5), cfg.doc_max_len)
        out, cache = encode_with_cache(params, cfg, [[2, 7, 9]], backward=False)
        assert cache is None
        assert out.tobytes() == encode_with_cache(params, cfg, [[2, 7, 9]])[0].tobytes()

    @staticmethod
    def _peak_bytes(forward):
        # 512 doc-length sequences at the default shapes in float32, as one
        # batch or as the candidates of one index build.
        cfg = EncoderConfig(vocab_size=3000, dtype="float32")
        model = TwoTower(cfg, {}, init_params(cfg, subrng(6), cfg.doc_max_len))
        batch = subrng(7).integers(NUM_SPECIALS, cfg.vocab_size, size=(512, cfg.doc_max_len)).tolist()
        tracemalloc.start()
        try:
            forward(model, cfg, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_index_batch_peak_memory(self):
        # About 54 MB: each intermediate is freed once it is used, so the peak
        # is one sublayer's working set. With every intermediate of a layer
        # alive until the layer ended it was 156 MB. The same forward keeping
        # every layer's activations for a backward pass peaks at about 169 MB
        # (next test).
        assert self._peak_bytes(lambda model, cfg, batch: encode(model.doc, cfg, batch)) < 80 * 2**20

    def test_cached_forward_peak_memory(self):
        # About 169 MB. The last layer computes only the CLS row; run on every
        # row it would hold B x L activations and peak at about 270 MB.
        assert self._peak_bytes(lambda model, cfg, batch: encode_with_cache(model.doc, cfg, batch)) < 200 * 2**20

    def test_index_build_peak_memory(self):
        # About 3.5 MB: an index build holds one `ENCODE_BATCH` batch's working
        # set at a time (27 MB at 256 rows a batch).
        assert self._peak_bytes(lambda model, cfg, batch: build_dense_index(model, range(512), batch)) < 8 * 2**20


class TestMaskedSoftmax:
    """`_masked_softmax` takes each row's max by halving; numpy's reduction
    is the reference."""

    @staticmethod
    def reference(scores, scale, pad):
        scores = scores * scale
        np.copyto(scores, -np.inf, where=pad)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return scores

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 16, 33, 48])
    def test_bits_equal_the_reduction_max(self, width, dtype):
        rng = subrng(40, "softmax", width)
        scores = rng.normal(size=(4, 2, 5, width)).astype(dtype)
        scores[rng.random(scores.shape) < 0.3] = 0.0
        scores[rng.random(scores.shape) < 0.3] = -0.0
        # No score of the first sequence is positive, so the max of many of
        # its rows is a zero of one sign or the other.
        scores[0] = -np.abs(scores[0])
        scores[0][rng.random(scores[0].shape) < 0.3] = 0.0
        # The second sequence pads its last half, the third all but one key.
        pad = np.zeros((4, 1, 1, width), dtype=bool)
        pad[1, ..., (width + 1) // 2 :] = True
        pad[2, ..., 1:] = True
        got = _masked_softmax(scores.copy(), 0.5, pad)
        assert got.tobytes() == self.reference(scores, 0.5, pad).tobytes()
        masked = np.where(pad, -np.inf, scores)
        assert np.array_equal(_row_max(masked), masked.max(axis=-1, keepdims=True))


def full_width_attention(params, p, x, pad, scale, nh, at, keep):
    """`encoders._attention` with Q and the scores computed for every row and
    the selected rows taken after the scores matmul: the reference that the
    row-selected queries must match."""
    maps = [(f"{p}/attn/w{n}", f"{p}/attn/b{n}") for n in "qkv"]
    qh, kh, vh = (encoders._split_heads(y, nh) for y in encoders._normed_affines(params, x, f"{p}/ln1", maps, keep))
    scores = qh @ kh.transpose(0, 1, 3, 2)
    if at is not None:
        by_head = (at[0][:, None], np.arange(nh)[:, None], at[1][:, None])
        qh, scores = qh[by_head], scores[by_head]
        x = x[at].reshape(-1, x.shape[-1])
    probs = _masked_softmax(scores, scale, pad)
    ctx = encoders._merge_heads(probs @ vh).reshape(x.shape)
    keep((qh, kh, vh, probs, ctx))
    a = _affine(ctx, params[f"{p}/attn/wo"], params[f"{p}/attn/bo"])
    a += x
    return a


class TestLoneRowRule:
    """The last layer projects and scores only the selected queries, a lone
    selected row as two, since a one-row matmul takes BLAS's gemv path. At
    the default shapes in float32 that gives the bits of the full-width
    queries, forward and backward, for one sequence and for one selected row
    a sequence, as an MLM batch whose largest masked count is 1 selects."""

    CONFIG = EncoderConfig(vocab_size=300, dtype="float32")

    @staticmethod
    def _both(monkeypatch, run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(encoders, "_attention", full_width_attention)
            return got, run()

    @staticmethod
    def _batch(size, seed):
        rng = subrng(41, "lone", seed)
        lengths = rng.integers(3, TestLoneRowRule.CONFIG.doc_max_len + 1, size=size)
        return [[2] + rng.integers(NUM_SPECIALS, 300, size=n - 1).tolist() for n in lengths]

    @staticmethod
    def _assert_same_bits(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 5, 32])
    def test_encode_and_its_backward(self, monkeypatch, size):
        cfg = self.CONFIG
        params = init_params(cfg, subrng(42, "lone"), cfg.doc_max_len)
        batch = self._batch(size, size)
        grad_out = subrng(43, "lone", size).normal(size=(size, cfg.emb_dim)).astype(np.float32)

        def run():
            out, cache = encode_with_cache(params, cfg, batch)
            grads = dense_grads(params, backward_from_cache(params, cfg, cache, grad_out))
            return [encode(params, cfg, batch), out] + [grads[k] for k in sorted(grads)]

        self._assert_same_bits(*self._both(monkeypatch, run))

    @pytest.mark.parametrize("size,m", [(1, 1), (4, 1), (32, 1), (1, 2), (32, 3)])
    def test_selected_rows_and_their_backward(self, monkeypatch, size, m):
        cfg = self.CONFIG
        params = init_params(cfg, subrng(44, "lone"), cfg.doc_max_len)
        batch = self._batch(size, 100 + size)
        rng = subrng(45, "lone", size, m)
        rows = np.array([rng.integers(0, len(seq), size=m) for seq in batch])
        d_hidden = rng.normal(size=(size, m, cfg.hidden_dim)).astype(np.float32)

        def run():
            hidden, cache = hidden_states(params, cfg, batch, rows)
            grads = dense_grads(params, hidden_backward(params, cfg, cache, d_hidden))
            return [hidden] + [grads[k] for k in sorted(grads)]

        self._assert_same_bits(*self._both(monkeypatch, run))


class TestBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        for arch in (ARCH_TRANSFORMER, ARCH_BOW_MLP):
            cfg = tiny_config(arch=arch)
            params = init_params(cfg, subrng(11), cfg.doc_max_len)
            _, cache = encode_with_cache(params, cfg, [[2, 7, 9]])
            grads = dense_grads(params, backward_from_cache(params, cfg, cache, np.zeros((1, cfg.emb_dim))))
            for name, grad in grads.items():
                assert np.all(grad == 0.0), name

    # With one layer, the layer that computes only the CLS row is also the
    # one the embeddings feed.
    @pytest.mark.parametrize("batch_size", [1, 2])
    @pytest.mark.parametrize("arch,num_layers", [
        (ARCH_TRANSFORMER, 1),
        (ARCH_TRANSFORMER, 2),
        (ARCH_BOW_MLP, 2),
    ])
    def test_finite_difference_oracle(self, arch, num_layers, batch_size):
        cfg = tiny_config(arch=arch, num_layers=num_layers)
        rng = subrng(12, arch)
        params = init_params(cfg, rng, cfg.doc_max_len)
        batch = [[2, 7, 9, 11], [2, 5, 6]][:batch_size]
        grad_out = rng.normal(size=(batch_size, cfg.emb_dim))

        def objective():
            return float((encode(params, cfg, batch) * grad_out).sum())

        _, cache = encode_with_cache(params, cfg, batch)
        grads = dense_grads(params, backward_from_cache(params, cfg, cache, grad_out))
        eps = 1e-5
        coord_rng = np.random.default_rng(0)
        checked = 0
        worst = 0.0
        names = sorted(params)
        while checked < 200:
            name = names[int(coord_rng.integers(len(names)))]
            arr = params[name]
            idx = tuple(int(coord_rng.integers(s)) for s in arr.shape)
            original = arr[idx]
            arr[idx] = original + eps
            f_plus = objective()
            arr[idx] = original - eps
            f_minus = objective()
            arr[idx] = original
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
            checked += 1
        assert worst < 1e-4


class TestRowSelector:
    """Past the attention scores the last layer computes only the rows its
    caller selects. Selecting every position is the reference: a CLS
    selection, as `encode` and training make, and a ragged one, as MLM makes,
    must give the same states at their rows and, fed gradients on those rows,
    the same parameter gradients."""

    BATCH = [[2, 7, 9, 11, 13], [2, 5], [2, 6, 8, PAD_ID]]

    def reference(self, params, cfg, batch, rows, d_rows):
        """The states at `rows` and the gradients of sum(d_rows * states),
        from the body run with every position selected."""
        width = max(len(seq) for seq in batch)
        hidden, cache = hidden_states(params, cfg, batch, np.tile(np.arange(width), (len(batch), 1)))
        at = (np.arange(len(batch))[:, None], rows)
        d_hidden = np.zeros_like(hidden)
        np.add.at(d_hidden, at, d_rows)
        return hidden[at], dense_grads(params, hidden_backward(params, cfg, cache, d_hidden))

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("batch", [[[2, 7, 9]], BATCH], ids=["one", "padded-three"])
    def test_cls_selection_of_encode(self, num_layers, share, batch):
        cfg = tiny_config(num_layers=num_layers, share_towers=share)
        model = TwoTower.init(cfg, seed=9)
        rng = subrng(10, "cls")
        for params in (model.query,) if share else (model.query, model.doc):
            grad_out = rng.normal(size=(len(batch), cfg.emb_dim))
            cls, full = self.reference(
                params, cfg, batch, np.zeros((len(batch), 1), int), (grad_out @ params["out/w"].T)[:, None]
            )
            cls = cls[:, 0]
            np.testing.assert_allclose(
                encode(params, cfg, batch), cls @ params["out/w"] + params["out/b"], rtol=0, atol=1e-12
            )
            full["out/w"] += cls.T @ grad_out
            full["out/b"] += grad_out.sum(axis=0)
            _, cache = encode_with_cache(params, cfg, batch)
            pruned = dense_grads(params, backward_from_cache(params, cfg, cache, grad_out))
            assert set(pruned) == set(full)
            for name, grad in pruned.items():
                np.testing.assert_allclose(grad, full[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_ragged_selection(self, num_layers):
        # The second sequence selects no row: its three slots are padding. The
        # third selects two rows and pads with a repeat of its position 2.
        # Padding slots carry zero gradient.
        cfg = tiny_config(num_layers=num_layers)
        params = init_params(cfg, subrng(11, "ragged"), cfg.doc_max_len)
        rows = np.array([[4, 0, 2], [0, 0, 0], [2, 1, 2]])
        valid = np.array([[True, True, True], [False, False, False], [True, True, False]])
        d_rows = subrng(12, "ragged").normal(size=rows.shape + (cfg.hidden_dim,)) * valid[..., None]
        states, cache = hidden_states(params, cfg, self.BATCH, rows)
        assert states.shape == rows.shape + (cfg.hidden_dim,)
        ref_states, ref_grads = self.reference(params, cfg, self.BATCH, rows, d_rows)
        np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-12)
        grads = dense_grads(params, hidden_backward(params, cfg, cache, d_rows))
        assert set(grads) == set(ref_grads)
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("rows", [[[0], [1]], [[0, 5], [1, 1], [0, 0]], [[-1], [0], [0]], [0, 0, 0]])
    def test_rows_outside_the_batch_are_encoder_error(self, rows):
        cfg = tiny_config()
        params = init_params(cfg, subrng(13, "rows"), cfg.doc_max_len)
        with pytest.raises(EncoderError, match="rows"):
            hidden_states(params, cfg, self.BATCH, np.array(rows))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = TwoTower(
            cfg,
            init_params(cfg, subrng(14, "q"), cfg.query_max_len),
            init_params(cfg, subrng(14, "d"), cfg.doc_max_len),
        )
        prefix = str(tmp_path / "ckpt")
        fp1 = save_checkpoint(prefix, model, {"stage": "test"})
        loaded, meta = load_checkpoint(prefix)
        assert loaded.config == cfg
        assert meta["stage"] == "test"
        for name in model.query:
            np.testing.assert_array_equal(loaded.query[name], model.query[name])
            np.testing.assert_array_equal(loaded.doc[name], model.doc[name])
        assert fp1 == save_checkpoint(str(tmp_path / "ckpt2"), model, {"stage": "test"})

    def test_fingerprint_is_the_sha256_of_the_files_written(self, tmp_path):
        fingerprint = save_checkpoint(str(tmp_path / "ckpt"), TwoTower.init(tiny_config(), 18))
        on_disk = (tmp_path / "ckpt.json").read_bytes() + (tmp_path / "ckpt.bin").read_bytes()
        assert fingerprint == hashlib.sha256(on_disk).hexdigest()

    def test_shared_towers_roundtrip(self, tmp_path):
        cfg = tiny_config(share_towers=True)
        shared = init_params(cfg, subrng(15), cfg.doc_max_len)
        prefix = str(tmp_path / "shared")
        save_checkpoint(prefix, TwoTower(cfg, shared, shared))
        loaded, _ = load_checkpoint(prefix)
        assert loaded.query is loaded.doc
        for name in shared:
            np.testing.assert_array_equal(loaded.query[name], shared[name])

    def test_earlier_format_is_encoder_error(self, tmp_path):
        # A v1 manifest still carries the `ln_epsilon` config key; the format
        # check rejects it before the config is built.
        cfg = tiny_config(share_towers=True)
        meta = {"format": "twotower-checkpoint-v1", "config": {**asdict(cfg), "ln_epsilon": 1e-12}}
        prefix = str(tmp_path / "v1")
        util.save_tensors(prefix, {"tower/emb/token": np.zeros((24, 8))}, meta)
        with pytest.raises(EncoderError, match="not a checkpoint"):
            load_checkpoint(prefix)

    def test_shared_flag_requires_single_tower(self, tmp_path):
        cfg = tiny_config(share_towers=True)
        a = init_params(cfg, subrng(16), cfg.doc_max_len)
        b = init_params(cfg, subrng(17), cfg.doc_max_len)
        with pytest.raises(EncoderError):
            TwoTower(cfg, a, b)
