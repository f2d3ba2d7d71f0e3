import math
import tracemalloc

import numpy as np
import pytest

from twotower import util
from twotower.corpus import NUM_SPECIALS, PAD_ID
from twotower.encoders import (
    ARCH_BOW_MLP,
    ARCH_TRANSFORMER,
    LN_EPSILON,
    EncoderConfig,
    EncoderError,
    TwoTower,
    backward_from_cache,
    encode,
    encode_with_cache,
    hidden_backward,
    hidden_states,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
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
        grads = backward_from_cache(params, cfg, cache, grad_out)
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
    def test_bits_equal_the_cached_forward(self, arch, dtype, share):
        cfg = tiny_config(arch=arch, dtype=dtype, share_towers=share, query_max_len=6)
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
        # One 512 x 48 doc batch, as `build_dense_index` encodes it, at the
        # default shapes in float32.
        cfg = EncoderConfig(vocab_size=3000, dtype="float32")
        params = init_params(cfg, subrng(6), cfg.doc_max_len)
        batch = subrng(7).integers(NUM_SPECIALS, cfg.vocab_size, size=(512, cfg.doc_max_len)).tolist()
        tracemalloc.start()
        try:
            forward(params, cfg, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_index_batch_peak_memory(self):
        # About 156 MB. The same forward keeping every layer's activations for
        # a backward pass peaks at about 175 MB (next test).
        assert self._peak_bytes(encode) < 250 * 2**20

    def test_cached_forward_peak_memory(self):
        # About 175 MB. The last layer computes only the CLS row; run on every
        # row it would hold B x L activations and peak at about 270 MB.
        assert self._peak_bytes(encode_with_cache) < 200 * 2**20


class TestBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        for arch in (ARCH_TRANSFORMER, ARCH_BOW_MLP):
            cfg = tiny_config(arch=arch)
            params = init_params(cfg, subrng(11), cfg.doc_max_len)
            _, cache = encode_with_cache(params, cfg, [[2, 7, 9]])
            grads = backward_from_cache(params, cfg, cache, np.zeros((1, cfg.emb_dim)))
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
        grads = backward_from_cache(params, cfg, cache, grad_out)
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
        return hidden[at], hidden_backward(params, cfg, cache, d_hidden)

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
            pruned = backward_from_cache(params, cfg, cache, grad_out)
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
        grads = hidden_backward(params, cfg, cache, d_rows)
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
        meta = {"format": "twotower-checkpoint-v1", "config": {**cfg.to_dict(), "ln_epsilon": 1e-12}}
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
