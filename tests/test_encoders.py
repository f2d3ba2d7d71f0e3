import math

import numpy as np
import pytest

from twotower.corpus import PAD_ID, TokenSeq
from twotower.encoders import (
    ARCH_BOW_MLP,
    ARCH_TRANSFORMER,
    EncoderConfig,
    EncoderError,
    TwoTower,
    backward_from_cache,
    encode,
    encode_with_cache,
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
    eps = cfg.ln_epsilon

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
        a = init_params(cfg, subrng(7, "init"), "doc")
        b = init_params(cfg, subrng(7, "init"), "doc")
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_layernorm_gains_are_ones(self):
        params = init_params(tiny_config(), subrng(0), "doc")
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
        params = init_params(cfg, subrng(3, "moments"), "doc")
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


class TestBowMlp:
    def test_identity_diagnostics_single_token(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(5), "doc")
        h, k = cfg.hidden_dim, cfg.emb_dim
        params["mlp/w1"] = np.eye(h)
        params["mlp/w2"] = np.eye(h)[:, :k]
        params["mlp/b1"][:] = 0.0
        params["mlp/b2"][:] = 0.0
        token = 7
        out = encode(params, cfg, [TokenSeq([token])], "doc")[0]
        expected = np.tanh(params["emb/token"][token])[:k]
        np.testing.assert_allclose(out, expected, atol=1e-15)
        # init weights are tiny, so tanh is close to a pass-through
        np.testing.assert_allclose(out, params["emb/token"][token][:k], atol=1e-4)

    def test_order_invariance_of_mean_pooling(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(6), "doc")
        a = encode(params, cfg, [TokenSeq([7, 9, 11])], "doc")
        b = encode(params, cfg, [TokenSeq([11, 7, 9])], "doc")
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_token_embedding_gradient_sparsity(self):
        cfg = tiny_config(arch=ARCH_BOW_MLP)
        params = init_params(cfg, subrng(8), "doc")
        grad_out = subrng(9).normal(size=(1, cfg.emb_dim))
        _, cache = encode_with_cache(params, cfg, [TokenSeq([7, 9])], "doc")
        grads = backward_from_cache(params, cfg, cache, grad_out)
        nonzero_rows = np.flatnonzero(np.abs(grads["emb/token"]).sum(axis=1))
        assert set(nonzero_rows) == {7, 9}


class TestTransformerForward:
    def test_matches_scalar_oracle(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(7, "oracle"), "doc")
        tokens = [2, 7, 13]
        vectorized = encode(params, cfg, [TokenSeq(tokens)], "doc")[0]
        reference = scalar_transformer_forward(params, cfg, tokens)
        np.testing.assert_allclose(vectorized, reference, atol=1e-10)

    def test_matches_scalar_oracle_second_seed(self):
        cfg = tiny_config(num_layers=1, hidden_dim=4, num_heads=2, ff_dim=8, emb_dim=3)
        params = init_params(cfg, subrng(21, "oracle"), "doc")
        tokens = [2, 5, 6, 9, 10]
        vectorized = encode(params, cfg, [TokenSeq(tokens)], "doc")[0]
        reference = scalar_transformer_forward(params, cfg, tokens)
        np.testing.assert_allclose(vectorized, reference, atol=1e-10)

    def test_pad_invariance(self):
        for arch in (ARCH_TRANSFORMER, ARCH_BOW_MLP):
            cfg = tiny_config(arch=arch)
            params = init_params(cfg, subrng(1), "doc")
            base = encode(params, cfg, [TokenSeq([2, 7, 9])], "doc")
            padded = encode(params, cfg, [TokenSeq([2, 7, 9] + [PAD_ID] * 4)], "doc")
            np.testing.assert_allclose(base, padded, atol=1e-10)

    def test_batch_permutation_equivariance(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(2), "doc")
        batch = [TokenSeq([2, 7]), TokenSeq([2, 9, 10]), TokenSeq([2, 11, 12, 13])]
        out = encode(params, cfg, batch, "doc")
        perm = [2, 0, 1]
        out_perm = encode(params, cfg, [batch[i] for i in perm], "doc")
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_outputs_finite(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(3), "doc")
        rng = subrng(4)
        for _ in range(10):
            length = int(rng.integers(1, cfg.doc_max_len + 1))
            tokens = [2] + [int(t) for t in rng.integers(5, cfg.vocab_size, size=length - 1)]
            out = encode(params, cfg, [TokenSeq(tokens)], "doc")
            assert np.isfinite(out).all()

    def test_sequence_exceeding_max_len_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, subrng(5), "doc")
        with pytest.raises(EncoderError, match="max_len"):
            encode(params, cfg, [TokenSeq([2] * (cfg.doc_max_len + 1))], "doc")

    def test_tower_separation(self):
        cfg = tiny_config()
        params_q = init_params(cfg, subrng(10, "q"), "query")
        params_d = init_params(cfg, subrng(10, "d"), "doc")
        docs = [TokenSeq([2, 7, 9])]
        before = encode(params_d, cfg, docs, "doc")
        for name in params_q:
            params_q[name] = params_q[name] + 0.5
        after = encode(params_d, cfg, docs, "doc")
        np.testing.assert_array_equal(before, after)


class TestBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        for arch in (ARCH_TRANSFORMER, ARCH_BOW_MLP):
            cfg = tiny_config(arch=arch)
            params = init_params(cfg, subrng(11), "doc")
            _, cache = encode_with_cache(params, cfg, [TokenSeq([2, 7, 9])], "doc")
            grads = backward_from_cache(params, cfg, cache, np.zeros((1, cfg.emb_dim)))
            for name, grad in grads.items():
                assert np.all(grad == 0.0), name

    @pytest.mark.parametrize("arch", [ARCH_TRANSFORMER, ARCH_BOW_MLP])
    def test_finite_difference_oracle(self, arch):
        cfg = tiny_config(arch=arch)
        rng = subrng(12, arch)
        params = init_params(cfg, rng, "doc")
        batch = [TokenSeq([2, 7, 9, 11]), TokenSeq([2, 5, 6])]
        grad_out = rng.normal(size=(2, cfg.emb_dim))

        def objective():
            return float((encode(params, cfg, batch, "doc") * grad_out).sum())

        _, cache = encode_with_cache(params, cfg, batch, "doc")
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


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = TwoTower(
            cfg, init_params(cfg, subrng(14, "q"), "query"), init_params(cfg, subrng(14, "d"), "doc")
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
        shared = init_params(cfg, subrng(15), "shared")
        prefix = str(tmp_path / "shared")
        save_checkpoint(prefix, TwoTower(cfg, shared, shared))
        loaded, _ = load_checkpoint(prefix)
        assert loaded.query is loaded.doc
        for name in shared:
            np.testing.assert_array_equal(loaded.query[name], shared[name])

    def test_shared_flag_requires_single_tower(self, tmp_path):
        cfg = tiny_config(share_towers=True)
        a = init_params(cfg, subrng(16), "shared")
        b = init_params(cfg, subrng(17), "shared")
        with pytest.raises(EncoderError):
            TwoTower(cfg, a, b)
