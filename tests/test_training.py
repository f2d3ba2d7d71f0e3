import math
from dataclasses import asdict

import numpy as np
import pytest

from twotower.benchmark import build_reqa, dense_candidates, finetune_pairs, make_split
from twotower.corpus import NUM_SPECIALS, UNK_ID
from twotower.encoders import EncoderConfig, RowGrad, TwoTower, hidden_states, init_params, save_checkpoint
from twotower.pairs import PRETRAIN_TASKS, gen_mlm, sample_mixture
from twotower.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    WARMUP_FRACTION,
    OptimizerState,
    TrainRunConfig,
    _mlm_step,
    adam_step,
    finetune,
    in_batch_softmax_loss,
    mlm_pretrain,
    pretrain,
)
from twotower.util import subrng


def full_softmax_loss(q_emb: np.ndarray, all_d_embs: np.ndarray, gold: int) -> float:
    """NLL of the gold doc under the softmax over every candidate doc."""
    d = np.asarray(all_d_embs)
    if not 0 <= gold < d.shape[0]:
        raise IndexError(f"gold index {gold} out of range [0, {d.shape[0]})")
    logits = d @ np.asarray(q_emb)
    peak = logits.max()
    lse = peak + math.log(np.exp(logits - peak).sum())
    return float(lse - logits[gold])


def small_enc_config(vocab_size, **overrides):
    base = dict(
        arch="transformer",
        num_layers=1,
        hidden_dim=32,
        num_heads=4,
        ff_dim=64,
        emb_dim=16,
        vocab_size=vocab_size,
        query_max_len=16,
        doc_max_len=48,
        dtype="float32",
    )
    base.update(overrides)
    return EncoderConfig(**base)


class TestInBatchSoftmaxLoss:
    def test_identical_embeddings_hand_case(self):
        # All logits equal: every row softmax is uniform, loss = ln 2.
        # Ties break to the lowest column, so row 0 is right and row 1 wrong.
        q = np.ones((2, 3))
        d = np.ones((2, 3))
        out = in_batch_softmax_loss(q, d)
        assert out.loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert out.in_batch_accuracy == 0.5

    def test_saturated_diagonal(self):
        q = np.array([[10.0, 0.0], [0.0, 10.0]])
        out = in_batch_softmax_loss(q, q)
        assert 0.0 <= out.loss < 1e-10
        assert out.in_batch_accuracy == 1.0

    def test_gradients_match_finite_differences(self):
        rng = subrng(17)
        q = rng.normal(size=(4, 8))
        d = rng.normal(size=(4, 8))
        out = in_batch_softmax_loss(q, d)
        eps = 1e-6
        worst = 0.0
        for arr, grad in ((q, out.grad_q), (d, out.grad_d)):
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    original = arr[i, j]
                    arr[i, j] = original + eps
                    f_plus = in_batch_softmax_loss(q, d).loss
                    arr[i, j] = original - eps
                    f_minus = in_batch_softmax_loss(q, d).loss
                    arr[i, j] = original
                    numeric = (f_plus - f_minus) / (2 * eps)
                    denom = max(abs(numeric), abs(grad[i, j]), 1e-10)
                    worst = max(worst, abs(numeric - grad[i, j]) / denom)
        assert worst < 1e-6

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            in_batch_softmax_loss(np.ones((1, 4)), np.ones((1, 4)))

    def test_non_finite_rejected(self):
        bad = np.ones((2, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            in_batch_softmax_loss(bad, np.ones((2, 4)))

    def test_loss_non_negative(self):
        rng = subrng(18)
        for _ in range(50):
            q = rng.normal(size=(5, 6))
            d = rng.normal(size=(5, 6))
            assert in_batch_softmax_loss(q, d).loss >= 0.0


class TestFullSoftmaxLoss:
    def test_single_candidate(self):
        assert full_softmax_loss(np.ones(4), np.ones((1, 4)), 0) == 0.0

    def test_three_candidate_hand_case(self):
        # Pocket calculator: logits (1, 0, -1); loss = -ln(e / (e + 1 + 1/e)).
        q = np.array([1.0, 0.0])
        docs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        expected = -math.log(math.e / (math.e + 1.0 + math.exp(-1.0)))
        assert full_softmax_loss(q, docs, 0) == pytest.approx(expected, abs=1e-12)

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            full_softmax_loss(np.ones(2), np.ones((3, 2)), 3)

    def test_equals_in_batch_rows_when_batch_is_full_candidate_set(self):
        rng = subrng(20)
        q = rng.normal(size=(8, 16))
        d = rng.normal(size=(8, 16))
        out = in_batch_softmax_loss(q, d)
        row_losses = [full_softmax_loss(q[i], d, i) for i in range(8)]
        # independent scalar re-derivation of each row
        for i in range(8):
            logits = [float(q[i] @ d[j]) for j in range(8)]
            peak = max(logits)
            lse = peak + math.log(sum(math.exp(v - peak) for v in logits))
            assert row_losses[i] == pytest.approx(lse - logits[i], abs=1e-10)
        assert out.loss == pytest.approx(sum(row_losses) / 8, abs=1e-10)


class TestAdam:
    def _state(self, params, total_steps, lr=0.1):
        cfg = TrainRunConfig(batch_size=2, total_steps=total_steps, lr_peak=lr)
        return OptimizerState.for_params(params, cfg)

    def test_schedule_knots(self):
        # The first tenth of the steps warm up.
        assert WARMUP_FRACTION == 0.1
        state = self._state({"p": np.zeros(1)}, total_steps=100, lr=0.5)
        assert state.learning_rate(10) == pytest.approx(0.5)
        assert state.learning_rate(100) == 0.0
        assert state.learning_rate(5) == pytest.approx(0.25)
        assert state.learning_rate(55) == pytest.approx(0.5 * 45 / 90)
        assert state.learning_rate(200) == 0.0

    def test_schedule_piecewise_linear_and_peaked(self):
        state = self._state({"p": np.zeros(1)}, total_steps=100, lr=1.0)
        values = [state.learning_rate(t) for t in range(101)]
        assert max(values) == values[10]
        for t in range(1, 10):
            assert values[t + 1] - values[t] == pytest.approx(values[1] - values[0], abs=1e-12)
        for t in range(11, 100):
            assert values[t + 1] - values[t] == pytest.approx(values[11] - values[10], abs=1e-12)

    def test_two_hand_computed_steps(self):
        # Straight-line evaluation of the Adam recurrences for one scalar.
        lr_peak, total = 0.1, 10
        b1, b2, eps = 0.9, 0.999, 1e-8
        p = 1.0
        g1, g2 = 0.5, -0.25
        m = 0.1 * g1
        v = 0.001 * g1 * g1
        lr1 = lr_peak  # t=1 equals W=1, warmup peak
        p -= lr1 * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + 0.1 * g2
        v = b2 * v + 0.001 * g2 * g2
        lr2 = lr_peak * (total - 2) / (total - 1)
        p -= lr2 * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)

        params = {"w": np.array([1.0])}
        cfg = TrainRunConfig(batch_size=2, total_steps=total, lr_peak=lr_peak)
        state = OptimizerState.for_params(params, cfg)
        adam_step(params, {"w": np.array([g1])}, state)
        adam_step(params, {"w": np.array([g2])}, state)
        assert params["w"][0] == pytest.approx(p, abs=1e-12)

    def test_past_schedule_end_is_noop(self):
        params = {"w": np.array([1.0])}
        cfg = TrainRunConfig(batch_size=2, total_steps=2, lr_peak=0.1)
        state = OptimizerState.for_params(params, cfg)
        for _ in range(2):
            adam_step(params, {"w": np.array([0.5])}, state)
        frozen = params["w"].copy()
        adam_step(params, {"w": np.array([0.5])}, state)
        np.testing.assert_array_equal(params["w"], frozen)

    @staticmethod
    def _allocating_adam_step(params, grads, state):
        """Adam with a fresh temporary for every expression: the reference
        the in-place `adam_step` must match bit for bit."""
        state.step += 1
        t = state.step
        lr = state.learning_rate(t)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
        for name, grad in grads.items():
            m, v = state.m[name], state.v[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            if lr != 0.0:
                update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPSILON)
                params[name] -= lr * update

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_in_place_bits_equal_the_allocating_update(self, dtype):
        # Warmup, decay and two steps past the schedule's end, where lr is 0.
        rng = np.random.default_rng(3)
        shapes = {"emb": (40, 8), "w": (8, 8), "b": (8,), "s": ()}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        ref = {k: a.copy() for k, a in params.items()}
        state, ref_state = self._state(params, 6, 0.5), self._state(ref, 6, 0.5)
        for _ in range(8):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            adam_step(params, grads, state)
            self._allocating_adam_step(ref, grads, ref_state)
            for k in shapes:
                for got, want in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
                    assert got[k].dtype == want[k].dtype
                    assert got[k].tobytes() == want[k].tobytes(), k

    @staticmethod
    def _row_grad(rng, rows, width, dtype):
        """A row gradient on `rows` whose values hold zeros of both signs."""
        values = rng.normal(size=(len(rows), width)).astype(dtype)
        values[rng.random(values.shape) < 0.2] = -0.0
        values[rng.random(values.shape) < 0.1] = 0.0
        return RowGrad(np.array(sorted(rows), dtype=np.intp), values)

    def _assert_same_state(self, got, want):
        (params, state), (ref, ref_state) = got, want
        for k in params:
            for a, b in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
                assert a[k].dtype == b[k].dtype
                assert a[k].tobytes() == b[k].tobytes(), k

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_row_gradient_bits_equal_the_dense_step(self, dtype):
        # Step 1 touches rows 0-19, the later steps only rows among 10-34: so
        # rows 0-9 are left untouched since step 1 and rows 35-39 are never
        # touched. Warmup, decay and two steps past the schedule's end.
        rng = np.random.default_rng(4)
        params = {"emb": rng.normal(size=(40, 8)).astype(dtype), "b": rng.normal(size=8).astype(dtype)}
        ref = {k: a.copy() for k, a in params.items()}
        state, ref_state = self._state(params, 6, 0.5), self._state(ref, 6, 0.5)
        touched = [range(20)] + [rng.choice(np.arange(10, 35), size=8, replace=False) for _ in range(7)]
        for rows in touched:
            grad = self._row_grad(rng, rows, 8, dtype)
            b = rng.normal(size=8).astype(dtype)
            adam_step(params, {"emb": grad, "b": b}, state)
            adam_step(ref, {"emb": grad.dense(40), "b": b}, ref_state)
            self._assert_same_state((params, state), (ref, ref_state))

    def test_shared_tower_merge_of_overlapping_rows(self):
        # The query side reads rows 0-11, the doc side rows 6-19: the merged
        # row gradient sums both on rows 6-11, zeros of either sign included.
        cfg = small_enc_config(24, share_towers=True, hidden_dim=8, ff_dim=8, emb_dim=4)
        model, ref = TwoTower.init(cfg, 7), TwoTower.init(cfg, 7)
        state = self._state(model.params(), 5, 0.4)
        ref_state = self._state(ref.params(), 5, 0.4)
        rng = np.random.default_rng(8)
        for step in range(4):
            sides = [{"emb/token": self._row_grad(rng, rows, 8, "float32"),
                      "out/b": rng.normal(size=4).astype(np.float32)}
                     for rows in (range(12), range(6, 20 - step))]
            merged = model.merge_grads(*sides)
            assert list(merged["tower/emb/token"].rows) == list(range(20 - step))
            dense = [{k: g.dense(24) if isinstance(g, RowGrad) else g for k, g in side.items()} for side in sides]
            ref_merged = ref.merge_grads(*dense)
            assert merged["tower/emb/token"].dense(24).tobytes() == ref_merged["tower/emb/token"].tobytes()
            adam_step(model.params(), merged, state)
            adam_step(ref.params(), ref_merged, ref_state)
            self._assert_same_state((model.params(), state), (ref.params(), ref_state))

    @pytest.mark.parametrize("rows,width,dtype", [
        ([3, 10], 4, "float32"),   # a row past the table
        ([-1, 3], 4, "float32"),   # a negative row
        ([2, 2], 4, "float32"),    # a repeated row
        ([5, 2], 4, "float32"),    # rows out of order
        ([2, 5], 3, "float32"),    # the wrong width
        ([2, 5], 4, "float64"),    # the wrong dtype
    ])
    def test_bad_row_gradient_rejected(self, rows, width, dtype):
        params = {"emb": np.zeros((10, 4), np.float32)}
        state = self._state(params, 4, 0.5)
        grad = RowGrad(np.array(rows), np.ones((len(rows), width), dtype))
        with pytest.raises(ValueError, match="row gradient"):
            adam_step(params, {"emb": grad}, state)
        with pytest.raises(ValueError, match="row gradient"):
            adam_step(params, {"emb": RowGrad(np.array([1, 2]), np.ones((3, 4), np.float32))}, state)

    def test_gradient_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        cfg = TrainRunConfig(batch_size=2, total_steps=2)
        state = OptimizerState.for_params(params, cfg)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(4)}, state)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3, np.float32)}, state)


@pytest.fixture(scope="module")
def toy_setup(small_toy):
    store, entries, vocab = small_toy
    enc_cfg = small_enc_config(len(vocab))
    return store, entries, vocab, enc_cfg


class TestPretrain:
    def test_zero_steps_returns_initialization(self, toy_setup):
        store, _, _, enc_cfg = toy_setup
        cfg = TrainRunConfig(batch_size=4, total_steps=0, seed=5)
        model, history = pretrain(cfg, enc_cfg, iter([]))
        init = TwoTower.init(enc_cfg, 5)
        for name in init.query:
            np.testing.assert_array_equal(model.query[name], init.query[name])
            np.testing.assert_array_equal(model.doc[name], init.doc[name])
        assert history == []

    def test_accuracy_improves_on_toy_corpus(self, toy_setup):
        store, _, _, enc_cfg = toy_setup
        cfg = TrainRunConfig(batch_size=32, total_steps=200, seed=6)
        stream = sample_mixture(
            store, PRETRAIN_TASKS, cfg.batch_size * cfg.total_steps,
            subrng(6, "pairs"), enc_cfg.query_max_len, enc_cfg.doc_max_len,
        )
        _, history = pretrain(cfg, enc_cfg, stream)
        first = history[0]["acc"]
        last = np.mean([h["acc"] for h in history[-10:]])
        assert last > first
        assert last > 1.0 / cfg.batch_size

    def test_deterministic_checkpoint_bytes(self, toy_setup, tmp_path):
        store, _, _, enc_cfg = toy_setup

        def run(prefix):
            cfg = TrainRunConfig(batch_size=8, total_steps=6, seed=9)
            stream = sample_mixture(
                store, PRETRAIN_TASKS, 48, subrng(9, "pairs"),
                enc_cfg.query_max_len, enc_cfg.doc_max_len,
            )
            model, _ = pretrain(cfg, enc_cfg, stream)
            save_checkpoint(str(tmp_path / prefix), model)
            return (tmp_path / (prefix + ".json")).read_bytes(), (tmp_path / (prefix + ".bin")).read_bytes()

        assert run("a") == run("b")

    def test_exhausted_stream_errors(self, toy_setup):
        _, _, _, enc_cfg = toy_setup
        cfg = TrainRunConfig(batch_size=8, total_steps=2, seed=1)
        with pytest.raises(ValueError, match="exhausted"):
            pretrain(cfg, enc_cfg, iter([]))

    def test_shared_towers_stay_shared(self, toy_setup):
        store, _, _, base_cfg = toy_setup
        enc_cfg = EncoderConfig(**{**asdict(base_cfg), "share_towers": True})
        cfg = TrainRunConfig(batch_size=8, total_steps=3, seed=3)
        stream = sample_mixture(
            store, PRETRAIN_TASKS, 24, subrng(3, "pairs"),
            enc_cfg.query_max_len, enc_cfg.doc_max_len,
        )
        model, _ = pretrain(cfg, enc_cfg, stream)
        assert model.query is model.doc


class TestMlmPretrain:
    def test_trains_and_drops_head(self, toy_setup):
        store, _, _, enc_cfg = toy_setup
        cfg = TrainRunConfig(batch_size=8, total_steps=4, seed=4)
        model, history = mlm_pretrain(cfg, enc_cfg, store)
        assert "mlm/bias" not in model.query and "mlm/bias" not in model.doc
        assert len(history) == 4
        assert all(np.isfinite(h["loss"]) for h in history)

    def test_requires_transformer(self, toy_setup):
        store, _, _, base_cfg = toy_setup
        enc_cfg = EncoderConfig(**{**asdict(base_cfg), "arch": "bow_mlp"})
        with pytest.raises(ValueError, match="transformer"):
            mlm_pretrain(TrainRunConfig(batch_size=8, total_steps=1), enc_cfg, store)

    def test_deterministic(self, toy_setup):
        store, _, _, enc_cfg = toy_setup

        def run():
            cfg = TrainRunConfig(batch_size=8, total_steps=3, seed=11)
            model, _ = mlm_pretrain(cfg, enc_cfg, store)
            return model.query

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestMlmStep:
    @pytest.mark.parametrize("unk_row", [None, 1], ids=["all-maskable", "one-all-unk"])
    def test_loss_and_gradients_match_oracles(self, unk_row):
        # float64 weights drawn at std 0.5, so that the gradients stand well
        # above finite-difference round-off; each evaluation re-seeds the masking.
        cfg = small_enc_config(
            12, hidden_dim=8, num_heads=2, ff_dim=16, emb_dim=4, doc_max_len=8, dtype="float64"
        )
        rng = subrng(31)
        params = {k: rng.normal(scale=0.5, size=a.shape) for k, a in init_params(cfg, rng, cfg.doc_max_len).items()}
        params["mlm/bias"] = rng.normal(scale=0.5, size=cfg.vocab_size)
        batch = [list(rng.integers(NUM_SPECIALS, cfg.vocab_size, size=n)) for n in (8, 6, 7)]
        if unk_row is not None:
            # A sequence with no maskable token gets no masked position, as a
            # short query sentence often does.
            batch[unk_row] = [UNK_ID] * len(batch[unk_row])

        def mask_rng():
            return subrng(32, "mask")

        loss, _, grads = _mlm_step(params, cfg, batch, mask_rng())

        # The loss is the mean full-softmax NLL over the masked positions; the
        # head's bias joins the logits as one more coordinate.
        masking = mask_rng()
        examples = [gen_mlm(seq, masking, cfg.vocab_size) for seq in batch]
        if unk_row is not None:
            assert not examples[unk_row].labels
        # The oracle reads the hidden states at every position.
        every = np.tile(np.arange(max(len(e.input) for e in examples)), (len(batch), 1))
        hidden, _ = hidden_states(params, cfg, [e.input for e in examples], every)
        head = np.hstack([params["emb/token"], params["mlm/bias"][:, None]])
        nlls = [
            full_softmax_loss(np.append(hidden[i, pos], 1.0), head, original)
            for i, e in enumerate(examples)
            for pos, original in e.labels
        ]
        assert len(nlls) >= 2
        assert loss == pytest.approx(float(np.mean(nlls)), abs=1e-12)

        eps = 1e-5
        worst = 0.0
        for name in ("emb/token", "mlm/bias", "layer0/ffn/w1"):
            arr = params[name]
            for idx in np.ndindex(arr.shape):
                original = arr[idx]
                arr[idx] = original + eps
                f_plus = _mlm_step(params, cfg, batch, mask_rng())[0]
                arr[idx] = original - eps
                f_minus = _mlm_step(params, cfg, batch, mask_rng())[0]
                arr[idx] = original
                numeric = (f_plus - f_minus) / (2 * eps)
                analytic = grads[name][idx]
                worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6))
        assert worst < 1e-5


@pytest.fixture(scope="module")
def finetune_setup(small_toy):
    store, entries, vocab = small_toy
    enc_cfg = small_enc_config(len(vocab))
    examples, candidates, _ = build_reqa(entries, store, vocab, 16)
    split = make_split(examples, (80, 20), seed=1)
    pairs = finetune_pairs(split.train, candidates, enc_cfg.doc_max_len)
    cand_seqs = dense_candidates(candidates, enc_cfg.doc_max_len)
    val_queries = [ex.question_tokens for ex in split.validation]
    val_gold = [ex.gold_id for ex in split.validation]
    return enc_cfg, pairs, val_queries, val_gold, cand_seqs


class TestFinetune:
    def test_best_checkpoint_at_least_prefinetune(self, finetune_setup):
        enc_cfg, pairs, val_queries, val_gold, cand_seqs = finetune_setup
        model = TwoTower.init(enc_cfg, 21)
        cfg = TrainRunConfig(batch_size=8, total_steps=20, seed=21, eval_every=5, patience=10)
        from twotower.training import recall_at_k

        before, _ = recall_at_k(model, val_queries, val_gold, cand_seqs)
        best, history, _ = finetune(model, cfg, pairs[:64], val_queries, val_gold, cand_seqs)
        after, _ = recall_at_k(best, val_queries, val_gold, cand_seqs)
        assert after >= before
        assert history[0]["val_recall"] == pytest.approx(before)

    def test_patience_zero_stops_at_first_non_improvement(self, finetune_setup):
        enc_cfg, pairs, val_queries, val_gold, cand_seqs = finetune_setup
        model = TwoTower.init(enc_cfg, 22)
        cfg = TrainRunConfig(batch_size=4, total_steps=50, seed=22, eval_every=1, patience=0)
        _, history, _ = finetune(model, cfg, pairs[:16], val_queries, val_gold, cand_seqs)
        evals = [h["val_recall"] for h in history if "val_recall" in h]
        # the run stops the first time an eval fails to improve the running max
        running = evals[0]
        for value in evals[1:-1]:
            assert value > running
            running = value
        assert evals[-1] <= running or len(evals) == cfg.total_steps + 1

    def test_same_seed_identical_result(self, finetune_setup):
        enc_cfg, pairs, val_queries, val_gold, cand_seqs = finetune_setup

        def run():
            model = TwoTower.init(enc_cfg, 23)
            cfg = TrainRunConfig(batch_size=4, total_steps=6, seed=23, eval_every=3, patience=5)
            best, _, _ = finetune(model, cfg, pairs[:16], val_queries, val_gold, cand_seqs)
            return best.query

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_empty_training_set_rejected(self, finetune_setup):
        enc_cfg, _, val_queries, val_gold, cand_seqs = finetune_setup
        model = TwoTower.init(enc_cfg, 24)
        cfg = TrainRunConfig(batch_size=4, total_steps=5, seed=24)
        with pytest.raises(ValueError, match="empty"):
            finetune(model, cfg, [], val_queries, val_gold, cand_seqs)

    def test_empty_validation_set_rejected(self, finetune_setup):
        enc_cfg, pairs, _, _, cand_seqs = finetune_setup
        cfg = TrainRunConfig(batch_size=4, total_steps=5, seed=25)
        with pytest.raises(ValueError, match="empty validation set"):
            finetune(TwoTower.init(enc_cfg, 25), cfg, pairs[:16], [], [], cand_seqs)
