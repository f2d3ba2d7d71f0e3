"""Training: in-batch sampled softmax, Adam with warmup + linear decay,
and the pre-training / fine-tuning loops.

`_train_steps` is the one step loop: `pretrain`, `finetune` and
`mlm_pretrain` give it their batches and a step function, which returns a
batch's loss and both towers' gradients. A token table's gradient is an
`encoders.RowGrad` of the rows the batch read, which `adam_step` adds on
those rows alone, to the dense step's bits; the masked-token head, tied to
the table, makes that gradient dense. `_softmax_xent` is the one softmax
cross-entropy, under the in-batch loss and the masked-token head alike.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import retrieval
from .corpus import CorpusStore
from .encoders import (
    ARCH_TRANSFORMER,
    EncoderConfig,
    Grads,
    Params,
    RowGrad,
    TwoTower,
    backward_from_cache,
    encode_with_cache,
    hidden_backward,
    hidden_states,
)
from .pairs import PretrainPair, gen_mlm, passage_doc
from .util import subrng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# The share of a run's steps over which the learning rate climbs to its peak.
WARMUP_FRACTION = 0.1


@dataclass
class LossOutput:
    loss: float
    grad_q: np.ndarray
    grad_d: np.ndarray
    in_batch_accuracy: float


@dataclass
class TrainRunConfig:
    batch_size: int = 32
    total_steps: int = 200
    seed: int = 0
    eval_every: int = 20
    patience: int = 5
    lr_peak: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (at least one in-batch negative)")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not self.lr_peak > 0:
            raise ValueError(f"lr_peak must be > 0, got {self.lr_peak}")


def in_batch_softmax_loss(q_embs: np.ndarray, d_embs: np.ndarray) -> LossOutput:
    """Mean NLL of each query against its own doc with all other in-batch
    docs as negatives; logits are the query-doc inner products."""
    q = np.asarray(q_embs)
    d = np.asarray(d_embs)
    if q.ndim != 2 or q.shape != d.shape:
        raise ValueError(f"embedding shapes must match: {q.shape} vs {d.shape}")
    batch = q.shape[0]
    if batch < 2:
        raise ValueError("need a batch of at least 2 for in-batch negatives")
    if not (np.isfinite(q).all() and np.isfinite(d).all()):
        raise ValueError("non-finite embeddings")
    logits = q @ d.T
    loss, accuracy, grad_logits = _softmax_xent(logits, np.arange(batch))
    return LossOutput(
        loss=loss,
        grad_q=grad_logits @ d,
        grad_d=grad_logits.T @ q,
        in_batch_accuracy=accuracy,
    )


def _softmax_xent(logits: np.ndarray, targets: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """(mean NLL of each row's target column under the row softmax, fraction
    of rows whose argmax is the target, gradient of the loss w.r.t. logits)."""
    n = logits.shape[0]
    rows = np.arange(n)
    peak = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - peak)
    denom = expd.sum(axis=1, keepdims=True)
    dlogits = expd / denom
    lse = peak[:, 0] + np.log(denom[:, 0])
    loss = float(np.mean(lse - logits[rows, targets]))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == targets))
    dlogits[rows, targets] -= 1.0
    dlogits /= n
    return loss, accuracy, dlogits


@dataclass
class OptimizerState:
    step: int
    m: Params
    v: Params
    cfg: TrainRunConfig

    @classmethod
    def for_params(cls, params: Params, cfg: TrainRunConfig) -> "OptimizerState":
        return cls(
            step=0,
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
            cfg=cfg,
        )

    def learning_rate(self, step: Optional[int] = None) -> float:
        """Piecewise-linear schedule: 0 -> lr_peak over the first
        `WARMUP_FRACTION` of total_steps, then linear decay to 0 at total_steps."""
        t = self.step if step is None else step
        lr_peak, total = self.cfg.lr_peak, self.cfg.total_steps
        warm = WARMUP_FRACTION * total
        if t <= warm:
            return lr_peak * (t / warm) if warm > 0 else lr_peak
        if t >= total:
            return 0.0
        return lr_peak * (total - t) / (total - warm)


def _check_grad(name: str, grad, param: np.ndarray) -> None:
    if not isinstance(grad, RowGrad):
        if grad.shape != param.shape or grad.dtype != param.dtype:
            raise ValueError(f"gradient shape or dtype mismatch for {name}")
        return
    rows, values = grad.rows, grad.values
    if values.shape != (len(rows),) + param.shape[1:] or values.dtype != param.dtype:
        raise ValueError(f"row gradient shape or dtype mismatch for {name}")
    if len(rows) and (rows[0] < 0 or rows[-1] >= len(param) or (rows[1:] <= rows[:-1]).any()):
        raise ValueError(f"row gradient of {name} needs ascending, distinct rows below {len(param)}")


def adam_step(params: Params, grads: Grads, state: OptimizerState) -> None:
    """One Adam update with bias correction; mutates params and state.

    Every row of m and v decays and every parameter row moves, but a
    `RowGrad` adds its terms to m and v on its own rows only. That is the
    dense step bit for bit: off those rows it adds +0.0, which changes no m
    or v, as neither is ever -0.0 (both start at +0.0, a nonzero m*b1 does
    not round to zero, a sum that cancels is +0.0 and v adds no negatives).
    """
    state.step += 1
    t = state.step
    lr = state.learning_rate(t)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, grad in grads.items():
        param = params[name]
        _check_grad(name, grad, param)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        v *= b2
        if isinstance(grad, RowGrad):
            m[grad.rows] += (1.0 - b1) * grad.values
            v[grad.rows] += (1.0 - b2) * grad.values * grad.values
        else:
            m += (1.0 - b1) * grad
            v += (1.0 - b2) * grad * grad
        # At lr 0 the parameter stays as it is, signed zeros included.
        if lr != 0.0:
            param -= m / bias1 / (np.sqrt(v / bias2) + ADAM_EPSILON) * lr


def _emit(metrics_out, record: dict) -> dict:
    if metrics_out is not None:
        metrics_out.write(json.dumps(record) + "\n")
    return record


def _batches(stream: Iterable, cfg: TrainRunConfig) -> Iterator[list]:
    """cfg.total_steps lists of cfg.batch_size consecutive stream items."""
    stream = iter(stream)
    for step in range(1, cfg.total_steps + 1):
        batch = list(itertools.islice(stream, cfg.batch_size))
        if len(batch) < cfg.batch_size:
            raise ValueError(f"pair stream exhausted at step {step}")
        yield batch


def _train_steps(
    model: TwoTower, state: OptimizerState, batches: Iterable, step: Callable
) -> Iterator[dict]:
    """The one training loop: for each batch, `step(batch)` returns (loss,
    accuracy, query-tower grads, doc-tower grads); check that the loss is
    finite, apply one Adam update to both towers and yield the step record.

    A generator, so that `finetune` can validate between steps and stop early;
    like a plain loop, it keeps one step's gradients referenced until the next
    step has allocated its own (see `_contrastive_step`).
    """
    for batch in batches:
        loss, acc, grads_q, grads_d = step(batch)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {state.step + 1}")
        adam_step(model.params(), model.merge_grads(grads_q, grads_d), state)
        yield {"step": state.step, "loss": loss, "acc": acc, "lr": state.learning_rate()}


def _contrastive_step(model: TwoTower) -> Callable:
    """The step function of a batch of positive pairs: encode both sides, take
    the in-batch softmax loss and backpropagate it through both towers.

    Each side's activations stay referenced until the next step has computed
    its own, as in a plain loop. Releasing them all at the end of each step let
    glibc's malloc return the memory to the OS and fault it in again, which
    made pretrain steps 10-20% slower (2-core x86 host); holding them through
    the next step's backward too raised peak RSS by 11%.
    """
    caches = [None, None]  # the query and doc activations of the latest step

    def step(batch: Sequence[PretrainPair]):
        q_embs, caches[0] = encode_with_cache(model.query, model.config, [p.query for p in batch])
        d_embs, caches[1] = encode_with_cache(model.doc, model.config, [p.doc for p in batch])
        out = in_batch_softmax_loss(q_embs, d_embs)
        grads_q = backward_from_cache(model.query, model.config, caches[0], out.grad_q)
        grads_d = backward_from_cache(model.doc, model.config, caches[1], out.grad_d)
        return out.loss, out.in_batch_accuracy, grads_q, grads_d

    return step


def pretrain(
    train_cfg: TrainRunConfig,
    enc_cfg: EncoderConfig,
    pair_stream: Iterable[PretrainPair],
    metrics_out=None,
) -> Tuple[TwoTower, List[dict]]:
    """Contrastive pre-training over a positive-pair stream.

    Both towers are updated each step from the in-batch softmax loss.
    Returns (model, per-step history).
    """
    model = TwoTower.init(enc_cfg, train_cfg.seed)
    state = OptimizerState.for_params(model.params(), train_cfg)
    steps = _train_steps(model, state, _batches(pair_stream, train_cfg), _contrastive_step(model))
    return model, [_emit(metrics_out, record) for record in steps]


def _mlm_step(
    params: Params,
    enc_cfg: EncoderConfig,
    batch: List[List[int]],
    rng: np.random.Generator,
) -> Tuple[float, float, Grads]:
    """One masked-token prediction step for a single tower.

    The vocabulary head ties the token embedding matrix plus a bias.
    """
    examples = [gen_mlm(seq, rng, enc_cfg.vocab_size) for seq in batch]
    counts = np.array([len(e.labels) for e in examples])
    if not counts.any():
        return 0.0, 0.0, {k: np.zeros_like(a) for k, a in params.items()}
    # Each sequence's masked positions, padded with position 0 to the largest
    # count; `valid` marks the real ones, in batch-major label order.
    valid = np.arange(counts.max()) < counts[:, None]
    labels = np.array([label for e in examples for label in e.labels])
    rows = np.zeros(valid.shape, dtype=np.intp)
    rows[valid] = labels[:, 0]
    hidden, cache = hidden_states(params, enc_cfg, [e.input for e in examples], rows)
    backing = hidden[valid]
    emb = params["emb/token"]
    logits = backing @ emb.T + params["mlm/bias"]
    loss, acc, dlogits = _softmax_xent(logits, labels[:, 1])
    d_hidden = np.zeros_like(hidden)
    d_hidden[valid] = dlogits @ emb
    grads = hidden_backward(params, enc_cfg, cache, d_hidden)
    # The tied head reads every row of the table, so its gradient is dense.
    head = grads["emb/token"].dense(len(emb))
    head += dlogits.T @ backing
    grads["emb/token"] = head
    grads["mlm/bias"] = dlogits.sum(axis=0)
    return loss, acc, grads


def mlm_pretrain(
    train_cfg: TrainRunConfig,
    enc_cfg: EncoderConfig,
    store: CorpusStore,
    metrics_out=None,
) -> Tuple[TwoTower, List[dict]]:
    """Masked-token baseline pre-training (transformer towers only).

    Each tower is trained on its own input distribution: the query tower on
    sentences, the doc tower on title-plus-passage docs. The vocabulary head
    is discarded from the returned parameters.
    """
    if enc_cfg.arch != ARCH_TRANSFORMER:
        raise ValueError("masked-token pre-training requires the transformer arch")
    model = TwoTower.init(enc_cfg, train_cfg.seed)
    for tower in (model.query, model.doc):
        tower["mlm/bias"] = np.zeros(enc_cfg.vocab_size, dtype=enc_cfg.dtype)
    state = OptimizerState.for_params(model.params(), train_cfg)

    passages = [store.passages[pid] for pid in sorted(store.passages)]
    sentences = [s for p in passages for s in p.sentences if s.token_ids]
    if not sentences:
        raise ValueError("corpus has no tokenized sentences")
    rng = subrng(train_cfg.seed, "mlm")

    # Each step draws from rng in this order: query indices, doc indices (for
    # the batch), then query masks, doc masks (in the step).
    def batches() -> Iterator[Tuple[List[List[int]], List[List[int]]]]:
        for _ in range(train_cfg.total_steps):
            idx = rng.integers(len(sentences), size=train_cfg.batch_size)
            q_batch = [sentences[i].token_ids[: enc_cfg.query_max_len] for i in idx]
            idx = rng.integers(len(passages), size=train_cfg.batch_size)
            d_batch = [passage_doc(store, passages[i], enc_cfg.doc_max_len) for i in idx]
            yield q_batch, d_batch

    def step(batch: Tuple[List[List[int]], List[List[int]]]):
        q_batch, d_batch = batch
        loss_q, acc_q, grads_q = _mlm_step(model.query, enc_cfg, q_batch, rng)
        loss_d, acc_d, grads_d = _mlm_step(model.doc, enc_cfg, d_batch, rng)
        return 0.5 * (loss_q + loss_d), 0.5 * (acc_q + acc_d), grads_q, grads_d

    history = [_emit(metrics_out, record) for record in _train_steps(model, state, batches(), step)]
    for tower in (model.query, model.doc):
        tower.pop("mlm/bias", None)
    return model, history


def recall_at_k(
    model: TwoTower,
    queries: Sequence[Sequence[int]],
    gold_ids: Sequence[int],
    candidates: Sequence[Tuple[int, Sequence[int]]],
    k: int = 10,
) -> Tuple[float, retrieval.DenseIndex]:
    """Fraction of queries whose gold candidate lands in the dense top-k, and
    the index of the (id, tokens) candidates it ranked them against."""
    index = retrieval.build_dense_index(model, [cid for cid, _ in candidates], [seq for _, seq in candidates])
    ranked = retrieval.rank_dense(model, index, queries, k)
    return sum(gold in r.ids for r, gold in zip(ranked, gold_ids)) / len(queries), index


def finetune(
    model: TwoTower,
    train_cfg: TrainRunConfig,
    train_pairs: Sequence[PretrainPair],
    val_queries: Sequence[Sequence[int]],
    val_gold_ids: Sequence[int],
    candidates: Sequence[Tuple[int, Sequence[int]]],
    metrics_out=None,
) -> Tuple[TwoTower, List[dict], retrieval.DenseIndex]:
    """Fine-tune a copy of the model on downstream pairs, returning the
    checkpoint with the best validation recall@10 (the starting parameters
    count as a candidate), the history, and the checkpoint's index of the
    candidates, built by the validation check that selected it."""
    if not train_pairs:
        raise ValueError("empty fine-tuning set")
    if not val_queries:
        raise ValueError("empty validation set: no checkpoint can be selected")
    model = model.copy()
    state = OptimizerState.for_params(model.params(), train_cfg)
    rng = subrng(train_cfg.seed, "finetune")

    def shuffled_pairs() -> Iterator[PretrainPair]:
        while True:  # one fresh permutation per pass
            yield from (train_pairs[i] for i in rng.permutation(len(train_pairs)))

    best_recall, best_index = recall_at_k(model, val_queries, val_gold_ids, candidates)
    best = model.copy()
    stale = 0
    history: List[dict] = [{"step": 0, "loss": None, "acc": None, "val_recall": best_recall}]
    batches = _batches(shuffled_pairs(), train_cfg)
    for record in _train_steps(model, state, batches, _contrastive_step(model)):
        step = record["step"]
        if step % train_cfg.eval_every == 0 or step == train_cfg.total_steps:
            recall, index = recall_at_k(model, val_queries, val_gold_ids, candidates)
            record["val_recall"] = recall
            if recall > best_recall:
                best_recall, best_index = recall, index
                best = model.copy()
                stale = 0
            else:
                stale += 1
        history.append(_emit(metrics_out, record))
        if stale > train_cfg.patience:
            break
    return best, history, best_index
