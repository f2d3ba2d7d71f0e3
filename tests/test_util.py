import multiprocessing
import os

import pytest

from twotower import retrieval, util
from twotower.benchmark import ExperimentConfig, run_experiment
from twotower.encoders import EncoderConfig, TwoTower
from twotower.synth import SynthConfig

from conftest import build_toy


@pytest.fixture
def budget(monkeypatch):
    """Sets the worker budget `fork_map` reads."""
    return lambda workers: monkeypatch.setattr(util, "_worker_budget", lambda: workers)


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_item_order(self, budget, workers):
        budget(workers)
        offset = 10  # read by the closure, which workers inherit at the fork
        results, used = util.fork_map(lambda item: (item + offset, os.getpid()), range(7))
        assert [value for value, _ in results] == list(range(10, 17))
        assert used == workers
        pids = {pid for _, pid in results}
        assert (os.getpid() in pids) == (workers == 1)
        assert len(pids) <= workers
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n, per_worker, workers", [
        (7, 1, 3), (7, 2, 3), (7, 3, 2), (7, 4, 1), (7, 8, 1), (2, 1, 2), (1, 1, 1),
    ])
    def test_each_worker_gets_per_worker_items(self, budget, n, per_worker, workers):
        budget(3)
        results, used = util.fork_map(lambda item: item * 2, range(n), per_worker)
        assert results == [item * 2 for item in range(n)]
        assert used == workers
        assert multiprocessing.active_children() == []

    def test_no_items_give_no_results(self, budget):
        budget(2)
        assert util.fork_map(lambda item: item, []) == ([], 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_exception_in_a_worker_is_raised_here(self, budget, workers):
        budget(workers)

        def fail_on_three(item):
            if item == 3:
                raise KeyError(f"no item {item}")
            return item

        with pytest.raises(KeyError) as info:
            util.fork_map(fail_on_three, range(6))
        assert str(info.value) == "'no item 3'"
        assert multiprocessing.active_children() == []

    def test_a_call_inside_a_worker_forks_nothing(self, budget):
        budget(2)

        def nested(item):
            assert util._fork_workers(3, 1) == 1
            return os.getpid(), util.fork_map(lambda _: os.getpid(), range(3))

        results, used = util.fork_map(nested, range(2))
        assert used == 2
        for pid, inner in results:
            assert pid != os.getpid() and inner == ([pid] * 3, 1)
        assert multiprocessing.active_children() == []


class TestNoFork:
    """One usable CPU, or unset BLAS thread variables, fork nothing at either
    call site: the grid's units and a pool's encode batches."""

    @pytest.fixture(params=["one cpu", "no blas variable"])
    def serial(self, request, monkeypatch):
        for var in util._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if request.param == "one cpu":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert util._fork_workers(8, 1) == 1

    def test_encode_batches(self, serial, monkeypatch):
        # With a worker's share of a nanosecond, only the budget keeps it serial.
        monkeypatch.setattr(retrieval, "FORK_MIN_S", 1e-9)
        config = EncoderConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16, emb_dim=4,
                               vocab_size=30, doc_max_len=6)
        model = TwoTower.init(config, 3)
        seqs = [[2 + i % 20, 7, 9] for i in range(100)]
        assert retrieval._encode_all(model.doc, config, seqs).shape == (100, 4)

    def test_grid_units(self, serial):
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=60, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40]], tasks=["none"], seeds=[5, 6], pretrain_steps=0, finetune_steps=2,
            batch_size=4, eval_every=2, num_layers=1, hidden_dim=16, num_heads=2, ff_dim=32,
            emb_dim=8, vocab_max_size=4096,
        )
        stats = {}
        run_experiment(store, entries, cfg, log=lambda msg: None, stats=stats)
        assert stats["workers"] == 1
