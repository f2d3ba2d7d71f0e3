import multiprocessing
import os
import threading

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

    @pytest.mark.parametrize("n, workers, used_workers", [
        (7, 3, 3), (7, 2, 2), (7, 1, 1), (2, 3, 2), (1, 3, 1),
    ])
    def test_at_most_one_worker_an_item(self, budget, n, workers, used_workers):
        budget(workers)
        results, used = util.fork_map(lambda item: item * 2, range(n))
        assert results == [item * 2 for item in range(n)]
        assert used == used_workers
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
            assert util.worker_count(3) == 1
            return os.getpid(), util.fork_map(lambda _: os.getpid(), range(3))

        results, used = util.fork_map(nested, range(2))
        assert used == 2
        for pid, inner in results:
            assert pid != os.getpid() and inner == ([pid] * 3, 1)
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    @pytest.mark.parametrize("n, workers, count", [
        (0, 3, 0), (1, 3, 1), (2, 3, 2), (8, 3, 3), (8, 1, 1),
    ])
    def test_one_worker_an_item_within_the_budget(self, budget, n, workers, count):
        budget(workers)
        assert util.worker_count(n) == count

    def test_inside_a_grid_worker_is_one(self, budget, monkeypatch):
        budget(3)
        monkeypatch.setattr(util, "_WORKER_FN", lambda item: item)
        assert util.worker_count(8) == 1


class TestNoFork:
    """One usable CPU, unset BLAS thread variables, or a call inside a grid
    worker start neither a process nor a thread at either call site: the
    grid's units and a pool's encode batches."""

    @pytest.fixture(params=["one cpu", "no blas variable", "grid worker"])
    def serial(self, request, monkeypatch):
        for var in util._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        cpus = {0} if request.param == "one cpu" else {0, 1, 2, 3}
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if request.param != "no blas variable":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        if request.param == "grid worker":
            monkeypatch.setattr(util, "_WORKER_FN", lambda item: item)

        def started(*args):
            raise AssertionError("started a process or a thread")

        monkeypatch.setattr(os, "fork", started)
        monkeypatch.setattr(threading.Thread, "start", started)
        assert util.worker_count(8) == 1

    def test_encode_batches(self, serial):
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
