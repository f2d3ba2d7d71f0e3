"""Shared plumbing: seed derivation, hashing, atomic writes, tensor files,
and the fork pool that runs independent work on every usable CPU."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

TENSOR_FORMAT_VERSION = 1


def derive_entropy(seed: int, *tags) -> int:
    """Derive a 128-bit entropy value from a root seed and a label path.

    The same (seed, tags) always yields the same value, on any platform;
    distinct tag paths yield independent streams.
    """
    label = "/".join([str(seed)] + [str(t) for t in tags])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def subrng(seed: int, *tags) -> np.random.Generator:
    """A numpy Generator seeded from (seed, *tags) via a hash split."""
    return np.random.default_rng(derive_entropy(seed, *tags))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write-temp + rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def canonical_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def dump_json(path: str, obj) -> None:
    atomic_write_text(path, canonical_json(obj))


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def save_tensors(prefix: str, tensors: Dict[str, np.ndarray], meta: dict) -> str:
    """Save named arrays as a JSON manifest + raw little-endian binary pair.

    Byte-deterministic for identical inputs (no timestamps), unlike zip-based
    containers. Returns the pair's fingerprint: the sha256 of the manifest's
    bytes followed by the binary's.
    """
    entries = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        raw = arr.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    payload = b"".join(blobs)
    manifest = {
        "version": TENSOR_FORMAT_VERSION,
        "meta": meta,
        "tensors": entries,
        "bin_sha256": sha256_bytes(payload),
    }
    head = canonical_json(manifest).encode("utf-8")
    atomic_write_bytes(prefix + ".bin", payload)
    atomic_write_bytes(prefix + ".json", head)
    return sha256_bytes(head + payload)


def load_tensors(prefix: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Inverse of save_tensors; verifies the binary checksum."""
    manifest = load_json(prefix + ".json")
    if manifest.get("version") != TENSOR_FORMAT_VERSION:
        raise ValueError(f"unsupported tensor file version: {manifest.get('version')}")
    with open(prefix + ".bin", "rb") as f:
        payload = f.read()
    if sha256_bytes(payload) != manifest["bin_sha256"]:
        raise ValueError(f"checksum mismatch in {prefix}.bin")
    tensors = {}
    for entry in manifest["tensors"]:
        start = entry["offset"]
        raw = payload[start : start + entry["nbytes"]]
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])
        tensors[entry["name"]] = arr.copy()
    return tensors, manifest["meta"]


# The variables that set OpenBLAS's thread count, in the order it reads them;
# with none a positive integer, it runs one thread per usable CPU in every
# process.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_budget() -> int:
    """How many processes can run BLAS at once without sharing a CPU: the
    usable CPUs over the BLAS threads of one process, at least 1. Without a
    BLAS thread variable each process's BLAS already fills every CPU, and a
    platform that keeps no affinity mask counts as one CPU; both keep the
    work in one process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _fork_workers(n: int, per_worker: int) -> int:
    """The worker processes `fork_map` runs n items in: as many as get
    per_worker items each, at most `_worker_budget()`, and 1, this process,
    inside a pool worker, which may not start processes of its own."""
    workers = min(n // per_worker, _worker_budget())
    if workers > 1:
        # Imported here: at module level its modules add about 0.9 MB to the
        # peak RSS of every command, those that never fork too.
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return workers


T = TypeVar("T")
R = TypeVar("R")

# The function of a `fork_map` worker, set in the worker as it starts.
_WORKER_FN: Optional[Callable] = None


def _set_worker_fn(fn: Callable) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _call_worker_fn(item):
    return _WORKER_FN(item)


def fork_map(fn: Callable[[T], R], items: Sequence[T], per_worker: int = 1) -> Tuple[List[R], int]:
    """`[fn(item) for item in items]` and the number of processes it ran in:
    this one when `_fork_workers(len(items), per_worker)` is at most 1, else
    that many workers forked from it (an ordered `imap`, one item at a time).
    per_worker, at least 1, is the fewest items a worker must get to pay for
    its fork. A worker inherits `fn` and whatever it reads from this process
    at the fork, so `fn` may be a closure and only the items and results are
    pickled. Results come back in item order, so they never depend on the
    worker count or on which item finished first. An exception `fn` raises is
    raised here with its type and message, and no worker outlives the call."""
    items = list(items)
    workers = _fork_workers(len(items), per_worker)
    if workers <= 1:
        return [fn(item) for item in items], 1
    import multiprocessing

    # Fork, not spawn: a spawned worker would need `fn` and its data pickled.
    with multiprocessing.get_context("fork").Pool(workers, _set_worker_fn, (fn,)) as pool:
        results = list(pool.imap(_call_worker_fn, items, chunksize=1))
        pool.close()
        pool.join()
    return results, workers
