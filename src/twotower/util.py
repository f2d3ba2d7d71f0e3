"""Shared plumbing: seed derivation, hashing, atomic writes, tensor files."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Tuple

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

