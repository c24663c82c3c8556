"""Shared plumbing: deterministic seeding, hashing, canonical JSON."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable parts.

    Independent of process hash randomization and platform, so RNG streams
    keyed by (global seed, entity id, ...) are reproducible everywhere.
    """
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def canonical_json(obj) -> str:
    """JSON with sorted keys and fixed separators, for hashing and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_files(paths, roles) -> str:
    """Combined hash over a list of files, each named by its role rather
    than its path, so the hash stays put when the files move
    (order-independent)."""
    named = sorted(zip(roles, map(str, paths)))
    if len({role for role, _ in named}) != len(named):
        raise ValueError(f"two inputs share a role: {[r for r, _ in named]}")
    h = hashlib.sha256()
    for role, p in named:
        h.update(role.encode("utf-8"))
        h.update(sha256_file(p).encode("ascii"))
    return h.hexdigest()
