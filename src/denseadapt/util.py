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


# The interval of each numeric setting, by the name it has both as a config
# leaf and as a library argument or dataclass field: the one statement of
# each range, which the library checks and the config loader both read.
# `mask_ratio` is open at both ends, as masking needs at least one kept and
# one masked token; `total_budget` is the budget rule's 3 queries per passage.
INTERVALS = {
    "steps": "[1, inf)", "batch_size": "[1, inf)", "learning_rate": "[0, inf)",
    "log_every": "[1, inf)", "checkpoint_every": "[0, inf)", "tau": "(0, inf)",
    "mask_ratio": "(0, 1)", "deletion_ratio": "[0, 1]",
    "ict_mask_prob": "[0, 1]", "dropout_rate": "[0, 1)", "mix_weight": "[0, 1]",
    "dim": "[1, inf)", "max_seq_len": "[1, inf)", "init_scale": "(0, inf)",
    "total_budget": "[3, inf)", "temperature": "(0, inf)", "top_k": "[1, inf)",
    "top_p": "(0, 1]", "max_query_len": "[1, inf)",
    "n_per_retriever": "[1, inf)", "cutoff": "[1, inf)", "top_n": "[1, inf)",
}


def in_interval(value, interval: str) -> bool:
    """Whether `value` lies in `interval`, written as "[low, high)" and the
    like, with inf for no upper bound."""
    low, high = map(float, interval[1:-1].split(","))
    return (low < value if interval[0] == "(" else low <= value) and \
        (value < high if interval[-1] == ")" else value <= high)


def check_interval(name: str, value) -> None:
    """Raise ValueError unless `value` lies in the INTERVALS entry of `name`.
    A half-line is stated as a bound: "top_n must be >= 1"."""
    interval = INTERVALS[name]
    if not in_interval(value, interval):
        low, high = interval[1:-1].split(", ")
        bound = f"in {interval}" if high != "inf" else \
            f"{'>' if interval[0] == '(' else '>='} {low}"
        raise ValueError(f"{name} must be {bound}; got {value!r}")
