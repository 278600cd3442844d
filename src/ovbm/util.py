"""Shared helpers: deterministic seeding, hashing, atomic file writes."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path


def derive_seed(root: int, *names: str) -> int:
    """Derive a named sub-seed from a run seed.

    All randomness in a run flows from one root seed; every consumer
    (split, init, shuffle, ...) gets its own stream keyed by name so
    adding a consumer never perturbs the others.
    """
    key = "/".join([str(int(root)), *names]).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def config_digest(obj) -> str:
    """Hex digest of a canonical JSON rendering; embedded in artifacts."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def named_errors(path):
    """Reading a decoded file's fields: bad bytes or JSON (nested too
    deep to parse included), a missing key or a field of the wrong type
    raises a ValueError naming the file."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError,
            RecursionError) as exc:
        raise ValueError(f"{path}: malformed file: {exc!r}") from None


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
