"""Shared helpers: deterministic seeding, hashing, atomic file writes,
and the worker pool."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np


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


# ----------------------------------------------------------- worker pool

def cpus() -> int:
    """The CPUs a fan-out in this process may use: one in a process that
    `multiprocessing` started (a `map_tasks` worker, one of as many as
    CPUs), else every CPU this process may run on."""
    started = multiprocessing.parent_process() is not None
    return 1 if started else len(os.sched_getaffinity(0))


def map_tasks(fn, items: list) -> list:
    """`[fn(item) for item in items]`, in order, over a `fork` pool of
    one worker per CPU this process may run on (at most one per item),
    each handed the next item as it comes free; with one worker, or in
    a process that `multiprocessing` started, in this process. Training
    runs one task per member through it, the screens one per subject and
    `write_corpus` one per rendered subject. Workers inherit `fn` and
    `items` unpickled; results come back pickled, and an item's
    exception once the items before it and any running item finish. A
    dead worker raises `BrokenProcessPool` at once. Items not started
    are dropped, and workers joined."""
    workers = min(len(items), cpus())
    if workers <= 1:
        return list(map(fn, items))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker,
                               initargs=(fn, items))
    try:
        return list(pool.map(_run_item, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)


_worker_task: tuple = ()  # (fn, items), set in a `map_tasks` worker only


def _start_worker(fn, items: list) -> None:
    """A worker is one of as many as CPUs: BLAS runs on its one thread,
    as do the member bodies (`cpus` is one in it). It keeps the heap its
    tasks free for the next task to reuse (`_keep_heap`)."""
    global _worker_task
    _worker_task = (fn, items)
    _one_blas_thread()
    _keep_heap()


def _run_item(i: int):
    fn, items = _worker_task
    return fn(items[i])


def _one_blas_thread() -> None:
    """Run NumPy's bundled OpenBLAS on one thread in this process, as
    `map_tasks` runs as many workers as CPUs. Leaves BLAS as it is where
    that library is absent."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def _keep_heap() -> None:
    """Keep freed heap in this process, as a `map_tasks` worker lives
    for one call and hands its heap back when it exits. glibc's malloc
    otherwise serves each block of 128 KiB or more with its own mmap and
    trims freed heap top back to the kernel, at thresholds that rise
    only as such blocks are freed, so a worker's tasks fault the same
    pages in again and again. Both thresholds are set: setting either
    one turns glibc's adjustment off and pins the other at its default.
    Leaves malloc as it is where libc has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, at glibc's 64-bit limit
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
