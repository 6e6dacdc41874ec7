"""Content-addressed result cache: in-memory LRU with optional disk spill.

Entries are whole :class:`~repro.batch.sweep.BatchSweepResult` records
keyed by :func:`repro.service.digest.spec_digest` — so a hit *is* the
result, reassembled columns and counters included, and the bitwise
pins that make caching trustworthy (PRs 1-6) carry over: a numpy-keyed
hit is byte-identical to recomputing the request in a fresh process.

Two defensive rules keep a shared cache honest:

* entries are **frozen** — every array is marked read-only on insert
  (and the ``h`` column, which may alias the caller's input array, is
  copied first), so no client can mutate a result another client will
  be served;
* the optional disk spill is **atomic** — each entry lands as one
  ``<digest>.npz`` written to a temp file and ``os.replace``d into
  place, so a crashed writer never leaves a truncated entry a later
  process would load.

The spill is written raw (``np.savez``): it sits on the miss path,
before the miss's waiters are answered, and zlib would cost it 37-55x
the time for 12-13% of the bytes.  Entries an older service spilled
compressed still load, since ``np.load`` reads both forms.

The spill directory (conventionally ``results/cache/``) makes warm
state survive the process: a fresh service finds yesterday's grid
cells on disk.  Eviction only drops entries from memory; spilled files
persist until :meth:`ResultCache.clear` removes them.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError

_EXTRA_PREFIX = "extra__"
_COUNTER_PREFIX = "counter__"


def _frozen(result: BatchSweepResult) -> BatchSweepResult:
    """A read-only view of one result, safe to hand to many clients.

    All columns except ``h`` are freshly allocated by the run's
    :class:`~repro.parallel.blocks.ShardAssembly` (its own buffers, or
    a copy out of the pool's shared memory), so freezing them in place
    is safe; ``h`` may alias the caller's own sample array, so it is
    copied before freezing rather than mutating the caller's flags.
    """

    def freeze(arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        return arr

    return BatchSweepResult(
        h=freeze(np.array(result.h)),
        m=freeze(result.m),
        b=freeze(result.b),
        updated=freeze(result.updated),
        extras={k: freeze(v) for k, v in result.extras.items()},
        counters={k: freeze(np.asarray(v)) for k, v in result.counters.items()},
        family=result.family,
    )


def save_result(path: Path, result: BatchSweepResult) -> None:
    """Persist one result as a single atomically-replaced, uncompressed
    ``.npz``."""
    payload: dict[str, np.ndarray] = {
        "h": result.h,
        "m": result.m,
        "b": result.b,
        "updated": result.updated,
        "family": np.array(result.family),
    }
    for key, value in result.extras.items():
        payload[_EXTRA_PREFIX + key] = value
    for key, value in result.counters.items():
        payload[_COUNTER_PREFIX + key] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def load_result(path: Path) -> BatchSweepResult:
    """Load one spilled result, raw or compressed; dtypes round-trip
    exactly (either form stores the raw array bytes, so a disk hit
    stays byte-identical)."""
    with np.load(path) as npz:
        extras = {}
        counters = {}
        for key in npz.files:
            if key.startswith(_EXTRA_PREFIX):
                extras[key[len(_EXTRA_PREFIX):]] = npz[key]
            elif key.startswith(_COUNTER_PREFIX):
                counters[key[len(_COUNTER_PREFIX):]] = npz[key]
        return BatchSweepResult(
            h=npz["h"],
            m=npz["m"],
            b=npz["b"],
            updated=npz["updated"],
            extras=extras,
            counters=counters,
            family=str(npz["family"].item()),
        )


class ResultCache:
    """LRU cache of :class:`BatchSweepResult` keyed by content digest.

    ``max_entries`` bounds the in-memory working set (least recently
    used entries evict first); ``spill_dir`` additionally persists
    every insert to disk, and a memory miss re-loads from there before
    counting as a real miss.  All methods are thread-safe: the async
    service front-end (:mod:`repro.service.api`) shares one cache
    across all of its dispatch threads.
    """

    def __init__(
        self,
        max_entries: int = 128,
        spill_dir: "Path | str | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ParameterError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._entries: "OrderedDict[str, BatchSweepResult]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def _spill_path(self, key: str) -> Path:
        return self.spill_dir / f"{key}.npz"

    def get(self, key: str) -> "BatchSweepResult | None":
        """The cached result for one digest, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        if self.spill_dir is not None:
            path = self._spill_path(key)
            if path.exists():
                result = _frozen(load_result(path))
                with self._lock:
                    self._insert(key, result)
                    self.hits += 1
                    self.disk_hits += 1
                return result
        with self._lock:
            self.misses += 1
        return None

    def _insert(self, key: str, result: BatchSweepResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def put(self, key: str, result: BatchSweepResult) -> BatchSweepResult:
        """Insert one result; returns the frozen entry actually stored
        (callers should hand *that* onward, so every consumer of the
        digest sees the same read-only arrays)."""
        frozen = _frozen(result)
        with self._lock:
            self._insert(key, frozen)
        if self.spill_dir is not None:
            save_result(self._spill_path(key), frozen)
        return frozen

    @property
    def stats(self) -> dict:
        """Counters snapshot: hits/misses/evictions/disk_hits/entries."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "disk_hits": self.disk_hits,
                "entries": len(self._entries),
            }

    def clear(self, spilled: bool = False) -> None:
        """Drop every in-memory entry; ``spilled=True`` also removes the
        on-disk files."""
        with self._lock:
            self._entries.clear()
        if spilled and self.spill_dir is not None and self.spill_dir.exists():
            for path in self.spill_dir.glob("*.npz"):
                path.unlink()
