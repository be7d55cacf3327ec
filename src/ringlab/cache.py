"""Append-only verdict cache, line-delimited JSON.

Each line is ``{"key": ..., "version": ..., "value": ...}``.  Values are
sweep verdicts (:func:`is_sweep_verdict`).  Entries written by a
different tool version are treated as misses; corrupt lines, and
current-version lines whose value is not a sweep verdict, are skipped
with a warning, never an error.  There is a single
writer per file (the sweep), so appends need no locking.  A
:meth:`VerdictCache.batch` block holds the lines put inside it and
appends them in one write, the bytes that one append per put would
have written.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

from . import __version__

ENV_VAR = "RINGLAB_CACHE"


def is_sweep_verdict(value) -> bool:
    """Whether ``value`` is a verdict pair the sweep can store:
    ``{"wnn": {"ok": bool, "witness": list of int | None},
    "wnc": {"ok": bool, "witness": int | None}}``, where the witness is
    None exactly when ``ok`` holds, as every decider returns it.  An int
    is an element index; a list holds a nonzero ideal's, strictly rising."""

    def part(name, is_witness) -> bool:
        entry = value.get(name)
        if not (isinstance(entry, dict) and isinstance(entry.get("ok"), bool)):
            return False
        witness = entry.get("witness")
        return witness is None if entry["ok"] else is_witness(witness)

    def is_index(w) -> bool:
        return type(w) is int and w >= 0  # not a bool

    def is_ideal(w) -> bool:
        return type(w) is list and len(w) >= 2 and all(map(is_index, w)) and all(a < b for a, b in zip(w, w[1:]))

    return isinstance(value, dict) and part("wnn", is_ideal) and part("wnc", is_index)


class VerdictCache:
    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.version = __version__
        self._entries: dict[str, object] = {}
        self._pending: list[str] | None = None  # lines held by an open batch
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for lineno, line in enumerate(self.path.read_bytes().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode())
                key = record["key"]
                version = record["version"]
                value = record["value"]
                if not isinstance(key, str):
                    raise TypeError("cache key is not a string")
                if version == self.version and not is_sweep_verdict(value):
                    raise TypeError("cached value has the wrong shape")
            except (ValueError, KeyError, TypeError):  # ValueError covers bad JSON and bad UTF-8
                warnings.warn(f"skipping corrupt cache line {lineno} in {self.path}")
                continue
            if version == self.version:
                self._entries[key] = value

    def get(self, key: str):
        """Cached value, or None on a miss (including version mismatch)."""
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        self._entries[key] = value
        record = {"key": key, "version": self.version, "value": value}
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._pending is None:
            self._append([line])
        else:
            self._pending.append(line)

    @contextmanager
    def batch(self):
        """Hold the lines of every :meth:`put` in the block, and append
        them in one write when it ends, also if it raises."""
        self._pending = []
        try:
            yield self
        finally:
            lines, self._pending = self._pending, None
            if lines:
                self._append(lines)

    def _append(self, lines: list[str]) -> None:
        with self.path.open("a") as fh:
            fh.write("".join(lines))


def cache_from_env(flag_path: str | None, *, disabled: bool = False) -> VerdictCache | None:
    """Resolve the cache location from a CLI flag or the environment."""
    if disabled:
        return None
    path = flag_path or os.environ.get(ENV_VAR)
    return VerdictCache(path) if path else None
