"""Robust JSON file I/O and the one keyed store behind the persistent caches.

The engine's on-disk caches (speedup derivations, 0-round verdicts) share a
directory across processes; a crashed writer, a full disk, or a concurrent
truncation can leave an entry in any broken state.  These helpers implement
the three halves of the required contract:

* :func:`load_json` treats *every* unreadable or non-JSON file as an absent
  entry (returns ``None``) -- callers recompute and overwrite;
* :func:`atomic_write_json` writes via a unique temp file and ``rename`` so
  readers never observe a half-written entry, and swallows ``OSError`` so a
  read-only or full cache directory never fails the computation being
  cached;
* :func:`sweep_stale_tmp_files` reclaims the temp files a writer that died
  between ``write_text`` and ``replace`` leaves behind.  A store calls it
  on open: temp files are named ``<entry>.tmp.<pid>.<tid>``, so one whose
  writing process no longer exists (or whose age exceeds the bound, against
  pid reuse and writers on other hosts) is garbage by construction.  Temp
  files never collide with the ``*.json`` names entries are loaded from, so
  a leaked temp file can occupy disk but can never be read back as an entry.

:class:`JsonStore` is the one storage layer both caches build on, so the
speedup cache and the 0-round memo keep only their domain logic.
"""
from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from pathlib import Path
from typing import Any, Generic, TypeVar

#: Infix separating an entry name from the writer's pid/tid in temp names.
TMP_MARKER = ".tmp."

# Fault-injection seam: when set (by repro.engine.faultinject.activate), the
# hook is consulted before every atomic write and may script a failure.
# Living here keeps utils ignorant of the engine package; the hook costs one
# ``is None`` check when no chaos plan is active.
_write_fault_hook: Callable[[Path], str | None] | None = None


def set_write_fault_hook(hook: Callable[[Path], str | None] | None) -> None:
    """Install (or clear) the scripted write-fault hook.

    The hook returns ``"enospc"`` to make the next write fail like a full
    disk, ``"corrupt"`` to make it complete with invalid JSON, or ``None``
    to leave it alone.  Only the fault-injection harness sets this.
    """
    global _write_fault_hook
    _write_fault_hook = hook

#: Age beyond which a temp file is considered abandoned even if a process
#: with the recorded pid exists (pid reuse, or a writer on another host
#: sharing the directory).  A healthy write lives for milliseconds.
STALE_TMP_AGE_S = 3600.0


def load_json(path: Path) -> object | None:
    """Parse one JSON file; any I/O or decode failure reads as ``None``.

    ``ValueError`` covers both JSON and Unicode decoding; the caller is
    responsible for validating the payload's *shape* (a parse that succeeds
    can still be a lie).
    """
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def atomic_write_json(path: Path, payload: object) -> bool:
    """Atomically replace ``path`` with the serialized payload, best effort.

    Returns True when the entry was replaced, False when the write failed
    (read-only directory, full disk, an injected fault); a failed write
    never touches the previously stored entry -- the temp file absorbs the
    failure and is cleaned up -- so callers can count the failure and keep
    serving the old entry.
    """
    text = json.dumps(payload, sort_keys=True)
    if _write_fault_hook is not None:
        fault = _write_fault_hook(path)
        if fault == "enospc":
            return False
        if fault == "corrupt":
            # A torn write that still completed its rename: the entry file
            # ends up with non-JSON bytes, which readers must treat as a miss.
            text = text[: max(1, len(text) // 2)] + "\x00corrupt"
    tmp = path.with_suffix(f"{TMP_MARKER.rstrip('.')}.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text)
        tmp.replace(path)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        return False


def _writer_pid(name: str) -> int | None:
    """The pid embedded in a temp-file name, or ``None`` if it is not one."""
    marker = name.rfind(TMP_MARKER)
    if marker < 0:
        return None
    parts = name[marker + len(TMP_MARKER):].split(".")
    if len(parts) != 2 or not all(part.isdigit() for part in parts):
        return None
    return int(parts[0])


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknown -- err on the side of keeping the file
    return True


def sweep_stale_tmp_files(
    directory: Path, max_age_s: float = STALE_TMP_AGE_S
) -> int:
    """Delete abandoned ``atomic_write_json`` temp files in ``directory``.

    A temp file is stale when its writer pid is dead, or when it is older
    than ``max_age_s`` (covering pid reuse and writers on other machines).
    Live writes -- young files whose pid exists -- are left alone, so a
    concurrent store in a shared cache directory is never disturbed.
    Returns the number of files removed; every failure is best-effort
    tolerated (a sweep must never fail a cache open).
    """
    try:
        entries = list(directory.iterdir())
    except OSError:
        return 0
    removed = 0
    now = time.time()
    for entry in entries:
        pid = _writer_pid(entry.name)
        if pid is None:
            continue
        stale = not _pid_alive(pid)
        if not stale:
            try:
                stale = now - entry.stat().st_mtime > max_age_s
            except OSError:
                continue  # vanished mid-sweep (another sweeper won the race)
        if not stale:
            continue
        try:
            entry.unlink(missing_ok=True)
            removed += 1
        except OSError:
            continue  # read-only dir or concurrent unlink: leave it
    return removed


V = TypeVar("V")


class JsonStore(Generic[V]):
    """A thread-safe LRU of string-keyed entries, optionally persisted as JSON.

    Memory is bounded by ``maxsize`` entries and, with a ``weight`` function,
    by ``max_weight`` total weight; the newest entry always survives, even
    alone over the weight bound (evicting it would leave the most expensive
    entries the only uncached ones).  A ``directory`` is created and swept
    of stale temp files on open; :meth:`persist` then writes each entry to
    ``<key with ":" as "_">.json`` as ``{"version": 1, "key": key, <field>:
    encode(value)}``, best effort: a failed write keeps the prior file and
    only counts ``store_failures``.  Memory misses of :meth:`get` hand the
    file's envelope to the owner's ``decode(key, envelope)``, which returns
    ``None`` for anything it does not trust, so broken files read as misses.
    Owners share ``lock`` for their counters; after :meth:`start_recording`
    every insert (disk loads included) is kept as a ``(key, value)`` delta.
    """

    def __init__(
        self,
        field: str,
        encode: Callable[[V], object],
        decode: Callable[[str, dict[str, Any]], V | None],
        *,
        maxsize: int,
        directory: str | Path | None = None,
        weight: Callable[[V], int] = lambda value: 0,
        max_weight: int | None = None,
    ):
        self.lock = threading.RLock()
        self._field = field
        self._encode = encode
        self._decode = decode
        self._memory: OrderedDict[str, V] = OrderedDict()
        self._maxsize = maxsize
        self._weight = weight
        self._max_weight = max_weight
        self._total_weight = 0
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            sweep_stale_tmp_files(self.directory)
        self.store_failures = 0
        self._recorded: list[tuple[str, V]] | None = None

    def __len__(self) -> int:
        return len(self._memory)

    def path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / (key.replace(":", "_") + ".json")

    def get(self, key: str) -> V | None:
        """The entry for ``key`` from memory (refreshed) or disk, else None."""
        with self.lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                return value
        if self.directory is None:
            return None
        envelope = load_json(self.path_for(key))
        value = self._decode(key, envelope) if isinstance(envelope, dict) else None
        if value is not None:
            self.put(key, value)
        return value

    def put(self, key: str, value: V) -> None:
        """Insert in memory as the newest entry, evicting beyond the bounds."""
        with self.lock:
            old = self._memory.pop(key, None)
            if old is not None:
                self._total_weight -= self._weight(old)
            self._memory[key] = value
            self._total_weight += self._weight(value)
            if self._recorded is not None:
                self._recorded.append((key, value))
            while len(self._memory) > 1 and (
                len(self._memory) > self._maxsize
                or (self._max_weight is not None and self._total_weight > self._max_weight)
            ):
                _, evicted = self._memory.popitem(last=False)
                self._total_weight -= self._weight(evicted)

    def persist(self, key: str, value: V) -> None:
        """Write ``value``'s file when a directory is set, best effort."""
        if self.directory is None:
            return
        envelope = {"version": 1, "key": key, self._field: self._encode(value)}
        if not atomic_write_json(self.path_for(key), envelope):
            with self.lock:
                self.store_failures += 1

    def clear(self) -> None:
        """Drop the in-memory entries and the failure count (files stay)."""
        with self.lock:
            self._memory.clear()
            self._total_weight = 0
            self.store_failures = 0

    def start_recording(self) -> None:
        with self.lock:
            self._recorded = []

    def drain_recorded(self) -> tuple[tuple[str, V], ...]:
        """Return and reset the recorded inserts (empty when not recording)."""
        with self.lock:
            if self._recorded is None:
                return ()
            drained = tuple(self._recorded)
            self._recorded = []
            return drained
