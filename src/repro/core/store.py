"""Durable content-addressed verdict store for portfolio sweeps.

A verdict is a deterministic function of a frozen
:class:`~repro.core.spec.ScenarioSpec`, the run parameters, and the
engine version -- so once a sweep has decided a scenario group, no later
sweep with the same inputs should pay for deciding it again.  This module
is the only persistence layer of the portfolio: a directory of
content-addressed records that many batch runs share safely.  It is
both the cross-run cache and the resume mechanism -- an interrupted or
killed sweep is resumed by rerunning the same command with the same
``--store DIR``: every group recorded before the interruption replays,
only the rest is decided.  A fresh directory gives a run-local store.

Granularity
-----------

Records are whole *scenario groups*, not single scenarios.  ``new_edges``
and cross-check solver stats depend on the whole group's composition
and order (one cross-check session serves the whole group), so
only replaying a complete identical group reproduces a
``comparable_dict()``-identical report.  The record key is the sha256 of
the canonical JSON of ``{kind, run_key, group, specs}`` where ``specs``
is the ordered list of per-scenario canonical hashes -- i.e. the content
address of everything the verdicts depend on *except* the engine.

The engine fingerprint is deliberately stored **inside** the record
rather than folded into the key: on lookup a fingerprint mismatch
*evicts* the stale record (the new engine's result will overwrite it),
instead of stranding dead objects under never-again-computed keys.

Durability contract
-------------------

* **Atomic writes.** Records are written to a temp file in the same
  directory, flushed, ``fsync``\\ ed, then ``os.replace``\\ d into place,
  and the directory is ``fsync``\\ ed so the rename itself survives a
  power loss.  Readers never observe a half-written record under the
  final name.
* **Checksums.** Every record embeds a sha256 over its own canonical
  JSON (minus the checksum field).  A record that fails to parse or to
  verify is *quarantined* -- moved into ``quarantine/`` with a logged
  reason -- and its group recomputed.  Corruption never crashes a sweep.
* **Advisory locking.** Writers serialize on ``store.lock`` via
  ``fcntl.flock`` with a bounded timeout and deterministic exponential
  backoff.  A lock timeout skips the write (counted), never blocks the
  sweep.  Lookups are lock-free: atomic replace makes reads safe.
* **Graceful degradation.** A store that is version-incompatible or
  unreadable runs the sweep cache-less (mode ``off``); one that is
  readable but unwritable still serves hits but skips writes (mode
  ``ro``).  ``VerdictStore`` never raises into the portfolio engine.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - platform gate, exercised only off-linux
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

logger = logging.getLogger("repro.store")

#: On-disk record/meta schema version.  Bump on incompatible layout
#: changes; an unknown version degrades the store to ``off``.
STORE_SCHEMA = 1

#: Counter names reported by :meth:`VerdictStore.stats` (and merged by
#: ``merge_shard_reports``).  Kept in one place so report consumers and
#: the trace lane agree on the vocabulary.
STORE_COUNTERS = (
    "hits", "misses", "writes", "evicted", "quarantined",
    "lock_timeouts", "write_errors",
)


def scenario_fingerprint(scenario) -> str:
    """A content hash identifying one scenario independent of spelling.

    :class:`~repro.core.spec.ScenarioSpec` inputs hash their normalized
    canonical form; pre-built instances (which have no spec) fall back to
    their name, which is the only identity they carry.
    """
    canonical = getattr(scenario, "canonical_hash", None)
    if callable(canonical):
        return canonical()
    return "instance:" + getattr(scenario, "name", repr(scenario))


def make_run_key(cross_check: bool,
                 shard: Optional[Tuple[int, int]]) -> Dict[str, Any]:
    """The run parameters a stored group must match to be replayable.

    Solver stat deltas (present only under a cross-check) are functions
    of the whole run configuration, not just the spec, so records are
    never mixed across differently parameterised sweeps.
    """
    return {
        "cross_check": bool(cross_check),
        "shard": list(shard) if shard is not None else None,
    }


def group_record_key(kind: str, run_key: Dict[str, Any], group: str,
                     specs: List[Tuple[int, str]]) -> str:
    """Content address of a scenario group's verdict record.

    sha256 over the canonical JSON of everything the verdicts depend on
    apart from the engine itself: the run kind, the run key
    (cross-check flag, shard), the group key, and the ordered
    ``(index, scenario_fingerprint)`` pairs.
    """
    payload = {
        "kind": kind,
        "run_key": run_key,
        "group": group,
        "specs": [[index, spec_hash] for index, spec_hash in specs],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record_checksum(record: Dict[str, Any]) -> str:
    """sha256 over the record's canonical JSON minus its checksum field."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fsync_directory(directory: str) -> None:
    """Make a rename into ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _StoreLock:
    """Advisory exclusive lock with bounded timeout and backoff.

    ``fcntl.flock`` conflicts across file descriptors even within one
    process, so tests can stage contention without forking.  Backoff is
    deterministic (no jitter): 1ms, 2ms, 4ms ... capped at 50ms, until
    ``timeout`` seconds have been slept in total.
    """

    def __init__(self, path: str, timeout: float) -> None:
        self.path = path
        self.timeout = timeout
        self._handle = None

    def acquire(self) -> bool:
        if fcntl is None:  # pragma: no cover - non-posix fallback
            return True
        handle = open(self.path, "a+")
        slept = 0.0
        delay = 0.001
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._handle = handle
                return True
            except OSError:
                if slept >= self.timeout:
                    handle.close()
                    return False
                import time

                time.sleep(delay)
                slept += delay
                delay = min(delay * 2, 0.05)

    def release(self) -> None:
        if self._handle is not None:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


class VerdictStore:
    """A shared directory of content-addressed group verdict records.

    Layout::

        <root>/store-meta.json        # {"schema": 1}
        <root>/objects/<k[:2]>/<k>.json
        <root>/quarantine/<k>.<reason>.json
        <root>/store.lock             # advisory writer lock

    ``mode`` after :meth:`open`:

    ``"rw"``
        normal operation -- lookups and writes.
    ``"ro"``
        the directory is readable but not writable (or ``readonly=True``
        was requested): lookups only, writes silently skipped.
    ``"off"``
        unusable (unreadable, or schema-incompatible): every lookup
        misses, every write is skipped.  The sweep recomputes everything
        exactly as if no store had been given.
    """

    def __init__(self, root: str, readonly: bool = False,
                 lock_timeout: float = 5.0) -> None:
        self.root = root
        self.readonly = bool(readonly)
        self.lock_timeout = lock_timeout
        self.mode = "off"
        self.degraded_reason: Optional[str] = None
        self.counters: Dict[str, int] = {name: 0 for name in STORE_COUNTERS}
        self._trace = None

    # -- lifecycle -------------------------------------------------------

    def open(self) -> "VerdictStore":
        """Probe the directory and settle on a mode.  Never raises."""
        try:
            os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
            os.makedirs(os.path.join(self.root, "quarantine"), exist_ok=True)
        except OSError:
            pass  # may still be readable; probed below
        meta_path = os.path.join(self.root, "store-meta.json")
        meta = None
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError) as exc:
            if os.path.exists(meta_path):
                # Unreadable or corrupt meta: we cannot trust the layout.
                self._degrade("off", "store-meta unreadable: %s" % exc)
                return self
        if meta is not None and meta.get("schema") != STORE_SCHEMA:
            self._degrade(
                "off", "store schema %r is not %d; refusing to mix layouts"
                % (meta.get("schema"), STORE_SCHEMA))
            return self
        if not os.path.isdir(os.path.join(self.root, "objects")):
            self._degrade("off", "store objects/ directory is unavailable")
            return self
        writable = not self.readonly and os.access(self.root, os.W_OK)
        if writable and meta is None:
            if not self._write_meta(meta_path):
                writable = False
        if writable:
            self.mode = "rw"
        else:
            self.mode = "ro"
            if not self.readonly:
                self.degraded_reason = "store directory is not writable"
                logger.warning("verdict store %s: %s; serving lookups only",
                               self.root, self.degraded_reason)
        return self

    def _write_meta(self, meta_path: str) -> bool:
        try:
            self._atomic_write(meta_path, {"schema": STORE_SCHEMA})
            return True
        except OSError as exc:
            self.degraded_reason = "cannot initialise store meta: %s" % exc
            logger.warning("verdict store %s: %s", self.root,
                           self.degraded_reason)
            return False

    def _degrade(self, mode: str, reason: str) -> None:
        self.mode = mode
        self.degraded_reason = reason
        logger.warning("verdict store %s degraded to %s: %s",
                       self.root, mode, reason)

    def attach_trace(self, trace) -> None:
        """Emit ``store_lookup`` / ``store_write`` events to ``trace``."""
        self._trace = trace

    # -- paths -----------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key + ".json")

    # -- low-level durable IO -------------------------------------------

    def _atomic_write(self, path: str, payload: Dict[str, Any]) -> None:
        """write-temp -> flush -> fsync -> rename -> fsync the dir."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=directory,
            prefix=".tmp-", suffix=".json", delete=False)
        try:
            # ``dumps`` runs the C encoder; ``dump`` streams through the
            # pure-Python one.  Both write the same text.
            handle.write(json.dumps(payload, sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            os.replace(handle.name, path)
            _fsync_directory(directory)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a damaged record aside; never let the failure escape."""
        self.counters["quarantined"] += 1
        destination = os.path.join(
            self.root, "quarantine", "%s.%s.json" % (key, reason))
        try:
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(path, destination)
            logger.warning(
                "verdict store %s: quarantined record %s (%s); "
                "the group will be recomputed", self.root, key[:16], reason)
        except OSError as exc:
            # Read-only stores cannot move the record aside; dropping it
            # from consideration is all that matters for correctness.
            logger.warning(
                "verdict store %s: record %s is damaged (%s) and could "
                "not be quarantined (%s); ignoring it", self.root,
                key[:16], reason, exc)

    def _evict(self, key: str, path: str, fingerprint: str) -> None:
        self.counters["evicted"] += 1
        try:
            os.unlink(path)
            logger.info(
                "verdict store %s: evicted record %s (stale engine "
                "fingerprint %s)", self.root, key[:16], fingerprint)
        except OSError:
            pass

    # -- record API ------------------------------------------------------

    def lookup(self, fingerprint: str, kind: str, run_key: Dict[str, Any],
               group: str, specs: List[Tuple[int, str]],
               ) -> Optional[Dict[str, Any]]:
        """The stored record for this group, or ``None`` (a miss).

        Misses are indistinguishable by cause on purpose -- absent,
        quarantined-just-now, evicted-just-now, and store-off all mean
        "recompute"; the counters carry the distinction for reporting.
        """
        key = group_record_key(kind, run_key, group, specs)
        record = self._lookup_key(key, fingerprint, kind, run_key,
                                  group, specs)
        if self._trace is not None:
            self._trace.emit("store_lookup", group=group, key=key,
                             hit=record is not None)
        if record is None:
            self.counters["misses"] += 1
        else:
            self.counters["hits"] += 1
        return record

    def _lookup_key(self, key: str, fingerprint: str, kind: str,
                    run_key: Dict[str, Any], group: str,
                    specs: List[Tuple[int, str]],
                    ) -> Optional[Dict[str, Any]]:
        if self.mode == "off":
            return None
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        try:
            # Bytes on purpose: undecodable garbage (bit rot) must land in
            # quarantine like any other torn record, not raise.
            record = json.loads(raw)
        except ValueError:
            self._quarantine(key, path, "torn")
            return None
        if not isinstance(record, dict):
            self._quarantine(key, path, "malformed")
            return None
        if record.get("checksum") != record_checksum(record):
            self._quarantine(key, path, "checksum")
            return None
        if record.get("schema") != STORE_SCHEMA:
            self._quarantine(key, path, "schema")
            return None
        if record.get("fingerprint") != fingerprint:
            self._evict(key, path, record.get("fingerprint"))
            return None
        # Defence in depth: the key already hashes these, but a record
        # renamed into the wrong slot must not replay a foreign group.
        if (record.get("kind") != kind or record.get("run_key") != run_key
                or record.get("group") != group
                or record.get("specs") != [[i, h] for i, h in specs]):
            self._quarantine(key, path, "mismatch")
            return None
        return record

    def record(self, fingerprint: str, kind: str, run_key: Dict[str, Any],
               group: str, specs: List[Tuple[int, str]],
               verdicts: List[Tuple[int, Dict[str, Any]]],
               session_stats: Dict[str, int],
               cache: Dict[str, int]) -> bool:
        """Durably persist one fully solved group.  Never raises.

        Returns ``True`` if the record landed on disk.  Only all-``ok``
        groups should be recorded (the caller enforces that):
        timeout/error verdicts describe a run, not the scenarios.
        """
        written = False
        if self.mode == "rw":
            written = self._record_locked(
                fingerprint, kind, run_key, group, specs,
                verdicts, session_stats, cache)
        if self._trace is not None:
            self._trace.emit("store_write", group=group, written=written)
        return written

    def _record_locked(self, fingerprint, kind, run_key, group, specs,
                       verdicts, session_stats, cache) -> bool:
        key = group_record_key(kind, run_key, group, specs)
        record = {
            "schema": STORE_SCHEMA,
            "kind": kind,
            "fingerprint": fingerprint,
            "run_key": run_key,
            "group": group,
            "specs": [[index, spec_hash] for index, spec_hash in specs],
            "verdicts": [dict(verdict, index=index)
                         for index, verdict in verdicts],
            "session_stats": dict(session_stats),
            "cache": dict(cache),
        }
        record["checksum"] = record_checksum(record)
        lock = _StoreLock(os.path.join(self.root, "store.lock"),
                          self.lock_timeout)
        try:
            if not lock.acquire():
                self.counters["lock_timeouts"] += 1
                logger.warning(
                    "verdict store %s: writer lock timed out after %.1fs; "
                    "skipping write for group %s", self.root,
                    self.lock_timeout, group)
                return False
        except OSError as exc:
            self.counters["write_errors"] += 1
            logger.warning("verdict store %s: cannot take writer lock "
                           "(%s); skipping write", self.root, exc)
            return False
        try:
            self._atomic_write(self._object_path(key), record)
            self.counters["writes"] += 1
            return True
        except OSError as exc:
            self.counters["write_errors"] += 1
            if exc.errno in (errno.EACCES, errno.EROFS, errno.EPERM):
                # The directory went read-only under us; stop trying.
                self._degrade("ro", "store became unwritable: %s" % exc)
            else:
                logger.warning("verdict store %s: write failed for group "
                               "%s (%s)", self.root, group, exc)
            return False
        finally:
            lock.release()

    # -- reporting -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Session counters plus mode, for the report's ``store`` block."""
        payload: Dict[str, Any] = {"mode": self.mode}
        payload.update(self.counters)
        if self.degraded_reason:
            payload["degraded_reason"] = self.degraded_reason
        return payload


def scan_store(root: str) -> Dict[str, Any]:
    """Offline inventory of a store directory (``repro store stats``).

    Walks ``objects/`` verifying each record's checksum and schema, and
    counts quarantined files.  Read-only and tolerant: damaged records
    are *counted*, not moved.
    """
    objects_dir = os.path.join(root, "objects")
    quarantine_dir = os.path.join(root, "quarantine")
    meta_path = os.path.join(root, "store-meta.json")
    summary: Dict[str, Any] = {
        "root": root,
        "schema": None,
        "records": 0,
        "damaged": 0,
        "quarantined": 0,
        "fingerprints": {},
        "kinds": {},
    }
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            summary["schema"] = json.load(handle).get("schema")
    except (OSError, ValueError):
        pass
    if os.path.isdir(quarantine_dir):
        summary["quarantined"] = sum(
            1 for name in os.listdir(quarantine_dir)
            if name.endswith(".json"))
    if not os.path.isdir(objects_dir):
        return summary
    for dirpath, _dirnames, filenames in os.walk(objects_dir):
        for name in sorted(filenames):
            if not name.endswith(".json") or name.startswith(".tmp-"):
                continue
            path = os.path.join(dirpath, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict) or \
                        record.get("checksum") != record_checksum(record):
                    raise ValueError("checksum mismatch")
            except (OSError, ValueError):
                summary["damaged"] += 1
                continue
            summary["records"] += 1
            fingerprint = record.get("fingerprint", "?")
            summary["fingerprints"][fingerprint] = \
                summary["fingerprints"].get(fingerprint, 0) + 1
            kind = record.get("kind", "?")
            summary["kinds"][kind] = summary["kinds"].get(kind, 0) + 1
    return summary
