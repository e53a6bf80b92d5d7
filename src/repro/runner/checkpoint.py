"""Append-only sweep checkpoint journal (checkpoint/resume).

A :class:`SweepJournal` records every *successfully* completed cell of a
sweep as one JSON line (key, seed, attempts, pickled value) appended
durably — so a sweep that is interrupted, killed, or aborted by a
``strict`` failure can be resumed and recompute only the cells that
never finished.  The journal is scoped to a ``sweep_id`` (a stable
digest of the root seed, the cell keys, and the code fingerprint): a
journal written by a *different* sweep — or by different code — is
ignored and replaced rather than replayed.

Crash safety: the journal is opened with ``O_APPEND`` and every record
is emitted as **one** ``os.write`` of a single complete
``\\n``-terminated line, so records never interleave partially even if
several processes append to one file.  A torn final line can therefore
only come from a writer that died mid-``write``; it is detected at load
time and discarded, and every earlier line is intact.

The runner deletes the journal once a sweep completes with zero
failures; while failures remain, the journal is kept so the next run
retries exactly the unfinished cells.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Iterable

from .job import JobResult
from .seeding import stable_digest

_HEADER_KIND = "sweep-journal"
_DONE_KIND = "done"
_VERSION = 1


def sweep_id(root_seed: int, keys: Iterable[str], fingerprint: str = "") -> str:
    """Identity of one sweep: (root seed, ordered cell keys, code)."""
    return stable_digest("sweep", root_seed, tuple(keys), fingerprint)


class SweepJournal:
    """One on-disk checkpoint manifest for one sweep."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fd: int | None = None
        #: Undecodable records skipped by the most recent :meth:`load`.
        self.skipped_records = 0

    # -- reading -----------------------------------------------------------------

    def load(self, expected_id: str) -> dict[str, JobResult]:
        """Completed cells journalled for ``expected_id``, keyed by job key.

        Returns ``{}`` when the journal is missing, unreadable, or
        belongs to a different sweep (stale journals are replaced on the
        next :meth:`open_for`, not replayed).  Lines are independent JSON
        records, so a torn or undecodable line is skipped without
        affecting the entries around it.
        """
        self.skipped_records = 0
        try:
            data = self.path.read_bytes()
        except OSError:
            return {}
        lines = data.split(b"\n")
        try:
            header = json.loads(lines[0])
        except ValueError:
            return {}
        if (not isinstance(header, dict)
                or header.get("kind") != _HEADER_KIND
                or header.get("sweep_id") != expected_id
                or header.get("version") != _VERSION):
            return {}
        done: dict[str, JobResult] = {}
        for raw in lines[1:]:
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue  # torn tail from a writer that died mid-line
            if (isinstance(record, dict)
                    and record.get("kind", _DONE_KIND) == _DONE_KIND):
                self._ingest_done(record, done)
        return done

    def _ingest_done(self, record: dict, done: dict[str, JobResult]) -> None:
        key = record.get("key")
        payload = record.get("value")
        if not isinstance(key, str) or not isinstance(payload, str):
            self.skipped_records += 1
            return
        try:
            value = pickle.loads(base64.b64decode(payload))
        except Exception as exc:
            # Unpickling runs arbitrary __setstate__ code, so the
            # breadth is unavoidable — but the skip must be loud:
            # an undecodable record is journal corruption, and the
            # cell silently recomputing would mask it.
            self.skipped_records += 1
            warnings.warn(
                f"skipping undecodable journal record in {self.path}: "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning, stacklevel=3,
            )
            return
        done[key] = JobResult(
            key=key, value=value, seed=record.get("seed"),
            attempts=int(record.get("attempts", 1)), resumed=True,
        )

    # -- writing -----------------------------------------------------------------

    def open_for(self, journal_id: str, resume: bool = True) -> None:
        """Open the journal for appending under ``journal_id``.

        With ``resume`` the existing file is kept when (and only when)
        its header matches; otherwise it is replaced with a fresh header.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        keep = resume and self._header_matches(journal_id)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if not keep:
            flags |= os.O_TRUNC
        self.close()
        self._fd = os.open(self.path, flags, 0o644)
        if keep:
            # Neutralise a torn final line so the next record starts on
            # a fresh line instead of merging into the partial one.  The
            # stray blank line is skipped by every reader.
            try:
                if self.path.stat().st_size and not self.path.read_bytes().endswith(b"\n"):
                    os.write(self._fd, b"\n")
            except OSError:
                pass
        else:
            self._append({"kind": _HEADER_KIND, "version": _VERSION,
                          "sweep_id": journal_id})

    def _header_matches(self, journal_id: str) -> bool:
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                first = fh.readline()
            record = json.loads(first)
        except (OSError, ValueError):
            return False
        return (isinstance(record, dict)
                and record.get("kind") == _HEADER_KIND
                and record.get("sweep_id") == journal_id)

    def _append(self, record: dict) -> None:
        """Emit one record as a single ``write`` of one complete line.

        ``O_APPEND`` + one ``os.write`` per line is the entire
        crash-safety story: the kernel appends the whole line
        atomically, so writers interleave at line granularity only.
        (Splitting this into multiple writes would reintroduce
        torn-line interleaving — don't.)
        """
        if self._fd is None:
            raise RuntimeError("journal is not open; call open_for() first")
        line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        os.write(self._fd, line)

    def record(self, result: JobResult) -> bool:
        """Append one completed cell; returns False if the value cannot
        be journalled (unpicklable values simply recompute on resume)."""
        if self._fd is None:
            raise RuntimeError("journal is not open; call open_for() first")
        try:
            payload = base64.b64encode(
                pickle.dumps(result.value, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
        except Exception:
            return False
        self._append({"kind": _DONE_KIND, "key": result.key,
                      "seed": result.seed, "attempts": result.attempts,
                      "value": payload})
        return True

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def complete(self) -> None:
        """The sweep finished with no failures: the journal is obsolete."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass
