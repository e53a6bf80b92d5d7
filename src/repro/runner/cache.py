"""Incremental on-disk result cache for sweep cells.

Each completed cell's return value is pickled under a key that is a
stable hash of (callable spec, params, seed, code fingerprint).  The code
fingerprint covers the ``repro`` package sources *and* the module that
defines the cell function, so editing either invalidates exactly the
cells whose behaviour could have changed — re-running a sweep recomputes
only changed cells.

Writes are atomic (tmp file + ``os.replace``) so concurrent workers and
parallel bench runs can never observe a torn entry.  Every entry carries
an integrity header — a magic tag plus a truncated SHA-256 of the pickle
payload — so bit-rot and torn files from crashed writers are *detected*,
not deserialized: a corrupt entry counts as a miss, is moved into a
``quarantine/`` subdirectory on first sight (never re-read every run),
and :meth:`ResultCache.verify` scrubs a whole cache directory on demand
(exposed as ``python -m repro cache verify``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from ..errors import CacheCorruptionError
from .seeding import stable_digest

#: Memoised source fingerprints, keyed by directory/file path.  Each
#: entry pairs the digest with the stat signature (mtimes + sizes) it was
#: computed from, so a long-lived process re-hashes exactly when sources
#: change on disk instead of serving a stale fingerprint forever.
_fingerprints: dict[str, tuple[tuple, str]] = {}

#: Entry format: MAGIC + sha256(payload)[:CHECKSUM_BYTES] + payload.
MAGIC = b"RPRC1\n"
CHECKSUM_BYTES = 16

#: Subdirectory (inside the cache dir) holding quarantined corrupt entries.
QUARANTINE_DIR = "quarantine"


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _tree_signature(root: Path) -> tuple:
    """Cheap change detector for a source tree: sorted (relpath,
    mtime_ns, size) triples.  An ``os.stat`` walk per call instead of a
    full re-hash; any edit, addition, or deletion changes it."""
    signature = []
    for path in sorted(root.rglob("*.py")):
        try:
            st = path.stat()
        except OSError:
            continue
        signature.append((str(path.relative_to(root)), st.st_mtime_ns, st.st_size))
    return tuple(signature)


def _tree_fingerprint(root: Path) -> str:
    """The content digest of ``root``, memoised against its stat signature."""
    key = str(root)
    signature = _tree_signature(root)
    memo = _fingerprints.get(key)
    if memo is not None and memo[0] == signature:
        return memo[1]
    digest = _hash_tree(root)
    _fingerprints[key] = (signature, digest)
    return digest


def _file_fingerprint(path_str: str) -> str:
    """The content digest of one file, memoised against (mtime, size)."""
    try:
        st = os.stat(path_str)
        signature = ((st.st_mtime_ns, st.st_size),)
    except OSError:
        signature = (("missing",),)
    memo = _fingerprints.get(path_str)
    if memo is not None and memo[0] == signature:
        return memo[1]
    try:
        digest = hashlib.sha256(Path(path_str).read_bytes()).hexdigest()
    except OSError:
        digest = "unreadable"
    _fingerprints[path_str] = (signature, digest)
    return digest


def invalidate_fingerprints(path: str | os.PathLike | None = None) -> None:
    """Drop memoised code fingerprints (all of them, or one path's).

    The memo self-invalidates on mtime/size changes; this is the explicit
    big hammer for callers that need a guaranteed re-hash, such as tests
    that rewrite sources in place within the filesystem's mtime
    granularity."""
    if path is None:
        _fingerprints.clear()
    else:
        _fingerprints.pop(str(path), None)


def code_fingerprint(extra_module_file: str | None = None) -> str:
    """Hex digest of the ``repro`` sources (+ one extra module's source).

    Only source digests go in: both engines are bit-identical, so no
    environment setting can change a cell's result.  The source tree
    digest is memoised per path against a stat signature (every file's
    mtime + size), so a long-lived process that edits — or hot-reloads —
    sources gets a fresh fingerprint on the next call rather than
    serving stale cache hits; :func:`invalidate_fingerprints` forces it.
    """
    package_root = Path(__file__).resolve().parent.parent
    tree = _tree_fingerprint(package_root)
    if not extra_module_file:
        return tree
    return f"{tree}-{_file_fingerprint(extra_module_file)}"


def encode_entry(value: Any) -> bytes:
    """Serialise ``value`` with the integrity header."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = hashlib.sha256(payload).digest()[:CHECKSUM_BYTES]
    return MAGIC + checksum + payload


def decode_entry(blob: bytes) -> Any:
    """Deserialise an entry, raising :class:`CacheCorruptionError` on any
    integrity violation (wrong magic, truncated header, bad checksum)."""
    header = len(MAGIC) + CHECKSUM_BYTES
    if not blob.startswith(MAGIC) or len(blob) < header:
        raise CacheCorruptionError("cache entry has no valid integrity header")
    checksum = blob[len(MAGIC):header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest()[:CHECKSUM_BYTES] != checksum:
        raise CacheCorruptionError("cache entry checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # checksum passed but unpicklable (e.g. renamed class)
        raise CacheCorruptionError(f"cache entry unpicklable: {exc}") from exc


class ResultCache:
    """Pickle-per-entry cache directory (default layout:
    ``benchmarks/results/.cache/<key>.pkl``)."""

    #: Sentinel distinguishing "miss" from a cached ``None`` value.
    MISS = object()

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.corrupt = 0
        self.quarantined = 0

    def key_for(
        self, fn_spec: str, params: tuple, seed: int | None,
        fingerprint: str = "",
    ) -> str:
        """The result-entry key for one cell."""
        return stable_digest("cell", fn_spec, params, seed, fingerprint)

    def path_for(self, key: str) -> Path:
        """The on-disk path of ``key``'s entry (it may not exist)."""
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        A corrupt entry degrades to a miss *and* is quarantined on the
        spot, so a torn file can never be re-read run after run.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return self.MISS
        try:
            return decode_entry(blob)
        except CacheCorruptionError:
            self.corrupt += 1
            self._quarantine(path)
            return self.MISS

    def put(self, key: str, value: Any) -> bool:
        """Atomically persist ``value`` under ``key``; returns False if
        the value cannot be pickled (the cell simply recomputes next run)."""
        try:
            entry = encode_entry(value)
        except Exception:
            return False
        self.directory.mkdir(parents=True, exist_ok=True)
        # Self-ignoring directory, pytest-cache style: cached cells are
        # derived data and must never be committed.
        marker = self.directory / ".gitignore"
        if not marker.exists():
            marker.write_text("*\n")
        target = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.stem[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(entry)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return True

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the lookup path (delete as a last
        resort) so it is never decoded again."""
        qdir = self.directory / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            self.quarantined += 1
            return
        except OSError:
            pass
        try:
            path.unlink()
            self.quarantined += 1
        except OSError:
            pass

    def verify(self, repair: bool = True) -> dict[str, Any]:
        """Scrub every entry; quarantine (with ``repair``) the corrupt ones.

        Returns a report: ``checked``/``ok`` counts, the corrupt entry
        keys, and how many were quarantined.  A nonzero ``corrupt`` list
        is the CI gate's failure condition.
        """
        report: dict[str, Any] = {
            "directory": str(self.directory),
            "checked": 0, "ok": 0, "corrupt": [], "quarantined": 0,
        }
        if not self.directory.is_dir():
            return report
        for path in sorted(self.directory.glob("*.pkl")):
            report["checked"] += 1
            try:
                decode_entry(path.read_bytes())
            except (CacheCorruptionError, OSError):
                report["corrupt"].append(path.stem)
                if repair:
                    before = self.quarantined
                    self._quarantine(path)
                    report["quarantined"] += self.quarantined - before
            else:
                report["ok"] += 1
        return report

    def clear(self) -> int:
        """Delete every entry (including quarantined ones); returns the
        number of live entries removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            quarantine = self.directory / QUARANTINE_DIR
            if quarantine.is_dir():
                for path in quarantine.glob("*.pkl"):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return removed
