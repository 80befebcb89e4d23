"""The write-ahead log: CRC32-framed records in rotated segment files.

On-disk format (all integers little-endian)::

    segment file  = record*
    record        = header payload
    header        = length:uint32  crc32(payload):uint32
    payload       = one UTF-8 JSON object (see repro.persist.serde)

Segments live in ``<data_dir>/wal/`` and are named
``wal-<first_version padded to 20 digits>.seg`` — the number is the store
version of the first record the segment holds, so recovery can order
segments lexicographically and skip whole segments already covered by a
checkpoint.  A segment is rotated once it exceeds ``segment_bytes`` (and on
every checkpoint, so fully-checkpointed segments become prunable).

Torn-write handling: :func:`scan_segment` walks records until the first
frame that is incomplete (a crash mid-``write``) or fails its CRC (a torn
sector or bit flip).  Everything before that point is returned as valid;
the byte offset of the bad frame is reported so recovery can truncate the
tail — a prefix of committed transactions is always recovered, never an
exception.

Fsync policies (:data:`FSYNC_POLICIES`):

- ``always``   — fsync after every append, inside the commit critical
  section: a commit that returned is durable.
- ``interval`` — fsync at most once per ``fsync_interval`` seconds,
  opportunistically on append (plus on rotation, checkpoint, and close):
  a crash loses at most the last interval of commits.
- ``off``      — never fsync explicitly; the OS flushes when it pleases.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
import zlib

from repro.errors import StoreError

logger = logging.getLogger(__name__)

FSYNC_POLICIES = ("always", "interval", "off")

_HEADER = struct.Struct("<II")

#: Sanity bound on one record's payload; a longer length field means the
#: header bytes are garbage, not that someone committed a 1 GiB transaction.
MAX_RECORD_BYTES = 256 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def segment_name(first_version):
    return f"{_SEGMENT_PREFIX}{first_version:020d}{_SEGMENT_SUFFIX}"


def segment_first_version(path):
    """The ``first_version`` a segment file name encodes, or ``None``."""
    name = os.path.basename(path)
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_segments(wal_dir):
    """``[(first_version, path)]`` sorted by first version."""
    if not os.path.isdir(wal_dir):
        return []
    found = []
    for name in os.listdir(wal_dir):
        first = segment_first_version(name)
        if first is not None:
            found.append((first, os.path.join(wal_dir, name)))
    return sorted(found)


def select_segments(segments, start_version):
    """The suffix of *segments* that can hold records >= *start_version*.

    *segments* is ``list_segments`` output (``[(first_version, path)]``,
    sorted).  A segment named ``first`` holds versions ``first ..
    next_first - 1``, so it is skippable exactly when the *next* segment
    starts at or before *start_version* — comparing ``first`` against
    ``start_version`` directly is wrong on the boundary: when
    ``start_version`` equals a segment's ``first_version`` the previous
    segment holds nothing we need, and when ``start_version`` is one past a
    segment's last record (``next_first == start_version``) that segment
    must be skipped even though its ``first`` is smaller.
    """
    keep_from = 0
    for index in range(len(segments) - 1):
        next_first = segments[index + 1][0]
        if next_first <= start_version:
            keep_from = index + 1
        else:
            break
    return segments[keep_from:]


def iter_records(wal_dir, from_version=0):
    """Yield ``(version, payload_dict)`` for every durable record with
    ``version > from_version``, in version order.

    This is the public read path over the segment files: recovery, history
    reconstruction, and replication tailing all consume it.  Only segments
    that can contain requested versions are scanned (see
    :func:`select_segments`).  A torn or corrupt tail simply ends the
    iteration — readers always see a clean prefix, mirroring recovery.
    Raises :class:`~repro.errors.StoreError` on a version gap: the caller
    asked for history that checkpointing has already pruned (or the log is
    damaged), and silently skipping would yield a graph that never existed.
    """
    expected = from_version + 1
    for _first, path in select_segments(list_segments(wal_dir), expected):
        entries, _good_bytes, _corruption = scan_segment(path)
        for _offset, payload in entries:
            version = payload.get("version")
            if not isinstance(version, int) or version <= from_version:
                continue
            if version != expected:
                raise StoreError(
                    f"WAL history gap: expected version {expected}, found "
                    f"{version} in {path} (older records were pruned or lost)"
                )
            yield version, payload
            expected = version + 1


def frame(payload_bytes):
    """Wrap one encoded payload in the length + CRC32 header."""
    return _HEADER.pack(len(payload_bytes), zlib.crc32(payload_bytes)) + payload_bytes


def encode_record(payload):
    """JSON-encode one payload dict into framed bytes."""
    return frame(json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8"))


class WalCorruption:
    """Where and why a segment scan stopped early."""

    __slots__ = ("path", "offset", "reason")

    def __init__(self, path, offset, reason):
        self.path = path
        self.offset = offset
        self.reason = reason

    def __repr__(self):
        return f"WalCorruption({self.path!r} @ {self.offset}: {self.reason})"


def scan_segment(path):
    """Read every valid record of one segment.

    Returns ``(records, good_bytes, corruption)``: ``records`` is a list of
    ``(byte_offset, payload_dict)`` pairs for the valid prefix, ``good_bytes``
    the byte length of that prefix, and ``corruption`` a
    :class:`WalCorruption` describing the first bad frame (``None`` for a
    clean segment).  Never raises on torn or corrupt data.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, offset, WalCorruption(path, offset, "torn record header")
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return records, offset, WalCorruption(
                path, offset, f"implausible record length {length}"
            )
        start = offset + _HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            return records, offset, WalCorruption(path, offset, "torn record payload")
        if zlib.crc32(payload) != crc:
            return records, offset, WalCorruption(path, offset, "CRC mismatch")
        try:
            decoded = json.loads(payload)
        except ValueError as exc:
            return records, offset, WalCorruption(path, offset, f"undecodable payload: {exc}")
        records.append((offset, decoded))
        offset = start + length
    return records, offset, None


def truncate_segment(path, good_bytes, corruption):
    """Cut a torn/corrupt tail off *path*, with a logged warning."""
    lost = os.path.getsize(path) - good_bytes
    logger.warning(
        "truncating torn WAL tail: %s at byte %d (%s, dropping %d bytes)",
        path,
        good_bytes,
        corruption.reason if corruption else "unknown",
        lost,
    )
    with open(path, "r+b") as handle:
        handle.truncate(good_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_directory(os.path.dirname(path))


def fsync_directory(path):
    """Flush a directory entry (creations / renames / unlinks) to disk."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def load_tagged(path, fmt, key):
    """``document[key]`` of the JSON document ``{"format": fmt, key: id}`` at
    *path*: a non-empty string, or ``None`` (with a warning unless the file
    is missing) when the file holds anything else."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        logger.warning("ignoring unreadable %s file %s: %s", key, path, exc)
        return None
    if not isinstance(document, dict) or document.get("format") != fmt:
        logger.warning("ignoring %s: not a %s document", path, fmt)
        return None
    value = document.get(key)
    if not isinstance(value, str) or not value:
        logger.warning("ignoring %s: missing %s", path, key)
        return None
    return value


#: The suffix of :func:`write_atomically`'s temp file, which a crash
#: before the rename leaves behind.
TMP_SUFFIX = ".tmp"


def write_atomically(path, document, **dump):
    """Write *document* to *path* as JSON (``json.dump`` options *dump*) by
    temp file + fsync + rename + directory fsync: a crash leaves the old
    file or the new one, never a torn one.  Returns *path*."""
    tmp = path + TMP_SUFFIX
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, **dump)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(path) or ".")
    return path


class WalWriter:
    """Appends framed records to the active segment, rotating as it grows.

    Not thread-safe by itself — the :class:`~repro.persist.manager.
    DurabilityManager` serializes access (appends already arrive in store
    commit order, under the store's commit lock).
    """

    def __init__(self, wal_dir, fsync="interval", fsync_interval=0.05, segment_bytes=16 * 1024 * 1024):
        if fsync not in FSYNC_POLICIES:
            raise StoreError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.wal_dir = wal_dir
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.segment_bytes = segment_bytes
        self._handle = None
        self._segment_path = None
        self._segment_size = 0
        self._last_fsync = time.monotonic()
        self._dirty = False
        self.appended_bytes = 0
        self.append_count = 0
        self.fsync_count = 0
        self.rotations = 0

    # ------------------------------------------------------------ lifecycle

    @property
    def segment_path(self):
        return self._segment_path

    def open(self, path=None, next_version=1):
        """Open *path* for append, or start a fresh segment for *next_version*."""
        self.close()
        if path is None:
            path = os.path.join(self.wal_dir, segment_name(next_version))
        self._segment_path = path
        self._handle = open(path, "ab")
        self._segment_size = self._handle.tell()
        return self

    def rotate(self, next_version):
        """Fsync + close the active segment and start a new one."""
        if self._handle is not None:
            self.sync(force=True)
        self.open(next_version=next_version)
        fsync_directory(self.wal_dir)
        self.rotations += 1
        return self._segment_path

    def close(self):
        if self._handle is not None:
            self.sync(force=True)
            self._handle.close()
            self._handle = None

    # --------------------------------------------------------------- writes

    def append(self, payload, next_version=None):
        """Frame and append one payload dict; applies the fsync policy.

        *next_version* (the version the *following* record will carry) names
        the new segment if this append tips the current one over the
        rotation threshold.  Returns ``(bytes_written, fsync_seconds)`` —
        the fsync time is 0.0 when the policy skipped the sync.
        """
        if self._handle is None:
            raise StoreError("WAL writer is not open")
        data = encode_record(payload)
        self._handle.write(data)
        # Push to the OS page cache unconditionally: the fsync policy decides
        # when bytes hit the *disk*, but same-process readers (a replication
        # source serving a tail from the segments) must always see every
        # append.
        self._handle.flush()
        self._dirty = True
        self._segment_size += len(data)
        self.appended_bytes += len(data)
        self.append_count += 1
        synced = 0.0
        if self.fsync == "always":
            synced = self.sync(force=True)
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_fsync >= self.fsync_interval:
                synced = self.sync(force=True)
        if next_version is not None and self._segment_size >= self.segment_bytes:
            self.rotate(next_version)
        return len(data), synced

    def sync(self, force=False):
        """Flush and fsync the active segment; returns elapsed seconds.

        With ``force=False`` this is the policy-respecting entry point (a
        no-op under ``off``); ``force=True`` always syncs — rotation,
        checkpoints, and close use it regardless of policy.
        """
        if self._handle is None or (not force and self.fsync == "off"):
            return 0.0
        if not self._dirty:
            return 0.0
        started = time.perf_counter()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        elapsed = time.perf_counter() - started
        self._dirty = False
        self._last_fsync = time.monotonic()
        self.fsync_count += 1
        return elapsed
