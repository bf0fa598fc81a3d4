"""The store: one reader over ``.rsym`` segments, and crash-safe appends.

A symbol store is a snapshot of immutable ``.rsym`` segments.  The
write-once ``.rsym`` file serves a frozen fleet; production ingest needs
*appends* — a new day of windows, a drift-triggered table epoch — without
rewriting history and without a crash ever corrupting what was already
committed.  A segmented store is a directory::

    fleet.rsyms/
        manifest-0000000003.json    <- newest valid generation wins
        manifest-0000000002.json    <- previous snapshot, kept for rollback
        seg-000000.rsym             <- immutable, individually checksummed
        seg-000001.rsym
        index.rsymx                 <- optional query-index sidecar
        quarantine/                 <- scrub moves damaged segments here

Each segment is a complete version-2 ``.rsym`` file holding the *same* meter
ids with a contiguous span of windows (time-axis partitioning): appending a
day writes exactly one new segment.  The manifest is the atom of visibility —
compact JSON plus a ``crc32c=`` trailer, committed write-temp → fsync →
``os.replace`` → directory fsync — so readers always load a consistent
snapshot: a crash after the segment lands but before the manifest commits
leaves an orphan file the old snapshot never references.

Durability contract (driven fault by fault in ``tests/store/test_faults.py``):

* **Torn write / disk full / crash before rename** — the final paths are
  untouched; at worst a stale ``*.tmp`` remains for :func:`scrub_store`.
* **Crash between segment and manifest** — previous generation intact; the
  new segment is an orphan that scrub garbage-collects (or the next append
  atomically overwrites, since sequence numbers come from the manifest).
* **Bit-flip / truncation of a committed segment** — detected by CRC32C
  (per column, per header, whole file); the reader quarantines the segment
  with a :class:`~repro.errors.StoreIntegrityWarning` and serves every
  healthy segment (``strict=True`` upgrades to a raise).
* **Damaged manifest** — the newest *valid* generation wins; each skipped
  generation is warned about (rollback), and scrub can prune the wreckage.
* **Concurrent writers** — :func:`append_segment` and a repairing
  :func:`scrub_store` hold the directory's one writer lock from reading the
  manifest to committing the next, so a repair never deletes a segment an
  append has yet to commit and no two writers race for one generation.  An
  append's idempotency key is looked up in the manifest read under that
  lock, so one key sent through two processes at once commits once.

A reader moves to a new generation with :meth:`SymbolStore.reopen`, which
opens only the segments whose manifest record changed and shares the rest.

:class:`SymbolStore` (also bound as ``SegmentedStore``) is the only store
type.  A directory opens from its manifest; a bare ``.rsym`` file opens as a
manifest-less, one-segment view of the same class — no generation, nothing
quarantined (no manifest vouches for it, so its integrity failures raise),
and its header supplies ids, labels, metadata and tables.  Callers therefore
never ask which kind they hold: :func:`open_store`, the query engine, the
server and the CLI read both through one API.  Segments written through
:func:`append_segment` are byte-identical for every worker count — packing
is pure per-row work merged in task order, the same invariant
:func:`~repro.store.fleet.write_fleet_store` pins.
"""

from __future__ import annotations

import json
import os
import re
import threading
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.lookup import LookupTable
from ..errors import CorruptStoreError, StoreError, StoreIntegrityWarning
from ..obs import registry as _obs_registry
from ..pipeline.stages import RLERuns
from . import faults
from .checksum import crc32c, crc32c_hex
from .format import DENSE, RLE, _Segment, _window_bounds, read_spans, verify_segments
from .packing import bits_for_alphabet

try:  # POSIX only: elsewhere the in-process lock is the only writer lock.
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "SymbolStore",
    "SegmentedStore",
    "SegmentRecord",
    "ScrubReport",
    "append_segment",
    "create_segmented_store",
    "open_store",
    "scrub_store",
    "snapshot_stamp",
    "write_segmented_fleet",
]

MANIFEST_VERSION = 1
MANIFEST_FORMAT = "rsym-segments"
_MANIFEST_RE = re.compile(r"^manifest-(\d{10})\.json$")
_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.rsym$")
_QUARANTINE_DIR = "quarantine"

#: Chunk size for whole-file CRC streaming (big enough for the lane path).
_FILE_CRC_CHUNK = 4 << 20


def _file_crc32c(path: Path) -> int:
    value = 0
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(_FILE_CRC_CHUNK)
            if not chunk:
                return value
            value = crc32c(chunk, value)


def _segment_name(sequence: int) -> str:
    return f"seg-{int(sequence):06d}.rsym"


def _manifest_name(generation: int) -> str:
    return f"manifest-{int(generation):010d}.json"


@dataclass
class SegmentRecord:
    """One committed segment as the manifest describes it."""

    name: str
    file_nbytes: int
    crc32c: str                 # whole-file CRC32C, hex
    n_columns: int
    windows: int                # symbols per column in this segment
    start_window: int           # cumulative window offset at commit time
    n_symbols: int
    reason: str = "append"      # "append" | "drift" | "bootstrap" | ...
    #: Only on the record :func:`append_segment` returns, never stored: the
    #: generation it answered at, and whether its key was already committed.
    generation: Optional[int] = field(default=None, compare=False)
    duplicate: bool = field(default=False, compare=False)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "file_nbytes": int(self.file_nbytes),
            "crc32c": self.crc32c,
            "n_columns": int(self.n_columns),
            "windows": int(self.windows),
            "start_window": int(self.start_window),
            "n_symbols": int(self.n_symbols),
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SegmentRecord":
        return cls(
            name=str(data["name"]),
            file_nbytes=int(data["file_nbytes"]),
            crc32c=str(data["crc32c"]),
            n_columns=int(data["n_columns"]),
            windows=int(data["windows"]),
            start_window=int(data["start_window"]),
            n_symbols=int(data["n_symbols"]),
            reason=str(data.get("reason", "append")),
        )


# -- the writer lock -------------------------------------------------------------

_WRITER_LOCKS: Dict[str, threading.Lock] = {}
_WRITER_LOCKS_GUARD = threading.Lock()


@contextmanager
def _writer_lock(directory: Path) -> Iterator[None]:
    """Be the one writer of ``directory`` from reading its manifest until
    committing the next one.

    Within a process there is one lock per resolved path; across
    processes, an exclusive ``flock`` on the directory's own descriptor,
    which adds no file to the store.  Not reentrant.
    """
    key = str(directory.resolve())
    with _WRITER_LOCKS_GUARD:
        lock = _WRITER_LOCKS.setdefault(key, threading.Lock())
    with lock:
        fd = os.open(directory, os.O_RDONLY)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the flock


# -- manifest persistence --------------------------------------------------------


def _write_manifest(directory: Path, manifest: Dict) -> Path:
    """Commit one manifest generation atomically (the visibility atom)."""
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    trailer = b"\ncrc32c=" + crc32c_hex(crc32c(body)).encode() + b"\n"
    final = directory / _manifest_name(manifest["generation"])
    temp = directory / (final.name + ".tmp")
    try:
        with temp.open("wb") as handle:
            faults.write(handle, body + trailer, "manifest.write")
            faults.fsync(handle, "manifest.before_fsync")
    except faults.InjectedCrash:
        raise
    except BaseException:
        try:
            temp.unlink()
        except OSError:
            pass
        raise
    faults.replace(temp, final, "manifest")
    faults.fsync_dir(directory)
    return final


def _load_manifest(path: Path) -> Dict:
    """Parse and checksum-verify one manifest file; raise on any damage."""
    raw = path.read_bytes()
    body, sep, rest = raw.rpartition(b"\ncrc32c=")
    if not sep:
        raise CorruptStoreError(
            f"{path} has no crc32c trailer — truncated or not a manifest",
            path=path, check="manifest_trailer", hint="truncated",
        )
    try:
        stored = int(rest.strip().decode("ascii"), 16)
    except ValueError:
        raise CorruptStoreError(
            f"{path} has an unparsable crc32c trailer {rest[:32]!r}",
            path=path, check="manifest_trailer", hint="bit-rot",
        ) from None
    actual = crc32c(body)
    if actual != stored:
        raise CorruptStoreError(
            f"{path} checksum mismatch: stored {crc32c_hex(stored)}, computed "
            f"{crc32c_hex(actual)} — the manifest bytes are damaged",
            path=path, check="manifest_crc", expected=crc32c_hex(stored),
            actual=crc32c_hex(actual), hint="bit-rot",
        )
    try:
        manifest = json.loads(body)
    except ValueError as exc:
        raise CorruptStoreError(
            f"{path} body is not valid JSON ({exc})",
            path=path, check="manifest_json", hint="bit-rot",
        ) from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise CorruptStoreError(
            f"{path} is not a segmented-store manifest "
            f"(format={manifest.get('format')!r})",
            path=path, check="manifest_json", hint="not-a-store",
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise CorruptStoreError(
            f"{path} has manifest version {manifest.get('version')!r}, "
            f"expected {MANIFEST_VERSION}",
            path=path, check="version", expected=MANIFEST_VERSION,
            actual=manifest.get("version"),
        )
    named = _MANIFEST_RE.match(path.name)
    if named and int(named.group(1)) != int(manifest.get("generation", -1)):
        raise CorruptStoreError(
            f"{path} claims generation {manifest.get('generation')} but is "
            f"named generation {int(named.group(1))}",
            path=path, check="manifest_json", hint="bit-rot",
        )
    return manifest


def _generations(directory: Path) -> List[int]:
    """The generation of every manifest file, newest first: one directory
    listing, no path object per entry."""
    matches = (_MANIFEST_RE.match(name) for name in os.listdir(directory))
    return sorted((int(match.group(1)) for match in matches if match), reverse=True)


def _manifest_paths(directory: Path) -> List[Tuple[int, Path]]:
    """``(generation, path)`` of every manifest file, newest first."""
    return [(g, directory / _manifest_name(g)) for g in _generations(directory)]


def _select_manifest(
    directory: Path, strict: bool = False
) -> Tuple[Dict, Path, List[Tuple[Path, CorruptStoreError]]]:
    """Newest valid manifest generation; invalid ones warned and skipped."""
    generations = _generations(directory)
    if not generations:
        raise StoreError(f"{directory} holds no manifest: not a segmented store")
    skipped: List[Tuple[Path, CorruptStoreError]] = []
    for generation in generations:
        path = directory / _manifest_name(generation)
        try:
            return _load_manifest(path), path, skipped
        except CorruptStoreError as exc:
            if strict:
                raise
            skipped.append((path, exc))
            _obs_registry().counter(
                "store.manifest_rollbacks_total",
                "Damaged manifest generations skipped at open",
            ).inc()
            warnings.warn(
                StoreIntegrityWarning(
                    f"skipping damaged manifest generation {generation} "
                    f"({exc}); rolling back to an older snapshot",
                    path=path, kind="manifest", reason=exc.check,
                )
            )
    raise CorruptStoreError(
        f"{directory} has {len(generations)} manifest file(s), none valid — "
        f"no snapshot can be served",
        path=directory, check="manifest_crc", hint="bit-rot",
        detail={"manifests": [str(path) for path, _ in skipped]},
    )


# -- the reader ------------------------------------------------------------------


class SymbolStore:
    """Read-side of a symbol store: a consistent snapshot of ``.rsym`` segments.

    A ``.rsyms`` directory opens from its newest valid manifest; a bare
    ``.rsym`` file opens as a manifest-less view of one segment
    (``generation`` is ``None``, ``n_segments`` 1, nothing quarantined, and
    its header supplies ids, labels, metadata and tables).  Columns are the
    meter ids and each column's windows are the concatenation of its
    per-segment spans, in commit order.  Directory segments that fail
    integrity checks are quarantined at open (skipped with a
    :class:`StoreIntegrityWarning`) unless ``strict=True``; no manifest
    vouches for a bare file, so its failures always raise.
    """

    def __init__(
        self,
        path: Path,
        segments: List[_Segment],
        manifest: Optional[Dict] = None,
        records: Sequence[SegmentRecord] = (),
        quarantined: Sequence[Tuple[str, str]] = (),
        options: Optional[Dict] = None,
        rolled_back: Sequence[str] = (),
        shared: int = 0,
    ) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._segments = list(segments)
        self.records = list(records)
        self.quarantined = list(quarantined)
        #: Damaged manifest files the open skipped to reach this generation.
        self.rolled_back = list(rolled_back)
        self._options = dict(options or {"mmap": True, "prefetch": True,
                                         "verify": "lazy", "strict": False})
        self._closed = False
        #: Segments this snapshot took over from the one it was reopened
        #: from, and segment files it opened; both are counted in the registry.
        self.segments_shared = int(shared)
        self.segments_opened = len(self._segments) - self.segments_shared
        metrics = _obs_registry()
        metrics.counter(
            "store.segments_shared_total",
            "Segments a snapshot took over from the one it replaced",
        ).inc(self.segments_shared)
        metrics.counter(
            "store.segments_opened_total", "Segment files opened by snapshots",
        ).inc(self.segments_opened)
        #: The segments this snapshot appended to the one it was reopened
        #: from; ``None`` for a cold open or any other change.
        self.appended: Optional[List[_Segment]] = None
        if manifest is None:
            (only,) = self._segments
            self.generation: Optional[int] = None
            self.layout: str = only.layout
            self.alphabet_size: int = only.alphabet_size
            self.ids: List = list(only.ids)
            self.metadata: Dict = only.metadata
        else:
            self.generation = int(manifest["generation"])
            self.layout = manifest["layout"]
            self.alphabet_size = int(manifest["alphabet_size"])
            self.ids = list(manifest.get("ids") or [])
            self.metadata = manifest.get("metadata") or {}
        self.bits_per_symbol: int = bits_for_alphabet(self.alphabet_size)
        self.labels: Optional[List[str]] = (
            self._segments[0].labels if self._segments else None
        )
        self._id_index = {column_id: i for i, column_id in enumerate(self.ids)}
        if self._segments:
            self.counts = np.sum(
                np.vstack([seg.counts for seg in self._segments]), axis=0
            ).astype(np.int64)
        else:
            self.counts = np.zeros(len(self.ids), dtype=np.int64)

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        mmap: bool = True,
        prefetch: bool = True,
        verify: str = "lazy",
        strict: bool = False,
    ) -> "SymbolStore":
        """Open a bare ``.rsym`` file, or a directory's newest valid snapshot.

        ``mmap`` (default) maps payloads instead of reading them; both decode
        to bit-identical arrays.  ``prefetch`` issues
        ``madvise(MADV_WILLNEED)`` so a cold store's pages stream in ahead of
        the first decode.  ``verify`` is ``"lazy"`` (each column's CRC32C on
        first access), ``"eager"`` (every checksum before returning, so
        bit-rot quarantines *now* instead of at first read) or ``"off"``.
        ``strict=True`` turns every directory quarantine or manifest rollback
        into a raised :class:`CorruptStoreError`.
        """
        options = {"mmap": mmap, "prefetch": prefetch, "verify": verify,
                   "strict": strict}
        return cls._open(Path(path), options, None)

    def reopen(self) -> "SymbolStore":
        """The newest committed snapshot of this store's path, opened with
        this snapshot's options, opening only the segments that changed.

        A segment whose whole manifest record (name, size, whole-file CRC,
        windows, start window, reason) is unchanged is the *same* segment
        object, memory map included; it stays open until both snapshots
        close it.  Its checksums re-arm, so a column read under the new
        snapshot is verified on its first read, as after a cold open, and
        ``verify="eager"`` still checks every segment.  Every other record
        opens, and quarantines, as :meth:`open` does.  A bare ``.rsym`` file
        or a store opened without ``mmap`` reopens cold.  Unless
        ``verify="eager"``, the reopen reads no payload byte; this snapshot
        stays readable until it is closed.
        """
        return self._open(self.path, self._options, self)

    @classmethod
    def _open(
        cls, path: Path, options: Dict, previous: Optional["SymbolStore"]
    ) -> "SymbolStore":
        """The one open path; ``previous`` is the snapshot a :meth:`reopen`
        shares segments with (``None`` opens cold)."""
        shared: Dict[str, Tuple[SegmentRecord, _Segment]] = {}
        if previous is not None and previous.manifest is not None and options["mmap"]:
            shared = {
                record.name: (record, segment)
                for record, segment in zip(previous.records, previous._segments)
            }
        verify, strict = options["verify"], options["strict"]
        seg_options = {"mmap": options["mmap"], "prefetch": options["prefetch"],
                       "verify": verify}
        if not path.is_dir():
            segment = _Segment.open(path, **seg_options)
            errors = verify_segments([segment])[0] if verify == "eager" else []
            if errors:
                raise errors[0]
            return cls(path, [segment], options=options)
        manifest, _, skipped = _select_manifest(path, strict=strict)
        records = [SegmentRecord.from_dict(data) for data in manifest.get("segments", [])]
        segments: List[_Segment] = []
        kept: List[SegmentRecord] = []
        quarantined: List[Tuple[str, str]] = []

        def _quarantine(record: SegmentRecord, exc: Exception, reason: str) -> None:
            if strict:
                raise exc
            quarantined.append((record.name, str(exc)))
            _obs_registry().counter(
                "store.quarantined_segments_total",
                "Segments quarantined at open or by scrub",
            ).inc()
            warnings.warn(
                StoreIntegrityWarning(
                    f"quarantining segment {record.name}: {exc} — its "
                    f"{record.windows} windows are skipped; remaining "
                    f"segments are served intact",
                    path=path / record.name, kind="segment", reason=reason,
                )
            )

        # Open every segment first, so an eager open checks all of their
        # columns in one pooled pass; then settle each segment in manifest
        # order: an open failure, a checksum failure, a manifest mismatch.
        opened: List[Union[_Segment, Exception]] = []
        for record in records:
            held = shared.get(record.name)
            seg_path = path / record.name if held is None else held[1].path
            try:
                actual_nbytes = seg_path.stat().st_size
                if actual_nbytes != record.file_nbytes:
                    raise CorruptStoreError(
                        f"{seg_path} is {actual_nbytes} bytes, manifest "
                        f"records {record.file_nbytes}",
                        path=seg_path, check="file_size",
                        expected=record.file_nbytes, actual=actual_nbytes,
                        hint="truncated" if actual_nbytes < record.file_nbytes
                        else "bit-rot",
                    )
                if held is not None and held[0] == record and held[1].acquire():
                    held[1].rearm()
                    opened.append(held[1])
                    continue
                opened.append(_Segment.open(seg_path, **seg_options))
            except (StoreError, OSError) as exc:
                opened.append(exc)
        live = [seg for seg in opened if isinstance(seg, _Segment)]
        damage = iter(verify_segments(live) if verify == "eager" else [[]] * len(live))
        for record, segment in zip(records, opened):
            if isinstance(segment, Exception):
                reason = getattr(segment, "check", "") or "unreadable"
                _quarantine(record, segment, reason)
                continue
            errors = next(damage)
            problem = cls._segment_mismatch(segment, manifest)
            if not errors and problem is None:
                segments.append(segment)
                kept.append(record)
                continue
            segment.close()
            if errors:
                _quarantine(record, errors[0], errors[0].check)
            else:
                _quarantine(
                    record,
                    StoreError(
                        f"{path / record.name} does not match the manifest: {problem}"
                    ),
                    "mismatch",
                )
        taken = {id(segment) for _, segment in shared.values()}
        store = cls(path, segments, manifest, kept, quarantined, options,
                    rolled_back=[p.name for p, _ in skipped],
                    shared=sum(id(seg) in taken for seg in segments))
        store.appended = store._appended_to(previous)
        return store

    def _appended_to(self, previous: Optional["SymbolStore"]) -> Optional[List[_Segment]]:
        """This snapshot's segments after ``previous``'s, when ``previous``'s
        segments lead this one's (the same objects) and neither snapshot
        quarantined a segment or rolled back a manifest; else ``None``."""
        if previous is None or previous.manifest is None or self.manifest is None:
            return None
        if previous.quarantined or self.quarantined or self.rolled_back:
            return None
        lead = self._segments[: previous.n_segments]
        if len(lead) < previous.n_segments or any(
            mine is not theirs for mine, theirs in zip(lead, previous._segments)
        ):
            return None
        return self._segments[previous.n_segments:]

    @staticmethod
    def _segment_mismatch(segment: _Segment, manifest: Dict) -> Optional[str]:
        if segment.layout != manifest["layout"]:
            return f"layout {segment.layout!r} != {manifest['layout']!r}"
        if segment.alphabet_size != int(manifest["alphabet_size"]):
            return (
                f"alphabet {segment.alphabet_size} != {manifest['alphabet_size']}"
            )
        ids = manifest.get("ids")
        if ids and segment.ids != ids:
            return "meter ids differ from the manifest's"
        return None

    def close(self) -> None:
        """Release this snapshot's segments; a segment another snapshot
        still holds stays open.  Closing twice does nothing."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "SymbolStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sizes -------------------------------------------------------------------

    @property
    def segments(self) -> List[_Segment]:
        """The healthy segments of this snapshot, in commit order."""
        return list(self._segments)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_meters(self) -> int:
        """Number of stored columns (meters, or day-vector rows)."""
        return len(self.ids)

    @property
    def n_symbols(self) -> int:
        """Total symbol count across all columns."""
        return int(self.counts.sum())

    @property
    def payload_nbytes(self) -> int:
        """Bytes of packed symbol payload (incl. RLE run lengths)."""
        return sum(seg.payload_nbytes for seg in self._segments)

    @property
    def file_nbytes(self) -> int:
        """Bytes of every segment file (payload + headers + magics)."""
        return sum(seg.file_nbytes for seg in self._segments)

    @property
    def checksummed(self) -> bool:
        """Whether every segment carries payload checksums (format v2)."""
        return all(seg.checksummed for seg in self._segments)

    # -- tables ------------------------------------------------------------------

    @property
    def tables(self):
        """First segment's tables if all agree, else the flattened pool.

        A drifted store (different table epochs per segment) returns the
        pool, which :func:`~repro.query.ops.resolve_shared_table` then
        collapses when all entries are equal and loudly refuses otherwise.
        """
        pools = [seg.tables for seg in self._segments]
        if not pools:
            return None
        if any(pool is None for pool in pools):
            return None
        head = pools[0]
        if all(pool == head for pool in pools[1:]):
            return head
        flat: List[LookupTable] = []
        for pool in pools:
            if isinstance(pool, LookupTable):
                flat.append(pool)
            elif isinstance(pool, dict):
                flat.extend(pool.values())
            else:
                flat.extend(pool)
        return flat

    @property
    def shared_table(self) -> Optional[LookupTable]:
        """The single global table, if this store has one."""
        tables = self.tables
        return tables if isinstance(tables, LookupTable) else None

    # -- reading -----------------------------------------------------------------

    def _column(self, meter) -> int:
        try:
            return self._id_index[meter]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise StoreError(f"no column {meter!r} in {self.path.name}") from None

    def _resolve_meters(self, meters) -> List[int]:
        if meters is None:
            return list(range(self.n_meters))
        return [self._column(meter) for meter in meters]

    def _spans(self, start: int, stop: int, column: int):
        """``(segment, lo, hi)`` per segment holding windows ``[start, stop)``.

        Widths come from ``column``; every column of a directory segment has
        the same width, and a bare file is one segment.
        """
        offset = 0
        for segment in self._segments:
            width = int(segment.counts[column])
            lo, hi = max(start - offset, 0), min(stop - offset, width)
            if hi > lo:
                yield segment, lo, hi
            offset += width

    def _read(self, columns: Optional[Sequence[int]], window_range,
              values: bool = False) -> np.ndarray:
        """Symbols of column positions ``columns`` (``None`` = all) over
        ``window_range``, with one :func:`read_spans` call across the
        segments holding the window.

        ``values=True`` returns reconstruction values instead: each
        segment's slice maps through that segment's own tables, so a table
        epoch cut by drift decodes as it was encoded.
        """
        cols = (
            np.arange(self.n_meters, dtype=np.int64) if columns is None
            else np.asarray(columns, dtype=np.int64)
        )
        dtype = np.float64 if values else np.int64
        if not cols.size:
            return np.empty((0, 0), dtype=dtype)
        counts = self.counts[cols]
        if np.any(counts != counts[0]):
            raise StoreError(
                "columns have different symbol counts; read them one by one "
                "with indices()"
            )
        start, stop = _window_bounds(int(counts[0]), window_range)
        spans = list(self._spans(start, stop, int(cols[0])))
        if not spans:
            return np.empty((cols.size, max(0, stop - start)), dtype=dtype)
        for segment, _, _ in spans:
            segment.reads.inc()
        matrix = read_spans(spans, cols)
        if not values:
            return matrix
        out = np.empty(matrix.shape, dtype=np.float64)
        at = 0
        for segment, lo, hi in spans:
            out[:, at: at + hi - lo] = segment.values(matrix[:, at: at + hi - lo], cols)
            at += hi - lo
        return out

    def indices(self, meter, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Symbol indices ``[start, stop)`` of one column, across segments."""
        return self._read([self._column(meter)], (start, stop))[0]

    def matrix(
        self,
        meters: Optional[Sequence] = None,
        window_range: Optional[tuple] = None,
    ) -> np.ndarray:
        """Index matrix ``(len(meters), windows)`` for equal-length columns."""
        columns = None if meters is None else self._resolve_meters(meters)
        return self._read(columns, window_range)

    def matrix_block(
        self,
        start: int,
        stop: int,
        window_range: Optional[tuple] = None,
    ) -> np.ndarray:
        """Index matrix of the contiguous column block ``[start, stop)``.

        The block-granular read unit of the query layer's
        :class:`~repro.query.ops.ColumnSource`: dense segments read the
        block as a strided view of their payload, RLE blocks expand run by
        run.
        """
        start = max(0, int(start))
        stop = min(int(stop), self.n_meters)
        if stop <= start:
            return np.empty((0, 0), dtype=np.int64)
        return self._read(np.arange(start, stop), window_range)

    def runs(self, meter) -> tuple:
        """``(run_values, run_lengths)`` of one column: a one-column :meth:`runs_block`."""
        runs = self.runs_block([self._column(meter)])
        return runs.values, runs.run_lengths

    def runs_block(self, columns: Sequence[int]) -> RLERuns:
        """Runs of the column positions ``columns``, in order, as one flat block.

        Each segment reads the block once.  A bare file or a one-segment
        store hands out its segment's runs; a many-segment store decodes
        the block into one wide matrix, whose :meth:`RLERuns.from_matrix`
        pass makes a run that continues across a segment boundary one
        logical run.
        """
        cols = np.asarray(columns, dtype=np.int64).reshape(-1)
        if len(self._segments) != 1:
            return RLERuns.from_matrix(self._read(cols, None))
        return self._segments[0].runs_block(cols)

    def run_blocks(
        self, columns: Sequence[int]
    ) -> Iterator[Tuple[Sequence[int], RLERuns]]:
        """``(block, runs_block(block))`` over ``columns`` in blocks of at
        most ``_Segment._RUN_SCAN_BLOCK`` column positions, so memory holds
        one block, never the whole request."""
        step = _Segment._RUN_SCAN_BLOCK
        for start in range(0, len(columns), step):
            block = columns[start: start + step]
            yield block, self.runs_block(block)

    def decode(
        self,
        meters: Optional[Sequence] = None,
        day_range: Optional[tuple] = None,
        window_range: Optional[tuple] = None,
    ) -> np.ndarray:
        """Reconstruction values for a meter/day slice, straight off disk.

        ``day_range=(d0, d1)`` selects whole days via the store's
        ``windows_per_day`` metadata; ``window_range`` selects raw window
        columns.  Each segment decodes with *its* epoch's tables, so a
        segment committed after a drift rebuild reconstructs what the online
        encoder produced at ingest time — bit-identical to
        ``FleetEncoder.decode`` on the same indices.
        """
        if day_range is not None:
            if window_range is not None:
                raise StoreError("pass day_range or window_range, not both")
            per_day = self.metadata.get("windows_per_day")
            if not per_day:
                raise StoreError(
                    "store has no windows_per_day metadata; use window_range"
                )
            day_start, day_stop = day_range
            window_range = (
                int(day_start) * int(per_day), int(day_stop) * int(per_day)
            )
        columns = None if meters is None else self._resolve_meters(meters)
        return self._read(columns, window_range, values=True)

    def day_vectors(self):
        """Rebuild the classification :class:`~repro.ml.dataset.MLDataset`.

        Only valid for stores written from day vectors (``metadata["kind"]
        == "day_vectors"``); the result is bit-identical to the
        ``build_day_vectors`` output the store was written from.
        """
        from ..ml.dataset import Attribute, MLDataset

        if self.metadata.get("kind") != "day_vectors":
            raise StoreError(
                f"{self.path.name} is not a day-vector store "
                f"(kind={self.metadata.get('kind')!r})"
            )
        if self.labels is None:
            raise StoreError("day-vector store has no labels")
        words = tuple(self.metadata["categories"])
        attributes = [
            Attribute.nominal(name, words)
            for name in self.metadata["attribute_names"]
        ]
        matrix = self.matrix().astype(np.float64)
        return MLDataset(
            attributes, matrix, list(self.labels),
            class_names=self.metadata.get("class_names"),
        )

    # -- verification ------------------------------------------------------------

    def verify(self, strict: bool = True) -> Dict:
        """Checksum-verify every segment; aggregate the per-segment reports.

        Verified columns are cached, so a clean ``verify()`` makes all
        subsequent reads checksum-free.  With ``strict`` the first failure
        raises instead of being listed under ``errors``.
        """
        found = verify_segments(self._segments)
        segment_reports = [
            segment._report(seg_errors, strict=False)
            for segment, seg_errors in zip(self._segments, found)
        ]
        errors = [error for seg_errors in found for error in seg_errors]
        report = {
            "path": str(self.path),
            "generation": self.generation,
            "checksummed": self.checksummed,
            "segments": segment_reports,
            "quarantined": list(self.quarantined),
            "errors": errors,
            "ok": not errors,
        }
        if strict and errors:
            raise errors[0]
        return report

    def __repr__(self) -> str:
        return (
            f"SymbolStore({self.path.name!r}, gen={self.generation}, "
            f"segments={self.n_segments}, layout={self.layout}, "
            f"k={self.alphabet_size}, meters={self.n_meters}, "
            f"symbols={self.n_symbols}, quarantined={len(self.quarantined)})"
        )


#: The same class under the name the segmented-store API introduced.
SegmentedStore = SymbolStore


# -- writers ---------------------------------------------------------------------


def create_segmented_store(
    directory: Union[str, Path],
    alphabet_size: int,
    layout: str = DENSE,
    metadata: Optional[Dict] = None,
    ids: Optional[Sequence] = None,
) -> SymbolStore:
    """Initialise an empty segmented store (manifest generation 1)."""
    directory = Path(directory)
    if layout not in (DENSE, RLE):
        raise StoreError(f"layout must be {DENSE!r} or {RLE!r}, got {layout!r}")
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "generation": 1,
        "alphabet_size": int(alphabet_size),
        "layout": layout,
        "ids": list(ids) if ids is not None else None,
        "metadata": dict(metadata or {}),
        "segments": [],
    }
    with _writer_lock(directory):
        if _generations(directory):
            raise StoreError(
                f"{directory} already holds a segmented store; open it or "
                f"append instead of re-creating"
            )
        _write_manifest(directory, manifest)
    return SymbolStore.open(directory)


def append_segment(
    directory: Union[str, Path],
    indices: np.ndarray,
    tables: Union[LookupTable, Sequence[LookupTable], None] = None,
    workers: int = 1,
    reason: str = "append",
    key: Optional[str] = None,
) -> SegmentRecord:
    """Append one immutable segment and commit a new manifest generation.

    ``indices`` is the ``(n_meters, windows)`` symbol matrix of the appended
    span, row order matching the manifest's meter ids (the first append on an
    id-less store pins positional ids ``0..n-1``).  ``tables`` is the shared
    :class:`LookupTable` of the span, one table per meter, or ``None``.

    ``key`` makes the append idempotent: the committed reason is
    ``f"{reason}:key={key}"``, and when the manifest read under the writer
    lock already holds that reason, the call returns its record with
    ``duplicate`` set and writes nothing, so one key commits once however
    many processes send it.

    Commit protocol: the segment file lands first (its own temp → fsync →
    rename), then the manifest; a crash between the two leaves an orphan
    segment the previous snapshot never references.  Sequence numbers come
    from the manifest, so a retry atomically overwrites the orphan.
    Packed bytes are pure per-row work merged in task order —
    the file is byte-identical for every ``workers`` count.
    """
    from ..parallel.executor import ParallelExecutor
    from ..parallel.worker import StoreShardTask
    from .fleet import _meter_shards, _write_shards

    directory = Path(directory)
    if key is not None:
        reason = f"{reason}:key={key}"
    with _writer_lock(directory):
        manifest, _, _ = _select_manifest(directory)
        generation = int(manifest["generation"])
        for data in manifest.get("segments", []):
            if key is not None and data.get("reason") == reason:
                return replace(SegmentRecord.from_dict(data),
                               generation=generation, duplicate=True)
        matrix = np.asarray(indices, dtype=np.int64)
        if matrix.ndim != 2:
            raise StoreError(f"expected a 2-D (meters, windows) matrix, got {matrix.shape}")
        ids = manifest.get("ids")
        if ids is None:
            ids = list(range(matrix.shape[0]))
        if matrix.shape[0] != len(ids):
            raise StoreError(
                f"segment has {matrix.shape[0]} rows for {len(ids)} manifest ids"
            )
        layout = manifest["layout"]
        alphabet_size = int(manifest["alphabet_size"])
        known = [
            int(_SEGMENT_RE.match(rec["name"]).group(1))
            for rec in manifest.get("segments", [])
            if _SEGMENT_RE.match(rec["name"])
        ]
        sequence = max(known) + 1 if known else 0
        start_window = sum(int(rec["windows"]) for rec in manifest.get("segments", []))
        name = _segment_name(sequence)
        if tables is not None and not isinstance(tables, LookupTable):
            tables = list(tables)
            if len(tables) == 1:
                tables = tables[0]
            elif len(tables) != len(ids):
                raise StoreError(f"{len(tables)} tables for {len(ids)} meters")

        seg_meta = dict(manifest.get("metadata") or {})
        seg_meta.update({"segment": name, "start_window": int(start_window),
                         "reason": reason})
        bits = bits_for_alphabet(alphabet_size)
        with ParallelExecutor(workers) as executor:
            tasks = [
                StoreShardTask(matrix[lo:hi], bits, layout)
                for lo, hi in _meter_shards(matrix.shape[0], executor.workers)
            ]
            _write_shards(
                directory / name, executor, tasks, ids, alphabet_size, layout,
                tables, seg_meta,
            )
        seg_path = directory / name
        record = SegmentRecord(
            name=name,
            file_nbytes=seg_path.stat().st_size,
            crc32c=crc32c_hex(_file_crc32c(seg_path)),
            n_columns=matrix.shape[0],
            windows=matrix.shape[1],
            start_window=start_window,
            n_symbols=int(matrix.size),
            reason=reason,
            generation=generation + 1,
        )
        faults.checkpoint("segments.before_manifest")
        manifest = dict(manifest)
        manifest["generation"] = record.generation
        manifest["ids"] = list(ids)
        manifest["segments"] = list(manifest.get("segments", [])) + [record.to_dict()]
        _write_manifest(directory, manifest)
    metrics = _obs_registry()
    metrics.counter(
        "store.segment_commits_total",
        "Segments durably committed (segment file + manifest generation)",
    ).inc()
    metrics.counter(
        "store.windows_committed_total", "Windows committed across segments",
    ).inc(int(matrix.shape[1]))
    return record


def write_segmented_fleet(
    directory: Union[str, Path],
    values: np.ndarray,
    alphabet_size: int = 8,
    method: str = "median",
    window: int = 1,
    aggregator: str = "average",
    reconstruction: str = "center",
    layout: str = DENSE,
    meter_ids: Optional[Sequence] = None,
    segment_windows: Optional[int] = None,
    workers: int = 1,
    sampling_interval: Optional[float] = None,
    metadata: Optional[Dict] = None,
) -> SymbolStore:
    """Fit, encode and persist a fleet as a segmented store.

    The single shared table is fitted over the *whole* array (identical
    separators to :func:`~repro.store.fleet.write_fleet_store`), then the
    window axis is cut into spans of ``segment_windows`` and each span is
    committed as one segment — the batch analogue of day-by-day ingestion.
    """
    from ..pipeline.fleet import _FleetSpec
    from .fleet import _fleet_metadata

    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise StoreError(f"expected a 2-D (meters, samples) array, got {values.shape}")
    if values.shape[0] == 0:
        raise StoreError("cannot write a store for an empty fleet")
    ids = list(meter_ids) if meter_ids is not None else list(range(values.shape[0]))
    if len(ids) != values.shape[0]:
        raise StoreError(f"{len(ids)} meter ids for {values.shape[0]} meters")
    spec = _FleetSpec(
        alphabet_size=int(alphabet_size), method=method, window=int(window),
        aggregator=aggregator, reconstruction=reconstruction,
    )
    encoder = spec.encoder(shared_table=True).fit(values)
    indices = encoder.encode(values)
    meta = _fleet_metadata(
        spec, True, values.shape[1], sampling_interval, metadata
    )
    create_segmented_store(
        directory, alphabet_size=int(alphabet_size), layout=layout,
        metadata=meta, ids=ids,
    )
    width = indices.shape[1]
    span = int(segment_windows) if segment_windows else width
    span = max(1, span)
    for start in range(0, width, span):
        append_segment(
            directory, indices[:, start: start + span],
            tables=encoder.shared, workers=workers,
        )
    if width == 0:
        append_segment(directory, indices, tables=encoder.shared, workers=workers)
    return SymbolStore.open(directory)


# -- opening ---------------------------------------------------------------------


def open_store(
    path: Union[str, Path],
    mmap: bool = True,
    prefetch: bool = True,
    verify: str = "lazy",
) -> SymbolStore:
    """Open a store by path: a ``.rsyms`` directory or a bare ``.rsym`` file."""
    return SymbolStore.open(path, mmap=mmap, prefetch=prefetch, verify=verify)


def snapshot_stamp(path: Union[str, Path]):
    """What is committed at ``path`` now, read without opening the store.

    A directory's newest manifest generation (``-1`` when it has none), or a
    bare file's ``(mtime_ns, size)``: a reader holding an older stamp knows
    its snapshot is stale.
    """
    path = Path(path)
    if path.is_dir():
        generations = _generations(path)
        return generations[0] if generations else -1
    stat = path.stat()
    return (stat.st_mtime_ns, stat.st_size)


# -- scrub: verify + garbage-collect + repair ------------------------------------


@dataclass
class ScrubReport:
    """What a scrub pass found (and, with ``repair``, did)."""

    path: str
    generation: Optional[int] = None
    repair: bool = False
    segments_checked: int = 0
    bytes_checked: int = 0
    corrupt_segments: List[Tuple[str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    invalid_manifests: List[str] = field(default_factory=list)
    pruned_manifests: List[str] = field(default_factory=list)
    orphan_segments: List[str] = field(default_factory=list)
    stale_temps: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    new_generation: Optional[int] = None

    @property
    def ok(self) -> bool:
        """No damage and nothing left to garbage-collect."""
        return not (
            self.corrupt_segments or self.invalid_manifests
            or self.orphan_segments or self.stale_temps
        )

    def lines(self) -> List[str]:
        """Human-readable summary (what the CLI prints)."""
        out = [
            f"scrub {self.path}: "
            f"{self.segments_checked} segment(s), "
            f"{self.bytes_checked} bytes checksummed"
        ]
        if self.generation is not None:
            out[0] += f", generation {self.generation}"
        for name, error in self.corrupt_segments:
            out.append(f"  corrupt: {name}: {error}")
        for name in self.invalid_manifests:
            out.append(f"  invalid manifest: {name}")
        for name in self.orphan_segments:
            out.append(f"  orphan segment: {name}")
        for name in self.stale_temps:
            out.append(f"  stale temp: {name}")
        if self.repair:
            for name in self.quarantined:
                out.append(f"  quarantined -> {_QUARANTINE_DIR}/{name}")
            for name in self.removed:
                out.append(f"  removed: {name}")
            if self.new_generation is not None:
                out.append(f"  committed generation {self.new_generation}")
        out.append("  status: " + ("clean" if self.ok else "damage found"))
        return out


def _scrub_file(path: Path, repair: bool) -> ScrubReport:
    """Scrub a single ``.rsym`` file (verify + sibling-temp GC)."""
    report = ScrubReport(path=str(path), repair=repair)
    try:
        with SymbolStore.open(path, verify="off") as store:
            result = store.verify(strict=False)
            report.segments_checked = 1
            report.bytes_checked = store.payload_nbytes
            for error in result["errors"]:
                report.corrupt_segments.append((path.name, str(error)))
    except StoreError as exc:
        report.corrupt_segments.append((path.name, str(exc)))
    temp = path.with_name(path.name + ".tmp")
    if temp.exists():
        report.stale_temps.append(temp.name)
        if repair:
            try:
                temp.unlink()
                report.removed.append(temp.name)
            except OSError:
                pass
    return report


def scrub_store(
    path: Union[str, Path],
    repair: bool = False,
    keep_generations: Optional[int] = None,
) -> ScrubReport:
    """Verify every checksum and garbage-collect the wreckage of crashes.

    Read-only by default: reports corrupt segments, invalid manifests,
    orphan segments (committed but never referenced — the crash-between-
    segment-and-manifest residue) and stale ``*.tmp`` files.  With
    ``repair=True`` it removes temps, orphans and invalid manifests, moves
    corrupt segments into ``quarantine/`` and — when segments were
    quarantined — commits a new manifest generation without them, so
    subsequent opens are warning-free.  ``keep_generations`` additionally
    prunes old valid manifests beyond the newest N.

    Accepts a single ``.rsym`` file too (verify + sibling-temp cleanup), so
    ``repro store scrub`` works on either store kind.
    """
    path = Path(path)
    if path.is_file():
        return _scrub_file(path, repair)
    if not path.is_dir():
        raise StoreError(f"no such store: {path}")
    # A repair is a writer: it must not delete an append's segment before
    # that append commits, nor commit over a generation it did not read.
    with _writer_lock(path) if repair else nullcontext():
        report = ScrubReport(path=str(path), repair=repair)

        manifests = _manifest_paths(path)
        if not manifests:
            raise StoreError(f"{path} holds no manifest: not a segmented store")
        valid: List[Tuple[int, Path, Dict]] = []
        for generation, manifest_path in manifests:
            try:
                valid.append((generation, manifest_path, _load_manifest(manifest_path)))
            except CorruptStoreError:
                report.invalid_manifests.append(manifest_path.name)
                if repair:
                    try:
                        manifest_path.unlink()
                        report.removed.append(manifest_path.name)
                    except OSError:
                        pass
        if not valid:
            raise CorruptStoreError(
                f"{path}: every manifest is damaged; nothing to serve",
                path=path, check="manifest_crc", hint="bit-rot",
            )
        generation, _, manifest = valid[0]
        report.generation = generation
        # Never reuse a generation number, even one an *invalid* manifest burned.
        next_generation = manifests[0][0] + 1

        # Names any surviving manifest still references must not be GC'd: an old
        # generation may legitimately be rolled back to.
        live_names = {
            rec["name"] for _, _, m in valid for rec in m.get("segments", [])
        }

        healthy: List[Dict] = []
        for rec in manifest.get("segments", []):
            record = SegmentRecord.from_dict(rec)
            seg_path = path / record.name
            error: Optional[str] = None
            try:
                actual_nbytes = seg_path.stat().st_size
                if actual_nbytes != record.file_nbytes:
                    error = (
                        f"{actual_nbytes} bytes on disk, manifest records "
                        f"{record.file_nbytes}"
                    )
                else:
                    actual_crc = crc32c_hex(_file_crc32c(seg_path))
                    if actual_crc != record.crc32c:
                        error = (
                            f"whole-file crc32c {actual_crc} != recorded "
                            f"{record.crc32c}"
                        )
                    else:
                        with SymbolStore.open(seg_path, verify="off") as store:
                            result = store.verify(strict=False)
                        if result["errors"]:
                            error = "; ".join(str(e) for e in result["errors"])
                report.segments_checked += 1
                report.bytes_checked += record.file_nbytes
            except (StoreError, OSError) as exc:
                error = str(exc)
                report.segments_checked += 1
            if error is None:
                healthy.append(rec)
                continue
            report.corrupt_segments.append((record.name, error))
            if repair:
                quarantine = path / _QUARANTINE_DIR
                quarantine.mkdir(exist_ok=True)
                try:
                    seg_path.replace(quarantine / record.name)
                    report.quarantined.append(record.name)
                except OSError:
                    pass  # already gone (e.g. quarantined by an earlier pass)
                live_names.discard(record.name)

        # Orphans: committed segment files no surviving manifest references.
        for entry in sorted(path.iterdir()):
            if _SEGMENT_RE.match(entry.name) and entry.name not in live_names:
                if any(entry.name == name for name, _ in report.corrupt_segments):
                    continue
                report.orphan_segments.append(entry.name)
                if repair:
                    try:
                        entry.unlink()
                        report.removed.append(entry.name)
                    except OSError:
                        pass
            elif entry.name.endswith(".tmp"):
                report.stale_temps.append(entry.name)
                if repair:
                    try:
                        entry.unlink()
                        report.removed.append(entry.name)
                    except OSError:
                        pass

        if repair and report.corrupt_segments:
            new_manifest = dict(manifest)
            new_manifest["generation"] = next_generation
            new_manifest["segments"] = healthy
            _write_manifest(path, new_manifest)
            report.new_generation = next_generation

        if repair and keep_generations is not None and keep_generations >= 1:
            survivors = _manifest_paths(path)
            for _, manifest_path in survivors[int(keep_generations):]:
                try:
                    manifest_path.unlink()
                    report.pruned_manifests.append(manifest_path.name)
                    report.removed.append(manifest_path.name)
                except OSError:
                    pass
    metrics = _obs_registry()
    metrics.counter(
        "store.scrub_runs_total", "scrub_store invocations on directories",
    ).inc()
    metrics.counter(
        "store.scrub_bytes_checked_total", "Bytes checksum-verified by scrub",
    ).inc(int(report.bytes_checked))
    if report.quarantined:
        metrics.counter(
            "store.quarantined_segments_total",
            "Segments quarantined at open or by scrub",
        ).inc(len(report.quarantined))
    return report
