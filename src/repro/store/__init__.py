"""Out-of-core bit-packed symbol storage (the ``.rsym`` store).

The paper's Section 2.3 argues a day of 1 Hz doubles (~680 kB) collapses to
a few hundred bits once symbolised; until this subpackage, the repo only
*computed* that ratio (:class:`~repro.core.compression.CompressionModel`)
while the data plane still round-tripped float64 CSVs.  ``repro.store``
stores the symbols themselves:

:mod:`repro.store.packing`
    Vectorized ``ceil(log2(k))``-bits-per-symbol pack/unpack kernels
    (shift-mask broadcasts + ``np.packbits``; no Python loops), including
    lazy slice decoding at arbitrary symbol offsets.

:class:`SymbolStoreWriter` (:mod:`repro.store.format`)
    The columnar on-disk format: streamed column writes with a zip-style
    trailing header, dense and RLE payloads
    (:class:`~repro.pipeline.stages.RLERuns` persisted flat), serialized
    lookup tables riding along so every file decodes on its own.  The same
    module holds the private per-file segment reader: header validation,
    CRC32C verification and memory-mapped column reads by position.

:class:`SymbolStore` / :func:`open_store` (:mod:`repro.store.segments`)
    The one store type.  A ``.rsyms`` directory of immutable checksummed
    segments opens from its versioned, atomically committed manifest; a
    bare ``.rsym`` file opens as a manifest-less, one-segment view of the
    same class.  Column assembly across segments, boundary run merging,
    per-segment table decode, ``verify`` and ``day_vectors`` exist once, so
    no reader asks which kind it holds.  ``SegmentedStore`` is the same
    class under its older name.  :func:`append_segment` and
    :func:`scrub_store` are the crash-safe append and repair paths.

:func:`write_fleet_store` (:mod:`repro.store.fleet`)
    Shard-by-shard fleet persistence through a ``ParallelExecutor``, with
    byte-identical files for every worker count; segment appends pack
    through the same shard task and write path.

:mod:`repro.store.day_vectors`
    Table 1's classification tables as packed stores —
    ``SymbolStore.day_vectors()`` feeds :class:`~repro.ml.dataset.MLDataset`
    straight from packed columns, so grid cells sharing an encoding read
    one store instead of re-encoding the fleet.

:mod:`repro.store.ingest`
    :class:`FleetIngestor` streams
    :class:`~repro.core.streaming.OnlineEncoder` fleets into a segmented
    store with drift-triggered segment cuts.

:mod:`repro.store.checksum` / :mod:`repro.store.faults`
    CRC32C (pure numpy, lane-parallel) covering every payload byte, and the
    fault-injection seam (torn writes, crashes, disk-full) the durability
    tests drive the writers through.
"""

from .packing import (
    bits_for_alphabet,
    pack_indices,
    packed_nbytes,
    slice_byte_window,
    symbol_dtype,
    unpack_indices,
    unpack_slice,
)
from .format import DENSE, RLE, SymbolStoreWriter
from .segments import (
    ScrubReport,
    SegmentRecord,
    SegmentedStore,
    SymbolStore,
    append_segment,
    create_segmented_store,
    open_store,
    scrub_store,
    snapshot_stamp,
    write_segmented_fleet,
)
from .fleet import write_fleet_store
from .day_vectors import (
    day_vector_store_path,
    load_day_vectors,
    store_from_ml_dataset,
    write_day_vector_store,
)
from .checksum import crc32c, crc32c_combine, crc32c_hex
from .ingest import FleetIngestor

__all__ = [
    "DENSE",
    "RLE",
    "FleetIngestor",
    "ScrubReport",
    "SegmentRecord",
    "SegmentedStore",
    "SymbolStore",
    "SymbolStoreWriter",
    "append_segment",
    "bits_for_alphabet",
    "crc32c",
    "crc32c_combine",
    "crc32c_hex",
    "create_segmented_store",
    "day_vector_store_path",
    "load_day_vectors",
    "open_store",
    "pack_indices",
    "packed_nbytes",
    "scrub_store",
    "slice_byte_window",
    "snapshot_stamp",
    "store_from_ml_dataset",
    "symbol_dtype",
    "unpack_indices",
    "unpack_slice",
    "write_day_vector_store",
    "write_fleet_store",
    "write_segmented_fleet",
]
