"""Durable crash-safe content-addressed result store.

The persistent layer under the batch engine and the characterization
tools: benchmark results keyed by spec digest in segmented append-only
JSONL files with per-record SHA-256 checksums, atomic
rename-on-rotation, fsync-on-ack, torn-write truncation recovery,
corruption quarantine with read-repair, offline compaction, TTL /
size-budget eviction, and advisory-lock multi-process safety.

::

    from repro.store import ResultStore

    store = ResultStore("results.store")
    runner = BatchRunner(jobs=4, store=store)
    runner.run(specs)        # resubmitted specs answer from the store

See the ``nanobench store`` CLI subcommand for offline maintenance
(``stats`` / ``verify`` / ``compact`` / ``gc``).
"""

from .locking import FileLock
from .records import (
    RECORD_VERSION,
    canonical_payload,
    encode_record,
    parse_record_line,
    record_checksum,
    validate_record,
)
from .segment import (
    ACTIVE_NAME,
    CorruptLine,
    SegmentScan,
    scan_segment,
    segment_name,
    segment_number,
)
from .store import (
    DEFAULT_SEGMENT_BYTES,
    EvictionStats,
    ResultStore,
    StoreStats,
    VerifyReport,
    open_store,
    verify_store,
)

__all__ = [
    "ACTIVE_NAME",
    "CorruptLine",
    "DEFAULT_SEGMENT_BYTES",
    "EvictionStats",
    "FileLock",
    "RECORD_VERSION",
    "ResultStore",
    "SegmentScan",
    "StoreStats",
    "VerifyReport",
    "canonical_payload",
    "encode_record",
    "open_store",
    "parse_record_line",
    "record_checksum",
    "scan_segment",
    "segment_name",
    "segment_number",
    "validate_record",
    "verify_store",
]
