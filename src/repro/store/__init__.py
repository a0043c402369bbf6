"""Persistent RR-sketch store and influence-oracle serving layer.

The paper's §2.1 motivates PRIMA as an *influence oracle* (à la SKIM):
preprocess once, answer budget/seed/spread queries forever.  This package
supplies the missing persistence half of that split — an offline compiled
artifact plus a cheap online query phase:

* :class:`~repro.store.sketch_store.SketchStore` — the on-disk,
  memory-mapped sketch format: an :class:`~repro.rrset.rrgen.RRCollection`'s
  flat CSR arrays, inverted index, per-set widths and world cursor, plus a
  graph-fingerprint + engine-metadata header with versioned load and
  stale-store detection.
* :func:`~repro.store.builder.build_store` /
  :func:`~repro.store.builder.build_sharded` — offline construction (PRIMA
  with the full budget vector, then an independent estimation
  collection), the latter fanning RR generation across a process pool
  with per-shard ``SeedSequence`` children.  Every builder snapshots a
  live collection through
  :meth:`~repro.store.sketch_store.SketchStore.from_collection`.
* :func:`~repro.store.builder.build_comic_store` — offline construction of
  GAP-aware Com-IC sketches (format v2): the RR-SIM+/RR-CIM pipeline's
  θ-phase collection plus the forward-world bitmap and world cursor, so
  RR-SIM+/RR-CIM selections serve warm from mmap exactly like PRIMA.
* :func:`~repro.store.builder.extend_store` — incremental θ-extension: a
  loaded store grows more RR sets through the batched sampler (append to
  CSR + incremental inverted-index merge) instead of regenerating.
* :class:`~repro.store.service.OracleService` — the one influence oracle:
  seed-prefix, spread-estimation and bundleGRD-allocation queries against a
  built (in-memory) or loaded (typically memory-mapped) store.

Exposed on the command line as ``repro oracle build|extend|query``.
"""

from repro.store.builder import (
    build_comic_store,
    build_sharded,
    build_store,
    extend_store,
)
from repro.store.service import OracleService
from repro.store.sketch_store import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    SketchStore,
    SketchStoreError,
    StaleStoreError,
)

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "OracleService",
    "SketchStore",
    "SketchStoreError",
    "StaleStoreError",
    "build_comic_store",
    "build_sharded",
    "build_store",
    "extend_store",
]
