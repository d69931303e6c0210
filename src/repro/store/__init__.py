"""Pattern store: persistent, queryable, cache-backed pattern pools.

The subsystem that turns ephemeral ``MiningResult``s into reusable
artifacts (see the package README's "Pattern store & serving" section):

* :mod:`repro.store.format` — run metadata documents, the v1 line
  encoding (export documents, pre-binary stores) and content-hashed run ids.
* :mod:`repro.store.binfmt` — the binary run format, a run's one payload:
  checksummed packed tidset words, memory-mapped into a zero-copy matrix.
* :mod:`repro.store.store` — :class:`PatternStore`: save/load/list/delete
  runs bit-identically, plus persisted drift-report streams.
* :mod:`repro.store.index` — :class:`InvertedItemIndex`, item → pattern
  bitmask index backing the item query operators.
* :mod:`repro.store.query` — the composable :class:`Query` layer
  (contains / superset-of / min-support / min-size / top-k / distance ball).
* :mod:`repro.store.cache` — :func:`mine_cached` (dataset fingerprint +
  config hash → bit-identical cached pools) and the :class:`LRUCache` the
  serving layer reuses.
"""

from repro.store.binfmt import (
    BIN_MAGIC,
    BIN_VERSION,
    BinaryFormatError,
    BinaryRun,
    pool_image,
    read_binary_run,
    write_binary_run,
)
from repro.store.cache import CachedMine, LRUCache, mine_cached
from repro.store.format import (
    FORMAT_VERSION,
    content_run_id,
    decode_patterns,
    document_to_result,
    encode_patterns,
    read_document,
    result_to_document,
    write_document,
)
from repro.store.index import InvertedItemIndex
from repro.store.query import Query, run_query
from repro.store.store import PatternStore, StoredRun

__all__ = [
    "PatternStore",
    "StoredRun",
    "Query",
    "run_query",
    "InvertedItemIndex",
    "mine_cached",
    "CachedMine",
    "LRUCache",
    "BIN_MAGIC",
    "BIN_VERSION",
    "BinaryFormatError",
    "BinaryRun",
    "pool_image",
    "read_binary_run",
    "write_binary_run",
    "FORMAT_VERSION",
    "encode_patterns",
    "decode_patterns",
    "result_to_document",
    "document_to_result",
    "read_document",
    "write_document",
    "content_run_id",
]
