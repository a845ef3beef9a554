"""An ordered, prefix-seekable key-value store (the RocksDB stand-in).

AeonG persists its historical graph data in RocksDB.  This package
provides the subset of RocksDB behaviour the paper's design relies on:

- byte-string keys kept in globally sorted order, so that all versions
  of one graph object (which share a key prefix) are physically
  clustered and version-sorted (paper section 4.2);
- ``seek``-style iterators for finding the nearest anchor record;
- atomic write batches, used by ``Migrate()`` (Algorithm 1) to install
  a whole garbage-collection epoch at once;
- byte-accurate size accounting for the storage-overhead experiments;
- persistence as immutable sorted runs saved with a manifest.

The implementation is a small LSM tree: an in-memory skiplist memtable
that flushes to immutable SSTable runs, with k-way merge iterators and
a simple full compaction.
"""

from repro.kvstore.api import WriteBatch
from repro.kvstore.store import KVStore

__all__ = ["KVStore", "WriteBatch"]
