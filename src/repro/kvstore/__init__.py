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
- persistence as one checksummed sorted table saved with a manifest.

The implementation is one sorted run held in fixed-size chunks, with a
dict of the writes made since the last flush in front of it; a flush
inserts those writes into their chunks in key order.
"""

from repro.kvstore.api import WriteBatch
from repro.kvstore.store import KVStore

__all__ = ["KVStore", "WriteBatch"]
