"""Generic hashing substrate: hash families, storages, elastic cuckoo tables.

This package implements the hash-table machinery that both the ECPT
baseline and the ME-HPT contribution are built on, exactly as the paper
factors it (Sections II-B and IV):

* :mod:`repro.hashing.hashes` — CRC and 64-bit-mix hash families, one
  independent function per cuckoo way.
* :mod:`repro.hashing.storage` — slot storage: contiguous regions (the
  ECPT layout that needs one large allocation per way) and chunked regions
  (the ME-HPT layout behind an L2P-style chunk budget).
* :mod:`repro.hashing.cuckoo` — the W-way elastic cuckoo table with
  gradual resizing via rehash pointers, supporting out-of-place resizes
  (ECPT) and in-place resizes with the one-extra-hash-bit rule (ME-HPT).
* :mod:`repro.hashing.policies` — when/what to resize: all-way (ECPT) or
  per-way with the balance rule and weighted-random insertion (ME-HPT).
"""

from repro.hashing.cuckoo import ElasticCuckooTable, ElasticWay, TableStats
from repro.hashing.hashes import HashFamily, crc32c, mix64
from repro.hashing.policies import AllWayResizePolicy, PerWayResizePolicy, ResizePolicy
from repro.hashing.storage import (
    ChunkBudget,
    ChunkedStorage,
    ContiguousStorage,
    Storage,
    UnlimitedChunkBudget,
)

__all__ = [
    "HashFamily",
    "crc32c",
    "mix64",
    "Storage",
    "ContiguousStorage",
    "ChunkedStorage",
    "ChunkBudget",
    "UnlimitedChunkBudget",
    "ElasticCuckooTable",
    "ElasticWay",
    "TableStats",
    "ResizePolicy",
    "AllWayResizePolicy",
    "PerWayResizePolicy",
]
