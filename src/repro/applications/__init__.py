"""Applications of hashing beyond page tables.

Section IX compares ME-HPT against Level Hashing:

* :mod:`repro.applications.level_hashing` — a faithful Level Hashing
  table for the Section IX comparison: ~1/3 of entries moved per resize
  but 4 probes per lookup, versus ME-HPT's 1/2 moves at W probes.
"""

from repro.applications.level_hashing import LevelHashTable

__all__ = ["LevelHashTable"]
