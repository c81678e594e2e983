"""Scalar-engine reference records for the benchmark's cells.

Every cell's result record (``result_to_record``; ``to_dict`` for
datacenter cells) was computed once with ``engine="scalar"`` — the
simulator's reference engine — and stored under ``reference/`` for a
range of seeds.  Each benchmark run compares the records its cells
return against these.  For a seed outside the stored range the runner
computes the scalar records itself, after the timed region.

Regenerate (after changing a workload in ``workloads.py``)::

    python3 perfbench/reference.py --workload populate --seeds 0-31
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def canonical(record) -> object:
    """The JSON form a record compares and hashes in (int keys → str)."""
    return json.loads(json.dumps(record, sort_keys=True))


def record_of(result) -> Dict[str, object]:
    """A cell result's comparable record."""
    from repro.sim.datacenter import DatacenterResult
    from repro.sim.results import result_to_record

    if isinstance(result, DatacenterResult):
        return canonical(result.to_dict())
    return canonical(result_to_record(result))


def digest(records: Dict[str, object]) -> str:
    """SHA-256 over a pass's records, keyed by cell label."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_cell(engine, inputs, cell, scalar: bool = False):
    """Run one cell through ``engine`` (``SweepEngine``) and return its result."""
    overrides = dict(inputs.workload.overrides)
    if scalar:
        overrides["engine"] = "scalar"
    return engine.run_cells(inputs.workload.kind, inputs.settings, [cell], overrides)[cell]


def compute(inputs) -> Dict[str, object]:
    """Every cell's record under the scalar engine."""
    from repro.experiments.engine import SweepEngine

    engine = SweepEngine(jobs=1)
    return {
        label: record_of(run_cell(engine, inputs, cell, scalar=True))
        for label, cell in inputs.cells
    }


def _path(workload_name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload_name}.json")


def load_stored(workload, seed: int) -> Optional[Dict[str, object]]:
    """Stored records for ``seed``, or None when that seed is not stored.

    Raises ``ValueError`` when the file was made for a different
    workload definition: its records would all mismatch.
    """
    try:
        with open(_path(workload.name), "r", encoding="utf-8") as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        return None
    if stored["fingerprint"] != canonical(workload.fingerprint()):
        raise ValueError(
            f"reference/{workload.name}.json was made for another definition "
            f"of the workload; regenerate it with perfbench/reference.py"
        )
    return stored["seeds"].get(str(seed))


def _store(workload, seed: int, records: Dict[str, object]) -> None:
    path = _path(workload.name)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        stored = {"fingerprint": canonical(workload.fingerprint()), "seeds": {}}
    if stored["fingerprint"] != canonical(workload.fingerprint()):
        stored = {"fingerprint": canonical(workload.fingerprint()), "seeds": {}}
    stored["seeds"][str(seed)] = records
    stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def _seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    """Compute and store scalar reference records for a seed range."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".ref-") as scratch:
        for seed in _seed_range(args.seeds):
            records = compute(prepare(workload, seed, scratch))
            _store(workload, seed, records)
            print(f"{workload.name} seed {seed}: {digest(records)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
