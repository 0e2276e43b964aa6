"""Persisting experiment traces.

Long runs (the Section 5 scale-up sweeps) are expensive; this module
serializes :class:`~repro.sim.runner.EpochRecord` sequences — plus
arbitrary metadata — to JSON so results can be archived, diffed across
model revisions, and re-plotted without re-simulating.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.sim.runner import EpochRecord

#: Format version written into every trace file.
TRACE_VERSION = 1

#: Tuple-typed record fields, which JSON brings back as lists.
_TUPLE_FIELDS = (
    "moved_ues",
    "cells",
    "per_cell_aggregate_mbps",
    "per_cell_min_mbps",
    "ue_counts",
)


def save_records(
    path: "str | Path",
    records: Sequence[EpochRecord],
    metadata: Optional[Dict] = None,
) -> None:
    """Write epoch records (and metadata) as a JSON trace file."""
    payload = {
        "version": TRACE_VERSION,
        "metadata": dict(metadata or {}),
        "records": [asdict(r) for r in records],
    }
    Path(path).write_text(json.dumps(payload, indent=2, default=_coerce))


def _coerce(obj):
    """JSON fallback for numpy scalars and tuples."""
    if hasattr(obj, "item"):
        return obj.item()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_records(path: "str | Path"):
    """Read a trace file back into (records, metadata).

    Raises
    ------
    ValueError
        If the file's format version is unknown.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r}")
    records: List[EpochRecord] = []
    for row in payload["records"]:
        row = dict(row)
        row.setdefault("moved_ues", ())
        for key in _TUPLE_FIELDS:
            if row.get(key) is not None:
                row[key] = tuple(row[key])
        # Retired field: traces written while the controller had two
        # epoch pipelines record which one ran.
        row.pop("streamed", None)
        records.append(EpochRecord(**row))
    return records, payload.get("metadata", {})
