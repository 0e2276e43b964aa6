"""Tests for trace persistence."""

import json

import pytest

from repro.sim.records import TRACE_VERSION, load_records, save_records
from repro.sim.runner import EpochRecord


def _rec(i):
    return EpochRecord(
        epoch=i,
        flight_distance_m=100.0 * (i + 1),
        flight_time_s=10.0,
        cumulative_distance_m=100.0 * (i + 1),
        cumulative_time_s=10.0 * (i + 1),
        relative_throughput=0.8 + 0.01 * i,
        rem_error_db=4.0,
        moved_ues=(1, 2) if i else (),
    )


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "trace.json"
        records = [_rec(0), _rec(1)]
        save_records(path, records, metadata={"terrain": "nyc", "seed": 3})
        loaded, meta = load_records(path)
        assert loaded == records
        assert meta == {"terrain": "nyc", "seed": 3}

    def test_moved_ues_roundtrip_as_tuple(self, tmp_path):
        path = tmp_path / "trace.json"
        save_records(path, [_rec(1)])
        loaded, _ = load_records(path)
        assert loaded[0].moved_ues == (1, 2)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"version": 999, "records": []}))
        with pytest.raises(ValueError):
            load_records(path)

    def test_file_is_valid_json_with_version(self, tmp_path):
        path = tmp_path / "trace.json"
        save_records(path, [_rec(0)])
        payload = json.loads(path.read_text())
        assert payload["version"] == TRACE_VERSION
        assert len(payload["records"]) == 1

    def test_loads_v1_trace_with_retired_streamed_key(self, tmp_path):
        """Traces written while records carried ``streamed`` still load."""
        path = tmp_path / "trace.json"
        save_records(path, [_rec(0), _rec(1)])
        payload = json.loads(path.read_text())
        for row, streamed in zip(payload["records"], (False, True)):
            row["streamed"] = streamed
            row["rem_groups"] = 3 if streamed else None
        path.write_text(json.dumps(payload))
        loaded, _ = load_records(path)
        assert [r.rem_groups for r in loaded] == [None, 3]
        assert loaded[0] == _rec(0)
        assert not hasattr(loaded[0], "streamed")
