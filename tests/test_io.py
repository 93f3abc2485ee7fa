"""Tests for result persistence (io): row tables and atomic writes."""

import json

from repro.simulation import io as sim_io


class TestRowPersistence:
    ROWS = [
        {"process": "push", "n": 16, "rounds_mean": 52.5},
        {"process": "push", "n": 32, "rounds_mean": 120.0},
    ]

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "rows.json"
        sim_io.save_rows_json(self.ROWS, path, metadata={"seed": 1})
        loaded = sim_io.load_rows_json(path)
        assert loaded["metadata"]["seed"] == 1
        assert loaded["rows"] == self.ROWS

    def test_json_is_valid_json(self, tmp_path):
        path = sim_io.save_rows_json(self.ROWS, tmp_path / "rows.json")
        json.loads(path.read_text())  # must not raise

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        sim_io.save_rows_csv(self.ROWS, path)
        loaded = sim_io.load_rows_csv(path)
        assert len(loaded) == 2
        assert loaded[0]["process"] == "push"
        assert float(loaded[1]["rounds_mean"]) == 120.0

    def test_csv_empty_rows(self, tmp_path):
        path = sim_io.save_rows_csv([], tmp_path / "empty.csv")
        assert sim_io.load_rows_csv(path) == []

    def test_csv_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = sim_io.save_rows_csv(rows, tmp_path / "u.csv")
        loaded = sim_io.load_rows_csv(path)
        assert set(loaded[0]) == {"a", "b"}

    def test_atomic_write_replaces_not_truncates(self, tmp_path):
        """An overwrite leaves either the old or the new content, never a mix."""
        path = tmp_path / "rows.json"
        sim_io.save_rows_json(self.ROWS, path)
        before = path.read_text()
        sim_io.save_rows_json(self.ROWS * 10, path)
        after = path.read_text()
        assert json.loads(after)["rows"] == self.ROWS * 10
        assert len(after) > len(before)
        # staging files are cleaned up
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_helpers(self, tmp_path):
        target = sim_io.atomic_write_text(tmp_path / "deep" / "a.txt", "payload")
        assert target.read_text() == "payload"
        sim_io.atomic_write_bytes(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert list((tmp_path / "deep").glob("*.tmp")) == []
