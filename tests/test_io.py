"""Tests for result persistence (io): row tables, atomic writes and the npz stream."""

import json

import numpy as np
import pytest

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


class TestNpzStream:
    """``atomic_write_npz`` writes what ``np.savez`` would, one block at a time."""

    def test_views_and_shapes_round_trip(self, tmp_path, monkeypatch):
        block = np.arange(60, dtype=np.int32).reshape(6, 10)
        arrays = {
            "rows": block[:, :7],  # a trimmed, non-contiguous view
            "deg": np.arange(6, dtype=np.int64),
            "pairs": np.empty((0, 2), dtype=np.int64),
            "bits": np.full((3, 2), 2**63 + 5, dtype=np.uint64),
        }
        monkeypatch.setattr(sim_io, "NPZ_BLOCK_BYTES", 40)  # several blocks an array
        path = sim_io.atomic_write_npz(tmp_path / "a.npz", arrays)
        with np.load(path) as npz:
            assert sorted(npz.files) == sorted(arrays)
            for name, array in arrays.items():
                assert npz[name].dtype == array.dtype
                assert np.array_equal(npz[name], array)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_writer_leaves_the_old_file(self, tmp_path):
        path = sim_io.atomic_write_bytes(tmp_path / "a.npz", b"old")

        def fail(handle):
            handle.write(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            sim_io.atomic_write_stream(path, fail)
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []
