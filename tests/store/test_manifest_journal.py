"""Journaled manifest writes: O(1) appends, batching, crash tolerance."""

import json

import pytest

from repro.errors import StoreCorruptionError
from repro.store.store import TraceStore


def _fill(store, count, prefix="trace/t"):
    for index in range(count):
        store.put_bytes(f"{prefix}/{index}", "trace",
                        f"payload-{index}".encode())


class TestJournalWriteAmplification:
    def test_puts_append_to_journal_not_manifest(self, tmp_path):
        store = TraceStore(tmp_path)
        baseline = store.manifest_saves
        _fill(store, 30)
        # one journal append per put, zero full-manifest rewrites
        assert store.manifest_saves == baseline
        assert store.journal_appends == 30

    def test_batch_flushes_once_with_all_records(self, tmp_path):
        store = TraceStore(tmp_path)
        baseline = store.manifest_saves
        with store.batch():
            _fill(store, 30)
            assert store.journal_appends == 0  # nothing flushed inside
        assert store.journal_appends == 30  # one locked append, 30 lines
        assert store.manifest_saves == baseline
        assert len(TraceStore(tmp_path, create=False)) == 30

    def test_nested_batches_flush_once_at_outermost_exit(self, tmp_path):
        store = TraceStore(tmp_path)
        with store.batch():
            _fill(store, 5, prefix="trace/a")
            with store.batch():
                _fill(store, 5, prefix="trace/b")
            assert store.journal_appends == 0
        assert store.journal_appends == 10


class TestJournalReplay:
    def test_entries_visible_to_fresh_open(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 8)
        store.delete("trace/t/3")
        reopened = TraceStore(tmp_path, create=False)
        assert reopened.get_bytes("trace/t/5") == b"payload-5"
        assert reopened.get("trace/t/3") is None
        assert len(reopened) == 7

    def test_refresh_sees_other_writers(self, tmp_path):
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        writer.put_bytes("trace/x", "trace", b"x")
        assert reader.get("trace/x") is None  # snapshot view
        reader.refresh()
        assert reader.get_bytes("trace/x") == b"x"

    def test_compaction_folds_journal_into_manifest(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 12)
        store.compact()
        assert store.journal_path.stat().st_size == 0
        manifest = json.loads(store.manifest_path.read_text())
        assert len(manifest["entries"]) == 12
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 12


class TestJournalCrashTolerance:
    def test_torn_trailing_line_is_dropped(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 4)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "put", "key": "trace/torn"')  # no newline
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 4
        assert reopened.get("trace/torn") is None

    def test_mid_file_garbage_is_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 2)
        lines = store.journal_path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        store.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path, create=False)

    def test_unknown_journal_op_is_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 1)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "shrug", "key": "k"}) + "\n")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path, create=False)


class TestAutoCompaction:
    def test_journal_is_bounded(self, tmp_path, monkeypatch):
        import repro.store.store as store_module
        monkeypatch.setattr(store_module, "JOURNAL_COMPACT_BYTES", 2048)
        store = TraceStore(tmp_path)
        for index in range(120):
            store.put_bytes(f"trace/auto/{index}", "trace", b"x")
        assert store.journal_path.stat().st_size <= 4096
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 120
