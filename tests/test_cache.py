"""Verdict cache: round trips, version invalidation, corruption tolerance."""

import contextlib
import json
from pathlib import Path

import pytest

from ringlab import __version__
from ringlab.cache import VerdictCache, cache_from_env
from ringlab.sweep import SweepConfig, run_sweep

YES = {"wnn": {"ok": True, "witness": None}, "wnc": {"ok": True, "witness": None}}
NO = {"wnn": {"ok": False, "witness": [0, 2]}, "wnc": {"ok": False, "witness": 3}}


def test_put_get_round_trip(tmp_path):
    cache = VerdictCache(tmp_path / "cache.jsonl")
    assert cache.get("GR(Z3, C2)|weakly_nil_neat") is None
    cache.put("GR(Z3, C2)|weakly_nil_neat", YES)
    assert cache.get("GR(Z3, C2)|weakly_nil_neat") == YES
    reloaded = VerdictCache(tmp_path / "cache.jsonl")
    assert reloaded.get("GR(Z3, C2)|weakly_nil_neat") == YES


def test_version_bump_invalidates(tmp_path):
    path = tmp_path / "cache.jsonl"
    VerdictCache(path, version="0.0.1").put("k", NO)
    assert VerdictCache(path, version="0.0.2").get("k") is None
    assert VerdictCache(path, version="0.0.1").get("k") == NO


def test_corrupt_middle_line_is_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = VerdictCache(path, version="v")
    cache.put("a", YES)
    with path.open("a") as fh:
        fh.write("{this is not json\n")
    cache.put("b", NO)
    with pytest.warns(UserWarning):
        reloaded = VerdictCache(path, version="v")
    assert reloaded.get("a") == YES
    assert reloaded.get("b") == NO


def test_undecodable_line_is_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    valid = json.dumps({"key": "a", "version": "v", "value": YES})
    path.write_bytes(b"\xff{}\n" + valid.encode() + b"\n")
    with pytest.warns(UserWarning, match="corrupt cache line 1 "):
        reloaded = VerdictCache(path, version="v")
    assert len(reloaded) == 1 and reloaded.get("a") == YES


def test_missing_file_reads_empty(tmp_path):
    cache = VerdictCache(tmp_path / "absent.jsonl")
    assert cache.get("anything") is None
    assert len(cache) == 0


def test_last_entry_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = VerdictCache(path, version="v")
    cache.put("k", YES)
    cache.put("k", NO)
    assert VerdictCache(path, version="v").get("k") == NO
    assert len(path.read_text().splitlines()) == 2  # append-only


def test_cache_from_env(tmp_path, monkeypatch):
    assert cache_from_env(None, disabled=True) is None
    monkeypatch.delenv("RINGLAB_CACHE", raising=False)
    assert cache_from_env(None) is None
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "env.jsonl"))
    cache = cache_from_env(None)
    assert cache is not None and cache.path.name == "env.jsonl"
    flag_cache = cache_from_env(str(tmp_path / "flag.jsonl"))
    assert flag_cache.path.name == "flag.jsonl"


def test_cache_entries_are_json_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    VerdictCache(path).put("k", YES)
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"key", "version", "value"}


def test_wrongly_shaped_values_are_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = NO
    bad_values = [
        [1, 2],
        {"wnn": {"ok": True, "witness": None}},
        {"wnn": {"ok": 1, "witness": None}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": True, "witness": 3}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": True, "witness": None}, "wnc": {"ok": True, "witness": True}},
        {"wnn": {"ok": False, "witness": []}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": False, "witness": [0]}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": False, "witness": [5, 3, -1]}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": False, "witness": [0, 3, 3]}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": False, "witness": [-1, 3]}, "wnc": {"ok": True, "witness": None}},
        {"wnn": {"ok": True, "witness": None}, "wnc": {"ok": False, "witness": -7}},
    ]
    writer = VerdictCache(path, version="v")
    writer.put("good", good)
    for i, value in enumerate(bad_values):
        writer.put(f"bad{i}", value)
    with path.open("a") as fh:
        fh.write(json.dumps({"key": ["not", "a", "string"], "version": "v", "value": good}) + "\n")
    with pytest.warns(UserWarning) as caught:
        reloaded = VerdictCache(path, version="v")
    assert len(caught) == len(bad_values) + 1
    assert reloaded.get("good") == good
    assert len(reloaded) == 1
    # other versions are misses anyway, so only the bad key is reported
    with pytest.warns(UserWarning) as caught:
        assert len(VerdictCache(path, version="w")) == 0
    assert len(caught) == 1


def test_run_sweep_ignores_wrongly_shaped_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "GR(Z2, 1)", "version": "%s", "value": [1, 2]}\n' % __version__)
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        cache = VerdictCache(path)
    config = SweepConfig(max_ring_order=2, max_product_order=2, max_group_order=1)
    (record,) = run_sweep(config, cache=cache).records
    assert (record["ring"], record["group"], record["wnn_definitional"]) == ("Z2", "1", True)
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        reloaded = VerdictCache(path)
    assert reloaded.get("GR(Z2, 1)") == YES  # the sweep appended a good line


def test_run_sweep_appends_new_verdicts_in_one_write(tmp_path, monkeypatch):
    config = SweepConfig(max_ring_order=4, max_product_order=4, max_group_order=2, max_groupring_order=16)
    batched = VerdictCache(tmp_path / "batched.jsonl")
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    report = run_sweep(config, cache=batched)
    assert opened == ["batched.jsonl"] and len(report.records) > 1
    monkeypatch.undo()
    warm = VerdictCache(batched.path)
    monkeypatch.setattr(Path, "open", counting_open)
    run_sweep(config, cache=warm)  # every verdict a hit: nothing to append
    assert opened == ["batched.jsonl"]
    monkeypatch.undo()
    # the same bytes as one append per put, with batching switched off
    monkeypatch.setattr(VerdictCache, "batch", lambda self: contextlib.nullcontext())
    one_by_one = VerdictCache(tmp_path / "one_by_one.jsonl")
    run_sweep(config, cache=one_by_one)
    assert batched.path.read_bytes() == one_by_one.path.read_bytes()


def test_batch_writes_what_was_put_when_the_block_raises(tmp_path):
    cache = VerdictCache(tmp_path / "c.jsonl")
    with pytest.raises(RuntimeError):
        with cache.batch():
            cache.put("a", YES)
            assert not cache.path.exists()
            raise RuntimeError("stop")
    assert VerdictCache(cache.path).get("a") == YES
    cache.put("b", NO)  # outside a batch, each put appends at once
    assert VerdictCache(cache.path).get("b") == NO
