"""Trace mmap-sidecar tests, mirroring the plan-sidecar suite.

Traces get the same uncompressed ``.mmap/`` sidecars frontend plans
have: the trace store serves them through ``np.load(mmap_mode="r")``
so resident sweep workers share one page cache per workload.  A sidecar
is only trusted while the ``.npz`` it was derived from still matches
the size/sha1 recorded in its ``meta.json``; anything corrupt, stale or
truncated is discarded and rebuilt from the npz without ever producing
wrong arrays.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.common.artifacts import sidecar_path
from repro.workloads.profiles import clear_walk_memo, get_workload
from repro.workloads.trace import TRACE_STORE, Trace, validate_trace

RECORDS = 3_000
WORKLOAD = "x264"


@pytest.fixture()
def trace_cache(tmp_path, monkeypatch):
    """Isolated trace cache."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    return tmp_path


def _build(records=RECORDS):
    # A resident walk would serve the trace ahead of the cache under test.
    clear_walk_memo()
    return get_workload(WORKLOAD).trace(records=records)


def _entry(cache_dir):
    (npz,) = cache_dir.glob("*.npz")
    return npz


class TestTraceMmapSidecar:
    def test_save_writes_sidecar_and_cache_load_maps_arrays(self, trace_cache):
        fresh = _build()
        npz = _entry(trace_cache)
        sidecar = sidecar_path(npz)
        assert sidecar.is_dir()
        meta = json.loads((sidecar / "meta.json").read_text())
        assert meta["records"] == len(fresh)
        assert meta["npz_size"] == npz.stat().st_size

        loaded = _build()
        assert isinstance(loaded.blocks, np.memmap)
        assert validate_trace(loaded) == []
        for field in ("blocks", "instrs", "branch_kind", "branch_site"):
            assert np.array_equal(getattr(loaded, field), getattr(fresh, field))
        assert loaded.name == fresh.name
        assert loaded.seed == fresh.seed
        assert loaded.digest == fresh.digest

    def test_corrupt_sidecar_falls_back_to_npz_and_repairs(self, trace_cache):
        fresh = _build()
        sidecar = sidecar_path(_entry(trace_cache))
        (sidecar / "blocks.npy").write_bytes(b"\x93NUMPY garbage")

        loaded = _build()
        assert np.array_equal(loaded.blocks, fresh.blocks)
        # The corrupt sidecar was discarded and repaired from the npz.
        assert sidecar.is_dir()
        assert isinstance(_build().blocks, np.memmap)

    def test_truncated_array_is_rejected(self, trace_cache):
        fresh = _build()
        sidecar = sidecar_path(_entry(trace_cache))
        blocks = sidecar / "blocks.npy"
        truncated = np.load(blocks)[: RECORDS // 2]
        np.save(blocks, truncated)

        loaded = _build()
        assert len(loaded) == len(fresh)
        assert np.array_equal(loaded.blocks, fresh.blocks)

    def test_stale_sidecar_is_discarded_when_npz_changes(self, trace_cache):
        fresh = _build()
        npz = _entry(trace_cache)
        sidecar = sidecar_path(npz)
        # Regenerate the npz with different content under the same key
        # (as a generator change across versions would) while leaving
        # the old sidecar in place.
        different = Trace(
            name=fresh.name,
            blocks=np.array(fresh.blocks[::-1]),
            instrs=np.array(fresh.instrs),
            branch_kind=np.array(fresh.branch_kind),
            branch_site=np.array(fresh.branch_site),
            seed=fresh.seed,
        )
        stale = sidecar.with_name("stale-keep")
        shutil.copytree(sidecar, stale)
        different.save(npz)
        shutil.rmtree(sidecar)
        shutil.copytree(stale, sidecar)  # plant the stale sidecar back

        loaded = _build()
        assert np.array_equal(loaded.blocks, different.blocks)
        assert not np.array_equal(loaded.blocks, fresh.blocks)

    def test_zero_byte_meta_is_discarded_and_rebuilt(self, trace_cache):
        """A crash between create and write leaves meta.json empty."""
        fresh = _build()
        sidecar = sidecar_path(_entry(trace_cache))
        (sidecar / "meta.json").write_bytes(b"")

        loaded = _build()
        assert np.array_equal(loaded.blocks, fresh.blocks)
        # Repaired: real metadata back, mmap loads serve again.
        assert (sidecar / "meta.json").stat().st_size > 0
        assert isinstance(_build().blocks, np.memmap)

    def test_missing_array_file_is_discarded_and_rebuilt(self, trace_cache):
        fresh = _build()
        sidecar = sidecar_path(_entry(trace_cache))
        (sidecar / "blocks.npy").unlink()

        loaded = _build()
        assert np.array_equal(loaded.blocks, fresh.blocks)
        assert (sidecar / "blocks.npy").exists(), "sidecar was repaired"
        assert isinstance(_build().blocks, np.memmap)

    def test_missing_sidecar_is_repaired_from_npz(self, trace_cache):
        fresh = _build()
        sidecar = sidecar_path(_entry(trace_cache))
        shutil.rmtree(sidecar)

        loaded = _build()
        assert np.array_equal(loaded.blocks, fresh.blocks)
        assert sidecar.is_dir()
        assert isinstance(_build().blocks, np.memmap)

    def test_cache_dir_override_honoured(self, trace_cache):
        _build()
        assert TRACE_STORE.cache_dir() == trace_cache
        assert any(trace_cache.iterdir())

    def test_load_log_counts_deserializations(self, trace_cache, trace_load_log):
        _build()  # fresh build
        _build()  # sidecar load
        lines = trace_load_log.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(f"{WORKLOAD}-r{RECORDS}" in line for line in lines)
