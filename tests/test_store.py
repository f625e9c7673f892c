"""Persistent content-addressed store: keys, corruption, concurrency,
eviction, bypass and the REPRO_CACHE_VERIFY differential mode."""

import dataclasses
import multiprocessing
import os
import pickle
import random
import struct
import zlib

import pytest

import repro.store as store
from repro.store import MISS, address, fingerprint_paths


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """An empty store in a private directory with zeroed stats."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    store._instances.clear()
    yield store.get_store()
    store._instances.clear()


def _entry_files(st):
    return sorted(f for f in os.listdir(st.root) if f.endswith(".pkl"))


class TestAddress:
    def test_sensitive_to_every_component(self):
        base = address("chip", "fp", ("svc", 1, "minsp_pc"))
        assert address("trace", "fp", ("svc", 1, "minsp_pc")) != base
        assert address("chip", "fp2", ("svc", 1, "minsp_pc")) != base
        assert address("chip", "fp", ("svc", 2, "minsp_pc")) != base
        assert address("chip", "fp", ("svc", 1, "ipdom")) != base
        assert address("chip", "fp", ("svc", 1, "minsp_pc")) == base


class TestFingerprint:
    def _tree(self, root, files):
        for rel, text in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        return fingerprint_paths([str(root)])

    def test_stable_for_identical_trees(self, tmp_path):
        files = {"a.py": "x = 1\n", "pkg/b.py": "y = 2\n"}
        fp1 = self._tree(tmp_path / "one", files)
        fp2 = self._tree(tmp_path / "two", files)
        assert fp1 == fp2

    def test_source_edit_changes_fingerprint(self, tmp_path):
        files = {"a.py": "x = 1\n", "pkg/b.py": "y = 2\n"}
        base = self._tree(tmp_path / "one", files)
        edited = self._tree(tmp_path / "two",
                            {**files, "pkg/b.py": "y = 3\n"})
        assert edited != base

    def test_rename_and_addition_change_fingerprint(self, tmp_path):
        files = {"a.py": "x = 1\n"}
        base = self._tree(tmp_path / "one", files)
        renamed = self._tree(tmp_path / "two", {"a2.py": "x = 1\n"})
        added = self._tree(tmp_path / "three",
                           {**files, "new.py": "pass\n"})
        assert renamed != base
        assert added != base

    def test_non_py_files_ignored(self, tmp_path):
        base = self._tree(tmp_path / "one", {"a.py": "x = 1\n"})
        noisy = self._tree(tmp_path / "two",
                           {"a.py": "x = 1\n", "README.md": "hi\n"})
        assert noisy == base

    def test_module_fingerprints_cached_and_distinct(self):
        assert store.timed_fingerprint() == store.timed_fingerprint()
        # the timing package is part of timed identity
        assert store.timed_fingerprint() != store.source_fingerprint(
            store.TIMED_MODULES[:-1])


class TestRoundTrip:
    def test_lookup_after_record(self, fresh_store):
        key = ("svc", "pop-fp", "minsp_pc", None)
        assert store.lookup("chip", "fp", key) is MISS
        store.record("chip", "fp", key, {"cycles": 123.5})
        assert store.lookup("chip", "fp", key) == {"cycles": 123.5}

    def test_key_or_fingerprint_change_is_a_miss(self, fresh_store):
        key = ("svc", "pop-fp", "minsp_pc", None)
        store.record("chip", "fp", key, "value")
        assert store.lookup("chip", "other-fp", key) is MISS
        assert store.lookup("chip", "fp", key[:-1] + ("ovr",)) is MISS
        assert store.lookup("trace", "fp", key) is MISS

    def test_put_is_idempotent(self, fresh_store):
        digest = address("chip", "fp", (1,))
        fresh_store.put("chip", digest, "v")
        fresh_store.put("chip", digest, "v")
        assert fresh_store.stores == 1
        assert len(_entry_files(fresh_store)) == 1

    def test_stats_track_traffic(self, fresh_store):
        store.record("trace", "fp", (1,), [1, 2, 3])
        store.lookup("trace", "fp", (1,))
        store.lookup("trace", "fp", (2,))
        s = store.stats()
        assert s["stores"] == 1 and s["hits"] == 1 and s["misses"] == 1
        assert s["bytes_written"] > 0 and s["bytes_read"] > 0


class TestBypass:
    def test_cache_0_disables_everything(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert store.get_store() is None
        store.record("chip", "fp", (1,), "v")
        assert store.lookup("chip", "fp", (1,)) is MISS
        assert not os.path.exists(fresh_store.root) \
            or _entry_files(fresh_store) == []
        monkeypatch.delenv("REPRO_CACHE")
        store.record("chip", "fp", (1,), "v")
        assert store.lookup("chip", "fp", (1,)) == "v"


class TestCorruption:
    def _entry_path(self, st):
        (name,) = _entry_files(st)
        return os.path.join(st.root, name)

    @pytest.mark.parametrize("mangle", [
        lambda blob: blob[:10],                      # truncated
        lambda blob: b"BADMAGIC" + blob[8:],         # version mismatch
        lambda blob: blob[:-3] + b"\x00\x00\x00",    # body bit rot
        lambda blob: b"\x00" * 6,                    # not even a header
    ])
    def test_damaged_entry_is_a_silent_miss(self, fresh_store, mangle):
        store.record("chip", "fp", (1,), {"v": 1})
        path = self._entry_path(fresh_store)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(mangle(blob))
        assert store.lookup("chip", "fp", (1,)) is MISS
        assert not os.path.exists(path), "damaged entry must be unlinked"
        assert fresh_store.errors == 1
        # and the slot is immediately reusable
        store.record("chip", "fp", (1,), {"v": 1})
        assert store.lookup("chip", "fp", (1,)) == {"v": 1}

    def test_unwritable_store_degrades_silently(self, fresh_store,
                                                tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        fresh_store.root = str(blocker)  # makedirs/open now raise OSError
        assert fresh_store.get("chip", "d" * 64) is MISS
        fresh_store.put("chip", "d" * 64, "v")  # must not raise
        assert fresh_store.errors >= 1


class TestEviction:
    def test_oldest_entries_go_first(self, fresh_store, monkeypatch):
        payload = b"x" * 4096
        for i in range(8):
            store.record("chip", "fp", (i,), payload)
            # well-separated mtimes make LRU order deterministic
            path = os.path.join(
                fresh_store.root,
                f"chip-{address('chip', 'fp', (i,))}.pkl")
            os.utime(path, (1000 + i, 1000 + i))
        size = os.path.getsize(path)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(size * 3))
        st = store.get_store()   # refreshes the limit
        st._evict()
        assert len(_entry_files(st)) == 3
        assert store.lookup("chip", "fp", (7,)) == payload
        assert store.lookup("chip", "fp", (0,)) is MISS
        assert st.evictions == 5

    def test_hit_refreshes_recency(self, fresh_store, monkeypatch):
        payload = b"y" * 4096
        paths = []
        for i in range(3):
            store.record("chip", "fp", (i,), payload)
            p = os.path.join(
                fresh_store.root,
                f"chip-{address('chip', 'fp', (i,))}.pkl")
            os.utime(p, (1000 + i, 1000 + i))
            paths.append(p)
        # touch the oldest via a hit; give the refresh a future mtime
        store.lookup("chip", "fp", (0,))
        os.utime(paths[0], (2000, 2000))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES",
                           str(os.path.getsize(paths[0]) * 1))
        st = store.get_store()
        st._evict()
        assert store.lookup("chip", "fp", (0,)) == payload
        assert store.lookup("chip", "fp", (1,)) is MISS


def _concurrent_writer(args):
    """Fork-pool worker: hammer one shared entry plus a private one."""
    wid, root = args
    os.environ["REPRO_CACHE_DIR"] = root
    store._instances.clear()
    for i in range(20):
        store.record("trace", "fp", ("shared",), list(range(50)))
        store.record("trace", "fp", ("private", wid, i), [wid, i])
        got = store.lookup("trace", "fp", ("shared",))
        if got is not MISS and got != list(range(50)):
            return f"worker {wid}: torn shared read {got!r}"
    return None


class TestConcurrency:
    def test_racing_fork_workers_never_tear_entries(self, fresh_store):
        root = os.environ["REPRO_CACHE_DIR"]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            failures = pool.map(_concurrent_writer,
                                [(w, root) for w in range(4)])
        assert [f for f in failures if f] == []
        store._instances.clear()
        assert store.lookup("trace", "fp", ("shared",)) == list(range(50))
        for w in range(4):
            for i in range(20):
                assert store.lookup(
                    "trace", "fp", ("private", w, i)) == [w, i]
        assert not [f for f in os.listdir(fresh_store.root)
                    if f.startswith(".tmp-")], "leaked temp files"


class TestRunChipIntegration:
    """Timed entries end to end through ``run_chip``."""

    def _run(self, **kw):
        from repro.timing import CPU_CONFIG, run_chip
        from repro.workloads import get_service

        service = get_service("urlshort")
        requests = service.generate_requests(6, random.Random(3))
        return run_chip(service, requests, CPU_CONFIG, **kw)

    def test_warm_hit_returns_identical_result(self, fresh_store):
        cold = self._run()
        assert fresh_store.stores >= 1
        warm = self._run()
        assert fresh_store.hits >= 1
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def _chip_entries(self, st):
        return [f for f in _entry_files(st) if f.startswith("chip-")]

    def _timed_key_args(self):
        from repro.memsys.alloc import SimrAwareAllocator
        from repro.timing import RPU_CONFIG
        from repro.timing.chip import allocator_signature_of
        from repro.workloads import get_service

        service = get_service("mcrouter")
        reqs = service.generate_requests(8, random.Random(0))
        return dict(
            service=service, requests=reqs, config=RPU_CONFIG,
            policy="minsp_pc", batching="per_api_size", batch_size=None,
            reconv_override=None, warmup_frac=0.2,
            alloc_sig=allocator_signature_of(SimrAwareAllocator(n_banks=8)))

    def test_timed_key_stable(self):
        from repro.memsys.alloc import SimrAwareAllocator
        from repro.timing.chip import _timed_key, allocator_signature_of

        base_args = self._timed_key_args()
        base = _timed_key(**base_args)
        # equal inputs built afresh (a copied request list, a new
        # allocator of the same kind) give the same key
        assert _timed_key(**{
            **base_args, "requests": list(base_args["requests"]),
            "alloc_sig": allocator_signature_of(
                SimrAwareAllocator(n_banks=8))}) == base

    def test_timed_key_sensitive_to_policy_allocator_and_requests(self):
        from repro.memsys.alloc import DefaultAllocator, SimrAwareAllocator
        from repro.timing import CPU_CONFIG
        from repro.timing.chip import _timed_key, allocator_signature_of

        base_args = self._timed_key_args()
        reqs = base_args["requests"]

        def key(**change):
            return _timed_key(**{**base_args, **change})

        base = key()
        for change in (
                dict(policy="ipdom"),
                dict(config=CPU_CONFIG),
                dict(batching="naive"),
                dict(batch_size=4),
                dict(reconv_override={3: 7}),
                dict(warmup_frac=0.0),
                dict(alloc_sig=allocator_signature_of(
                    DefaultAllocator(n_banks=8))),
                dict(alloc_sig=allocator_signature_of(
                    SimrAwareAllocator(n_banks=4))),
                dict(requests=reqs[:-1]),
                dict(requests=list(reversed(reqs)))):
            assert key(**change) != base, change

    def test_custom_allocator_factory_bypasses_store(self, fresh_store):
        from repro.memsys.alloc import DefaultAllocator

        def factory():
            return DefaultAllocator(n_banks=1)

        self._run(allocator_factory=factory)
        assert fresh_store.stores == 0
        # vouching for the factory makes the result storable again
        self._run(allocator_factory=factory,
                  allocator_signature=("DefaultAllocator", 1))
        assert len(self._chip_entries(fresh_store)) == 1

    def test_population_change_misses(self, fresh_store):
        from repro.timing import CPU_CONFIG, run_chip
        from repro.workloads import get_service

        self._run()
        assert len(self._chip_entries(fresh_store)) == 1
        service = get_service("urlshort")
        other = service.generate_requests(6, random.Random(4))
        run_chip(service, other, CPU_CONFIG)
        assert len(self._chip_entries(fresh_store)) == 2

    def test_config_and_policy_changes_miss(self, fresh_store):
        self._run()
        assert len(self._chip_entries(fresh_store)) == 1
        self._run(warmup_frac=0.0)
        assert len(self._chip_entries(fresh_store)) == 2

    def test_verify_passes_on_honest_entry(self, fresh_store, monkeypatch):
        cold = self._run()
        monkeypatch.setenv("REPRO_CACHE_VERIFY", "1")
        verified = self._run()
        assert dataclasses.asdict(verified) == dataclasses.asdict(cold)

    def test_verify_catches_tampered_entry(self, fresh_store, monkeypatch):
        self._run()
        # rewrite the stored ChipResult with valid framing but a wrong
        # payload: only VERIFY's recompute can notice
        (name,) = [f for f in _entry_files(fresh_store)
                   if f.startswith("chip-")]
        path = os.path.join(fresh_store.root, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        obj = pickle.loads(blob[12:])
        obj.core_cycles += 1.0
        body = pickle.dumps(obj, protocol=4)
        with open(path, "wb") as fh:
            fh.write(store.MAGIC
                     + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
                     + body)
        # without VERIFY the tampered entry is served as-is (CRC is
        # framing integrity, not semantic truth) ...
        assert self._run().core_cycles == obj.core_cycles
        # ... with VERIFY the recompute exposes it
        monkeypatch.setenv("REPRO_CACHE_VERIFY", "1")
        with pytest.raises(store.CacheVerifyError, match="core_cycles"):
            self._run()
