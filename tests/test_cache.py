"""The serving caches: LRU semantics, proof memos, fragment replay.

The load-bearing property throughout: a cached answer must be
**byte-identical** to a freshly computed one — the cache may only ever
change *when* proving work happens, never *what* the user verifies.
"""

import random
import threading

import pytest

from repro import VChainNetwork
from repro.api import ServiceEndpoint
from repro.cache import LRUCache, ProofCache, VOFragmentCache
from repro.chain import ProtocolParams
from repro.wire import encode_response
from tests.conftest import make_objects


# -- LRUCache -----------------------------------------------------------------
def test_lru_get_put_and_stats():
    cache = LRUCache(max_entries=2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1 and cache.get("b") == 2
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (2, 1, 2)
    assert 0 < stats.hit_rate < 1


def test_lru_evicts_coldest_entry():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh: "b" is now coldest
    cache.put("c", 3)
    assert "b" not in cache and cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats().evictions == 1


def test_lru_overwrite_refreshes_without_eviction():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # overwrite, not insert
    cache.put("c", 3)  # evicts "b", the coldest
    assert cache.get("a") == 10 and "b" not in cache


def test_lru_disabled_cache_never_stores():
    cache = LRUCache(max_entries=0)
    assert not cache.enabled
    cache.put("a", 1)
    assert cache.get("a") is None and len(cache) == 0


def test_lru_clear_keeps_counters():
    cache = LRUCache(max_entries=4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().hits == 1


def test_lru_thread_safety_under_contention():
    cache = LRUCache(max_entries=64)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(500):
                key = rng.randrange(100)
                if rng.random() < 0.5:
                    cache.put(key, key * 2)
                else:
                    value = cache.get(key)
                    assert value is None or value == key * 2
        except Exception as exc:  # surfaced across the thread boundary
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert len(cache) <= 64


# -- network fixture ----------------------------------------------------------
def _mined_network(acc_name="acc2"):
    net = VChainNetwork.create(
        acc_name=acc_name,
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=33,
    )
    rng = random.Random(33)
    for height in range(8):
        net.mine(
            make_objects(rng, 3, height * 3, timestamp=height * 10),
            timestamp=height * 10,
        )
    return net


@pytest.fixture()
def net():
    return _mined_network()


def _query(net, start=0, end=200):
    return (
        net.client.query()
        .window(start, end)
        .range(low=(0,), high=(255,))
        .all_of("Sedan")
        .any_of("Benz", "BMW")
        .build()
    )


# -- ProofCache ---------------------------------------------------------------
def test_proof_cache_hits_on_identical_inputs(net):
    cache = ProofCache(net.accumulator, net.encoder, max_entries=16)
    from collections import Counter

    attrs = Counter({"Van": 2, "Audi": 1})
    clause = frozenset({"Sedan"})
    proof1, hit1 = cache.prove_disjoint(attrs, clause)
    proof2, hit2 = cache.prove_disjoint(Counter(attrs), clause)  # equal copy
    assert (hit1, hit2) == (False, True)
    assert proof1 is proof2
    assert net.accumulator.verify_disjoint(
        net.accumulator.accumulate(net.encoder.encode_multiset(attrs)),
        net.accumulator.accumulate(net.encoder.encode_multiset(Counter(clause))),
        proof1,
    )


# -- VOFragmentCache through the endpoint ------------------------------------
def test_cached_answer_is_byte_identical(net):
    query = _query(net)
    backend = net.accumulator.backend
    cold = ServiceEndpoint(net.sp, cache_fragments=0, cache_proofs=0)
    warm = ServiceEndpoint(net.sp)
    try:
        reference = cold.time_window_query(query)
        first = warm.time_window_query(query)
        replay = warm.time_window_query(query)
        for answer in (first, replay):
            assert encode_response(backend, answer[0], answer[1]) == encode_response(
                backend, reference[0], reference[1]
            )
        assert first[2].cache_hits == 0 and first[2].cache_misses == 8
        assert replay[2].cache_hits == 8 and replay[2].cache_misses == 0
        assert replay[2].proofs_computed == 0
        assert replay[2].proofs_reused > 0
    finally:
        cold.close()
        warm.close()


def test_cached_answer_byte_identical_without_batch(net):
    acc1_net = _mined_network("acc1")
    try:
        for network in (acc1_net, net):
            query = _query(network)
            backend = network.accumulator.backend
            cold = ServiceEndpoint(network.sp, cache_fragments=0, cache_proofs=0)
            warm = ServiceEndpoint(network.sp)
            try:
                reference = cold.time_window_query(query, batch=False)
                warm.time_window_query(query, batch=False)
                replay = warm.time_window_query(query, batch=False)
                assert encode_response(
                    backend, replay[0], replay[1]
                ) == encode_response(backend, reference[0], reference[1])
                assert replay[2].cache_hits > 0  # replayed, not re-proved
                assert replay[2].proofs_computed == 0
            finally:
                cold.close()
                warm.close()
    finally:
        acc1_net.close()


def test_overlapping_windows_share_fragments(net):
    warm = ServiceEndpoint(net.sp)
    try:
        warm.time_window_query(_query(net, 0, 200))
        _results, _vo, stats = warm.time_window_query(_query(net, 30, 200))
        # heights 3..7 were already computed for the wide window
        assert stats.cache_hits > 0 and stats.cache_misses == 0
    finally:
        warm.close()


def test_batch_and_plain_fragments_do_not_collide(net):
    warm = ServiceEndpoint(net.sp)
    try:
        warm.time_window_query(_query(net), batch=True)
        _results, vo, stats = warm.time_window_query(_query(net), batch=False)
        # same window, different mode: separate cache keys, full miss
        assert stats.cache_hits == 0
        assert vo.batch_groups == {}
        _results, _vo, stats = warm.time_window_query(_query(net), batch=False)
        assert stats.cache_hits == 8
    finally:
        warm.close()


def test_fragment_eviction_recomputes_correctly(net):
    query = _query(net)
    backend = net.accumulator.backend
    tiny = ServiceEndpoint(net.sp, cache_fragments=2, cache_proofs=2)
    big = ServiceEndpoint(net.sp, cache_fragments=0, cache_proofs=0)
    try:
        reference = big.time_window_query(query)
        tiny.time_window_query(query)
        replay = tiny.time_window_query(query)  # mostly evicted by now
        assert encode_response(backend, replay[0], replay[1]) == encode_response(
            backend, reference[0], reference[1]
        )
        assert tiny.fragment_cache.stats().evictions > 0
    finally:
        tiny.close()
        big.close()


def test_endpoint_cache_stats_snapshot(net):
    endpoint = ServiceEndpoint(net.sp)
    try:
        endpoint.time_window_query(_query(net))
        snapshot = endpoint.cache_stats()
        assert snapshot["fragments"].misses == 8
        assert snapshot["proofs"].entries > 0
        assert "hit_rate" in snapshot["proofs"].as_info()
    finally:
        endpoint.close()


def test_disabled_fragment_cache_reports_nothing(net):
    cache = VOFragmentCache(max_entries=0)
    assert not cache.enabled
    endpoint = ServiceEndpoint(net.sp, cache_fragments=0)
    try:
        _results, _vo, stats = endpoint.time_window_query(_query(net))
        assert stats.cache_hits == 0 and stats.cache_misses == 0
    finally:
        endpoint.close()
