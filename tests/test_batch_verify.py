"""``QueryVerifier.batch_verify``: one pass over a whole window's VOs.

Correctness bar: batch verification accepts exactly what per-VO
verification accepts, shares pairing work across VOs (acc2), falls back
to individual checks on acc1 — and a forged VO anywhere in the batch is
rejected with the offending item named, even though its proof is
aggregated with honest ones.
"""

import random
from dataclasses import replace

import pytest

from repro import VChainNetwork
from repro.accumulators.base import DisjointProof
from repro.chain import ProtocolParams
from repro.core.vo import VOBlock, VOExpandNode, VOMismatchNode, VOSkip
from repro.errors import VerificationError
from tests.conftest import make_objects


def _build_net(acc_name):
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
def net2():
    return _build_net("acc2")


@pytest.fixture()
def net1():
    return _build_net("acc1")


def _wide(net):
    return (
        net.client.query()
        .range(low=(0,), high=(255,))
        .all_of("Sedan")
        .any_of("Benz", "BMW")
        .window(0, 200)
        .build()
    )


def _queries(net):
    return [
        _wide(net),
        _wide(net),  # identical twin
        net.client.query().window(0, 40).any_of("Benz").build(),
    ]


def _answers(net, queries, batch=None):
    return [net.client.execute(q, batch=batch).raise_for_forgery() for q in queries]


def test_batch_verify_matches_individual_results(net2):
    queries = _queries(net2)
    singles = _answers(net2, queries)
    items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
    all_verified, stats = net2.user.batch_verify(items)
    for verified, single in zip(all_verified, singles):
        assert verified == single.results
    assert stats.user_seconds > 0


def test_batch_verify_aggregates_same_clause_checks(net2):
    queries = _queries(net2)[:2]  # identical twins share every clause
    singles = _answers(net2, queries)
    items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
    _verified, stats = net2.user.batch_verify(items)
    individual_total = sum(r.user_stats.disjoint_checks for r in singles)
    assert stats.batched_checks > 0
    assert stats.disjoint_checks < individual_total


def test_batch_verify_acc1_falls_back_to_individual(net1):
    queries = _queries(net1)
    singles = _answers(net1, queries)
    items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
    all_verified, stats = net1.user.batch_verify(items)
    for verified, single in zip(all_verified, singles):
        assert verified == single.results
    assert stats.batched_checks == 0
    assert stats.disjoint_checks > 0


def test_batch_verify_rejects_dropped_result(net2):
    queries = _queries(net2)
    singles = _answers(net2, queries)
    items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
    items[1] = (queries[1], singles[1].results[:-1], singles[1].vo)
    with pytest.raises(VerificationError, match="batch item 1"):
        net2.user.batch_verify(items)


def _bogus_proof(net):
    backend = net.accumulator.backend
    return DisjointProof(parts=(backend.exp(backend.generator(), 0xBAD), ))


def test_batch_verify_rejects_forged_group_proof(net2):
    queries = _queries(net2)
    for forged_item in (1, 2):
        singles = _answers(net2, queries, batch=True)
        forged_vo = singles[forged_item].vo
        assert forged_vo.batch_groups, "batch VO should carry group proofs"
        group_id = next(iter(forged_vo.batch_groups))
        forged_vo.batch_groups[group_id] = replace(
            forged_vo.batch_groups[group_id], proof=_bogus_proof(net2)
        )
        items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
        with pytest.raises(VerificationError, match=f"batch item {forged_item}"):
            net2.user.batch_verify(items)


def _forge_first_individual_proof(vo, bogus):
    """Replace the first embedded mismatch proof found in ``vo``."""

    def forge_node(node):
        if isinstance(node, VOMismatchNode) and node.proof is not None:
            return replace(node, proof=bogus), True
        if isinstance(node, VOExpandNode):
            children = list(node.children)
            for i, child in enumerate(children):
                forged, done = forge_node(child)
                if done:
                    children[i] = forged
                    return replace(node, children=tuple(children)), True
        return node, False

    for index, entry in enumerate(vo.entries):
        if isinstance(entry, VOSkip) and entry.proof is not None:
            vo.entries[index] = replace(entry, proof=bogus)
            return True
        if isinstance(entry, VOBlock):
            root, done = forge_node(entry.root)
            if done:
                vo.entries[index] = replace(entry, root=root)
                return True
    return False


@pytest.mark.parametrize("acc_name", ["acc1", "acc2"])
def test_batch_verify_rejects_forged_individual_proof(acc_name):
    net = _build_net(acc_name)
    queries = _queries(net)
    singles = _answers(net, queries, batch=False)
    items = [(q, r.results, r.vo) for q, r in zip(queries, singles)]
    assert _forge_first_individual_proof(singles[0].vo, _bogus_proof(net))
    with pytest.raises(VerificationError, match="batch item 0"):
        net.user.batch_verify(items)


def test_execute_many_matches_execute(net2):
    queries = _queries(net2)
    singles = _answers(net2, queries)
    responses = net2.client.execute_many(queries)
    assert all(r.ok for r in responses)
    for response, single in zip(responses, singles):
        assert response.results == single.results
        assert response.vo_nbytes == single.vo_nbytes
    # the combined stats object is shared across the batch
    assert responses[0].user_stats is responses[1].user_stats


def test_execute_many_isolates_forged_response(net2, monkeypatch):
    queries = _queries(net2)

    def poisoned_batch_verify(items):
        raise VerificationError("batch item 1: forged")

    monkeypatch.setattr(net2.client.user, "batch_verify", poisoned_batch_verify)
    responses = net2.client.execute_many(queries)
    # the batch pass failed, so each answer was re-verified individually
    assert all(r.ok for r in responses)
    assert all(r.user_stats is not None for r in responses)
