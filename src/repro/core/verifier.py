"""User-side result verification (light node).

The verifier replays the SP's VO against block headers it synced
itself.  It establishes, per the paper's threat model:

* **soundness** — every returned object hashes into a Merkle root that
  matches the block header (so it exists on-chain, untampered) *and*
  satisfies the query predicate (re-checked on raw attributes);
* **completeness** — every block of the window is accounted for, either
  by a tree transcript whose reconstructed root matches the header
  (with every pruned subtree carrying a valid disjointness proof
  against an actual query clause), or by a verified skip-list entry.

Any deviation raises :class:`VerificationError` naming the failed
check.  Verification cost (time, pairing count) is reported via
:class:`VerifyStats` — this is the paper's "user CPU time" metric.

Every disjointness check here — per-clause, per-group, and the
random-weighted aggregates of :meth:`QueryVerifier.batch_verify` — is a
pairing-*product* equation, and the accumulators evaluate it through
``backend.multi_pairing``: the Miller loops of the product accumulate
into one value that pays a single final exponentiation.  The weighting
exponentiations of a batch run on the Jacobian wNAF fast path, so
batching is cheap even before aggregation kicks in.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.accumulators.base import (
    AccumulatorValue,
    DisjointProof,
    MultisetAccumulator,
)
from repro.accumulators.encoding import ElementEncoder
from repro.chain.light import LightNode
from repro.chain.miner import ProtocolParams
from repro.chain.object import DataObject
from repro.core.query import CNFCondition, TimeWindowQuery
from repro.core.vo import (
    TimeWindowVO,
    VOBlock,
    VOExpandNode,
    VOMatchLeaf,
    VOMismatchNode,
    VONode,
    VOSkip,
)
from repro.crypto.hashing import digest
from repro.errors import VerificationError
from repro.index.inter import pre_skipped_hash, skip_distances
from repro.index.intra import encode_digest, internal_hash


@dataclass
class VerifyStats:
    """User-side accounting for one verification."""

    user_seconds: float = 0.0
    disjoint_checks: int = 0
    digests_recomputed: int = 0
    nodes_replayed: int = 0
    #: individual checks folded into aggregated pairings by batch_verify
    batched_checks: int = 0


@dataclass
class _GroupMembers:
    """Digests collected for one batch group during the walk."""

    clause: frozenset[str] | None = None
    digests: list[AccumulatorValue] = field(default_factory=list)


@dataclass(frozen=True)
class _DeferredCheck:
    """One disjointness check postponed by :meth:`QueryVerifier.batch_verify`."""

    item: int
    value: AccumulatorValue
    clause: frozenset[str]
    proof: DisjointProof


def weighted_fold(
    accumulator: MultisetAccumulator,
    items: Sequence[tuple[AccumulatorValue, DisjointProof, int]],
) -> tuple[AccumulatorValue, DisjointProof]:
    """``(Sum(value_i^w_i), ProofSum(proof_i^w_i))`` over weighted checks.

    The random-weighted aggregation fold of
    :meth:`QueryVerifier.batch_verify`: one pairing equation then stands
    for every check in ``items``.
    """
    backend = accumulator.backend
    values = [
        AccumulatorValue(parts=tuple(backend.exp(part, weight) for part in value.parts))
        for value, _proof, weight in items
    ]
    proofs = [
        DisjointProof(parts=tuple(backend.exp(part, weight) for part in proof.parts))
        for _value, proof, weight in items
    ]
    return accumulator.sum_values(values), accumulator.sum_proofs(proofs)


class QueryVerifier:
    """Replays VOs for a light-node user."""

    def __init__(
        self,
        light_node: LightNode,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
    ) -> None:
        self.light = light_node
        self.accumulator = accumulator
        self.encoder = encoder
        self.params = params
        self._clause_cache: dict[frozenset[str], AccumulatorValue] = {}

    # -- public API -----------------------------------------------------
    def verify_time_window(
        self,
        query: TimeWindowQuery,
        claimed_results: list[DataObject],
        vo: TimeWindowVO,
    ) -> tuple[list[DataObject], VerifyStats]:
        """Verify ``(claimed_results, vo)``; returns (results, stats).

        Raises :class:`VerificationError` on the first failed check.
        """
        heights = self.light.heights_in_window(query.start, query.end)
        return self.verify_over_heights(query, heights, claimed_results, vo)

    def verify_over_heights(
        self,
        query,
        heights: list[int],
        claimed_results: list[DataObject],
        vo: TimeWindowVO,
        *,
        _defer: tuple[int, list[_DeferredCheck]] | None = None,
    ) -> tuple[list[DataObject], VerifyStats]:
        """Verify a VO claimed to cover exactly ``heights`` (ascending).

        Shared by time-window verification (heights derived from the
        query window) and subscription verification (heights are the
        contiguous run since the previous delivery).  With ``_defer``
        set (internal, used by :meth:`batch_verify`), the structural
        replay runs in full but pairing-equation checks are collected
        into the deferred list instead of being verified immediately.
        """
        started = time.perf_counter()
        stats = VerifyStats()
        cnf = query.transformed(self.params.bits)
        groups: dict[int, _GroupMembers] = {}
        verified: list[DataObject] = []

        cursor = len(heights) - 1
        for entry in vo.entries:
            if cursor < 0:
                raise VerificationError("VO has entries beyond the query window")
            expected_height = heights[cursor]
            if isinstance(entry, VOBlock):
                if entry.height != expected_height:
                    raise VerificationError(
                        f"VO block height {entry.height}, expected {expected_height}"
                    )
                root_hash = self._replay_node(
                    entry.root, query, cnf, groups, verified, stats, _defer
                )
                header = self.light.header(entry.height)
                if root_hash != header.merkle_root:
                    raise VerificationError(
                        f"reconstructed Merkle root mismatch at height {entry.height}"
                    )
                cursor -= 1
            elif isinstance(entry, VOSkip):
                self._replay_skip(entry, expected_height, cnf, groups, stats, _defer)
                cursor -= entry.distance
            else:  # pragma: no cover - structural guard
                raise VerificationError(f"unknown VO entry type {type(entry).__name__}")
        if cursor >= 0:
            raise VerificationError(
                f"VO does not cover {cursor + 1} block(s) of the query window"
            )

        self._check_groups(vo, groups, stats, _defer)
        self._check_claimed(claimed_results, verified)
        stats.user_seconds = time.perf_counter() - started
        return verified, stats

    def batch_verify(
        self,
        items: Sequence[tuple],
    ) -> tuple[list[list[DataObject]], VerifyStats]:
        """Verify many ``(query, claimed_results, vo)`` answers in one pass.

        Structural replay (Merkle reconstruction, window coverage,
        predicate re-checks) still runs per VO, but the pairing-equation
        work is shared: all disjointness checks against the same clause
        — across *all* the VOs — are aggregated into a single pairing
        via acc2's ``Sum``/``ProofSum``, after scaling each member by a
        random exponent so independently forged proofs cannot cancel.
        Clause digests are computed once per distinct clause.

        Returns the per-item verified result lists and one combined
        :class:`VerifyStats` (``batched_checks`` counts the individual
        checks folded into aggregates).  Raises
        :class:`VerificationError` naming the offending batch item on
        the first failure.  Without an aggregating accumulator the
        checks fall back to individual pairings but still share the
        clause-digest cache.
        """
        started = time.perf_counter()
        stats = VerifyStats()
        deferred: list[_DeferredCheck] = []
        all_verified: list[list[DataObject]] = []
        for index, (query, claimed, vo) in enumerate(items):
            heights = self.light.heights_in_window(query.start, query.end)
            try:
                verified, item_stats = self.verify_over_heights(
                    query, heights, claimed, vo, _defer=(index, deferred)
                )
            except VerificationError as exc:
                raise VerificationError(f"batch item {index}: {exc}") from exc
            stats.disjoint_checks += item_stats.disjoint_checks
            stats.digests_recomputed += item_stats.digests_recomputed
            stats.nodes_replayed += item_stats.nodes_replayed
            all_verified.append(verified)
        self._flush_deferred(deferred, stats)
        stats.user_seconds = time.perf_counter() - started
        return all_verified, stats

    def _flush_deferred(
        self, deferred: list[_DeferredCheck], stats: VerifyStats
    ) -> None:
        """Run the postponed disjointness checks, aggregated per clause."""
        by_clause: dict[frozenset[str], list[_DeferredCheck]] = {}
        for check in deferred:
            by_clause.setdefault(check.clause, []).append(check)
        rng = random.SystemRandom()
        backend = self.accumulator.backend
        for clause, checks in by_clause.items():
            clause_digest = self._clause_digest(clause, stats)
            if len(checks) > 1 and self.accumulator.supports_aggregation:
                weights = [rng.randrange(1, backend.order) for _ in checks]
                stats.disjoint_checks += 1
                stats.batched_checks += len(checks)
                summed_value, summed_proof = weighted_fold(
                    self.accumulator,
                    [
                        (check.value, check.proof, weight)
                        for check, weight in zip(checks, weights)
                    ],
                )
                if self.accumulator.verify_disjoint(
                    summed_value, clause_digest, summed_proof
                ):
                    continue
                # aggregate failed: fall through to pinpoint the culprit
            for check in checks:
                stats.disjoint_checks += 1
                if not self.accumulator.verify_disjoint(
                    check.value, clause_digest, check.proof
                ):
                    raise VerificationError(
                        f"batch item {check.item}: "
                        "disjointness proof failed verification"
                    )
            if len(checks) > 1 and self.accumulator.supports_aggregation:
                # unreachable algebraically: the aggregate is the weighted
                # product of the individual equations
                raise VerificationError(  # pragma: no cover - structural guard
                    "aggregated batch verification failed without a culprit"
                )

    # -- tree replay ------------------------------------------------------
    def _replay_node(
        self,
        node: VONode,
        query: TimeWindowQuery,
        cnf: CNFCondition,
        groups: dict[int, _GroupMembers],
        verified: list[DataObject],
        stats: VerifyStats,
        defer: tuple[int, list[_DeferredCheck]] | None = None,
    ) -> bytes:
        stats.nodes_replayed += 1
        if isinstance(node, VOMatchLeaf):
            obj = node.obj
            if not query.in_window(obj.timestamp):
                raise VerificationError(
                    f"object {obj.object_id} lies outside the query window"
                )
            if not query.matches_object(obj, self.params.bits):
                raise VerificationError(
                    f"object {obj.object_id} does not satisfy the query"
                )
            att_digest = self.accumulator.accumulate(
                self.encoder.encode_multiset(obj.attribute_multiset(self.params.bits))
            )
            stats.digests_recomputed += 1
            verified.append(obj)
            return internal_hash(
                obj.serialize(), encode_digest(self.accumulator.backend, att_digest)
            )
        if isinstance(node, VOMismatchNode):
            self._check_mismatch(
                node.clause,
                node.att_digest,
                node.proof,
                node.group,
                cnf,
                groups,
                stats,
                defer,
            )
            return internal_hash(
                node.child_component,
                encode_digest(self.accumulator.backend, node.att_digest),
            )
        if isinstance(node, VOExpandNode):
            if not node.children:
                raise VerificationError("expanded VO node has no children")
            component = digest(
                *(
                    self._replay_node(child, query, cnf, groups, verified, stats, defer)
                    for child in node.children
                )
            )
            if node.att_digest is None:
                return component
            return internal_hash(
                component, encode_digest(self.accumulator.backend, node.att_digest)
            )
        raise VerificationError(f"unknown VO node type {type(node).__name__}")

    # -- skip replay -----------------------------------------------------------
    def _replay_skip(
        self,
        skip: VOSkip,
        expected_height: int,
        cnf: CNFCondition,
        groups: dict[int, _GroupMembers],
        stats: VerifyStats,
        defer: tuple[int, list[_DeferredCheck]] | None = None,
    ) -> None:
        if skip.height != expected_height:
            raise VerificationError(
                f"VO skip at height {skip.height}, expected {expected_height}"
            )
        valid_distances = [
            d
            for d in skip_distances(self.params.skip_size, self.params.skip_base)
            if d - 1 <= skip.height
        ]
        if skip.distance not in valid_distances:
            raise VerificationError(
                f"skip distance {skip.distance} not in the protocol schedule"
            )
        header = self.light.header(skip.height)
        prev_hashes = [
            self.light.header(h).block_hash()
            for h in range(skip.height - 1, skip.height - skip.distance, -1)
        ]
        pre_hash = pre_skipped_hash(header.merkle_root, prev_hashes)
        entry_hash = digest(
            pre_hash, encode_digest(self.accumulator.backend, skip.att_digest)
        )
        hashes = {distance: sibling for distance, sibling in skip.sibling_hashes}
        if skip.distance in hashes:
            raise VerificationError("VO skip duplicates its own entry hash")
        hashes[skip.distance] = entry_hash
        if sorted(hashes) != valid_distances:
            raise VerificationError("VO skip sibling hashes do not match the schedule")
        root = digest(*(hashes[d] for d in valid_distances))
        if root != header.skiplist_root:
            raise VerificationError(
                f"reconstructed SkipListRoot mismatch at height {skip.height}"
            )
        self._check_mismatch(
            skip.clause,
            skip.att_digest,
            skip.proof,
            skip.group,
            cnf,
            groups,
            stats,
            defer,
        )

    # -- mismatch evidence -------------------------------------------------------
    def _clause_digest(self, clause: frozenset[str], stats: VerifyStats):
        value = self._clause_cache.get(clause)
        if value is None:
            value = self.accumulator.accumulate(
                self.encoder.encode_multiset(Counter(clause))
            )
            self._clause_cache[clause] = value
            stats.digests_recomputed += 1
        return value

    def _check_mismatch(
        self,
        clause: frozenset[str],
        att_digest: AccumulatorValue,
        proof,
        group: int | None,
        cnf: CNFCondition,
        groups: dict[int, _GroupMembers],
        stats: VerifyStats,
        defer: tuple[int, list[_DeferredCheck]] | None = None,
    ) -> None:
        if clause not in cnf.clauses:
            raise VerificationError(
                "mismatch proof references a clause that is not part of the query"
            )
        if group is not None:
            member = groups.setdefault(group, _GroupMembers())
            if member.clause is None:
                member.clause = clause
            elif member.clause != clause:
                raise VerificationError(
                    "batch group mixes mismatch proofs for different clauses"
                )
            member.digests.append(att_digest)
            return
        if proof is None:
            raise VerificationError("mismatch node carries neither proof nor group")
        if defer is not None:
            item, checks = defer
            checks.append(_DeferredCheck(item, att_digest, clause, proof))
            return
        stats.disjoint_checks += 1
        if not self.accumulator.verify_disjoint(
            att_digest, self._clause_digest(clause, stats), proof
        ):
            raise VerificationError("disjointness proof failed verification")

    def _check_groups(
        self,
        vo: TimeWindowVO,
        groups: dict[int, _GroupMembers],
        stats: VerifyStats,
        defer: tuple[int, list[_DeferredCheck]] | None = None,
    ) -> None:
        for group_id, members in groups.items():
            batch = vo.batch_groups.get(group_id)
            if batch is None:
                raise VerificationError(f"VO lacks batch group {group_id}")
            if batch.clause != members.clause:
                raise VerificationError(
                    f"batch group {group_id} clause does not match its members"
                )
            summed = self.accumulator.sum_values(members.digests)
            if defer is not None:
                item, checks = defer
                checks.append(_DeferredCheck(item, summed, batch.clause, batch.proof))
                continue
            stats.disjoint_checks += 1
            if not self.accumulator.verify_disjoint(
                summed, self._clause_digest(batch.clause, stats), batch.proof
            ):
                raise VerificationError(
                    f"aggregated disjointness proof of group {group_id} failed"
                )

    @staticmethod
    def _check_claimed(
        claimed: list[DataObject], verified: list[DataObject]
    ) -> None:
        claimed_ids = sorted(obj.object_id for obj in claimed)
        verified_ids = sorted(obj.object_id for obj in verified)
        if claimed_ids != verified_ids:
            raise VerificationError(
                "claimed result set differs from the VO-verified result set"
            )
