"""Subscription query engine (paper Section 7, Algorithms 5 and 7).

The SP registers subscriptions, observes each newly mined block, and
publishes per-query deliveries ``⟨results, VO⟩``.  Two authentication
modes:

* **realtime** — every block produces a delivery for every query: a
  full intra-tree transcript when the block may contain matches, or a
  single root-level mismatch proof otherwise.
* **lazy** (acc2 only) — mismatching blocks are parked on a per-query
  stack; when a match finally arrives (or ``flush`` is called), the
  stack is drained into the delivery.  Runs of same-clause blocks that
  align with an inter-block skip entry are replaced by one skip proof,
  computed via ``ProofSum`` of the per-block proofs accumulated online
  — the SP never recomputes a big disjointness proof from scratch.

Proof sharing: with the IP-tree enabled, queries mismatching a node for
the same clause share a single ``ProveDisjoint`` call (the proof cache
is keyed by block/node/clause).  Without it (the paper's ``nip``
baseline), every query pays for its own proof — that difference is
exactly Fig 12.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from repro.accumulators.base import DisjointProof, MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.cache.fragments import ProofCache, compute_disjoint_proof
from repro.chain.block import Block
from repro.chain.miner import ProtocolParams
from repro.chain.object import DataObject
from repro.core.query import SubscriptionQuery
from repro.core.vo import (
    TimeWindowVO,
    VOBlock,
    VOExpandNode,
    VOMatchLeaf,
    VOMismatchNode,
    VONode,
    VOSkip,
)
from repro.errors import QueryError, SubscriptionError
from repro.index.intra import IndexNode, children_hash
from repro.subscribe.iptree import IPTree, RegisteredQuery, register_query


@dataclass
class Delivery:
    """One push to one subscriber: results + the VO covering a height run."""

    query_id: int
    from_height: int
    up_to_height: int
    results: list[DataObject]
    vo: TimeWindowVO

    def heights(self) -> list[int]:
        return list(range(self.from_height, self.up_to_height + 1))


@dataclass
class EngineStats:
    """SP-side accounting across the engine's lifetime."""

    sp_seconds: float = 0.0
    proofs_computed: int = 0
    proofs_shared: int = 0
    deliveries: int = 0


@dataclass
class _PendingBlock:
    """Lazy-mode stack entry: a fully mismatching block."""

    height: int
    clause: frozenset[str]
    jump: int  # how many chain blocks this entry stands for (Alg 5 stack)
    sum_proof: DisjointProof | None  # proof vs block attrs_sum, for ProofSum


class SubscriptionEngine:
    """SP-side engine multiplexing many subscriptions over new blocks.

    The engine is deliberately **ephemeral**: registrations are live
    client state, not chain state, so nothing here is persisted by
    :mod:`repro.storage`.  After an SP restart
    (``ServiceEndpoint.open``) a fresh engine starts empty, clients
    re-register, and new subscriptions default to seeing only blocks
    mined from now on — while the reopened *chain* still serves the
    whole history through time-window queries.  An explicit
    ``since_height`` may reach back into recovered blocks as long as
    the endpoint has not ingested past it yet.
    """

    def __init__(
        self,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
        use_iptree: bool = True,
        lazy: bool = False,
        iptree_dims: int | None = None,
        iptree_max_depth: int = 6,
        proof_cache: ProofCache | None = None,
    ) -> None:
        if lazy and not accumulator.supports_aggregation:
            raise QueryError("lazy authentication requires an aggregating accumulator")
        self.accumulator = accumulator
        self.encoder = encoder
        self.params = params
        self.use_iptree = use_iptree
        self.lazy = lazy
        #: persistent content-keyed proof memo (shared with the query
        #: path by ServiceEndpoint); the per-block dict in
        #: ``process_block`` only shares within one block
        self.proof_cache = proof_cache
        self.stats = EngineStats()
        self._iptree: IPTree | None = None
        self._iptree_dims = iptree_dims
        self._iptree_max_depth = iptree_max_depth
        self._queries: dict[int, RegisteredQuery] = {}
        self._next_id = 0
        self._last_delivered: dict[int, int] = {}  # qid -> height
        self._pending: dict[int, list[_PendingBlock]] = {}
        self._blocks: dict[int, Block] = {}

    # -- registration -----------------------------------------------------
    def register(self, query: SubscriptionQuery, since_height: int = 0) -> int:
        """Register a subscription; deliveries start at ``since_height``."""
        query_id = self._next_id
        self._next_id += 1
        registered = register_query(query_id, query, self.params.bits)
        self._queries[query_id] = registered
        self._last_delivered[query_id] = since_height - 1
        self._pending[query_id] = []
        if self.use_iptree:
            if self._iptree is None:
                dims = self._iptree_dims
                if dims is None:
                    # the grid over the *leading* dimensions only: each
                    # split creates 2^dims children, so high-dimensional
                    # grids explode; the paper presents a 2-D grid and
                    # range predicates constrain few attributes anyway.
                    # Trailing dimensions fall back to direct clause
                    # tests, which stay correct (see IPTree.classify).
                    dims = (
                        min(2, len(query.numeric.low))
                        if query.numeric is not None
                        else 1
                    )
                self._iptree = IPTree(
                    dims=dims, bits=self.params.bits, max_depth=self._iptree_max_depth
                )
            self._iptree.insert(registered)
        return query_id

    def deregister(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise SubscriptionError(f"query {query_id} is not registered")
        del self._queries[query_id]
        del self._last_delivered[query_id]
        del self._pending[query_id]
        if self._iptree is not None:
            self._iptree.remove(query_id)

    # -- block processing --------------------------------------------------------
    def process_block(self, block: Block) -> list[Delivery]:
        """Ingest one newly confirmed block; return the due deliveries."""
        started = time.perf_counter()
        self._blocks[block.height] = block
        proof_cache: dict[tuple, DisjointProof] = {}
        deliveries: list[Delivery] = []

        root = block.index_root
        root_mismatch, candidates = self._classify(root.attrs)
        for query_id, registered in self._queries.items():
            if block.height <= self._last_delivered[query_id]:
                continue
            clause = root_mismatch.get(query_id)
            if clause is not None:
                delivery = self._on_block_mismatch(
                    registered, block, clause, proof_cache
                )
            else:
                delivery = self._on_block_candidate(registered, block, proof_cache)
            if delivery is not None:
                deliveries.append(delivery)
        self.stats.sp_seconds += time.perf_counter() - started
        self.stats.deliveries += len(deliveries)
        return deliveries

    def flush(self, query_id: int) -> Delivery | None:
        """Drain a lazy query's pending stack without waiting for a match."""
        registered = self._queries.get(query_id)
        if registered is None:
            raise SubscriptionError(f"query {query_id} is not registered")
        if not self._pending[query_id]:
            return None
        started = time.perf_counter()
        entries = self._drain_pending(query_id)
        up_to = self._pending_top_height(entries)
        delivery = Delivery(
            query_id=query_id,
            from_height=self._last_delivered[query_id] + 1,
            up_to_height=up_to,
            results=[],
            vo=TimeWindowVO(entries=entries),
        )
        self._last_delivered[query_id] = up_to
        self.stats.sp_seconds += time.perf_counter() - started
        self.stats.deliveries += 1
        return delivery

    # -- per-query handling ------------------------------------------------------
    def _classify(self, attrs: Counter):
        if self.use_iptree and self._iptree is not None and len(self._iptree):
            return self._iptree.classify(attrs)
        mismatches: dict[int, frozenset[str]] = {}
        candidates: set[int] = set()
        for query_id, registered in self._queries.items():
            clause = registered.mismatch_clause(attrs)
            if clause is not None:
                mismatches[query_id] = clause
            else:
                candidates.add(query_id)
        return mismatches, candidates

    def _on_block_mismatch(
        self,
        registered: RegisteredQuery,
        block: Block,
        clause: frozenset[str],
        proof_cache: dict,
    ) -> Delivery | None:
        if self.lazy:
            sum_proof = self._shared_proof(
                ("sum", block.height, clause), block.attrs_sum, clause, proof_cache
            )
            self._push_pending(registered.query_id, block, clause, sum_proof)
            return None
        vo_node = VOMismatchNode(
            child_component=children_hash(block.index_root.children)
            if not block.index_root.is_leaf
            else block.index_root.obj.serialize(),
            att_digest=block.index_root.att_digest,
            clause=clause,
            proof=self._shared_proof(
                ("root", block.height, clause),
                block.index_root.attrs,
                clause,
                proof_cache,
            ),
        )
        return self._realtime_delivery(registered.query_id, block, [], vo_node)

    def _on_block_candidate(
        self,
        registered: RegisteredQuery,
        block: Block,
        proof_cache: dict,
    ) -> Delivery | None:
        results: list[DataObject] = []
        transcript = self._descend(
            block.index_root, block.height, registered, results, proof_cache
        )
        if self.lazy:
            if not results:
                # the block as a whole had no result but no single root
                # clause either: deliver the transcript immediately — it
                # cannot aggregate with neighbours (no shared clause).
                delivery = self._lazy_delivery(
                    registered.query_id, block, [], transcript
                )
            else:
                delivery = self._lazy_delivery(
                    registered.query_id, block, results, transcript
                )
            return delivery
        return self._realtime_delivery(registered.query_id, block, results, transcript)

    # -- intra-tree descent (shared by realtime and lazy) ---------------------
    def _descend(
        self,
        node: IndexNode,
        height: int,
        registered: RegisteredQuery,
        results: list[DataObject],
        proof_cache: dict,
    ) -> VONode:
        if node.att_digest is not None:
            clause = registered.mismatch_clause(node.attrs)
            if clause is not None:
                component = (
                    node.obj.serialize()
                    if node.is_leaf
                    else children_hash(node.children)
                )
                return VOMismatchNode(
                    child_component=component,
                    att_digest=node.att_digest,
                    clause=clause,
                    proof=self._shared_proof(
                        ("node", height, id(node), clause),
                        node.attrs,
                        clause,
                        proof_cache,
                    ),
                )
            if node.is_leaf:
                results.append(node.obj)
                return VOMatchLeaf(obj=node.obj)
        return VOExpandNode(
            att_digest=node.att_digest,
            children=tuple(
                self._descend(child, height, registered, results, proof_cache)
                for child in node.children
            ),
        )

    def _shared_proof(
        self,
        key: tuple,
        attrs: Counter,
        clause: frozenset[str],
        proof_cache: dict,
    ) -> DisjointProof:
        """ProveDisjoint with cross-query sharing (IP-tree mode only)."""
        if self.use_iptree:
            proof = proof_cache.get(key)
            if proof is not None:
                self.stats.proofs_shared += 1
                return proof
        proof = self._prove_cached(attrs, clause)
        if self.use_iptree:
            proof_cache[key] = proof
        return proof

    def _prove_cached(self, attrs: Counter, clause: frozenset[str]) -> DisjointProof:
        """ProveDisjoint through the persistent content-keyed memo, if any.

        The persistent cache is shared with the time-window query path
        by :class:`~repro.api.service.ServiceEndpoint`, so proofs flow
        both ways: a subscriber's block proof serves later historical
        queries and vice versa.
        """
        if self.proof_cache is not None and self.proof_cache.enabled:
            proof, hit = self.proof_cache.prove_disjoint(attrs, clause)
            if hit:
                self.stats.proofs_shared += 1
            else:
                self.stats.proofs_computed += 1
            return proof
        proof = compute_disjoint_proof(self.accumulator, self.encoder, attrs, clause)
        self.stats.proofs_computed += 1
        return proof

    # -- realtime deliveries ------------------------------------------------------
    def _realtime_delivery(
        self,
        query_id: int,
        block: Block,
        results: list[DataObject],
        transcript: VONode,
    ) -> Delivery:
        delivery = Delivery(
            query_id=query_id,
            from_height=block.height,
            up_to_height=block.height,
            results=results,
            vo=TimeWindowVO(entries=[VOBlock(height=block.height, root=transcript)]),
        )
        self._last_delivered[query_id] = block.height
        return delivery

    # -- lazy authentication (Algorithm 5) ------------------------------------
    def _push_pending(
        self,
        query_id: int,
        block: Block,
        clause: frozenset[str],
        sum_proof: DisjointProof,
    ) -> None:
        stack = self._pending[query_id]
        stack.append(
            _PendingBlock(
                height=block.height, clause=clause, jump=1, sum_proof=sum_proof
            )
        )
        self._compact_pending(query_id, block)

    def _compact_pending(self, query_id: int, block: Block) -> None:
        """Replace a same-clause run with one skip entry when possible."""
        stack = self._pending[query_id]
        if not stack:
            return
        top = stack[-1]
        if top.height != block.height:
            return
        for entry in sorted(block.skip_entries, key=lambda e: -e.distance):
            covered = entry.distance
            # count stack entries (newest-first) sharing the clause until
            # their jumps add up to the skip distance
            total = 0
            used = 0
            for pending in reversed(stack):
                if pending.clause != top.clause:
                    break
                total += pending.jump
                used += 1
                if total >= covered:
                    break
            if total == covered and used >= 2:
                merged = stack[len(stack) - used:]
                del stack[len(stack) - used:]
                proofs = [p.sum_proof for p in merged if p.sum_proof is not None]
                aggregated = (
                    self.accumulator.sum_proofs(proofs)
                    if len(proofs) == used
                    else None
                )
                stack.append(
                    _PendingBlock(
                        height=block.height,
                        clause=top.clause,
                        jump=covered,
                        sum_proof=aggregated,
                    )
                )
                return

    def _lazy_delivery(
        self,
        query_id: int,
        block: Block,
        results: list[DataObject],
        transcript: VONode,
    ) -> Delivery:
        entries: list[VOBlock | VOSkip] = [
            VOBlock(height=block.height, root=transcript)
        ]
        entries.extend(self._drain_pending(query_id))
        delivery = Delivery(
            query_id=query_id,
            from_height=self._last_delivered[query_id] + 1,
            up_to_height=block.height,
            results=results,
            vo=TimeWindowVO(entries=entries),
        )
        self._last_delivered[query_id] = block.height
        return delivery

    def _drain_pending(self, query_id: int) -> list[VOBlock | VOSkip]:
        """Convert the pending stack into VO entries (newest → oldest)."""
        entries: list[VOBlock | VOSkip] = []
        stack = self._pending[query_id]
        for pending in reversed(stack):
            block = self._blocks[pending.height]
            if pending.jump > 1:
                entry = next(
                    e for e in block.skip_entries if e.distance == pending.jump
                )
                proof = pending.sum_proof
                if proof is None:
                    proof = self._prove_cached(entry.attrs, pending.clause)
                siblings = tuple(
                    (other.distance, other.entry_hash(self.accumulator.backend))
                    for other in block.skip_entries
                    if other.distance != entry.distance
                )
                entries.append(
                    VOSkip(
                        height=pending.height,
                        distance=pending.jump,
                        att_digest=entry.att_digest,
                        clause=pending.clause,
                        proof=proof,
                        sibling_hashes=siblings,
                    )
                )
            else:
                root = block.index_root
                component = (
                    root.obj.serialize()
                    if root.is_leaf
                    else children_hash(root.children)
                )
                proof = self._prove_cached(root.attrs, pending.clause)
                entries.append(
                    VOBlock(
                        height=pending.height,
                        root=VOMismatchNode(
                            child_component=component,
                            att_digest=root.att_digest,
                            clause=pending.clause,
                            proof=proof,
                        ),
                    )
                )
        stack.clear()
        return entries

    @staticmethod
    def _pending_top_height(entries: list[VOBlock | VOSkip]) -> int:
        return max(entry.height for entry in entries)
