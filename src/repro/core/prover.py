"""SP-side verifiable query processing (Algorithms 1, 3 and 4).

The :class:`QueryProcessor` walks the window newest→oldest.  At each
block it first tries the inter-block skip list (largest distance first,
Algorithm 4); failing that it runs the intra-index tree search
(Algorithm 3), pruning mismatching subtrees with disjointness proofs and
returning matching leaves as results.

*Online batch verification* (Section 6.3): with an aggregating
accumulator (acc2) and ``batch=True``, mismatch sites that share the
same query clause are grouped; the SP computes **one** proof per group
against the multiset *sum* of the group's members (algebraically equal
to the ProofSum of the individual proofs) — fewer pairings for the user
and fewer group elements on the wire.

*Serving caches* (the concurrency path): every step of the window walk
is computed as a self-contained :class:`~repro.cache.BlockFragment` —
a pure function of ``(block, CNF, batch mode)`` — so a
:class:`~repro.cache.VOFragmentCache` can replay it for overlapping
windows and a :class:`~repro.cache.ProofCache` can reuse individual
disjointness proofs across queries and subscribers.  Both caches are
optional per-call arguments; omitted, behaviour and output bytes are
identical to the uncached path.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.accumulators.base import DisjointProof, MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.cache.fragments import (
    BlockFragment,
    ProofCache,
    VOFragmentCache,
    bind_groups,
    compute_disjoint_proof,
    multiset_signature,
)
from repro.chain.block import Block
from repro.chain.chain import Blockchain
from repro.chain.object import DataObject
from repro.chain.miner import ProtocolParams
from repro.core.query import CNFCondition, TimeWindowQuery
from repro.core.vo import (
    BatchGroup,
    TimeWindowVO,
    VOBlock,
    VOExpandNode,
    VOMatchLeaf,
    VOMismatchNode,
    VONode,
    VOSkip,
)
from repro.errors import QueryError
from repro.index.intra import IndexNode, children_hash


@dataclass
class QueryStats:
    """SP-side accounting for one query."""

    sp_seconds: float = 0.0
    blocks_scanned: int = 0
    blocks_skipped: int = 0
    proofs_computed: int = 0
    nodes_visited: int = 0
    results: int = 0
    #: per-block VO fragments replayed from the fragment cache
    cache_hits: int = 0
    #: fragment-cache lookups that had to compute (cache enabled only)
    cache_misses: int = 0
    #: disjointness proofs served from the proof cache instead of proved
    proofs_reused: int = 0


def prove_sites(
    accumulator: MultisetAccumulator,
    encoder: ElementEncoder,
    sites: list[tuple[Counter, frozenset[str]]],
    proof_cache: ProofCache | None,
    stats: QueryStats | None,
) -> list[DisjointProof]:
    """Disjointness proofs for many sites at once, in site order.

    Content-identical sites collapse to one computation, through the
    proof cache when one is enabled.  With a cache, the first occurrence
    of a content counts ``proofs_computed`` and every repeat
    ``proofs_reused``; without one, every site counts
    ``proofs_computed``.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (attrs, clause) in enumerate(sites):
        groups.setdefault((multiset_signature(attrs), clause), []).append(index)

    caching = proof_cache is not None and proof_cache.enabled
    proofs: list[DisjointProof | None] = [None] * len(sites)
    for indices in groups.values():
        attrs, clause = sites[indices[0]]
        if caching:
            proof, hit = proof_cache.prove_disjoint(attrs, clause)
            computed = 0 if hit else 1
        else:
            proof = compute_disjoint_proof(accumulator, encoder, attrs, clause)
            computed = len(indices)
        for index in indices:
            proofs[index] = proof
        if stats is not None:
            stats.proofs_computed += computed
            stats.proofs_reused += len(indices) - computed
    return proofs


@dataclass
class _BatchCollector:
    """Accumulates same-clause mismatch multisets for one query."""

    accumulator: MultisetAccumulator
    encoder: ElementEncoder
    groups: dict[frozenset[str], int] = field(default_factory=dict)
    sums: dict[int, Counter] = field(default_factory=dict)

    def group_for(self, clause: frozenset[str], attrs: Counter) -> int:
        group = self.groups.get(clause)
        if group is None:
            group = len(self.groups)
            self.groups[clause] = group
            self.sums[group] = Counter()
        self.sums[group].update(attrs)
        return group

    def finalize(
        self,
        proof_cache: ProofCache | None = None,
        stats: QueryStats | None = None,
    ) -> dict[int, BatchGroup]:
        ordered = list(self.groups.items())
        sites = [(self.sums[group], clause) for clause, group in ordered]
        proofs = prove_sites(self.accumulator, self.encoder, sites, proof_cache, stats)
        return {
            group: BatchGroup(clause=clause, proof=proof)
            for (clause, group), proof in zip(ordered, proofs)
        }


class _FragmentCollector:
    """Batch-mode recorder for one fragment: sums clauses, binds no ids.

    Mismatch sites built against it get ``group=None`` (the normalised
    form cached by :class:`~repro.cache.VOFragmentCache`); the per-clause
    attribute sums are merged into a query-global
    :class:`_BatchCollector` when the fragment is integrated.
    """

    def __init__(self) -> None:
        self.sums: dict[frozenset[str], Counter] = {}

    def group_for(self, clause: frozenset[str], attrs: Counter) -> None:
        self.sums.setdefault(clause, Counter()).update(attrs)
        return None

    def snapshot(self) -> tuple[tuple[frozenset[str], Counter], ...]:
        return tuple(self.sums.items())


class QueryProcessor:
    """The service provider's verifiable query engine."""

    def __init__(
        self,
        chain: Blockchain,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
    ) -> None:
        self.chain = chain
        self.accumulator = accumulator
        self.encoder = encoder
        self.params = params

    # -- public API -----------------------------------------------------
    def time_window_query(
        self,
        query: TimeWindowQuery,
        batch: bool | None = None,
        *,
        fragment_cache: VOFragmentCache | None = None,
        proof_cache: ProofCache | None = None,
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
        """Process a time-window query; returns (results, VO, stats).

        ``batch`` defaults to the accumulator's aggregation capability.
        ``fragment_cache``/``proof_cache`` memoise per-block fragments
        and disjointness proofs across calls; callers that share them
        (the :class:`~repro.api.ServiceEndpoint` serving path) amortise
        proving work over overlapping queries.
        """
        if batch is None:
            batch = self.accumulator.supports_aggregation
        if batch and not self.accumulator.supports_aggregation:
            raise QueryError("online batch verification requires acc2")

        start = time.perf_counter()
        stats = QueryStats()
        cnf = query.transformed(self.params.bits)
        collector = _BatchCollector(self.accumulator, self.encoder) if batch else None
        caching = fragment_cache is not None and fragment_cache.enabled
        results: list[DataObject] = []
        vo = TimeWindowVO()

        heights = self.chain.heights_in_window(query.start, query.end)
        cursor = len(heights) - 1
        while cursor >= 0:
            height = heights[cursor]
            fragment = None
            key = None
            if caching:
                key = fragment_cache.key(height, cnf.clauses, batch)
                fragment = fragment_cache.get(key)
            if fragment is None:
                fragment = self._compute_fragment(
                    self.chain.block(height), cnf, batch, stats, proof_cache
                )
                if caching:
                    stats.cache_misses += 1
                    fragment_cache.put(key, fragment)
            else:
                stats.cache_hits += 1

            entry = fragment.entry
            if collector is not None and fragment.clause_sums:
                for clause, attr_sum in fragment.clause_sums:
                    collector.group_for(clause, attr_sum)
                entry = bind_groups(entry, collector.groups)
            results.extend(fragment.results)
            vo.entries.append(entry)
            cursor -= fragment.covered
            if isinstance(entry, VOSkip):
                stats.blocks_skipped += min(entry.distance, cursor + entry.distance + 1)
            else:
                stats.blocks_scanned += 1

        if collector is not None:
            vo.batch_groups = collector.finalize(proof_cache, stats)
        stats.results = len(results)
        stats.sp_seconds = time.perf_counter() - start
        return results, vo, stats

    # -- per-block fragments ------------------------------------------------
    def _compute_fragment(
        self,
        block: Block,
        cnf: CNFCondition,
        batch: bool,
        stats: QueryStats,
        proof_cache: ProofCache | None,
    ) -> BlockFragment:
        """One window step as a reusable fragment (skip or transcript)."""
        collector = _FragmentCollector() if batch else None
        results: list[DataObject] = []
        skip = self._try_skip(block, cnf, collector, stats, proof_cache)
        if skip is not None:
            entry: VOBlock | VOSkip = skip
            covered = skip.distance
        else:
            root = self._process_tree(
                block.index_root, cnf, collector, results, stats, proof_cache
            )
            entry = VOBlock(height=block.height, root=root)
            covered = 1
        return BlockFragment(
            entry=entry,
            results=tuple(results),
            covered=covered,
            clause_sums=collector.snapshot() if collector is not None else (),
        )

    def _prove(
        self,
        attrs: Counter,
        clause: frozenset[str],
        stats: QueryStats,
        proof_cache: ProofCache | None,
    ):
        """An individual disjointness proof, via the proof cache if any."""
        if proof_cache is not None and proof_cache.enabled:
            proof, hit = proof_cache.prove_disjoint(attrs, clause)
            if hit:
                stats.proofs_reused += 1
            else:
                stats.proofs_computed += 1
            return proof
        stats.proofs_computed += 1
        return compute_disjoint_proof(self.accumulator, self.encoder, attrs, clause)

    # -- Algorithm 4: inter-block skips ------------------------------------
    def _try_skip(
        self,
        block: Block,
        cnf: CNFCondition,
        collector: _FragmentCollector | None,
        stats: QueryStats,
        proof_cache: ProofCache | None,
    ) -> VOSkip | None:
        if self.params.mode != "both" or not block.skip_entries:
            return None
        for entry in sorted(block.skip_entries, key=lambda e: -e.distance):
            clause = cnf.mismatch_clause(entry.attrs)
            if clause is None:
                continue
            proof = None
            group = None
            if collector is not None:
                group = collector.group_for(clause, entry.attrs)
            else:
                proof = self._prove(entry.attrs, clause, stats, proof_cache)
            siblings = tuple(
                (other.distance, other.entry_hash(self.accumulator.backend))
                for other in block.skip_entries
                if other.distance != entry.distance
            )
            return VOSkip(
                height=block.height,
                distance=entry.distance,
                att_digest=entry.att_digest,
                clause=clause,
                proof=proof,
                group=group,
                sibling_hashes=siblings,
            )
        return None

    # -- Algorithm 3: intra-block tree search --------------------------------
    def _process_tree(
        self,
        node: IndexNode,
        cnf: CNFCondition,
        collector: _FragmentCollector | None,
        results: list[DataObject],
        stats: QueryStats,
        proof_cache: ProofCache | None,
    ) -> VONode:
        stats.nodes_visited += 1
        if node.att_digest is not None:
            clause = cnf.mismatch_clause(node.attrs)
            if clause is not None:
                return self._mismatch_node(node, clause, collector, stats, proof_cache)
            if node.is_leaf:
                results.append(node.obj)
                return VOMatchLeaf(obj=node.obj)
            return VOExpandNode(
                att_digest=node.att_digest,
                children=tuple(
                    self._process_tree(
                        child, cnf, collector, results, stats, proof_cache
                    )
                    for child in node.children
                ),
            )
        # nil-mode internal node: no digest, always explored
        return VOExpandNode(
            att_digest=None,
            children=tuple(
                self._process_tree(child, cnf, collector, results, stats, proof_cache)
                for child in node.children
            ),
        )

    def _mismatch_node(
        self,
        node: IndexNode,
        clause: frozenset[str],
        collector: _FragmentCollector | None,
        stats: QueryStats,
        proof_cache: ProofCache | None,
    ) -> VOMismatchNode:
        component = (
            node.obj.serialize() if node.is_leaf else children_hash(node.children)
        )
        proof = None
        group = None
        if collector is not None:
            group = collector.group_for(clause, node.attrs)
        else:
            proof = self._prove(node.attrs, clause, stats, proof_cache)
        return VOMismatchNode(
            child_component=component,
            att_digest=node.att_digest,
            clause=clause,
            proof=proof,
            group=group,
        )
