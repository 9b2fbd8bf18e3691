"""SP-side proof and VO-fragment memoisation.

The paper's key serving property is that verification objects are
*recomputable*: for a fixed block and query condition, the per-block
transcript (and every disjointness proof inside it) is a pure function
of on-chain data.  Overlapping time-window queries and multi-subscriber
deliveries therefore re-derive identical fragments — this module caches
them so the expensive ``ProveDisjoint`` calls happen once.

Two caches, both LRU-bounded and thread-safe:

* :class:`ProofCache` — memoises individual disjointness proofs keyed
  on ``(attribute multiset, clause)``.  Shared by per-node mismatch
  proofs, skip-entry proofs, and batch-group finalisation.
* :class:`VOFragmentCache` — memoises whole per-block VO fragments
  keyed on ``(height, CNF clauses, batch mode)``.  A hit skips the
  intra-block tree walk entirely.

Batch-mode fragments are stored in *normalised* form: mismatch sites
carry their clause but neither proof nor group id (group numbering is
query-global).  :func:`bind_groups` rebinds a normalised fragment to a
concrete query's group numbering — pure dataclass rebuilding, no
cryptography.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping

from repro.accumulators.base import DisjointProof, MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.cache.lru import CacheStats, LRUCache
from repro.chain.object import DataObject
from repro.core.vo import VOBlock, VOExpandNode, VOMismatchNode, VONode, VOSkip

#: the (height, CNF clauses, batch mode) tuple a fragment is stored under
FragmentKey = tuple[int, tuple[frozenset[str], ...], bool]


def multiset_signature(attrs: Counter[str]) -> tuple[tuple[str, int], ...]:
    """Canonical hashable key for an attribute multiset."""
    return tuple(sorted(attrs.items()))


def compute_disjoint_proof(
    accumulator: MultisetAccumulator,
    encoder: ElementEncoder,
    attrs: Counter[str],
    clause: frozenset[str],
) -> DisjointProof:
    """``ProveDisjoint(attrs, clause)`` on raw attribute multisets.

    The one place that encodes both sides — every prover-side call site
    (query processor, batch collector, subscription engine, the cache
    below) funnels through here so keying and encoding stay in sync.
    """
    return accumulator.prove_disjoint(
        encoder.encode_multiset(attrs),
        encoder.encode_multiset(Counter(clause)),
    )


class ProofCache:
    """Memoised ``ProveDisjoint`` keyed on (multiset, clause)."""

    def __init__(
        self,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        max_entries: int = 4096,
    ) -> None:
        self.accumulator = accumulator
        self.encoder = encoder
        self._lru = LRUCache(max_entries)

    @property
    def enabled(self) -> bool:
        return self._lru.enabled

    def prove_disjoint(
        self, attrs: Counter[str], clause: frozenset[str]
    ) -> tuple[DisjointProof, bool]:
        """``(proof, was_cached)`` for ``attrs`` vs the clause multiset.

        Distinct-but-equal multisets share an entry (content-keyed), so
        a skip-entry proof computed for one subscriber serves every
        later query that prunes the same attributes against the same
        clause.
        """
        key = (multiset_signature(attrs), clause)
        proof = self._lru.get(key)
        if proof is not None:
            return proof, True
        proof = compute_disjoint_proof(self.accumulator, self.encoder, attrs, clause)
        self._lru.put(key, proof)
        return proof, False

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> CacheStats:
        return self._lru.stats()


@dataclass(frozen=True)
class BlockFragment:
    """One cached step of the window walk: a skip or a block transcript.

    ``covered`` is how many window positions the entry consumes (the
    skip distance, or 1 for a block transcript).  ``clause_sums`` holds
    the per-clause attribute-multiset sums of the fragment's mismatch
    sites, in first-seen order — exactly what a batch collector needs
    to merge the fragment into a query-global group.  Empty for
    non-batch fragments, whose entry embeds individual proofs instead.
    """

    entry: VOBlock | VOSkip
    results: tuple[DataObject, ...]
    covered: int
    clause_sums: tuple[tuple[frozenset[str], Counter[str]], ...] = ()


class VOFragmentCache:
    """Per-block VO fragments keyed on (height, CNF clauses, batch)."""

    def __init__(self, max_entries: int = 512) -> None:
        self._lru = LRUCache(max_entries)

    @property
    def enabled(self) -> bool:
        return self._lru.enabled

    @staticmethod
    def key(
        height: int, clauses: tuple[frozenset[str], ...], batch: bool
    ) -> FragmentKey:
        return (height, clauses, batch)

    def get(self, key: FragmentKey) -> BlockFragment | None:
        fragment = self._lru.get(key)
        return fragment if isinstance(fragment, BlockFragment) else None

    def put(self, key: FragmentKey, fragment: BlockFragment) -> None:
        self._lru.put(key, fragment)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> CacheStats:
        return self._lru.stats()


def bind_groups(
    entry: VOBlock | VOSkip, group_of: Mapping[frozenset[str], int]
) -> VOBlock | VOSkip:
    """Rebind a normalised batch fragment to query-global group ids.

    Mismatch sites stored with ``proof=None, group=None`` get the group
    id of their clause; everything else is reused by reference.
    """
    if isinstance(entry, VOSkip):
        if entry.proof is None and entry.group is None:
            return replace(entry, group=group_of[entry.clause])
        return entry
    root = _bind_node(entry.root, group_of)
    if root is entry.root:
        return entry
    return replace(entry, root=root)


def _bind_node(node: VONode, group_of: Mapping[frozenset[str], int]) -> VONode:
    if isinstance(node, VOMismatchNode):
        if node.proof is None and node.group is None:
            return replace(node, group=group_of[node.clause])
        return node
    if isinstance(node, VOExpandNode):
        children = tuple(_bind_node(child, group_of) for child in node.children)
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return replace(node, children=children)
    return node
