"""Intra-block index (paper Section 6.1, Algorithm 2).

A binary Merkle tree over the block's objects where every node carries
three fields: the child hash, the attribute multiset ``W_n`` (union of
its children's), and ``AttDigest_n = acc(W_n)``.  The miner clusters
leaves greedily by Jaccard similarity so that objects likely to
mismatch a query *together* end up under one subtree — one disjointness
proof then prunes the whole subtree.

Hash rules (Definitions 6.1/6.2, with explicit length prefixing):

* leaf:      ``hash = H( H(object) | enc(AttDigest) )``
* internal:  ``hash = H( H(h_left | h_right) | enc(AttDigest) )``

The same module also builds the *flat* (``nil``) tree used as the
no-index baseline: arrival-order leaves, internal nodes carry hashes
only, so every mismatching object needs its own proof.

The build is two-phase: a *plan* phase decides the tree shape
(clustering looks only at attribute multisets, never at digests), then
a *commit* phase runs one ``accumulate`` per digest-bearing node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.accumulators.base import AccumulatorValue, MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.chain.object import DataObject
from repro.crypto.hashing import digest
from repro.errors import ChainError


def encode_digest(backend, value: AccumulatorValue | None) -> bytes:
    """Canonical bytes of an accumulator value (empty for nil nodes)."""
    if value is None:
        return b""
    return b"".join(backend.encode(part) for part in value.parts)


@dataclass
class IndexNode:
    """One node of the intra-block tree (leaf or internal)."""

    node_hash: bytes
    attrs: Counter | None
    att_digest: AccumulatorValue | None
    children: tuple["IndexNode", ...] = ()
    obj: DataObject | None = None

    @property
    def is_leaf(self) -> bool:
        return self.obj is not None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def iter_leaves(self):
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()


def children_hash(children: tuple[IndexNode, ...]) -> bytes:
    """``H(h_left | h_right)`` — the child-hash component of a node."""
    return digest(*(child.node_hash for child in children))


def internal_hash(child_component: bytes, digest_bytes: bytes) -> bytes:
    """``H( child_component | enc(AttDigest) )`` for digest-bearing nodes."""
    return digest(child_component, digest_bytes)


def _jaccard(a: Counter, b: Counter) -> float:
    union_size = (a | b).total()
    if union_size == 0:
        return 0.0
    return (a & b).total() / union_size


# -- phase 1: tree planning (structure only, no crypto) -----------------------
@dataclass
class NodePlan:
    """One node of the planned tree: shape decided, digest not committed.

    ``with_digest`` marks the nodes that will carry an ``AttDigest`` —
    every leaf, plus internal nodes outside ``nil`` mode.  Each such
    node is one independent *node-commit work item*:
    ``accumulate(enc(attrs))``.
    """

    attrs: Counter
    children: tuple["NodePlan", ...] = ()
    obj: DataObject | None = None
    with_digest: bool = True

    @property
    def is_leaf(self) -> bool:
        return self.obj is not None


def _plan_leaves(objects: list[DataObject], bits: int) -> list[NodePlan]:
    if not objects:
        raise ChainError("cannot build an index over an empty block")
    return [NodePlan(attrs=obj.attribute_multiset(bits), obj=obj) for obj in objects]


def _plan_merge_rounds(
    nodes: list[NodePlan], clustered: bool, with_digest: bool
) -> NodePlan:
    """Bottom-up pairing rounds (Algorithm 2's loop, over plans)."""
    while len(nodes) > 1:
        merged: list[NodePlan] = []
        while len(nodes) > 1:
            if clustered:
                left_pos = max(range(len(nodes)), key=lambda i: nodes[i].attrs.total())
                left = nodes.pop(left_pos)
                right_pos = max(
                    range(len(nodes)),
                    key=lambda i: _jaccard(left.attrs, nodes[i].attrs),
                )
                right = nodes.pop(right_pos)
            else:
                left = nodes.pop(0)
                right = nodes.pop(0)
            merged.append(
                NodePlan(
                    attrs=left.attrs | right.attrs,  # multiset union (Def. 6.1)
                    children=(left, right),
                    with_digest=with_digest,
                )
            )
        # an odd node is carried up to the next level unchanged
        nodes = merged + nodes
    return nodes[0]


def plan_intra_tree(
    objects: list[DataObject], bits: int, clustered: bool = True
) -> NodePlan:
    """Algorithm 2's shape: greedy Jaccard clustering over attrs only.

    With ``clustered=False`` leaves are paired in arrival order — the
    ablation baseline for the clustering design choice.
    """
    return _plan_merge_rounds(_plan_leaves(objects, bits), clustered, True)


def plan_flat_tree(objects: list[DataObject], bits: int) -> NodePlan:
    """The ``nil`` baseline shape: digests only at leaves, no clustering."""
    return _plan_merge_rounds(_plan_leaves(objects, bits), False, False)


def digest_plan_nodes(plan: NodePlan) -> list[NodePlan]:
    """The digest-bearing nodes in deterministic post-order.

    This is the block's node-commit work list: one ``accumulate`` per
    entry, each independent of all the others.
    """
    ordered: list[NodePlan] = []

    def walk(node: NodePlan) -> None:
        for child in node.children:
            walk(child)
        if node.with_digest:
            ordered.append(node)

    walk(plan)
    return ordered


# -- phase 2: committing digests and hashes -----------------------------------
def commit_tree(
    plan: NodePlan,
    accumulator: MultisetAccumulator,
    encoder: ElementEncoder,
) -> IndexNode:
    """Realise a planned tree: commit every ``AttDigest``, hash bottom-up."""
    digest_of = {
        id(node): accumulator.accumulate(encoder.encode_multiset(node.attrs))
        for node in digest_plan_nodes(plan)
    }
    backend = accumulator.backend

    def assemble(node: NodePlan) -> IndexNode:
        att_digest = digest_of.get(id(node))
        if node.is_leaf:
            return IndexNode(
                node_hash=internal_hash(
                    node.obj.serialize(), encode_digest(backend, att_digest)
                ),
                attrs=node.attrs,
                att_digest=att_digest,
                obj=node.obj,
            )
        children = tuple(assemble(child) for child in node.children)
        component = children_hash(children)
        if att_digest is None:
            return IndexNode(
                node_hash=component, attrs=None, att_digest=None, children=children
            )
        return IndexNode(
            node_hash=internal_hash(component, encode_digest(backend, att_digest)),
            attrs=node.attrs,
            att_digest=att_digest,
            children=children,
        )

    return assemble(plan)


def build_intra_tree(
    objects: list[DataObject],
    accumulator: MultisetAccumulator,
    encoder: ElementEncoder,
    bits: int,
    clustered: bool = True,
) -> IndexNode:
    """Plan + commit in one call (the miner's entry point)."""
    return commit_tree(
        plan_intra_tree(objects, bits, clustered=clustered), accumulator, encoder
    )


def build_flat_tree(
    objects: list[DataObject],
    accumulator: MultisetAccumulator,
    encoder: ElementEncoder,
    bits: int,
) -> IndexNode:
    """Plan + commit for the ``nil`` baseline."""
    return commit_tree(plan_flat_tree(objects, bits), accumulator, encoder)
