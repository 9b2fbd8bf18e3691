"""The miner: builds blocks with embedded ADS (paper Sections 5–6).

The miner is a full node that, for each batch of objects, constructs
the intra-block tree (flat or Jaccard-clustered), the inter-block skip
entries, seals the header with a consensus nonce, and appends the block
to the chain.  ``ProtocolParams`` captures every deployment knob the
paper varies in its evaluation (index mode, accumulator, skip-list
size, prefix width).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.accumulators.base import MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.chain.block import Block, BlockHeader, ZERO_HASH, skiplist_root_hash
from repro.chain.chain import Blockchain
from repro.chain.consensus import solve_nonce
from repro.chain.object import DataObject
from repro.errors import ChainError
from repro.index.inter import build_skip_entries
from repro.index.intra import build_flat_tree, build_intra_tree

#: Valid index configurations, in the paper's vocabulary.
MODES = ("nil", "intra", "both")


@dataclass(frozen=True)
class ProtocolParams:
    """Deployment parameters shared by miner, SP and user."""

    mode: str = "both"
    bits: int = 8
    skip_size: int = 5
    skip_base: int = 4
    difficulty_bits: int = 0
    clustered: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ChainError(
                f"unknown index mode {self.mode!r}; expected one of {MODES}"
            )
        if self.bits < 1:
            raise ChainError("prefix width must be >= 1 bit")
        if self.skip_size < 0:
            raise ChainError("skip size must be >= 0")


class Miner:
    """Constructs consensus proofs and ADS-augmented blocks."""

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

    def mine_block(self, objects: list[DataObject], timestamp: int) -> Block:
        """Build, seal, append and return the next block."""
        if not objects:
            raise ChainError("refusing to mine an empty block")
        params = self.params
        if params.mode == "nil":
            root = build_flat_tree(objects, self.accumulator, self.encoder, params.bits)
        else:
            root = build_intra_tree(
                objects,
                self.accumulator,
                self.encoder,
                params.bits,
                clustered=params.clustered,
            )

        attrs_sum: Counter = Counter()
        for leaf in root.iter_leaves():
            attrs_sum.update(leaf.attrs)
        if self.accumulator.supports_aggregation:
            sum_digest = self.accumulator.sum_values(
                [leaf.att_digest for leaf in root.iter_leaves()]
            )
        else:
            sum_digest = self.accumulator.accumulate(
                self.encoder.encode_multiset(attrs_sum)
            )

        skip_entries = []
        if params.mode == "both" and params.skip_size > 0:
            skip_entries = build_skip_entries(
                list(self.chain),
                root.node_hash,
                attrs_sum,
                sum_digest,
                self.accumulator,
                self.encoder,
                size=params.skip_size,
                base=params.skip_base,
            )

        tip = self.chain.tip
        header = BlockHeader(
            height=len(self.chain),
            prev_hash=tip.header.block_hash() if tip else ZERO_HASH,
            timestamp=timestamp,
            merkle_root=root.node_hash,
            skiplist_root=skiplist_root_hash(skip_entries, self.accumulator.backend),
        )
        nonce = solve_nonce(header.core_bytes(), params.difficulty_bits)
        header = BlockHeader(
            height=header.height,
            prev_hash=header.prev_hash,
            timestamp=header.timestamp,
            merkle_root=header.merkle_root,
            skiplist_root=header.skiplist_root,
            nonce=nonce,
        )
        block = Block(
            header=header,
            objects=list(objects),
            index_root=root,
            skip_entries=skip_entries,
            attrs_sum=attrs_sum,
            sum_digest=sum_digest,
        )
        self.chain.append(block)
        return block
