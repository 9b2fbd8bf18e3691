"""Workload definitions and the seeded input generator.

Every list a run executes is produced here, from the seed, before any
timed phase starts: the base chain, the live blocks, the query stream,
the throughput lists, the subscriptions and the trailing-window queries.
Nothing is "as many as fit in T seconds", so sample counts and byte
metrics repeat exactly for one workload and seed.

The generator aims at the boundaries that change the executed path
rather than at random conditions (which return nothing at this scale):

* a *hit* query is built around a target object inside its window, so it
  returns at least that object — by the object's own ``id:`` keyword
  (sparse: every other block lacks it) or by its common keyword and a
  range around its vector (dense: many blocks carry it);
* a *miss* query asks for keywords no object carries, so one clause is
  disjoint from every block and the skip list does the work;
* range predicates are three dyadic cells wide and cell-aligned, which
  makes their prefix cover exactly two nodes per dimension and their
  selectivity the same whatever the seed drew;
* the boundary windows are explicit: empty, one block, and each of skip
  distance - 1 / exact / + 1.

The expected answer of every query and delivery comes from
:func:`brute_force`, a scan of the generated objects that shares no code
with the system under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from repro.chain import DataObject
from repro.core import (
    CNFCondition,
    Query,
    RangeCondition,
    SubscriptionQuery,
    TimeWindowQuery,
)

BITS = 8
SPACE = 1 << BITS
#: vector components are multiples of this: 8 levels per dimension, so the
#: prefixes a chain carries are a small closed set — after a few blocks the
#: only attributes new to a proof are the objects' own keywords
VALUE_STEP = 32
#: live blocks mined and delivered (and checked) before P3 starts measuring:
#: the first blocks after a subscription registers pay for key powers that
#: every later block reuses
LEAD_IN = 8
BLOCK_INTERVAL = 10
#: first inter-block skip distance under the default ProtocolParams
SKIP_BASE = 4
#: every object carries it, so a clause on it matches everything
UNIVERSAL = "tag:all"
COMMON = [f"common:{i}" for i in range(8)]
#: lists are generated for two P2 clients; a one-core host runs the first
P2_CLIENTS = 2
#: popularity of the hot set's ranks
HOT_EXPONENT = 0.8


@dataclass(frozen=True)
class Spec:
    """One workload's shape; counts are the full-scale, nominal ones."""

    name: str
    why: str
    backend: str
    base_blocks: int
    objects_per_block: int
    #: P1: the single-client query stream
    p1_queries: int
    #: window length (blocks) of the bulk of P1
    window: int
    #: share of P1 drawn Zipf-style from ``hot_queries`` repeated queries
    hot_share: float
    hot_queries: int
    #: P2: queries per client per round, and rounds
    p2_per_client: int
    p2_rounds: int
    #: P3: subscriptions, live blocks, trailing queries per live block
    subscriptions: int
    live_blocks: int
    trailing: int
    #: dense: hits ask for common keywords and a range (large VOs, warm
    #: proofs); sparse: for an object's own keyword (small VOs, cold proofs)
    dense: bool = False
    dense_subscriptions: bool = False
    #: P1's fragment working set must overflow the endpoint's fragment cache
    beyond_cache: bool = False
    warmup: int = 3

    def scaled(self, factor: float) -> "Spec":
        """Fixed lists ``factor`` times as long (never below the floors
        the boundary queries and the quantile maths need)."""
        if factor == 1.0:
            return self

        def count(value: int, floor: int) -> int:
            return max(floor, round(value * factor))

        return replace(
            self,
            p1_queries=count(self.p1_queries, 8),
            p2_per_client=count(self.p2_per_client, 1),
            live_blocks=count(self.live_blocks, 2),
        )


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="read_cold_ss512",
            why="real pairing, every query distinct: latency is disjointness "
            "proving, so kernel, MSM and proof work must show here and caches must not",
            backend="ss512",
            base_blocks=24,
            objects_per_block=4,
            p1_queries=40,
            window=8,
            hot_share=0.0,
            hot_queries=0,
            p2_per_client=4,
            p2_rounds=5,
            subscriptions=2,
            live_blocks=8,
            trailing=1,
        ),
        Spec(
            name="read_hot_sim",
            why="simulated crypto, long windows, 80% of queries repeat a hot set "
            "that fits the fragment cache: cache, codec, framing and verifier replay "
            "carry the latency",
            backend="simulated",
            dense=True,
            base_blocks=512,
            objects_per_block=4,
            p1_queries=600,
            window=64,
            hot_share=0.8,
            hot_queries=10,
            p2_per_client=25,
            p2_rounds=7,
            subscriptions=4,
            live_blocks=16,
            trailing=2,
        ),
        Spec(
            name="ingest_ss512",
            why="real pairing, write-heavy: accumulate per index node at mine time "
            "and one proof per block and subscriber, so read gains bought with "
            "mining or delivery cost show here",
            backend="ss512",
            base_blocks=16,
            objects_per_block=4,
            p1_queries=24,
            window=8,
            hot_share=0.0,
            hot_queries=0,
            p2_per_client=2,
            p2_rounds=3,
            subscriptions=4,
            live_blocks=32,
            trailing=1,
        ),
        Spec(
            name="ingest_fanout_sim",
            why="simulated crypto, 128 subscriptions over a long live stream and a "
            "distinct long-window query stream larger than the fragment cache: "
            "subscribe, storage, block codec and the prover walk dominate",
            backend="simulated",
            dense=True,
            dense_subscriptions=True,
            beyond_cache=True,
            base_blocks=128,
            objects_per_block=4,
            p1_queries=300,
            window=96,
            hot_share=0.0,
            hot_queries=0,
            p2_per_client=20,
            p2_rounds=7,
            subscriptions=128,
            live_blocks=128,
            trailing=2,
        ),
    )
}

#: ``--scale smoke``: the same four shapes, a few seconds in total
SMOKE = {
    "read_cold_ss512": dict(
        objects_per_block=2,
        base_blocks=6,
        p1_queries=8,
        window=4,
        p2_per_client=1,
        p2_rounds=1,
        live_blocks=2,
        warmup=1,
    ),
    "read_hot_sim": dict(
        base_blocks=24,
        p1_queries=24,
        window=16,
        hot_queries=3,
        p2_per_client=3,
        p2_rounds=2,
        live_blocks=2,
        warmup=1,
    ),
    "ingest_ss512": dict(
        objects_per_block=2,
        base_blocks=6,
        p1_queries=8,
        window=4,
        p2_per_client=1,
        p2_rounds=1,
        live_blocks=2,
        warmup=1,
    ),
    "ingest_fanout_sim": dict(
        base_blocks=24,
        p1_queries=16,
        window=16,
        p2_per_client=3,
        p2_rounds=2,
        subscriptions=24,
        live_blocks=4,
        warmup=1,
        beyond_cache=False,
    ),
}


def spec_for(name: str, scale: str = "full", factor: float = 1.0) -> Spec:
    spec = SPECS[name]
    if scale == "smoke":
        return replace(spec, **SMOKE[name])
    return spec.scaled(factor)


# -- the generated plan ---------------------------------------------------------
@dataclass(frozen=True)
class PlannedQuery:
    """One query, why it is in the list, and its brute-force answer."""

    query: TimeWindowQuery
    kind: str
    expected: tuple[int, ...]


@dataclass(frozen=True)
class PlannedSubscription:
    query: SubscriptionQuery
    #: object ids it must deliver, per live block (index into ``live``)
    expected: tuple[tuple[int, ...], ...]


@dataclass
class Plan:
    spec: Spec
    seed: int
    base: list[tuple[int, list[DataObject]]]
    #: the first ``LEAD_IN`` of them are delivered but not measured
    live: list[tuple[int, list[DataObject]]]
    warmup: list[PlannedQuery]
    p1: list[PlannedQuery]
    #: ``p2[round][client]`` is one closed-loop list
    p2: list[list[list[PlannedQuery]]]
    subscriptions: list[PlannedSubscription]
    #: ``trailing[i]`` runs right after live block ``i`` is delivered
    trailing: list[list[PlannedQuery]]

    @property
    def objects_mined(self) -> int:
        return sum(len(objs) for _, objs in self.base + self.live)


# -- the oracle -----------------------------------------------------------------
def object_matches(obj: DataObject, numeric, boolean: CNFCondition) -> bool:
    """Ground truth on the raw object: every range bound holds and every
    clause names one of the object's keywords."""
    if numeric is not None:
        for value, low, high in zip(obj.vector, numeric.low, numeric.high):
            if not low <= value <= high:
                return False
    return all(
        any(term in obj.keywords for term in clause) for clause in boolean.clauses
    )


def brute_force(blocks: list[tuple[int, list[DataObject]]], query) -> tuple[int, ...]:
    """Sorted ids of the objects in ``blocks`` the query must return."""
    start = getattr(query, "start", None)
    end = getattr(query, "end", None)
    ids = []
    for timestamp, objects in blocks:
        if start is not None and not start <= timestamp <= end:
            continue
        ids.extend(
            obj.object_id
            for obj in objects
            if object_matches(obj, query.numeric, query.boolean)
        )
    return tuple(sorted(ids))


# -- generation -----------------------------------------------------------------
FULL_RANGE = RangeCondition(low=(0, 0), high=(SPACE - 1, SPACE - 1))
#: cell width (as a shift) of a range predicate, per dimension
RANGE_SHIFTS = (5, 5)
#: what a dense hit aims to return; the target object is always among them
DENSE_RESULTS = 3


def three_cell_ranges(anchor: tuple[int, ...] | None) -> list[RangeCondition]:
    """Every range that is, per dimension, three cells long and cell-aligned
    (cells of 32: one value level) and contains ``anchor`` if one is given.
    Such a range always has a dyadic cover of exactly two prefixes per
    dimension and holds 3/8 x 3/8 of the space."""
    firsts = []
    for dim, shift in enumerate(RANGE_SHIFTS):
        last_first = (SPACE >> shift) - 3
        if anchor is None:
            firsts.append(range(last_first + 1))
        else:
            cell = anchor[dim] >> shift
            firsts.append(range(max(0, cell - 2), min(cell, last_first) + 1))
    return [
        RangeCondition(
            low=tuple(f << shift for f, shift in zip(pair, RANGE_SHIFTS)),
            high=tuple(((f + 3) << shift) - 1 for f, shift in zip(pair, RANGE_SHIFTS)),
        )
        for pair in itertools.product(*firsts)
    ]


class Generator:
    """Draws every input of one run from ``random.Random(seed)``.

    What the seed decides is the *content*: vectors, keywords, which
    object a query is built around, which range it asks for.  The shape of
    every list — how many queries of which kind, over which window, aimed
    at which position of the window — is fixed by the workload, so that a
    different seed gives different bytes to the same amount of work.
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(f"{spec.name}:{seed}")
        self.next_object_id = 1
        self.next_absent = 0
        self.targeted: set[int] = set()
        self.asked: set[tuple] = set()
        self.hits_made = 0
        self.hot: list[PlannedQuery] | None = None

    # blocks
    def blocks(self, first_height: int, count: int):
        """Objects with a random vector, a sparse keyword of their own (think:
        an address) and a common one.  Common keywords come in bands: half
        of them are carried for ``SKIP_BASE`` blocks, one object each, then
        silent for as many (think: topics that trend and fade) — so a clause
        on one has runs for the skip list to jump, and every window holds
        the same number of carriers whatever the seed."""
        out = []
        for height in range(first_height, first_height + count):
            timestamp = height * BLOCK_INTERVAL
            band = (height // SKIP_BASE) % 2
            slots = self.rng.sample(range(len(COMMON) // 2), len(COMMON) // 2)
            objects = []
            for index in range(self.spec.objects_per_block):
                common = COMMON[2 * slots[index % len(slots)] + band]
                own = own_keyword(self.next_object_id)
                objects.append(
                    DataObject(
                        object_id=self.next_object_id,
                        timestamp=timestamp,
                        vector=(self.value(), self.value()),
                        keywords=frozenset({UNIVERSAL, common, own}),
                    )
                )
                self.next_object_id += 1
            out.append((timestamp, objects))
        return out

    def value(self) -> int:
        return self.rng.randrange(SPACE // VALUE_STEP) * VALUE_STEP

    def absent(self) -> str:
        """A keyword no object carries, never handed out twice."""
        self.next_absent += 1
        return f"absent:{self.seed % 1000:03d}:{self.next_absent:05d}"

    # queries
    def planned(self, chain, kind, first, last, numeric, clause) -> PlannedQuery:
        """A query over blocks ``first..last`` (heights) of ``chain``."""
        query = TimeWindowQuery(
            start=max(0, first) * BLOCK_INTERVAL,
            end=last * BLOCK_INTERVAL,
            numeric=numeric,
            boolean=CNFCondition.of([clause]),
        )
        return PlannedQuery(query, kind, brute_force(chain, query))

    def hit(self, chain, length: int, target: int | None = None) -> PlannedQuery:
        """A trailing window that returns at least the object it is built
        around.  Targets walk back through the window one block per hit,
        so every seed puts the same number of targets at each distance
        from the tip — the distance decides the skip pattern, hence the
        cost and the VO size.

        Sparse: the target's own ``id:`` keyword or a fresh absent one, any
        value — every other block lacks both, and every key power the proof
        needs is new.  Dense: the target's common keyword and a range around
        its vector — many blocks match, VOs are large, and the few distinct
        clause elements are soon warm.
        """
        last = len(chain) - 1
        if target is None:
            target = last - self.hits_made % min(length, len(chain))
            self.hits_made += 1
        objects = chain[target][1]
        fresh = [obj for obj in objects if obj.object_id not in self.targeted]
        obj = self.rng.choice(fresh or objects)
        self.targeted.add(obj.object_id)
        if self.spec.dense:
            clause = [next(k for k in obj.keywords if k in COMMON)]
            window = chain[max(0, last - length + 1) :]
            numeric = self.range_around(obj, CNFCondition.of([clause]), window)
        else:
            clause = [own_keyword(obj.object_id), self.absent()]
            numeric = FULL_RANGE
        return self.planned(chain, "hit", last - length + 1, last, numeric, clause)

    def range_around(self, obj, boolean: CNFCondition, window) -> RangeCondition:
        """Of the ranges holding ``obj`` that no earlier query combined with
        this clause, the one whose answer over ``window`` is closest to the
        usual size (ties: at random)."""
        options = [
            numeric
            for numeric in three_cell_ranges(obj.vector)
            if (boolean, numeric) not in self.asked
        ] or three_cell_ranges(obj.vector)
        self.rng.shuffle(options)

        def off_target(numeric: RangeCondition) -> int:
            answer = brute_force(window, Query(numeric, boolean))
            return abs(len(answer) - DENSE_RESULTS)

        numeric = min(options, key=off_target)
        self.asked.add((boolean, numeric))
        return numeric

    def miss(self, chain, length: int, kind: str = "miss") -> PlannedQuery:
        """A clause nothing matches: the whole window is skipped or pruned."""
        last = len(chain) - 1
        numeric = FULL_RANGE
        if self.spec.dense:
            numeric = self.rng.choice(three_cell_ranges(None))
        clause = [self.absent(), self.absent()]
        return self.planned(chain, kind, last - length + 1, last, numeric, clause)

    def boundaries(self, chain) -> list[PlannedQuery]:
        """Empty, one block, and skip distance - 1 / exact / + 1 — all at
        the tip, where the same skip entries are on offer as for the bulk."""
        last = len(chain) - 1
        narrow = self.rng.choice(three_cell_ranges(None))
        between = TimeWindowQuery(
            start=last * BLOCK_INTERVAL - 7,
            end=last * BLOCK_INTERVAL - 3,
            numeric=narrow,
            boolean=CNFCondition.of([[UNIVERSAL]]),
        )
        out = [
            PlannedQuery(between, "empty", ()),
            # the all-match clause: a pure range scan of one block
            self.planned(chain, "single", last, last, narrow, [UNIVERSAL]),
        ]
        for length in (SKIP_BASE - 1, SKIP_BASE, SKIP_BASE + 1):
            out.append(self.miss(chain, length, f"skip{length - SKIP_BASE:+d}"))
        return out

    def bulk(self, chain, count: int) -> list[PlannedQuery]:
        """Distinct trailing-window queries, three hits to one miss.

        Like the paper's workload (§9) they all end at the chain tip: the
        prover takes the longest skip entry that mismatches, so one end
        height means the same entries on offer to every query."""
        return [
            self.miss(chain, self.spec.window)
            if index % 4 == 3
            else self.hit(chain, self.spec.window)
            for index in range(count)
        ]

    def mix(self, chain, count: int) -> list[PlannedQuery]:
        """``count`` bulk queries — for a hot workload, Zipf draws from one
        fixed hot set of hits, mixed with one-off queries."""
        spec = self.spec
        if spec.hot_share == 0:
            return self.bulk(chain, count)
        if self.hot is None:
            # of three times as many candidates, those whose answer has the
            # usual size: the repeated 80% of the stream — and every median
            # taken over it — must not be a property of the seed's outliers
            n_candidates = 3 * spec.hot_queries
            candidates = [self.hit(chain, spec.window) for _ in range(n_candidates)]
            candidates.sort(key=lambda p: abs(len(p.expected) - DENSE_RESULTS))
            self.hot = candidates[: spec.hot_queries]
        weights = [1.0 / rank**HOT_EXPONENT for rank in range(1, len(self.hot) + 1)]
        n_hot = round(count * spec.hot_share)
        picks = self.rng.choices(self.hot, weights=weights, k=n_hot)
        picks += self.bulk(chain, count - n_hot)
        self.rng.shuffle(picks)
        return picks

    def stream(self, chain, count: int) -> list[PlannedQuery]:
        """The P1 list: the boundary queries spread evenly through the mix."""
        edges = self.boundaries(chain)
        picks = self.mix(chain, count - len(edges))
        step = max(1, len(picks) // len(edges))
        for index, edge in enumerate(edges):
            picks.insert(min(len(picks), index * step + step // 2), edge)
        return picks

    def subscriptions(self, count: int, first_live_id: int) -> list[SubscriptionQuery]:
        """Sparse: each subscription waits for one object of the second live
        block by its ``id:`` keyword (every third repeats an earlier clause,
        which the engine can share), so every other block costs every
        subscriber one root-level proof.  Dense (fan-out):
        common keywords over a small pool of ranges — matches flow on most
        blocks and many subscribers share a clause."""
        per_block = self.spec.objects_per_block
        out = []
        if not self.spec.dense_subscriptions:
            for index in range(count):
                if index % 3 == 2:
                    out.append(out[index - 2])
                    continue
                # all in the second live block: one block of matches, the
                # others all alike
                wanted = first_live_id + per_block + index % per_block
                boolean = CNFCondition.of([[own_keyword(wanted), self.absent()]])
                out.append(SubscriptionQuery(numeric=FULL_RANGE, boolean=boolean))
            return out
        ranges = self.rng.sample(three_cell_ranges(None), 8)
        for index in range(count):
            keyword = COMMON[(index // len(ranges)) % len(COMMON)]
            clause = [keyword]
            if index // (len(ranges) * len(COMMON)):
                clause.append(self.absent())
            numeric = ranges[index % len(ranges)]
            out.append(SubscriptionQuery(numeric, CNFCondition.of([clause])))
        return out


def own_keyword(object_id: int) -> str:
    return f"id:{object_id:07d}"


def generate(spec: Spec, seed: int) -> Plan:
    gen = Generator(spec, seed)
    base = gen.blocks(0, spec.base_blocks)
    first_live_id = gen.next_object_id
    live = gen.blocks(spec.base_blocks, LEAD_IN + spec.live_blocks)
    warmup = [gen.hit(base, spec.window) for _ in range(spec.warmup)]
    p1 = gen.stream(base, spec.p1_queries)
    p2 = [
        [gen.mix(base, spec.p2_per_client) for _ in range(P2_CLIENTS)]
        for _ in range(spec.p2_rounds)
    ]
    subs = [
        PlannedSubscription(query, tuple(brute_force([block], query) for block in live))
        for query in gen.subscriptions(spec.subscriptions, first_live_id)
    ]
    trailing = []
    for index in range(len(live)):
        chain = base + live[: index + 1]
        # the target sits in the new block, so every trailing query proves
        # the block is already being served
        trailing.append(
            [
                gen.hit(chain, 1 + (n + 1) * SKIP_BASE, target=len(chain) - 1)
                for n in range(spec.trailing if index >= LEAD_IN else 0)
            ]
        )
    return Plan(spec, seed, base, live, warmup, p1, p2, subs, trailing)


def check_coverage(plan: Plan, skipped: list[int]) -> dict[str, float]:
    """The generator's promise about its own P1 list, checked against what
    the system reported (``skipped[i]`` = blocks_skipped of query ``i``)."""
    kinds = [planned.kind for planned in plan.p1]
    with_results = sum(1 for planned in plan.p1 if planned.expected) / len(plan.p1)
    with_skips = sum(1 for count in skipped if count > 0) / len(plan.p1)
    coverage = {
        "share_with_results": with_results,
        "share_with_skips": with_skips,
    }
    problems = []
    if with_results < 0.30:
        problems.append(f"only {with_results:.0%} of P1 queries return an object")
    if with_skips < 0.30:
        problems.append(f"only {with_skips:.0%} of P1 queries skip a block")
    for kind in ("empty", "single", "skip-1", "skip+0", "skip+1"):
        if kind not in kinds:
            problems.append(f"no {kind} window in P1")
    if problems:
        raise AssertionError("; ".join(problems))
    return coverage
