"""Per-layer metrics of a traced run.

Layer names are the ``src/repro`` packages.  Three sources feed them:

* the span log (:mod:`spans`): time inside the recording accumulator,
  store and transport, attributed to the operation in flight;
* counts the system returns through its public stats objects
  (``QueryStats``, ``VerifyStats``, ``endpoint.cache_stats()``,
  ``endpoint.stats()``) — measured where the work happens, exact;
* micro-probes: the harness times a public entry point on its own (a
  codec on a real answer, a ``PairingBackend`` hook, a stand-alone
  ``SubscriptionEngine``) where the seams give no span.

A probe whose entry point is gone records ``None`` with a note instead of
failing the run: later changes may delete what it measures.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field

import stats

#: ``crypto.accel_impl`` as a number; the name is in ``environment.accel``
ACCEL_IDS = {"pure": 0, "gmpy2": 1, "native": 2}
#: answers the wire codecs are micro-timed on
WIRE_SAMPLE = 200


@dataclass
class RunRecord:
    """What :func:`compute` reads; filled in by ``worker.run``."""

    plan: object
    stack: object
    tracer: object
    p1: object
    p3: object
    plain_latency: list[float]
    rtt: list[float]
    caches: dict
    engine: dict
    reopen_seconds: float
    store_bytes: int
    probe_ms: float
    accel: str
    out: dict = field(default_factory=dict)


def timed(fn, repeat: int) -> float:
    """Median seconds of ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return stats.median(samples)


def crypto_probes(backend_name: str, prefix: str, out: dict) -> None:
    """Micro-time the ``PairingBackend`` hooks the accumulators stand on.

    The multi-exponentiation uses 256 distinct bases with multiplicity-
    sized scalars, which is what ``accumulate`` and ``prove_disjoint``
    hand it."""
    from repro.crypto import get_backend

    backend = get_backend(backend_name)
    rng = random.Random(7)
    g = backend.generator()
    a, b, c, d = (backend.exp(g, backend.random_scalar(rng)) for _ in range(4))
    scalars = itertools.cycle([backend.random_scalar(rng) for _ in range(8)])
    bases = [backend.exp(g, i + 2) for i in range(256)]
    counts = [1 + (i % 3) for i in range(256)]
    encoded = backend.encode(a)
    probes = {
        "exp_us": (1e6, lambda: backend.exp(g, next(scalars)), 8),
        "multi_exp_256_ms": (1e3, lambda: backend.multi_exp(bases, counts), 3),
        "pair_ms": (1e3, lambda: backend.pair(a, b), 3),
        "multi_pairing_2_ms": (1e3, lambda: backend.multi_pairing([(a, b), (c, d)]), 3),
        "decode_us": (1e6, lambda: backend.decode(encoded), 8),
    }
    for name, (scale, fn, repeat) in probes.items():
        out[prefix + name] = scale * timed(fn, repeat)


def wire_probes(rec: RunRecord, backend) -> dict[int, float]:
    """Codec micro-times on real answers; returns the per-op codec seconds
    that enter the residual."""
    from repro.wire import (
        QueryRequest,
        decode_query_response,
        decode_request,
        encode_query_response,
        encode_request,
    )

    names = ("request_encode", "request_decode", "response_encode", "response_decode")
    columns: dict[str, list[float]] = {name: [] for name in names}
    sizes = []
    per_op = {}
    sample = list(zip(rec.p1.answers, rec.p1.op_ids))[:WIRE_SAMPLE]
    for (planned, response), op_id in sample:
        marks = [time.perf_counter()]
        request = encode_request(QueryRequest(query=planned.query))
        marks.append(time.perf_counter())
        decode_request(request)
        marks.append(time.perf_counter())
        body = encode_query_response(
            backend, response.results, response.vo, response.sp_stats
        )
        marks.append(time.perf_counter())
        decode_query_response(backend, body)
        marks.append(time.perf_counter())
        for name, earlier, later in zip(names, marks, marks[1:]):
            columns[name].append(later - earlier)
        sizes.append(len(body))
        per_op[op_id] = marks[-1] - marks[0]
    for name in names:
        rec.out[f"wire.{name}_us"] = 1e6 * stats.median(columns[name])
    rec.out["wire.response_bytes"] = sum(sizes) / len(sizes)
    return per_op


def block_probes(rec: RunRecord, backend) -> None:
    from repro.index import build_intra_tree
    from repro.wire import decode_block, encode_block

    encode, decode, sizes, build = [], [], [], []
    miner, bits = rec.stack.miner, rec.stack.params.bits
    for block in rec.p3.blocks:
        t0 = time.perf_counter()
        data = encode_block(backend, block)
        t1 = time.perf_counter()
        decode_block(backend, data, bits)
        t2 = time.perf_counter()
        build_intra_tree(block.objects, miner.accumulator, miner.encoder, bits)
        t3 = time.perf_counter()
        encode.append(t1 - t0)
        decode.append(t2 - t1)
        build.append(t3 - t2)
        sizes.append(len(data))
    rec.out["wire.block_encode_us"] = 1e6 * stats.median(encode)
    rec.out["wire.block_decode_us"] = 1e6 * stats.median(decode)
    rec.out["wire.block_bytes"] = sum(sizes) / len(sizes)
    rec.out["index.build_intra_ms"] = 1e3 * stats.median(build)


def subscribe_probes(rec: RunRecord) -> None:
    """A stand-alone engine over the same subscriptions and live blocks:
    matching and proof sharing without the endpoint, queue or socket (and
    with the key powers the run already computed)."""
    from repro.subscribe import SubscriptionEngine

    stack = rec.stack
    engine = SubscriptionEngine(stack.miner.accumulator, stack.encoder, stack.params)
    since = rec.p3.blocks[0].height
    register = []
    for sub in rec.plan.subscriptions:
        start = time.perf_counter()
        engine.register(sub.query, since_height=since)
        register.append(time.perf_counter() - start)
    process = []
    for block in rec.p3.blocks:
        start = time.perf_counter()
        engine.process_block(block)
        process.append(time.perf_counter() - start)
    rec.out["subscribe.register_us"] = 1e6 * stats.median(register)
    rec.out["subscribe.process_block_ms"] = 1e3 * stats.median(process)


def span_metrics(rec: RunRecord, codec_seconds: dict[int, float]) -> None:
    """Everything read off the span log: per-operation seconds and calls,
    in the order of the operation list they are asked for."""
    tracer, out = rec.tracer, rec.out
    p1_ops = rec.p1.op_ids
    responses = [response for _planned, response in rec.p1.answers]

    per_op = functools.cache(tracer.per_op)  # one scan of the log per name

    def seconds(name, ops, self_time=False):
        table = per_op(name, self_time)
        return [table.get(op, (0.0, 0))[0] for op in ops]

    def calls(name, ops):
        table = per_op(name, False)
        return sum(table.get(op, (0.0, 0))[1] for op in ops) / len(ops)

    def median_ms(values):
        return 1e3 * stats.median(values)

    def less(totals, *parts):
        """``totals`` minus each list of ``parts``, element-wise, floored at 0."""
        return [max(0.0, total - sum(rest)) for total, *rest in zip(totals, *parts)]

    mine_ops = tracer.ops("mine")
    prove = seconds("accumulators.sp.prove", p1_ops)
    accumulate = seconds("accumulators.miner.accumulate", mine_ops)
    verify = seconds("accumulators.user.", rec.p1.verify_op_ids)
    out["accumulators.prove_ms"] = median_ms(prove)
    out["accumulators.prove_calls"] = calls("accumulators.sp.prove", p1_ops)
    out["accumulators.live_prove_ms"] = median_ms(
        seconds("accumulators.sp.prove", rec.p3.op_ids)
    )
    out["accumulators.live_prove_calls"] = calls("accumulators.sp.prove", rec.p3.op_ids)
    out["accumulators.accumulate_ms"] = median_ms(accumulate)
    out["accumulators.accumulate_calls"] = calls(
        "accumulators.miner.accumulate", mine_ops
    )
    out["accumulators.verify_ms"] = median_ms(verify)
    out["accumulators.verify_calls"] = calls("accumulators.user.", rec.p1.verify_op_ids)

    # core.prover: the server's own QueryStats.sp_seconds, minus the time
    # the span log saw inside the accumulator and the store on that op
    prover = [response.sp_stats.sp_seconds for response in responses]
    out["core.prover_ms"] = median_ms(prover)
    out["core.prover_self_ms"] = median_ms(
        less(prover, prove, seconds("storage.read", p1_ops))
    )
    out["core.verifier_ms"] = median_ms(rec.p1.verify)
    out["core.verifier_self_ms"] = median_ms(less(rec.p1.verify, verify))

    transport = seconds("api.transport.time_window_query", p1_ops)
    headers = seconds("api.transport.headers", p1_ops)
    user_side = seconds("accumulators.user.", p1_ops)
    out["api.transport_ms"] = median_ms(less(transport, prover))
    out["api.headers_sync_us"] = 1e6 * stats.median(headers)
    # what execute() spends outside the transport and outside verification:
    # the op's self time still holds the verifier's own (non-accumulator) time
    own = seconds("p1.query", p1_ops, self_time=True)
    verifier_self = less([r.user_seconds for r in responses], user_side)
    out["api.client_overhead_ms"] = median_ms(less(own, verifier_self))

    append = seconds("storage.append", mine_ops)
    out["chain.mine_self_ms"] = median_ms(
        less(seconds("mine", mine_ops), accumulate, append)
    )
    out["storage.append_ms"] = median_ms(append)

    # attribution quality on the blocking path of one P1 query
    rtt = stats.median(rec.rtt)
    shares, residuals = [], []
    for op, latency, response, p, u, h in zip(
        p1_ops, rec.p1.latency, responses, prove, user_side, headers
    ):
        if op not in codec_seconds:
            continue
        explained = response.sp_stats.sp_seconds + response.user_seconds
        explained += h + rtt + codec_seconds[op]
        shares.append((p + u) / latency)
        residuals.append((latency - explained) / latency)
    out["trace.accumulators_share"] = stats.median(shares)
    out["trace.residual_share"] = stats.median(residuals)
    traced, plain = stats.median(rec.p1.latency), stats.median(rec.plain_latency)
    out["trace.overhead_share"] = traced / plain - 1


def compute(rec: RunRecord) -> tuple[dict, dict]:
    """The per-layer metrics by name, and a note for each probe whose
    entry point is missing (its metrics are absent: ``run`` reports them as
    ``null``)."""
    notes = {}

    def probe(label, fn, *args):
        try:
            return fn(*args)
        except (ImportError, AttributeError, TypeError, LookupError) as exc:
            notes[label] = f"{type(exc).__name__}: {exc}"
            return None

    out = rec.out
    backend = rec.stack.accumulator.backend
    responses = [response for _planned, response in rec.p1.answers]

    probe("crypto", crypto_probes, rec.plan.spec.backend, "crypto.", out)
    probe("crypto.bn254", crypto_probes, "bn254", "crypto.bn254_", out)
    out["crypto.accel_impl"] = ACCEL_IDS.get(rec.accel)
    codec_seconds = probe("wire", wire_probes, rec, backend) or {}
    probe("wire.block", block_probes, rec, backend)
    probe("subscribe", subscribe_probes, rec)
    probe("spans", span_metrics, rec, codec_seconds)

    for name in (
        "blocks_scanned",
        "blocks_skipped",
        "nodes_visited",
        "proofs_computed",
        "proofs_reused",
    ):
        out[f"core.{name}"] = sum(getattr(r.sp_stats, name) for r in responses)
    for name in ("disjoint_checks", "digests_recomputed"):
        out[f"core.{name}"] = sum(getattr(r.user_stats, name) for r in responses)
    batch = [
        (planned.query, response.results, response.vo)
        for planned, response in rec.p1.answers[:16]
    ]
    user = rec.stack.client.user
    seconds = timed(lambda: user.batch_verify(batch), 1)
    out["core.batch_verify_ms"] = 1e3 * seconds / len(batch)

    out["cache.fragment_hit_ratio"] = rec.caches["fragments"].hit_rate
    out["cache.proof_hit_ratio"] = rec.caches["proofs"].hit_rate
    out["cache.fragment_evictions"] = rec.caches["fragments"].evictions
    out["api.rtt_floor_us"] = 1e6 * stats.median(rec.rtt)
    out["api.trailing_query_ms"] = 1e3 * stats.median(rec.p3.trailing)
    blocks = len(rec.stack.mine_seconds)
    out["storage.append_bytes"] = rec.store_bytes / blocks
    out["storage.reopen_ms"] = 1e3 * rec.reopen_seconds
    out["storage.reopen_blocks_per_s"] = blocks / rec.reopen_seconds
    out["subscribe.ingest_poll_ms"] = 1e3 * stats.median(rec.p3.first_poll)
    out["subscribe.drain_poll_ms"] = 1e3 * stats.median(rec.p3.later_polls)
    out["subscribe.proofs_computed"] = rec.engine["proofs_computed"]
    out["subscribe.proofs_shared"] = rec.engine["proofs_shared"]
    out["subscribe.deliveries"] = rec.engine["deliveries"]
    out["host.probe_ms"] = rec.probe_ms
    return out, notes
