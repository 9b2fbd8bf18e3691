"""One benchmark run: one workload, one seed, this process.

:mod:`run` starts this module in a fresh interpreter (``PYTHONHASHSEED``
fixed from the seed, the built package on ``PYTHONPATH``) and reads the
JSON it prints last.  The run drives the system only through names the
packages export:

P0  set-up: trusted setup, durable ``FileBlockStore`` (fsync on), mine the
    base chain block by block, start the default ``AsyncSocketServer``
    over a default ``ServiceEndpoint`` on a background thread, connect,
    sync headers, fixed warm-up queries.  Done ``SETUP_REPS`` times from
    scratch; ``setup_s`` is the median and the last one is used.
P1  query stream: one closed-loop socket client, the fixed P1 list; after
    each answer, outside the latency timing, a second ``QueryUser.verify``.
P2  throughput: min(2, nproc) closed-loop clients, each its own
    connection and light node, fixed lists, several barrier-released rounds.
P3  live ingest: subscriptions open; per live block: mine, every stream
    polls and verifies, then the trailing-window queries.
P4  close, ``VChainNetwork.open`` the directory, re-ask three P1 queries
    and require byte-identical VOs.

Every answer is checked with ``raise_for_forgery()`` and against the
brute-force oracle; a failed, refused or forged operation counts as
failed and contributes no latency.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    NullTracer,
    RecordingAccumulator,
    RecordingStore,
    RecordingTransport,
    Tracer,
)

from repro import VChainNetwork  # noqa: E402
from repro.api import (  # noqa: E402
    AsyncSocketServer,
    ServiceEndpoint,
    SocketTransport,
    VChainClient,
)
from repro.chain import Blockchain, Miner, ProtocolParams  # noqa: E402
from repro.core import QueryUser, ServiceProvider  # noqa: E402
from repro.crypto import get_backend  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.storage import create_chain_setup  # noqa: E402
from repro.wire import encode_time_window_vo  # noqa: E402

#: the serving default, stated in every output
FSYNC = True
SETUP_REPS = 3
#: ``--seconds`` at which the lists have their nominal length (the contract's
#: ``run_seconds``); other values scale them
NOMINAL_SECONDS = 20


class WrongAnswer(Exception):
    """A verified answer that differs from the brute-force scan."""


@dataclass
class Tally:
    """Operations attempted and failed, shared by every phase."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def run(self, label: str, operation):
        """Run one operation; its result, or ``None`` when it failed."""
        with self._lock:
            self.attempted += 1
        try:
            return operation()
        except (ReproError, OSError, WrongAnswer) as exc:
            with self._lock:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def ids(objects) -> tuple[int, ...]:
    return tuple(sorted(obj.object_id for obj in objects))


def check_answer(results, planned: workloads.PlannedQuery) -> None:
    if ids(results) != planned.expected:
        raise WrongAnswer(
            f"{planned.kind} query returned {ids(results)}, "
            f"oracle says {planned.expected}"
        )


def ask(client: VChainClient, planned: workloads.PlannedQuery):
    """Execute, refuse forgeries, compare with the oracle."""
    response = client.execute(planned.query)
    response.raise_for_forgery()
    check_answer(response.results, planned)
    return response


def directory_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


# -- P0 -------------------------------------------------------------------------
@dataclass
class Stack:
    """One wired deployment: chain, parties, server and the P1 client."""

    data_dir: str
    chain: Blockchain
    miner: Miner
    accumulator: object  # the user's (a recording proxy in a traced run)
    encoder: object
    params: ProtocolParams
    endpoint: ServiceEndpoint
    server: AsyncSocketServer
    client: VChainClient
    tracer: object
    mine_seconds: list[float] = field(default_factory=list)

    def connect(self) -> VChainClient:
        """A further client: own connection, own light node."""
        client = VChainClient.connect(
            self.server.address, self.accumulator, self.encoder, self.params
        )
        client.sync_headers()
        return client

    def mine(self, objects, timestamp):
        with self.tracer.op("mine"):
            start = time.perf_counter()
            block = self.miner.mine_block(objects, timestamp)
            self.mine_seconds.append(time.perf_counter() - start)
        return block

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.endpoint.close()
        self.chain.close()


def build_stack(plan: workloads.Plan, data_dir: str, tracer) -> tuple[Stack, float]:
    """P0, timed.  A traced stack is wired by hand through the public
    constructors so the recording proxies sit at the three seams."""
    started = time.perf_counter()
    params = ProtocolParams(bits=workloads.BITS)
    create = dict(
        acc_name="acc2",
        backend_name=plan.spec.backend,
        params=params,
        seed=plan.seed,
        data_dir=data_dir,
        fsync=FSYNC,
    )
    traced = isinstance(tracer, Tracer)
    if traced:
        setup = create_chain_setup(**create)
        encoder = setup.encoder
        store = RecordingStore(setup.store, tracer)
        chain = Blockchain(difficulty_bits=params.difficulty_bits, store=store)
        mining = RecordingAccumulator(setup.accumulator, tracer, "miner")
        proving = RecordingAccumulator(setup.accumulator, tracer, "sp")
        accumulator = RecordingAccumulator(setup.accumulator, tracer, "user")
        miner = Miner(chain, mining, encoder, params)
        sp = ServiceProvider(chain, proving, encoder, params)
    else:
        net = VChainNetwork.create(**create)
        chain, miner, sp = net.chain, net.miner, net.sp
        accumulator, encoder = net.accumulator, net.encoder
    endpoint = ServiceEndpoint(sp)
    server = AsyncSocketServer(endpoint).start()
    if traced:
        transport = SocketTransport(server.address, accumulator.backend)
        client = VChainClient(
            RecordingTransport(transport, tracer),
            accumulator,
            encoder,
            params,
            user=QueryUser(accumulator, encoder, params),
        )
    else:
        client = VChainClient.connect(server.address, accumulator, encoder, params)
    stack = Stack(
        data_dir=data_dir,
        chain=chain,
        miner=miner,
        accumulator=accumulator,
        encoder=encoder,
        params=params,
        endpoint=endpoint,
        server=server,
        client=client,
        tracer=tracer,
    )
    for timestamp, objects in plan.base:
        stack.mine(objects, timestamp)
    client.sync_headers()
    # lazy fixed-base tables and key powers of the common shapes get built
    # here, not inside the measured lists
    for planned in plan.warmup:
        ask(client, planned)
    return stack, time.perf_counter() - started


# -- P1 -------------------------------------------------------------------------
@dataclass
class StreamResult:
    latency: list[float] = field(default_factory=list)
    verify: list[float] = field(default_factory=list)
    vo_bytes: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    #: what the traced run reads layer numbers from
    answers: list = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    verify_op_ids: list[int] = field(default_factory=list)


def query_stream(stack: Stack, planned_list, tally: Tally) -> StreamResult:
    out = StreamResult()
    client, tracer = stack.client, stack.tracer
    for planned in planned_list:
        with tracer.op("p1.query") as op_id:
            start = time.perf_counter()
            response = tally.run("p1", lambda: ask(client, planned))
            elapsed = time.perf_counter() - start
        if response is None:
            out.skipped.append(0)
            continue
        out.latency.append(elapsed)
        out.vo_bytes.append(response.vo_nbytes)
        out.skipped.append(response.sp_stats.blocks_skipped)
        out.answers.append((planned, response))
        out.op_ids.append(op_id)
        # the paper's user CPU time, on the answer as received
        with tracer.op("p1.verify") as op_id:
            start = time.perf_counter()
            client.user.verify(planned.query, response.results, response.vo)
            out.verify.append(time.perf_counter() - start)
        out.verify_op_ids.append(op_id)
    return out


# -- P2 -------------------------------------------------------------------------
def throughput(stack: Stack, rounds, tally: Tally) -> list[float]:
    """Verified queries per second of each barrier-released round."""
    n_clients = min(len(rounds[0]), os.cpu_count() or 1)
    clients = [stack.connect() for _ in range(n_clients)]
    rates = []
    try:
        for lists in rounds:
            barrier = threading.Barrier(n_clients + 1)
            finished = [0.0] * n_clients
            verified = [0] * n_clients

            def loop(index: int) -> None:
                client = clients[index]
                barrier.wait()
                for planned in lists[index]:
                    if tally.run("p2", lambda: ask(client, planned)) is not None:
                        verified[index] += 1
                finished[index] = time.perf_counter()

            threads = [
                threading.Thread(target=loop, args=(index,))
                for index in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            released = time.perf_counter()
            for thread in threads:
                thread.join()
            rates.append(sum(verified) / (max(finished) - released))
    finally:
        for client in clients:
            client.close()
    return rates


# -- P3 -------------------------------------------------------------------------
@dataclass
class IngestResult:
    delivery: list[float] = field(default_factory=list)
    delivery_bytes: list[int] = field(default_factory=list)
    trailing: list[float] = field(default_factory=list)
    first_poll: list[float] = field(default_factory=list)
    later_polls: list[float] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    blocks: list = field(default_factory=list)


def poll_checked(stream, expected) -> int:
    """Poll and verify one stream; the bytes of what it delivered."""
    deliveries = stream.poll()
    got = tuple(sorted(i for delivery in deliveries for i in ids(delivery.results)))
    if not deliveries or got != expected:
        raise WrongAnswer(f"subscription delivered {got}, oracle says {expected}")
    return sum(delivery.vo_nbytes for delivery in deliveries)


def live_ingest(stack: Stack, plan: workloads.Plan, tally: Tally) -> IngestResult:
    out = IngestResult()
    client, tracer = stack.client, stack.tracer
    streams = [client.stream(sub.query) for sub in plan.subscriptions]
    try:
        for index, (timestamp, objects) in enumerate(plan.live):
            block = tally.run("mine", lambda: stack.mine(objects, timestamp))
            out.blocks.append(block)
            with tracer.op("p3.deliver") as op_id:
                mined = time.perf_counter()
                total = 0
                for sub, stream in zip(plan.subscriptions, streams):
                    expected = sub.expected[index]
                    start = time.perf_counter()
                    nbytes = tally.run("poll", lambda: poll_checked(stream, expected))
                    # the first poll after a block makes the engine process it
                    polls = out.first_poll if stream is streams[0] else out.later_polls
                    polls.append(time.perf_counter() - start)
                    total += nbytes or 0
                out.delivery.append(time.perf_counter() - mined)
            out.delivery_bytes.append(total)
            out.op_ids.append(op_id)
            for planned in plan.trailing[index]:
                with tracer.op("p3.trailing"):
                    start = time.perf_counter()
                    if tally.run("trailing", lambda: ask(client, planned)) is not None:
                        out.trailing.append(time.perf_counter() - start)
    finally:
        for stream in streams:
            stream.close()
    # the lead-in blocks were checked like the others; they are not measured
    out.delivery = out.delivery[workloads.LEAD_IN :]
    out.delivery_bytes = out.delivery_bytes[workloads.LEAD_IN :]
    out.op_ids = out.op_ids[workloads.LEAD_IN :]
    out.blocks = out.blocks[workloads.LEAD_IN :]
    n_subs = len(plan.subscriptions)
    out.first_poll = out.first_poll[workloads.LEAD_IN :]
    out.later_polls = out.later_polls[workloads.LEAD_IN * (n_subs - 1) :]
    return out


# -- P4 -------------------------------------------------------------------------
def reopen_and_reask(data_dir: str, kept, tally: Tally) -> float:
    """Seconds ``VChainNetwork.open`` took; the re-asked VOs must be the
    bytes the first process sent."""
    start = time.perf_counter()
    net = VChainNetwork.open(data_dir, fsync=FSYNC)
    elapsed = time.perf_counter() - start
    try:
        backend = net.accumulator.backend

        def reask(planned, vo_bytes):
            response = ask(net.client, planned)
            if encode_time_window_vo(backend, response.vo) != vo_bytes:
                raise WrongAnswer(f"{planned.kind} query: VO changed after reopen")

        for planned, vo_bytes in kept:
            tally.run("reask", lambda: reask(planned, vo_bytes))
    finally:
        net.close()
    return elapsed


# -- the run --------------------------------------------------------------------
def run(spec: workloads.Spec, seed: int, traced: bool, work_dir: Path) -> dict:
    probe_before = stats.host_probe_ms()
    plan = workloads.generate(spec, seed)
    tally = Tally()
    tracer = Tracer() if traced else NullTracer()
    clock = [time.perf_counter()]  # phase boundaries

    # P0, several times over.  A traced run makes an untraced pass over P1 on
    # the plain stack before its last: the base of trace.overhead_share.
    setup_seconds = []
    plain_latency = None
    stack = None
    for rep in range(SETUP_REPS):
        if stack is not None:
            stack.close()
            shutil.rmtree(stack.data_dir)
        gc.collect()
        last = rep == SETUP_REPS - 1
        stack, seconds = build_stack(
            plan, str(work_dir / f"chain-{rep}"), tracer if last else NullTracer()
        )
        setup_seconds.append(seconds)
        if traced and rep == SETUP_REPS - 2:
            plain_latency = query_stream(stack, plan.p1, Tally()).latency

    clock.append(time.perf_counter())
    gc.collect()
    p1 = query_stream(stack, plan.p1, tally)
    coverage = workloads.check_coverage(plan, p1.skipped)
    caches = stack.endpoint.cache_stats()
    if spec.beyond_cache and caches["fragments"].evictions == 0:
        raise AssertionError(f"{spec.name}: P1 was meant to overflow the cache")
    backend = stack.accumulator.backend
    keep = sorted({0, len(p1.answers) // 2, len(p1.answers) - 1})
    kept = [
        (p1.answers[i][0], encode_time_window_vo(backend, p1.answers[i][1].vo))
        for i in keep
    ]
    rtt = []
    if traced:  # the cheapest request there is: framing + socket + dispatch
        for _ in range(50):
            start = time.perf_counter()
            stack.client.server_stats()
            rtt.append(time.perf_counter() - start)

    clock.append(time.perf_counter())
    gc.collect()
    rates = throughput(stack, plan.p2, tally)

    clock.append(time.perf_counter())
    gc.collect()
    p3 = live_ingest(stack, plan, tally)
    engine = stack.endpoint.stats()["engine"]

    clock.append(time.perf_counter())
    gc.collect()
    stack.close()
    store_bytes = directory_bytes(stack.data_dir)
    reopen_seconds = reopen_and_reask(stack.data_dir, kept, tally)
    clock.append(time.perf_counter())
    probe_after = stats.host_probe_ms()

    timings = {
        "setup_s": stats.summarize(setup_seconds, scale=1.0),
        "query_ms": stats.summarize(p1.latency),
        "verify_ms": stats.summarize(p1.verify),
        "query_qps": {"median": stats.median(rates), "samples": len(rates)},
        "mine_ms": stats.summarize(stack.mine_seconds),
        "delivery_ms": stats.summarize(p3.delivery),
    }
    end_to_end = {name: summary["median"] for name, summary in timings.items()}
    end_to_end["vo_bytes"] = sum(p1.vo_bytes) / len(p1.vo_bytes)
    end_to_end["delivery_vo_bytes"] = sum(p3.delivery_bytes) / len(p3.delivery_bytes)
    end_to_end["store_bytes_per_object"] = store_bytes / plan.objects_mined
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end["rss_peak_mb"] = peak_kb / 1024

    accel = get_backend("ss512").accel_impl
    result = {
        "workload": spec.name,
        "seed": seed,
        "traced": traced,
        "correct": tally.failed == 0,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "errors": tally.errors,
        "end_to_end": end_to_end,
        "timings": timings,
        "counts": {
            "p1_queries": len(plan.p1),
            "p2_queries": sum(len(lst) for lists in plan.p2 for lst in lists),
            "live_blocks": len(p3.delivery),
            "subscriptions": len(plan.subscriptions),
            "blocks_mined": len(stack.mine_seconds),
            "objects_mined": plan.objects_mined,
            "p1_results": sum(len(planned.expected) for planned in plan.p1),
            "p1_blocks_skipped": sum(p1.skipped),
            "engine_proofs_computed": engine["proofs_computed"],
            "engine_proofs_shared": engine["proofs_shared"],
            "engine_deliveries": engine["deliveries"],
        },
        "coverage": coverage,
        "phase_seconds": [b - a for a, b in zip(clock, clock[1:])],
        "probe_ms": [probe_before, probe_after],
        "environment": stats.environment(work_dir, FSYNC, accel),
    }
    if traced:
        record = layers.RunRecord(
            plan=plan,
            stack=stack,
            tracer=tracer,
            p1=p1,
            p3=p3,
            plain_latency=plain_latency,
            rtt=rtt,
            caches=caches,
            engine=engine,
            reopen_seconds=reopen_seconds,
            store_bytes=store_bytes,
            probe_ms=probe_before,
            accel=accel,
        )
        result["per_layer"], result["layer_notes"] = layers.compute(record)
        result["trace_file"] = str(work_dir.parent / f"trace-{spec.name}.json")
        tracer.dump(
            result["trace_file"],
            {"workload": spec.name, "seed": seed, "per_layer": result["per_layer"]},
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    factor = args.seconds / NOMINAL_SECONDS
    spec = workloads.spec_for(args.workload, args.scale, factor)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True)
    try:
        result = run(spec, args.seed, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
