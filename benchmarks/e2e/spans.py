"""The span log and the three recording proxies of a traced run.

Spans are flat records ``(name, start, end, parent, op_id)`` kept in
memory and written out once, at exit — an event log to be queried
afterwards, not a pile of ad-hoc timers.  The harness opens a span around
each public call it makes; inside the system, time is visible only at
the seams the system already has, so the traced run wires the parties by
hand and hands them delegating stand-ins for the three abstract surfaces:
a :class:`MultisetAccumulator`, a ``BlockStore`` and a ``Transport``.
Nothing is patched and no private attribute is read.

``parent`` links spans opened on one thread.  The server works on its own
threads, where the harness has no enclosing span, so those spans carry
only the ``op_id`` of the operation in flight — unambiguous while a
single closed-loop client is running, which is when layer numbers are
taken.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.accumulators import MultisetAccumulator


class Tracer:
    """An in-memory span log."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.op_names: dict[int, str] = {}
        self.current_op: int | None = None
        self._local = threading.local()

    @contextmanager
    def op(self, name: str):
        """One benchmark operation: its spans share the new ``op_id``."""
        op_id = len(self.op_names)
        self.op_names[op_id] = name
        self.current_op = op_id
        try:
            with self.span(name):
                yield op_id
        finally:
            self.current_op = None

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        index = len(self.spans)
        parent = stack[-1] if stack else None
        op_id = self.current_op
        self.spans.append((name, 0.0, 0.0, parent, op_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- queries over the log ---------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            max(0.0, end - start - covered[index])
            for index, (_n, start, end, _p, _o) in enumerate(self.spans)
        ]

    def per_op(
        self, prefix: str, self_time: bool = False
    ) -> dict[int, tuple[float, int]]:
        """``op_id -> (seconds, calls)`` of the spans named ``prefix*``."""
        selfs = self.self_times() if self_time else None
        totals: dict[int, list[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _parent, op_id) in enumerate(self.spans):
            if op_id is None or not name.startswith(prefix):
                continue
            entry = totals[op_id]
            entry[0] += selfs[index] if selfs is not None else end - start
            entry[1] += 1
        return {op_id: (entry[0], entry[1]) for op_id, entry in totals.items()}

    def ops(self, name: str) -> list[int]:
        return [op_id for op_id, op_name in self.op_names.items() if op_name == name]

    def dump(self, path, extra: dict) -> None:
        selfs = self.self_times()
        origin = min((span[1] for span in self.spans), default=0.0)
        spans = [
            {
                "id": index,
                "name": name,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
                "self_us": round(selfs[index] * 1e6, 1),
                "parent": parent,
                "op_id": op_id,
            }
            for index, (name, start, end, parent, op_id) in enumerate(self.spans)
        ]
        ops = {str(op_id): name for op_id, name in self.op_names.items()}
        with open(path, "w") as handle:
            json.dump({**extra, "ops": ops, "spans": spans}, handle)


class RecordingAccumulator(MultisetAccumulator):
    """Delegates to the real accumulator, one span per call.

    ``role`` names the party holding it (``miner`` / ``sp`` / ``user``),
    so proving time on the SP (``accumulators.sp.prove``) and everything the
    user's verifier asks for (``accumulators.user.*``) stay apart in the log.
    """

    def __init__(self, inner: MultisetAccumulator, tracer: Tracer, role: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.role = role
        self.name = inner.name
        self.backend = inner.backend

    def accumulate(self, encoded):
        with self.tracer.span(f"accumulators.{self.role}.accumulate"):
            return self.inner.accumulate(encoded)

    def prove_disjoint(self, encoded_a, encoded_b):
        with self.tracer.span(f"accumulators.{self.role}.prove"):
            return self.inner.prove_disjoint(encoded_a, encoded_b)

    def verify_disjoint(self, value_a, value_b, proof):
        with self.tracer.span(f"accumulators.{self.role}.verify"):
            return self.inner.verify_disjoint(value_a, value_b, proof)

    @property
    def supports_aggregation(self) -> bool:
        return self.inner.supports_aggregation

    def sum_values(self, values):
        return self.inner.sum_values(values)

    def sum_proofs(self, proofs):
        return self.inner.sum_proofs(proofs)


class RecordingStore:
    """A ``BlockStore`` that times appends and reads of the real one."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.append = tracer.wrap("storage.append", inner.append)
        self.block = tracer.wrap("storage.read", inner.block)

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def sync(self) -> None:
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()


class RecordingTransport:
    """A ``Transport`` that times each request of the real one."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, method: str):
        # reached only for what the instance lacks: the Transport methods
        return self.tracer.wrap(f"api.transport.{method}", getattr(self.inner, method))


class NullTracer:
    """What an untraced run holds: the same surface, no records."""

    def op(self, name: str):
        return nullcontext()
