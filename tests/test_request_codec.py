"""Round-trip and tamper-rejection tests for the request codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.core.prover import QueryStats
from repro.core.query import (
    CNFCondition,
    RangeCondition,
    SubscriptionQuery,
    TimeWindowQuery,
)
from repro.wire import (
    DeregisterRequest,
    FlushRequest,
    HeadersRequest,
    PollRequest,
    QueryRequest,
    RegisterRequest,
    WireError,
    decode_query_response,
    decode_request,
    decode_subscription_query,
    decode_time_window_query,
    encode_query_response,
    encode_request,
    encode_subscription_query,
    encode_time_window_query,
)

# -- strategies ---------------------------------------------------------------
_attrs = st.text(alphabet="abcXYZ:0127", min_size=1, max_size=6)

_cnf = st.lists(
    st.frozensets(_attrs, min_size=1, max_size=3), max_size=3
).map(lambda clauses: CNFCondition(tuple(clauses)))


@st.composite
def _ranges(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    low = tuple(draw(st.integers(min_value=0, max_value=200)) for _ in range(dims))
    high = tuple(lo + draw(st.integers(min_value=0, max_value=200)) for lo in low)
    return RangeCondition(low=low, high=high)


_numeric = st.none() | _ranges()


@st.composite
def _time_window_queries(draw):
    start = draw(st.integers(min_value=0, max_value=2**40))
    return TimeWindowQuery(
        start=start,
        end=start + draw(st.integers(min_value=0, max_value=2**40)),
        numeric=draw(_numeric),
        boolean=draw(_cnf),
    )


_subscription_queries = st.builds(SubscriptionQuery, numeric=_numeric, boolean=_cnf)


# -- query round-trips --------------------------------------------------------
@given(_time_window_queries())
def test_time_window_query_roundtrip(query):
    assert decode_time_window_query(encode_time_window_query(query)) == query


@given(_subscription_queries)
def test_subscription_query_roundtrip(query):
    assert decode_subscription_query(encode_subscription_query(query)) == query


@given(_time_window_queries())
def test_truncated_query_rejected(query):
    data = encode_time_window_query(query)
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode_time_window_query(data[:cut])


@given(_time_window_queries())
def test_trailing_bytes_rejected(query):
    with pytest.raises(WireError):
        decode_time_window_query(encode_time_window_query(query) + b"\x00")


def test_query_form_confusion_rejected():
    tw = TimeWindowQuery(start=0, end=9)
    sub = SubscriptionQuery()
    with pytest.raises(WireError):
        decode_subscription_query(encode_time_window_query(tw))
    with pytest.raises(WireError):
        decode_time_window_query(encode_subscription_query(sub))


def test_forged_query_bytes_rejected_at_parse_boundary():
    # inverted window: start=5, end=2 — structurally valid varints, but the
    # query constructor invariant fails and must surface as WireError
    data = bytearray(encode_time_window_query(TimeWindowQuery(start=5, end=7)))
    data[2] = 2  # end varint
    with pytest.raises(WireError):
        decode_time_window_query(bytes(data))
    with pytest.raises(WireError):
        decode_time_window_query(b"\x09" + bytes(data[1:]))  # unknown form tag


def test_forged_range_rejected():
    # inverted bounds inside the range predicate
    query = TimeWindowQuery(start=0, end=1, numeric=RangeCondition(low=(4,), high=(4,)))
    data = bytearray(encode_time_window_query(query))
    assert data[-2] == 4  # the high bound's varint
    data[-2] = 1
    with pytest.raises(WireError):
        decode_time_window_query(bytes(data))


# -- request frames -----------------------------------------------------------
@given(_time_window_queries(), st.none() | st.booleans())
def test_query_request_roundtrip(query, batch):
    request = QueryRequest(query=query, batch=batch)
    assert decode_request(encode_request(request)) == request


@given(_subscription_queries, st.none() | st.integers(min_value=0, max_value=99))
def test_register_request_roundtrip(query, since):
    request = RegisterRequest(query=query, since_height=since)
    assert decode_request(encode_request(request)) == request


@pytest.mark.parametrize(
    "request_",
    [
        DeregisterRequest(query_id=3),
        PollRequest(query_id=0),
        FlushRequest(query_id=7),
        HeadersRequest(from_height=12),
    ],
)
def test_control_request_roundtrip(request_):
    assert decode_request(encode_request(request_)) == request_


def test_unknown_request_tag_rejected():
    with pytest.raises(WireError):
        decode_request(b"\x63\x00")
    with pytest.raises(WireError):
        decode_request(b"")


@given(_time_window_queries())
def test_truncated_request_rejected(query):
    data = encode_request(QueryRequest(query=query))
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode_request(data[:cut])


# -- response bodies ----------------------------------------------------------
def test_query_response_roundtrip(sim_acc2):
    from repro.core.vo import TimeWindowVO

    backend = sim_acc2.backend
    stats = QueryStats(
        sp_seconds=0.125, blocks_scanned=4, blocks_skipped=2, proofs_computed=3
    )
    data = encode_query_response(backend, [], TimeWindowVO(), stats)
    results, vo, decoded = decode_query_response(backend, data)
    assert results == [] and vo.entries == [] and decoded == stats
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode_query_response(backend, data[:cut])
    # the stats end in two retired slots that must read zero
    assert data.endswith(b"\x00\x00")
    for retired in (b"\x07\x00", b"\x00\x04"):
        with pytest.raises(WireError, match="retired"):
            decode_query_response(backend, data[:-2] + retired)


# -- stats requests & envelopes ----------------------------------------------
def test_stats_request_roundtrip():
    from repro.wire import StatsRequest

    assert decode_request(encode_request(StatsRequest())) == StatsRequest()


@given(_time_window_queries(), st.none() | st.integers(min_value=1, max_value=10**7))
def test_envelope_request_roundtrip(query, deadline_ms):
    from repro.wire import EnvelopeRequest

    envelope = EnvelopeRequest(
        request=QueryRequest(query=query), deadline_ms=deadline_ms
    )
    assert decode_request(encode_request(envelope)) == envelope


@given(_time_window_queries(), st.integers(min_value=1, max_value=10**7))
def test_peek_deadline_unwraps_envelopes(query, deadline_ms):
    from repro.wire import EnvelopeRequest, peek_deadline

    inner = QueryRequest(query=query)
    payload = encode_request(EnvelopeRequest(request=inner, deadline_ms=deadline_ms))
    peeked, bare = peek_deadline(payload)
    assert peeked == deadline_ms
    assert bare == encode_request(inner)
    assert decode_request(bare) == inner


def test_peek_deadline_passes_bare_frames_through():
    from repro.wire import peek_deadline

    payload = encode_request(PollRequest(query_id=4))
    assert peek_deadline(payload) == (None, payload)
    assert peek_deadline(b"") == (None, b"")


def test_nested_envelope_rejected():
    from repro.wire import EnvelopeRequest, StatsRequest

    envelope = EnvelopeRequest(request=StatsRequest(), deadline_ms=5)
    with pytest.raises(WireError):
        encode_request(EnvelopeRequest(request=envelope, deadline_ms=5))
    # a hand-crafted nested envelope is rejected on decode too
    data = encode_request(envelope)
    forged = bytes([data[0], 0]) + data  # envelope tag + "no deadline" + envelope
    with pytest.raises(WireError):
        decode_request(forged)


def test_server_stats_roundtrip():
    from repro.wire import ServerStats, decode_stats_response, encode_stats_response

    stats = ServerStats(
        endpoint={"queries": 4, "polls": 0},
        caches={"fragments": {"hits": 9, "hit_rate": 0.75}, "proofs": {"hits": 1}},
        engine={"deliveries": 2},
        server={"requests": 11, "evictions": 1},
        storage={"nodes_online": 6, "repaired_stripes": 3},
    )
    assert decode_stats_response(encode_stats_response(stats)) == stats


def test_server_stats_optional_sections_roundtrip():
    from repro.wire import ServerStats, decode_stats_response, encode_stats_response

    stats = ServerStats(endpoint={}, caches={}, engine={}, server=None)
    data = encode_stats_response(stats)
    assert decode_stats_response(data) == stats
    # endpoint, caches and engine are empty, so byte 3 is the retired
    # crypto-pool marker; only "absent" decodes
    assert data[3] == 0
    for marker in (b"\x01\x00", b"\x02"):
        with pytest.raises(WireError, match="retired"):
            decode_stats_response(data[:3] + marker + data[4:])


def test_server_stats_truncation_rejected():
    from repro.wire import ServerStats, decode_stats_response, encode_stats_response

    data = encode_stats_response(
        ServerStats(
            endpoint={"queries": 1},
            caches={"fragments": {"hits": 2}},
            engine={"deliveries": 0},
            server={"requests": 3},
        )
    )
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode_stats_response(data[:cut])
