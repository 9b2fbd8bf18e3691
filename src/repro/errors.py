"""Exception hierarchy for the vChain reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing verification failures (the security-critical path)
from plain usage errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class CryptoError(ReproError):
    """A cryptographic operation received invalid inputs."""


class KeyCapacityError(CryptoError):
    """A multiset exceeds the capacity ``q`` of the published public key."""


class NotDisjointError(CryptoError):
    """``ProveDisjoint`` was called on multisets that intersect."""


class AggregationError(CryptoError):
    """``Sum``/``ProofSum`` aggregation preconditions were violated."""


class VerificationError(ReproError):
    """A verification object failed to authenticate the claimed results.

    Raising (rather than returning ``False``) is reserved for structural
    failures; boolean verdicts are returned by ``verify_*`` helpers.  The
    message always names the check that failed, because a light node
    operator needs to know *why* an SP response was rejected.
    """


class ChainError(ReproError):
    """Blockchain structural invariant violated (bad header linkage etc.)."""


class QueryError(ReproError):
    """Malformed query (empty CNF, inverted range bounds, etc.)."""


class StorageError(ReproError):
    """Durable block storage failed (bad manifest, unrecoverable log)."""


class SubscriptionError(ReproError):
    """Subscription lifecycle misuse (double registration, unknown id)."""


class ServerBusyError(ReproError):
    """The server refused the request under load (admission gate or
    per-client rate limit).  Deliberately cheap to produce: the request
    was rejected *before* any proving work, so a client seeing this
    should back off and retry rather than assume the answer is wrong.
    """


class DeadlineExpiredError(ReproError):
    """The request's deadline lapsed before its response could be sent.

    The deadline travels with the request (see
    :class:`~repro.wire.EnvelopeRequest`); the server checks it both
    before starting the work and after the work completes, so a reply
    that would arrive uselessly late is replaced by this error.
    """
