"""Key material for the multiset accumulators.

``KeyGen(1^λ)`` samples a secret ``s ∈ Z_r``; the public key is the list
of group powers ``g^{s^i}``.  For acc1 the powers run over ``0..q``; for
acc2 over ``1..2q-2`` *excluding* ``q`` — publishing ``g^{s^q}`` would
break the q-DHE assumption the disjointness proof rests on.

The paper notes (Section 5.2.2) that hashing attributes to wide integers
makes acc2's key astronomically large, and proposes a **trusted oracle**
(a third party or SGX enclave) that holds ``s`` and answers public-key
power requests on demand.  :class:`KeyOracle` implements exactly that
remedy: it caches ``g^{s^i}`` per requested index and *refuses* to serve
the forbidden acc2 index, so code built on the oracle sees precisely the
interface an SGX-backed deployment would expose.  ``materialize`` turns
an oracle view into a plain list for deployments with a small, fixed
``q`` (the acc1 setting).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.crypto.accel import dispatch
from repro.crypto.backend import GroupElement, PairingBackend
from repro.errors import CryptoError, KeyCapacityError

#: Default acc2 exponent-domain size: large enough that hash-encoded
#: attributes collide with negligible probability at benchmark scales.
DEFAULT_ACC2_DOMAIN = 2**32


@dataclass
class SecretKey:
    """The trapdoor ``s``.  Held only by KeyGen / the trusted oracle."""

    s: int


class KeyOracle:
    """Serves ``g^{s^i}`` on demand, never revealing ``s``.

    ``forbidden`` lists indices that must never be served (acc2 uses
    ``{q}``).  The oracle is shared by miner, SP and user: it represents
    public parameters, and in tests it doubles as the boundary that the
    unforgeability experiments are run against (the adversary may query
    powers but not the trapdoor).
    """

    def __init__(
        self,
        backend: PairingBackend,
        secret: SecretKey,
        forbidden: frozenset[int] = frozenset(),
    ) -> None:
        self._backend = backend
        self._secret = secret
        self._forbidden = forbidden
        self._cache: dict[int, GroupElement] = {0: backend.generator()}
        # fixed-base window tables per power index (backend-opaque); built
        # lazily, then shared by every commit that touches the same power
        self._tables: dict[int, Any] = {}

    @property
    def backend(self) -> PairingBackend:
        return self._backend

    def power(self, index: int) -> GroupElement:
        """Return ``g^{s^index}`` (cached)."""
        if index < 0:
            raise CryptoError("negative key-power index")
        if index in self._forbidden:
            raise KeyCapacityError(
                f"power index {index} is withheld by the trusted oracle "
                "(q-DHE forbidden slot)"
            )
        element = self._cache.get(index)
        if element is None:
            exponent = dispatch.modexp(self._secret.s, index, self._backend.order)
            element = self._backend.exp(self._backend.generator(), exponent)
            self._cache[index] = element
        return element

    def power_table(self, index: int) -> Any:
        """Fixed-base MSM table for ``g^{s^index}`` (cached).

        Table construction costs about one scalar multiplication, repaid
        after a handful of commits: mining accumulates every tree node
        and inter-block multiset of a block over the same key powers.
        """
        table = self._tables.get(index)
        if table is None:
            table = self._backend.fixed_base_table(self.power(index))
            self._tables[index] = table
        return table

    def commit_prefix(self, coefficients: Sequence[int]) -> GroupElement:
        """``Π power(i)^{coefficients[i]}`` via cached fixed-base tables.

        The acc1 commit primitive: polynomial coefficients over the
        prefix powers ``g^{s^0} .. g^{s^{deg}}``.
        """
        tables = [self.power_table(i) for i in range(len(coefficients))]
        return self._backend.multi_exp_tables(tables, list(coefficients))

    def materialize(self, max_index: int) -> list[GroupElement]:
        """Plain power list ``[g^{s^0}, ..., g^{s^max_index}]``.

        Mirrors publishing a fixed-size public key up front; only valid
        when no forbidden index falls inside the range.
        """
        bad = [i for i in self._forbidden if i <= max_index]
        if bad:
            raise KeyCapacityError(f"cannot materialize withheld indices {bad}")
        return [self.power(i) for i in range(max_index + 1)]


@dataclass
class Acc1PublicKey:
    """q-SDH public key view: powers ``g^{s^0} .. g^{s^q}``.

    ``capacity`` bounds the largest multiset the accumulator can commit
    to (the polynomial degree must not exceed the highest published
    power).
    """

    oracle: KeyOracle
    capacity: int

    def power(self, index: int) -> GroupElement:
        if index > self.capacity:
            raise KeyCapacityError(
                f"acc1 power {index} exceeds public-key capacity {self.capacity}"
            )
        return self.oracle.power(index)

    def commit(self, coefficients: Sequence[int]) -> GroupElement:
        """``g^{P(s)}`` for coefficient list ``P`` (degree ≤ capacity)."""
        if len(coefficients) - 1 > self.capacity:
            raise KeyCapacityError(
                f"acc1 commit degree {len(coefficients) - 1} exceeds "
                f"public-key capacity {self.capacity}"
            )
        return self.oracle.commit_prefix(coefficients)

    @property
    def backend(self) -> PairingBackend:
        return self.oracle.backend


@dataclass
class Acc2PublicKey:
    """q-DHE public key view: powers ``g^{s^i}``, ``i ∈ [1, 2q-2] \\ {q}``.

    ``domain`` is ``q``; encoded elements must lie in ``[1, q-1]``.
    """

    oracle: KeyOracle
    domain: int

    def power(self, index: int) -> GroupElement:
        if index == self.domain:
            raise KeyCapacityError("acc2 forbidden power g^{s^q} requested")
        if not 0 <= index <= 2 * self.domain - 2:
            raise KeyCapacityError(
                f"acc2 power {index} outside [0, 2q-2] for q={self.domain}"
            )
        return self.oracle.power(index)

    @property
    def backend(self) -> PairingBackend:
        return self.oracle.backend


def keygen_acc1(
    backend: PairingBackend, capacity: int, rng: random.Random | None = None
) -> tuple[SecretKey, Acc1PublicKey]:
    """Trusted setup for Construction 1 (q-SDH)."""
    rng = rng or random.Random()
    secret = SecretKey(backend.random_scalar(rng))
    oracle = KeyOracle(backend, secret)
    return secret, Acc1PublicKey(oracle=oracle, capacity=capacity)


def keygen_acc2(
    backend: PairingBackend,
    domain: int = DEFAULT_ACC2_DOMAIN,
    rng: random.Random | None = None,
) -> tuple[SecretKey, Acc2PublicKey]:
    """Trusted setup for Construction 2 (q-DHE); withholds ``g^{s^q}``."""
    rng = rng or random.Random()
    secret = SecretKey(backend.random_scalar(rng))
    oracle = KeyOracle(backend, secret, forbidden=frozenset({domain}))
    return secret, Acc2PublicKey(oracle=oracle, domain=domain)
