"""The seven repo-specific checkers.

Each rule is a module exposing ``NAME``, ``DESCRIPTION`` and
``check(project) -> list[Finding]``; :data:`ALL_RULES` is the registry
the driver runs.  To add a rule: write the module, append it here, add
a fixture to ``tests/test_analysis.py``, and document the guarantee in
docs/ARCHITECTURE.md.
"""

from repro.analysis.rules import (
    accel,
    backends,
    blocking,
    codec,
    exports,
    fsync,
    locks,
)

#: registry order is report order for equal file/line
ALL_RULES = (codec, locks, backends, exports, blocking, fsync, accel)

__all__ = sorted(
    [
        "ALL_RULES",
        "accel",
        "backends",
        "blocking",
        "codec",
        "exports",
        "fsync",
        "locks",
    ]
)
