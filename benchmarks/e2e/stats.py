"""Sample summaries, the host-speed probe and the environment record.

Imports nothing from ``repro``: the probe must measure the host, not the
system under test, and :mod:`run` uses these before the build exists.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

#: percentiles a timing may be reported at, besides the median
TAILS = (75, 90, 95, 99, 99.9)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    first, _second, third = statistics.quantiles(values, n=4)
    return float(first), float(third)


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    first, third = quartiles(values)
    middle = median(values)
    return (third - first) / middle if middle else 0.0


def tail(values) -> tuple[str, float] | None:
    """The highest percentile that still has ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for percent in TAILS:
        beyond = len(ordered) * (1 - percent / 100.0)
        if beyond >= 10:
            best = (f"p{percent:g}", ordered[len(ordered) - 1 - int(beyond)])
    return best


def summarize(seconds, scale: float = 1e3) -> dict:
    """Median, sample count and supported tail of a timing, in ``scale``
    units per second (1e3 = ms).  Only the median is ever gated."""
    out = {"median": median(seconds) * scale, "samples": len(seconds)}
    supported = tail(seconds)
    if supported is not None:
        out["tail"] = supported[0]
        out["tail_value"] = supported[1] * scale
    return out


def host_probe_ms() -> float:
    """A fixed big-integer loop: the same work on every call, so its wall
    time tells a slow episode of the host from a slow program."""
    modulus = (1 << 521) - 1
    value = 0x9E3779B97F4A7C15F39CC0605CEDC835
    start = time.perf_counter()
    for _ in range(60000):
        value = (value * value + 12345) % modulus
    elapsed = time.perf_counter() - start
    if value == 0:  # keeps the loop's result live
        raise RuntimeError("host probe degenerated")
    return elapsed * 1e3


def filesystem_of(path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux), else ``unknown``."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _device, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (target + "/").startswith(prefix) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def environment(data_root, fsync: bool, accel: str) -> dict:
    """What two sets must share before their numbers may be compared."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "accel": accel,
        "fsync": fsync,
        "tmp_filesystem": filesystem_of(data_root),
    }
