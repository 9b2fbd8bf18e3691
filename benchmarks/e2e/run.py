#!/usr/bin/env python3
"""The verified-query benchmark: build, run, compare.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

builds the package from source into ``.bench_build/``, starts
:mod:`worker` in a fresh interpreter, prints every metric by name with
its unit and, last, one JSON object: the end-to-end metrics of an
untraced run, or the per-layer metrics of a traced one (which also
writes ``.bench_build/e2e/trace-W.json``).

Sets and comparisons::

    run.py --set OUT.json [--runs 5]   # interleaved runs of every workload
    run.py --aa                        # two sets of the same code must agree
    run.py --compare A.json B.json     # is B worse than A beyond the bounds?
    run.py --scale smoke ...           # the same shapes in a few seconds

See README.md beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BUILD = ROOT / ".bench_build"
SCRATCH = BUILD / "e2e"
#: byte metrics: identical on every run of one workload and seed
EXACT = ("vo_bytes", "delivery_vo_bytes", "store_bytes_per_object")
#: a run is disturbed when a host probe is this far off the set's median
PROBE_TOLERANCE = 0.05


@functools.cache
def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric block of the contract, in its order."""
    return {m["name"]: m["unit"] for m in contract()[section]}


# -- build ----------------------------------------------------------------------
def build() -> tuple[Path, str]:
    """The import path of the built package, and how it was built.

    ``setup.py build`` copies the sources and compiles the optional C
    kernels into ``.bench_build/lib`` (a no-op when up to date), so the
    source tree stays untouched and the run measures what a user who
    installed the package would get.  Without a working build the source
    tree itself is used — pure Python, and the output says so.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT} holds no src/repro package to benchmark")
    if (ROOT / "setup.py").is_file():
        BUILD.mkdir(exist_ok=True)
        command = [sys.executable, "-W", "ignore", "setup.py", "-q"]
        command += ["egg_info", "--egg-base", str(BUILD)]
        command += ["build", "--build-base", str(BUILD)]
        command += ["--build-lib", str(BUILD / "lib")]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0 and (BUILD / "lib" / "repro").is_dir():
            return BUILD / "lib", "setup.py"
        print(f"build failed, using src/:\n{done.stderr[-2000:]}", file=sys.stderr)
    return ROOT / "src", "source-tree"


# -- one run --------------------------------------------------------------------
class Runner:
    """Starts workers against one build."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.lib, self.build_kind = build()
        self.started = 0

    def run(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        self.started += 1
        work_dir = SCRATCH / f"run-{os.getpid()}-{self.started}"
        SCRATCH.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.lib)
        # set iteration order is part of the inputs: fix it from the seed
        env["PYTHONHASHSEED"] = str(seed % (2**32))
        env.pop("REPRO_ACCEL", None)  # the provider is whatever "auto" finds
        command = [sys.executable, str(HERE / "worker.py")]
        command += ["--workload", workload, "--seed", str(seed)]
        command += ["--seconds", str(seconds), "--trace", str(trace)]
        command += ["--scale", self.scale, "--work-dir", str(work_dir)]
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        if done.returncode != 0:
            raise SystemExit(
                f"worker for {workload} seed {seed} exited {done.returncode}"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["environment"]["build"] = self.build_kind
        return result


def print_run(result: dict) -> None:
    print(
        f"# {result['workload']} seed={result['seed']} traced={result['traced']} "
        f"ops={result['ops_attempted']} failed={result['ops_failed']}"
    )
    print("# " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    phases = " ".join(
        f"P{i}={seconds:.1f}s" for i, seconds in enumerate(result["phase_seconds"])
    )
    print(f"# phases {phases}  coverage {result['coverage']}")
    for name, unit in units("end_to_end").items():
        extra = ""
        timing = result["timings"].get(name)
        if timing:
            extra = f"  n={timing['samples']}"
            if "tail" in timing:
                extra += f"  {timing['tail']}={timing['tail_value']:.4f}"
        print(f"{name:<28} {result['end_to_end'][name]:>14.4f} {unit:<6}{extra}")
    if result["traced"]:
        for name, unit in units("per_layer").items():
            value = result["per_layer"].get(name)
            shown = "null" if value is None else f"{value:.4f}"
            print(f"{name:<36} {shown:>14} {unit}")
    for label, note in result.get("layer_notes", {}).items():
        print(f"# probe {label} missing: {note}")
    for error in result["errors"]:
        print(f"# FAILED {error}")


def driver_line(result: dict, trace: int) -> str:
    """The one JSON object the contract asks for: every metric the contract
    names in the block, ``null`` where a traced run's probe was missing."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        name: {"value": result[section].get(name), "unit": unit}
        for name, unit in units(section).items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": metrics,
        }
    )


# -- sets -----------------------------------------------------------------------
def run_set(runner: Runner, workloads, runs: int, seed: int, seconds: float) -> dict:
    """``runs`` runs per workload (seeds ``seed``, ``seed + 1``, ...),
    round-robin across workloads so that one slow episode of the host
    cannot land on every run of one workload.

    A run whose host probe (before or after) is more than 5% off the set's
    median probe is *disturbed*: it is run again, once, and the first
    attempt is kept in the output marked ``discarded``.
    """
    made = []
    for index in range(runs):
        for workload in workloads:
            result = runner.run(workload, seed + index, seconds, 0)
            made.append(result)
            before, after = result["probe_ms"]
            print(
                f"  {workload} seed {result['seed']}: query_ms="
                f"{result['end_to_end']['query_ms']:.3f} "
                f"probe={before:.1f}/{after:.1f} ms",
                file=sys.stderr,
            )
    typical = stats.median([p for result in made for p in result["probe_ms"]])

    def disturbed(result: dict) -> bool:
        return any(abs(p / typical - 1) > PROBE_TOLERANCE for p in result["probe_ms"])

    for result in list(made):
        result["disturbed"] = disturbed(result)
        if result["disturbed"]:
            result["discarded"] = True
            again = runner.run(result["workload"], result["seed"], seconds, 0)
            again["disturbed"] = disturbed(again)
            again["rerun_of_disturbed"] = True
            made.append(again)
    return {
        "environment": made[0]["environment"],
        "probe_median_ms": typical,
        "runs": made,
    }


def kept_runs(result_set: dict) -> list[dict]:
    return [run for run in result_set["runs"] if not run.get("discarded")]


def summarize_set(result_set: dict) -> dict:
    """Per workload and end-to-end metric: median, quartiles, spread, runs."""
    table: dict = {}
    for run in kept_runs(result_set):
        for name, value in run["end_to_end"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    for metrics in table.values():
        for name, values in metrics.items():
            first, third = stats.quartiles(values)
            metrics[name] = {
                "median": stats.median(values),
                "q1": first,
                "q3": third,
                "spread": stats.spread(values),
                "runs": len(values),
            }
    return table


def print_summary(result_set: dict) -> None:
    unit = units("end_to_end")
    for workload, metrics in summarize_set(result_set).items():
        print(f"## {workload}")
        for name, row in metrics.items():
            print(
                f"{name:<24} median {row['median']:>12.4f} {unit[name]:<6} "
                f"q1 {row['q1']:>12.4f} q3 {row['q3']:>12.4f} "
                f"iqr {row['spread']:6.2%} runs {row['runs']}"
            )


def compare(first: dict, second: dict, same_code: bool = False) -> int:
    """Is ``second`` worse than ``first`` beyond the benchmark's bounds?

    Prints, per workload and metric, both medians, both inter-quartile
    ranges (as a share of the median) and |delta| / bound.  Returns 1
    when a ratio exceeds 1 in the worse direction — or, with
    ``same_code`` (the A/A reading), in either direction — and 2 without
    comparing when the sets' provider, build or fsync policy differ.
    """
    for key in ("accel", "build", "fsync"):
        ours, theirs = first["environment"][key], second["environment"][key]
        if ours != theirs:
            print(f"refusing to compare: {key} differs ({ours!r} vs {theirs!r})")
            return 2
    spec = {m["name"]: m for m in contract()["end_to_end"]}
    before, after = summarize_set(first), summarize_set(second)
    status = 0
    print(
        f"{'workload':<18} {'metric':<24} {'median A':>12} {'median B':>12} "
        f"{'iqr A':>7} {'iqr B':>7} {'|d|/bound':>9}"
    )
    for workload in before:
        for name, a in before[workload].items():
            b = after[workload][name]
            delta = (b["median"] - a["median"]) / a["median"]
            ratio = abs(delta) / spec[name]["bound"]
            worse = (delta > 0) == (spec[name]["better"] == "lower")
            flag = ""
            if ratio > 1:
                flag = " WORSE" if worse else " better"
                if worse or same_code:
                    status = 1
            print(
                f"{workload:<18} {name:<24} {a['median']:>12.4f} {b['median']:>12.4f} "
                f"{a['spread']:>7.2%} {b['spread']:>7.2%} {ratio:>9.2f}{flag}"
            )
    return status


def exact_differences(first: dict, second: dict) -> list[str]:
    """Byte metrics, counts and sample counts must repeat exactly for a
    workload and seed; every difference found, as text."""

    def exact(run: dict) -> dict:
        values = {name: run["end_to_end"][name] for name in EXACT}
        values.update(run["counts"])
        values["ops_attempted"] = run["ops_attempted"]
        for name, timing in run["timings"].items():
            values[f"samples.{name}"] = timing["samples"]
        return values

    def by_seed(result_set: dict) -> dict:
        return {(r["workload"], r["seed"]): exact(r) for r in kept_runs(result_set)}

    ours, theirs = by_seed(first), by_seed(second)
    return [
        f"{key} {name}: {value} vs {theirs[key].get(name)}"
        for key in sorted(ours.keys() & theirs.keys())
        for name, value in ours[key].items()
        if value != theirs[key].get(name)
    ]


def a_a(runner: Runner, workloads, runs: int, seed: int, seconds: float) -> int:
    """Two sets of the same code, same seeds: every |delta| / bound must
    stay at or below 1, nothing exact may differ, no operation may fail."""
    sets = [run_set(runner, workloads, runs, seed, seconds) for _ in range(2)]
    for label, result_set in zip("AB", sets):
        with open(SCRATCH / f"aa-{label}.json", "w") as handle:
            json.dump(result_set, handle)
        print(f"# set {label}")
        print_summary(result_set)
    status = compare(*sets, same_code=True)
    problems = exact_differences(*sets)
    for problem in problems:
        print(f"EXACT METRIC DIFFERS {problem}")
    failed = sum(run["ops_failed"] for s in sets for run in s["runs"])
    ok = not (status or problems or failed)
    print(
        f"a/a: {'ok' if ok else 'FAIL'} "
        f"(ops failed: {failed}, exact differences: {len(problems)})"
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--set", metavar="OUT.json", help="run a set, keep every run")
    parser.add_argument("--aa", action="store_true", help="two sets must agree")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--runs", type=int, default=5, help="per workload, >= 5")
    args = parser.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as handle:
                sets.append(json.load(handle))
        return compare(*sets)
    if (args.set or args.aa) and args.runs < 5:
        parser.error("a set needs at least 5 runs per workload")
    workloads = [args.workload] if args.workload else names
    runner = Runner(args.scale)
    if args.aa:
        return a_a(runner, workloads, args.runs, args.seed, args.seconds)
    if args.set:
        result_set = run_set(runner, workloads, args.runs, args.seed, args.seconds)
        with open(args.set, "w") as handle:
            json.dump(result_set, handle)
        print_summary(result_set)
        return 0
    if not args.workload:
        parser.error("--workload is required for a single run")
    result = runner.run(args.workload, args.seed, args.seconds, args.trace)
    print_run(result)
    print(driver_line(result, args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
