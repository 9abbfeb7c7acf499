"""The cornmaps benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload sweep-torus --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  Each run of the workload is a fresh child process
(``bench/workloads.py``), started one at a time (closed loop, one client).
Before each run, three set-up-only children sample the set-up time.  Runs
start while the time left exceeds the longest run so far; at least one run
always happens.

Each child's result summary is compared with ``bench/expected/<workload>.json``;
a child that raises or whose summary differs is a failed run.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``setup_s``, ``wall_s`` and ``cpu_s``
(each the fastest of its samples) and ``peak_rss_mb`` (the median); the
error rate is ``failed`` / ``attempted``.  With ``--trace 1`` untraced and
traced runs alternate and the metrics are the per-layer ones: the fastest
traced time of each layer, counts that must repeat exactly across the traced
runs, and ``bench.trace_overhead_s`` (fastest traced minus fastest untraced
``wall_s``).
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

WORKLOADS = ("verify-suite", "sweep-torus", "sweep-opposite", "cover-trivial")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# Set-up-only children before each workload run, so set-up is sampled
# across the whole measured time.
SETUP_PROBES = 3
# With the 30 s runs of BENCHMARK.json, a hung child still ends the
# benchmark within 180 s.
CHILD_TIMEOUT_S = 120


class SetupFailed(Exception):
    pass


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def child(workload: str, seed: int, *flags: str) -> dict:
    """One fresh process running one workload run; raises on failure."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_summary(workload: str):
    with open(os.path.join(BENCH, "expected", f"{workload}.json")) as f:
        return json.load(f)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Closed loop of child runs; returns (attempted, failed, metrics)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "cornmaps")):
        raise SetupFailed(f"no cornmaps sources under {ROOT}/src")
    expected = expected_summary(workload)
    deadline = time.perf_counter() + seconds
    setups = []
    attempted = failed = 0
    runs = {False: [], True: []}
    longest = 0.0
    try:
        child(workload, seed, "--setup-only")  # compiles bytecode; not counted
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        raise SetupFailed(f"set-up failed: {exc}") from exc
    while True:
        start = time.perf_counter()
        try:
            for _ in range(SETUP_PROBES):
                setups.append(child(workload, seed, "--setup-only")["setup_s"])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            raise SetupFailed(f"set-up failed: {exc}") from exc
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            out = child(workload, seed, *(["--trace"] if traced else []))
            if out["summary"] != expected:
                raise RuntimeError(f"summary differs from expected: {json.dumps(out['summary'])[:2000]}")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
        else:
            runs[traced].append(out)
            setups.append(out["setup_s"])
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline and (not trace or attempted >= 2):
            break

    if not runs[False] or (trace and not runs[True]):
        return attempted, failed, None
    if trace:
        return attempted, failed + count_mismatches(runs[True]), layer_metrics(runs)
    samples = {"setup_s": setups}
    for name, _ in END_TO_END[1:]:
        samples[name] = [r[name] for r in runs[False]]
    for name, values in samples.items():
        print(f"{name}: {len(values)} samples, fastest {min(values):.6g}, median {statistics.median(values):.6g}")
    metrics = {name: {"value": aggregate(samples[name], unit), "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics


def aggregate(values: list, unit: str):
    """The fastest of several times; the median of anything else.

    The host's speed drifts: a CPU-bound loop alternates between two speeds
    about 1.6 times apart, in phases of seconds to a minute.  For this
    deterministic, single-threaded work the fastest run is the one least
    slowed by that.  Measured over ten seeds, it varied much less between
    invocations than the median did.
    """
    return min(values) if unit == "s" else statistics.median(values)


def count_mismatches(traced: list) -> int:
    """Traced runs whose exact counts differ from the first traced run's."""
    first = traced[0]["layers"]
    counts = [name for name, m in first.items() if m["unit"] not in ("s", "MB")]
    return sum(any(r["layers"][name] != first[name] for name in counts) for r in traced[1:])


def layer_metrics(runs: dict) -> dict:
    traced = runs[True]
    metrics = {}
    for name, m in traced[0]["layers"].items():
        value = m["value"]
        if m["unit"] in ("s", "MB"):
            value = aggregate([r["layers"][name]["value"] for r in traced], m["unit"])
        metrics[name] = {"value": value, "unit": m["unit"]}
    overhead = min(r["wall_s"] for r in traced) - min(r["wall_s"] for r in runs[False])
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cornmaps benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and waits
    # for the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    try:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if metrics is None:
        print(f"error: no successful run among {attempted}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:g} failed/attempted ({failed} of {attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
