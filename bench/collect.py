"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py --seeds 1 2 3 --seconds 25 [--workloads ...] [--trace-seed 1] [--out FILE]

For each workload, runs ``bench/run.py`` once per seed (one at a time) and
reports, per end-to-end metric, the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``.
With ``--trace-seed`` it adds one traced run per workload.  With ``--out``
it writes all of it, with the machine's provenance, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS, provenance


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(ROOT, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"provenance": provenance(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = [bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = dict(spread(values), unit=m["unit"], values=values)
            s = entry["end_to_end"][name]
            print(f"{workload:15} {name:12} median {s['median']:10.4f} {m['unit']:3} spread {s['spread']:.4f}")
        print(f"{workload:15} error_rate {entry['failed']}/{entry['attempted']}")
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": traced["metrics"]}
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
