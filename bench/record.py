"""Record a baseline: every workload at several seeds, in one JSON file.

    python3 bench/record.py --label NAME [--seeds 1 2 3] [--traced-seeds 31]
        [--workloads poly21 rand2x2 dense16] [--seconds 25]

Runs ``run.py`` once per workload and seed with ``--trace 0``, and once per
workload and traced seed with ``--trace 1``, one after the other.  Writes
``bench/BENCH_<label>.json``: for every workload and metric the values,
their median and quartiles, and the quartile spread (q3 - q1) / median;
and, for each traced run, the per-span split of one pass.  It prints the
spreads, which show whether the benchmark is steady on this machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("poly21", "rand2x2", "dense16")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads((BENCH / "_work" / "results" / name).read_text())
    result["env"] = record["env"]
    result["split"] = record["split"]
    return result


def summarize(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[31])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    doc = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        plain = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = [run(workload, seed, args.seconds, 1) for seed in args.traced_seeds]
        doc["env"] = plain[0]["env"]
        entry = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": summarize(plain),
        }
        if traced:
            entry["traced_seeds"] = args.traced_seeds
            entry["per_layer"] = summarize(traced)
            entry["split"] = {seed: r["split"] for seed, r in zip(args.traced_seeds, traced)}
        doc["workloads"][workload] = entry
        for kind in ("end_to_end", "per_layer"):
            for name, m in entry.get(kind, {}).items():
                spread = f"spread {m['spread']:.3f}" if "spread" in m else ""
                print(f"{workload:8s} {name:24s} {m['median']:14.6g} {m['unit']:6s} {spread}")
        print(f"{workload:8s} correct={entry['correct']} failed={entry['failed']} "
              f"of {entry['attempted']}")
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
