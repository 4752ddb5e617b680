"""Layered benchmark of lcpower.

    python3 bench/run.py --workload {poly21,rand2x2,dense16} --seed N \\
        --seconds S --trace {0,1}

One process and one thread drive lcpower through its public API in a
closed loop: the next pass starts when the previous one returns.  A pass
runs one input set of the workload (see workloads.py) and writes its
output files; passes repeat, round robin over the input sets, until
``--seconds`` have passed and every set has run once.  Every solve is
checked, and every pass's output bytes must equal the first pass's.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs input
set 0 untraced for half the time and then traced for the other half, and
reports the per-layer metrics (see tracer.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print every metric with its unit and the
environment.  Each run also writes ``bench/_work/results/``: the result
with the environment and the full per-span split, and the traced spans.
"""

import os

# Before numpy loads: pi_power's matmuls must not spread over the CPUs
# while the benchmark measures one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
PACKAGE = BENCH.parent / "src" / "lcpower"
WORK = BENCH / "_work"
SETUP_PROBES = 9  #: fresh processes per run; setup_s is their median


@dataclass
class Pass:
    index: int      #: input set
    wall: float     #: seconds, output writing included
    solves: list    #: seconds per solve
    checks: list    #: (steps, error or None) per solve
    output: bytes


def import_program():
    """Import the checkout's lcpower, or exit without a result."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"run.py: no lcpower sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import lcpower
    if Path(lcpower.__file__).resolve().parent != PACKAGE:
        sys.exit(f"run.py: lcpower imported from {lcpower.__file__}, not {PACKAGE}")


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def setup_seconds(workload, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(workdir)]
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                              timeout=120)
        if probe:  # the first probe also writes the bytecode caches
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(wl, sets, seconds: float, tracer=None) -> list:
    """Closed loop over the input sets until ``seconds`` have passed and
    each set has run once."""
    passes = []
    run = wl.run_pass if tracer is None else tracer.span("bench.pass", wl.run_pass)
    start = time.perf_counter()
    while len(passes) < len(sets) or time.perf_counter() - start < seconds:
        index = sets[len(passes) % len(sets)]
        gc.collect()
        with tracer or contextlib.nullcontext():
            began = time.perf_counter()
            solves = run(index)
            wall = time.perf_counter() - began
        passes.append(Pass(index, wall, solves, wl.check(index), wl.outputs(index)))
    return passes


def tally(passes) -> tuple:
    """(attempted, failed, outputs identical) over the passes."""
    attempted = failed = 0
    first = {}
    identical = True
    for p in passes:
        for steps, error in p.checks:
            attempted += 1
            if error is not None:
                failed += 1
                print(f"check failed: set {p.index}, {error} ({steps} steps)",
                      file=sys.stderr)
        if first.setdefault(p.index, p.output) != p.output:
            identical = False
            print(f"check failed: set {p.index} output differs from its first pass",
                  file=sys.stderr)
    return attempted, failed, identical


def median_wall(passes) -> float:
    """Median pass wall time; with several input sets, the mean over sets
    of each set's median, so the mix of sets does not depend on speed."""
    by_set = {}
    for p in passes:
        by_set.setdefault(p.index, []).append(p.wall)
    return statistics.fmean(statistics.median(w) for w in by_set.values())


def percentile_ms(samples, share: float):
    """The ``share`` quantile of the samples in ms, or None when fewer than
    ten samples lie beyond it."""
    if len(samples) * (1 - share) < 10:
        return None
    ordered = sorted(samples)
    return 1000 * ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass
class Report:
    metrics: dict  #: name -> (value, unit): the metrics of the JSON line
    notes: dict    #: name -> how the metric was sampled
    lines: list    #: further lines to print
    passes: list
    split: dict = field(default_factory=dict)  #: span -> (calls, self s) per pass


def end_to_end(wl, args) -> Report:
    setup = setup_seconds(args.workload, args.seed, wl.dir)
    passes = run_passes(wl, list(range(wl.n_sets)), args.seconds)
    solves = [s for p in passes for s in p.solves]
    p80 = percentile_ms(solves, 0.8)
    return Report(
        metrics={
            "setup_s": (setup, "s"),
            "wall_s": (median_wall(passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        },
        notes={"setup_s": f"median of {SETUP_PROBES} fresh processes",
               "wall_s": f"{len(passes)} passes over {wl.n_sets} input set(s)"},
        lines=[
            f"solve_ms_p50 {1000 * statistics.median(solves):.4f} ms ({len(solves)} solves)",
            f"solve_ms_p80 {p80:.4f} ms ({len(solves)} solves)" if p80 is not None
            else f"solve_ms_p80 not reported: fewer than 10 of {len(solves)} solves "
                 "lie beyond it",
        ],
        passes=passes)


def per_layer(wl, args) -> Report:
    from tracer import LAYER_TIMES, Tracer

    setup_tracer = Tracer()
    with setup_tracer:
        wl.parse()
    untraced = run_passes(wl, [0], args.seconds / 2)
    tracer = Tracer()
    traced = run_passes(wl, [0], args.seconds / 2, tracer)
    tracer.write(WORK / "results" / f"{args.workload}-seed{args.seed}-spans.csv")

    n = len(traced)
    split = {name: (calls / n, secs / n)
             for name, (calls, secs) in tracer.self_times().items()}
    setup_split = setup_tracer.self_times()
    metrics = {name: (sum(split.get(s, (0, 0.0))[1] for s in spans), "s")
               for name, spans in LAYER_TIMES.items()}
    metrics["textio.parse_s"] = (
        sum(setup_split.get(s, (0, 0.0))[1] for s in LAYER_TIMES["textio.parse_s"]), "s")
    steps = sum(s for s, _ in untraced[0].checks)
    untraced_wall = statistics.median(p.wall for p in untraced)
    metrics.update({
        "linalg.matvec_calls": (split.get("linalg.matvec", (0, 0.0))[0], "count"),
        "core.mul_calls": (tracer.mul_calls / n, "count"),
        "core.term_pairs": (tracer.term_pairs / n, "count"),
        "solver.steps": (steps, "count"),
        "solver.ms_per_step": (1000 * untraced_wall / steps, "ms"),
        "trace_overhead": (statistics.median(p.wall for p in traced) / untraced_wall,
                           "ratio"),
    })
    pass_seconds = statistics.fmean(p.wall for p in traced)
    return Report(
        metrics=metrics,
        notes={"textio.parse_s": "one set-up parse",
               "trace_overhead": f"{n} traced vs {len(untraced)} untraced passes"},
        lines=[f"split {name:<40s} {calls:>10.1f} calls {secs:9.4f} s "
               f"{100 * secs / pass_seconds:5.1f} %"
               for name, (calls, secs) in sorted(split.items(), key=lambda kv: -kv[1][1])],
        passes=untraced + traced,
        split=split)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("poly21", "rand2x2", "dense16"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.write_inputs()
    wl.load_references()
    wl.parse()

    report = (per_layer if args.trace else end_to_end)(wl, args)
    attempted, failed, identical = tally(report.passes)
    env = environment(args.seed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()}

    print("env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in report.metrics.items():
        note = f"  ({report.notes[name]})" if name in report.notes else ""
        print(f"{name:<24s} {value:14.6g} {unit}{note}")
    for line in report.lines:
        print(line)
    print(f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} solves)"
          f"{'' if identical else '; outputs differ between passes'}")
    record = {
        "env": env, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "identical_outputs": identical, "metrics": metrics,
        "pass_walls": [[p.index, p.wall] for p in report.passes],
        "split": {k: {"calls": c, "self_s": s} for k, (c, s) in report.split.items()},
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and identical, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
