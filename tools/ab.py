"""Alternated A/B runs of the benchmark between two revisions.

    python3 tools/ab.py PARENT_REV CHANGE_REV [--workload W] --seed S \\
        --pairs N --seconds T

Each side is a git revision, exported with ``git archive`` into a
temporary directory, or a directory holding a checkout (copied there, so
both sides run from fresh copies).  Each workload (``--workload``, or all
three in turn) runs with the unchanged ``bench/run.py`` of each side ``N``
times per side, alternately, the first side of each pair swapped from one
pair to the next.  The script prints every pair, both sides' medians and
quartiles of each end-to-end metric, and how many pairs the change won (a
lower value).  A run that exits non-zero is reported with its side, pair,
exit code and last line of standard error, counts as not correct and
leaves its pair out of the statistics.  The script then compares every
output file that the runs left under ``bench/_work/<W>-seed<S>/`` byte
for byte; poly21's ``result.json`` is compared without its ``"input"``
line, which holds the checkout's absolute path.  Exit status 1 when a run
is not correct or an output file differs.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("poly21", "rand2x2", "dense16")


def checkout(side: str, dest: Path) -> Path:
    """The revision or directory ``side`` as a fresh tree at ``dest``."""
    if Path(side).is_dir():
        shutil.copytree(side, dest, ignore=shutil.ignore_patterns(
            ".git", "_work", "__pycache__", ".pytest_cache", ".hypothesis"))
        return dest
    dest.mkdir()
    archive = subprocess.run(["git", "archive", side], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(tree: Path, workload: str, args):
    """One benchmark run of ``workload`` in ``tree``: the finished process
    and its last output line, a JSON object (None when it exits non-zero)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)], cwd=tree, capture_output=True, text=True)
    return done, json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def output_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "result.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"input"'))
    return data


def compare_outputs(a: Path, b: Path) -> list:
    """The relative paths of the output files that differ or exist on one side only."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and output_bytes(a / f) == output_bytes(b / f)))


def compare_workload(trees: dict, workload: str, args) -> bool:
    """``args.pairs`` alternated pairs of ``workload``, printed; whether
    every run was correct and every output file identical."""
    pairs, correct = [], True  # pairs: (parent, change) metrics where both runs returned
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            done, out = run(trees[side], workload, args)
            if out is None:
                last = (done.stderr.strip().splitlines() or [""])[-1]
                print(f"pair {i + 1:2d}: the {side} run exited {done.returncode}: {last}",
                      flush=True)
                correct = False
                continue
            correct &= out["correct"]
            got[side] = {m: out["metrics"][m]["value"] for m in METRICS}
        if len(got) == 2:
            p, c = got["parent"], got["change"]
            pairs.append((p, c))
            print(f"pair {i + 1:2d} ({order[0]} first): wall_s {p['wall_s']:.5f} -> "
                  f"{c['wall_s']:.5f} ({100 * (c['wall_s'] / p['wall_s'] - 1):+.1f} %)",
                  flush=True)
    print(f"{workload} seed {args.seed}, {len(pairs)} of {args.pairs} pairs of "
          f"{args.seconds:g} s: median [quartiles] parent -> change, pairs the change won")
    if len(pairs) < 2:
        print("  fewer than 2 pairs in which both runs returned: no quartiles")
    for m in METRICS if len(pairs) >= 2 else ():
        p = [x[m] for x, _ in pairs]
        c = [y[m] for _, y in pairs]
        (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
        won = sum(y < x for x, y in zip(p, c))
        print(f"  {m:<12s} {pm:.5g} [{p1:.5g}-{p3:.5g}] -> {cm:.5g} [{c1:.5g}-{c3:.5g}] "
              f"({100 * (cm / pm - 1):+.1f} %, won {won}/{len(pairs)}, "
              f"gap {'exceeds' if abs(pm - cm) > p3 - p1 else 'within'} the parent's IQR)")
    work = f"bench/_work/{workload}-seed{args.seed}"
    differ = compare_outputs(trees["parent"] / work, trees["change"] / work)
    print(f"  correct: {correct}; output files of {work}: "
          + ("identical" if not differ else "differ: " + ", ".join(differ)), flush=True)
    return correct and not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or checkout directory")
    parser.add_argument("change", help="git revision or checkout directory")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the quartiles need two runs per side")

    with tempfile.TemporaryDirectory(prefix="lcpower-ab-") as tmp:
        trees = {"parent": checkout(args.parent, Path(tmp) / "parent"),
                 "change": checkout(args.change, Path(tmp) / "change")}
        workloads = (args.workload,) if args.workload else WORKLOADS
        ok = [compare_workload(trees, w, args) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
