"""Paired runs of benchmark workloads on two checkouts, alternating which runs first.

    python3 tools/ab_bench.py BASE CHANGE --workload select-dt,select-net,ingest-eval \\
        --seed 11 --seconds 20 --pairs 10 --work /tmp/ab

BASE and CHANGE are each a git revision of this repository or a directory
holding a checkout. Each side is copied into its own directory under
``--work`` (``git archive`` of a revision; a directory without its ``.git``,
bytecode and run caches), and both copies have their sources compiled to
bytecode by this interpreter before any run. So neither side's ``setup_s``
pays for compiling while the other's does not, and neither runs inside the
repository. ``--workload`` is one workload or a comma-separated list; each
gets its ``--pairs`` pairs in turn, so one invocation can cover every
workload of ``BENCHMARK.json``. Pair i runs ``bench/run.py`` in the base copy
first when i is even and in the change copy first when it is odd; a run's
result is the JSON object on the last line of its standard output.

Each workload's report first gives, per side, the operations that failed
out of those attempted, summed over its runs, and the number of its runs
whose output check failed (``correct`` false); a side with either is
broken, whatever its timings. Then, per end-to-end metric, it gives each
side's median and quartiles, the change's median over the base's, and the
share of pairs the change won (ties count for neither side), with the
better direction read from the base's ``BENCHMARK.json``. Then it says
whether the metric meets the rule for claiming a gain: the change won at
least 9 in 10 pairs, and its median is better than the base's by more than
the base's q1-q3 spread. Last, it gives how much worse the change's median
is, as a share of the base's median (negative when it is better), against
the metric's ``bound`` in the base's ``BENCHMARK.json``, and whether it is
within that bound (a share equal to the bound is). Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".bench_work", ".hypothesis", ".pytest_cache")


def materialize(side: str, dest: Path) -> Path:
    """Copy the checkout named by ``side`` (a directory or a git revision) to ``dest`` and compile its bytecode."""
    if Path(side).is_dir():
        shutil.copytree(side, dest, ignore=_SKIP)
    else:
        with tempfile.TemporaryFile() as archive:
            subprocess.run(["git", "-C", str(ROOT), "archive", side], stdout=archive, check=True)
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                tar.extractall(dest, filter="data")
    for sub in ("src", "bench"):
        if not compileall.compile_dir(str(dest / sub), quiet=1):
            sys.exit(f"ab_bench: {side}: {sub} does not compile")
    return dest


def run_once(checkout: Path, workload: str, args) -> dict:
    """One ``bench/run.py`` run of ``workload`` in ``checkout``; its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_bench: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outcomes(runs: dict[str, list[dict]]) -> list[str]:
    """Per side: operations failed out of those attempted over its runs, and its runs that were not ``correct``."""
    lines = []
    for side, results in runs.items():
        failed, attempted = (sum(r[key] for r in results) for key in ("failed", "attempted"))
        incorrect = sum(not r["correct"] for r in results)
        lines.append(f"{side}: {failed}/{attempted} operations failed; {incorrect}/{len(results)} runs not correct")
    return lines


def lower_is_better(spec: dict) -> dict[str, bool]:
    """Per end-to-end metric of a parsed ``BENCHMARK.json``: whether a lower value is better."""
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def bounds(spec: dict) -> dict[str, float]:
    """Per end-to-end metric of a parsed ``BENCHMARK.json``: how much worse, as a share of the base, a change may be."""
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def report(runs: dict[str, list[dict]], directions: dict[str, bool], limits: dict[str, float]) -> list[str]:
    """Per metric of the runs: each side's quartiles, the change's median over the base's, its pair wins,
    whether those meet the claim rule (9 in 10 pairs won, a median gain above the base's q1-q3 spread),
    and whether the change's median is within the metric's no-regression bound.

    ``directions`` says per metric whether lower is better (``lower_is_better``), and ``limits`` gives
    its bound (``bounds``).
    """
    names = list(runs["base"][0]["metrics"])
    col = max(map(len, names)) + 2
    lines = [f"{'metric':<{col}}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}"]
    for name in names:
        values = {side: [r["metrics"][name]["value"] for r in results] for side, results in runs.items()}
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in values.items()}
        for side, (q1, q2, q3) in quartiles.items():
            lines.append(f"{name:<{col}}{side:<8}{q1:>12.6g}{q2:>12.6g}{q3:>12.6g}")
        lower = directions[name]
        pairs = len(values["base"])
        wins = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
        (base_q1, base_median, base_q3), change_median = quartiles["base"], quartiles["change"][1]
        ratio = change_median / base_median if base_median else float("nan")
        better = "lower" if lower else "higher"
        lines.append(f"{'':<{col}}change/base median {ratio:.4f}; change won {wins}/{pairs} pairs"
                     f" ({better} is better)")
        gain = base_median - change_median if lower else change_median - base_median
        spread = base_q3 - base_q1
        met = 10 * wins >= 9 * pairs and gain > spread
        lines.append(f"{'':<{col}}claim rule {'met' if met else 'not met'}: {wins}/{pairs} pairs won (9 in 10"
                     f" needed), median gain {gain:.6g} against the base's q1-q3 spread {spread:.6g}")
        loss = change_median - base_median if lower else base_median - change_median  # not -gain, which reads a tie as -0
        worse = loss / base_median if base_median else float("nan")
        within = worse <= limits[name]
        lines.append(f"{'':<{col}}no-regression bound {'kept' if within else 'broken'}: change median worse by"
                     f" {worse:.4f} of the base's, bound {limits[name]:g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="git revision or checkout directory of the base side")
    parser.add_argument("change", help="git revision or checkout directory of the changed side")
    parser.add_argument("--workload", required=True, help="a workload, or a comma-separated list of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work", type=Path, required=True, help="an empty or missing directory for the two copies")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    if args.work.exists() and any(args.work.iterdir()):
        parser.error(f"--work {args.work} is not empty")

    workloads = args.workload.split(",")
    sides = {side: materialize(getattr(args, side), args.work / side) for side in ("base", "change")}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = sorted(set(workloads) - {w["name"] for w in spec["workloads"]})
    if unknown:
        parser.error(f"--workload: {', '.join(unknown)} not in the base's BENCHMARK.json")
    directions, limits = lower_is_better(spec), bounds(spec)
    for workload in workloads:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args))
            pair = {side: runs[side][-1]["metrics"]["run_s"]["value"] for side in runs}
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): run_s base {pair['base']}"
                  f" change {pair['change']}", file=sys.stderr, flush=True)
        print(f"{workload} seed {args.seed}, {args.seconds:g} s a run, {args.pairs} pairs")
        print("\n".join(outcomes(runs) + report(runs, directions, limits)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
