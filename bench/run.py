"""Benchmark of the selection loop, its network, and the ingest-to-evaluation path.

    python3 bench/run.py --workload select-dt --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (set-up time, run time,
peak memory, subset accuracy); with ``--trace 1`` they are the per-layer
figures of one untraced and one traced round plus a fixed-size layer sweep.
See bench/README.md for what each workload and metric is for.
"""

import os

# One BLAS thread for this process and its set-up probes: the matrices are
# small (H = 256), threads only add run-to-run noise on a shared machine,
# and a fixed reduction order keeps report.json byte-identical across runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SETUP_PROBES = 5


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path; refuse any other copy."""
    package = SRC / "rlselect"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import rlselect

    if Path(rlselect.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported rlselect from {rlselect.__file__}, expected {package}")


def setup_time(workload) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *workload.probe_args()],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def run_round(workload, i: int):
    """(result or None, seconds, fingerprint); a raised error is a failed operation."""
    t0 = time.perf_counter()
    try:
        result = workload.round(i)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0, None
    seconds = time.perf_counter() - t0
    return result, seconds, workload.fingerprint(result)


def measure(workload, seconds: float) -> dict:
    """Whole cycles of operations, until the next cycle would end past ``seconds``; at least one.

    Operation ``i`` runs round ``i % workload.rounds``, and a set-up probe
    runs before each, so both medians sample the whole run. The reference
    computation is timed after each probe and operation pair (and once before
    the first), and the pair's wall times are scaled by
    ``reference.NOMINAL_S`` over the mean of the two reference times around
    it: the host's speed swings within seconds, and the scaled times follow
    the program rather than the host.
    """
    results, prints, op_times, setups, problems = [], [], [], [], []
    wall_ops, wall_setups = [], []
    k = workload.rounds
    attempted = failed = 0
    ref_before = reference.seconds()

    def speed() -> float:
        """Scale factor for the items timed since the last reference pass."""
        nonlocal ref_before
        ref_after = reference.seconds()
        factor = reference.NOMINAL_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        return factor

    start = time.perf_counter()
    while attempted == 0 or attempted % k or (time.perf_counter() - start) * (attempted + k) / attempted <= seconds:
        setup_seconds = setup_time(workload)
        result, op_seconds, fingerprint = run_round(workload, attempted % k)
        factor = speed()
        wall_setups.append(setup_seconds)
        setups.append(setup_seconds * factor)
        if result is None:
            failed += 1
        else:
            wall_ops.append(op_seconds)
            op_times.append(op_seconds * factor)
        if attempted < k:
            results.append(result)
            prints.append(fingerprint)
        elif result is not None and prints[attempted % k] is not None:
            problems += checks.identical(f"{workload.name} round {attempted % k}", prints[attempted % k], fingerprint)
        attempted += 1
        if attempted == k:  # the first cycle is the same work on every run, however fast
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < MIN_SETUP_PROBES:
        setup_seconds = setup_time(workload)
        wall_setups.append(setup_seconds)
        setups.append(setup_seconds * speed())
    done = [r for r in results if r is not None]
    if not done:
        sys.exit("bench: every operation of the first cycle failed")
    print(f"bench: {attempted} operations, wall seconds each: {[round(t, 3) for t in wall_ops]}", file=sys.stderr)
    print(f"bench: scaled to the reference speed: {[round(t, 3) for t in op_times]}", file=sys.stderr)
    print(f"bench: set-up wall seconds: {[round(t, 3) for t in wall_setups]}", file=sys.stderr)
    problems += workload.check(results)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
            "subset_acc": workload.subset_acc(done),
        },
    }


def trace_pass(workload, seed: int, trace_path: Path) -> dict:
    """One untraced and one traced round of the same input, then the layer sweep."""
    import sweep
    from spans import Tracer

    tracer = Tracer()
    with tracer.patched():
        with tracer.span("harness.setup"):
            workload.setup()
    untraced, t_untraced, print_untraced = run_round(workload, 0)
    with tracer.patched():
        with tracer.span("harness.round") as root:
            traced, t_traced, print_traced = run_round(workload, 0)
    if untraced is None or traced is None:
        sys.exit("bench: a traced-pass operation failed")
    problems = workload.check([untraced])
    problems += checks.identical("traced vs untraced", print_untraced, print_traced)
    oracle = getattr(traced, "oracle", None)
    counts = (oracle.fit_count, oracle.hit_count) if oracle is not None else (0, 0)
    full, round_ = tracer.summary(), tracer.summary(within=root)
    if sum(counts) != full.get("env.oracle", {}).get("count", 0):
        problems.append(f"traced oracle calls {full.get('env.oracle', {}).get('count', 0)} != fits + hits {counts}")
    timings = untraced.report.timings if hasattr(untraced, "report") else {}
    layer = metrics.layer_metrics(full, round_, counts, timings, t_untraced, t_traced)
    sizes = workload.sweep
    layer |= sweep.classifier_sweep(seed, sizes["n_samples"], sizes["n_features"])
    layer |= sweep.net_sweep(seed, hidden=sizes["hidden"])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    return {"attempted": 2, "failed": 0, "problems": problems, "metrics": layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed)
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            outcome = trace_pass(workload, args.seed, trace_path)
        else:
            workload.setup()
            outcome = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome["problems"]:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    names = [n for n, _, _ in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {n: {"value": outcome["metrics"][n], "unit": metrics.UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
