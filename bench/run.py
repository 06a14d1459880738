"""numlam benchmark: one workload, timed end to end, or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload contracts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload head --seed 1 --seconds 30 --trace 1

The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The full record of the run, with the
machine, the commit and every sample, goes to bench/results/.  See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# numlam's term walks (free_vars, substitute, normal-order redex search,
# pretty) recurse on term depth, and the head workload's divergent terms go
# a few thousand levels deep.  tests/conftest.py raises the limit to the same
# value for the same reason.
RECURSION_LIMIT = 20_000

# Set-up is short and noisy, so it is measured in several fresh interpreters
# (after one that fills the bytecode cache) and reported as the median.
SETUP_RUNS = 11
# Fewest passes in a run, so a median exists even when passes are long.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 1
# The reference load: complete binary trees of tuples, built and walked.
# One unit is REFERENCE_TREES trees; after each pass, units run for at least
# REFERENCE_SHARE of that pass's time.
REFERENCE_DEPTH = 13
REFERENCE_TREES = 4
REFERENCE_SHARE = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("contracts", "kgrid", "head"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "numlam" / "__init__.py").is_file():
        print(f"bench: no numlam sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.setrecursionlimit(RECURSION_LIMIT)
    sys.path.insert(0, str(SRC))
    import numlam

    if Path(numlam.__file__).resolve().parent != SRC / "numlam":
        print(f"bench: imported numlam from {numlam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import API_NAMES, COUNTS, NODE_COUNTS, Tracer, pass_layers, unit_of
    from workloads import WORKLOADS

    setup = setup_times()
    workload = WORKLOADS[args.workload](numlam, args.seed)
    plain = SimpleNamespace(**{name: getattr(numlam, name) for name in API_NAMES})
    plain.numeral_system = lambda system: system

    untraced, traced, spans_out = [], [], []
    census = None
    totals = {"attempted": 0, "failed": 0}
    counts = {"beta_steps": set(), "head_steps": set()}
    absent: set[str] = set()

    def timed_pass(api, first: bool) -> float:
        gc.collect()
        start = time.perf_counter()
        outcomes = workload.run_pass(api)
        seconds = time.perf_counter() - start
        tally(workload, outcomes, numlam, first, totals, counts)
        return seconds

    def traced_pass(sizes: bool = False) -> Tracer:
        tracer = Tracer(numlam, sizes)
        api = tracer.api()
        gc.collect()
        with tracer.patched(), tracer.root():
            outcomes = workload.run_pass(api)
        tally(workload, outcomes, numlam, False, totals, counts)
        absent.update(tracer.absent)
        if not sizes:
            traced.append(pass_layers(tracer.spans, tracer.counts))
            spans_out.append(tracer.spans)
        return tracer

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        census = traced_pass(sizes=True).counts
    rounds: list[float] = []
    references = [reference(0.0)]
    while True:
        round_start = time.perf_counter()
        if args.trace and len(rounds) % 2:
            traced_pass()
            untraced.append(timed_pass(plain, not rounds))
        else:
            untraced.append(timed_pass(plain, not rounds))
            if args.trace:
                traced_pass()
        references.append(reference(REFERENCE_SHARE * untraced[-1]))
        rounds.append(time.perf_counter() - round_start)
        enough = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
        if len(rounds) >= enough and time.perf_counter() + statistics.median(rounds) > deadline:
            break

    pass_s = statistics.median(untraced)
    # Each pass spans seconds of the machine's drift, each reference sample
    # a fraction of that, so the reference is averaged over the whole run.
    unit_s = sum(s for _, s in references) / sum(n for n, _ in references)
    pass_ref = pass_s / unit_s
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_ref": (pass_ref, "ref"),
        "verdicts_per_ref": (workload.expected_cases / pass_ref, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    layers = {}
    if traced:
        for key, first in traced[0].items():
            # work counts repeat exactly (checked below); times take the median
            layers[key] = first if key in COUNTS else statistics.median(p[key] for p in traced)
        layers["trace.overhead_s"] = layers["trace.pass_s"] - pass_s
        layers.update((name, census[name]) for name in NODE_COUNTS)

    problems = []
    for name, seen in counts.items():
        if len(seen) > 1:
            problems.append(f"{name} differs between passes: {sorted(seen)}")
    for name, absent_when in (("beta_steps", "report.beta_eta_normalize"),
                              ("head_steps", "head_reduce")):
        per_layer = {p[f"reduction.{name}"] for p in traced}
        if traced and absent_when not in absent and per_layer != counts[name]:
            problems.append(f"traced {name} {sorted(per_layer)} != untraced {sorted(counts[name])}")
    for name in COUNTS if traced else ():
        seen = {p[name] for p in traced} | {census[name]}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")

    correct = totals["failed"] == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "failed_frac": totals["failed"] / totals["attempted"],
        "problems": problems,
        "cases_per_pass": workload.expected_cases,
        "work_counts": {name: sorted(seen) for name, seen in counts.items()},
        "setup_samples_s": setup,
        "pass_samples_s": untraced,
        "pass_s": pass_s,
        "verdicts_per_s": workload.expected_cases / pass_s,
        "reference_unit_s": unit_s,
        "reference_samples": [{"units": n, "s": s} for n, s in references],
        "end_to_end": {name: value for name, (value, _) in e2e.items()},
        "per_layer": layers,
        "per_layer_passes": traced,
        "absent_layers": sorted(absent),
    }
    write_record(record, spans_out)

    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {workload.expected_cases} verdicts, "
          f"pass_s median {pass_s:.4f}, pass_ref {pass_ref:.3f}, "
          f"failed {totals['failed']}/{totals['attempted']}")
    for problem in problems:
        print(f"problem: {problem}")
    shown = {k: (v, unit_of(k)) for k, v in layers.items()} if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0


def reference(min_seconds: float) -> tuple[int, float]:
    """Run units of a fixed pure-Python load for at least `min_seconds` (at
    least one unit); return the units run and their wall seconds.

    The load shares no code with numlam, so no change to numlam moves it,
    but it allocates and walks small objects as reduction does.  The
    effective speed of the shared machine drifts by up to half again over
    minutes, with no steal time to show for it, so pass times are reported
    in units of this load, timed between the passes of the same run.
    """

    def build(depth):
        return (build(depth - 1), build(depth - 1)) if depth else ()

    def walk(tree):
        return 1 + sum(walk(child) for child in tree)

    gc.collect()
    units = 0
    start = time.perf_counter()
    while True:
        for _ in range(REFERENCE_TREES):
            walk(build(REFERENCE_DEPTH))
        units += 1
        seconds = time.perf_counter() - start
        if seconds >= min_seconds:
            return units, seconds


def tally(workload, outcomes, numlam, round_trip, totals, counts) -> None:
    """Check one pass against the known answers.  A case that raised, or a
    case the program did not report at all, counts as failed.  On the first
    pass every printed term must also parse back to the term printed."""
    returned = sum(o.cases for o in outcomes)
    failed = max(0, workload.expected_cases - returned)
    for o in outcomes:
        bad = o.ok is not True
        if round_trip and o.text is not None and not bad:
            bad = not numlam.alpha_eq(numlam.parse_term(o.text), o.term)
        failed += o.cases if bad else 0
    totals["attempted"] += workload.expected_cases
    totals["failed"] += failed
    counts["beta_steps"].add(sum(o.beta_steps for o in outcomes))
    counts["head_steps"].add(sum(o.head_steps for o in outcomes))


def setup_times() -> list[float]:
    cmd = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC)]
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Identifies the measured sources where there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "numlam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_record(record: dict, spans_out: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans_out:
        # one line per span; times in seconds from the start of its pass, and
        # the parent as the index of a span of the same pass (-1 for none)
        with gzip.open(RESULTS / f"{stem}.spans.tsv.gz", "wt", compresslevel=1) as out:
            out.write("pass\tname\tstart\tend\tparent\n")
            for number, spans in enumerate(spans_out):
                origin = spans[0][1]
                out.writelines(
                    f"{number}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                    for name, start, end, parent in spans
                )


if __name__ == "__main__":
    sys.exit(main())
