"""Benchmark of hallwalk, run from the root of a checkout:

    python3 bench/run.py --workload {sweep,crosscheck,certify,all} \
        --seed N --seconds S --trace {0,1}

Each workload drives `hallwalk.cli.main` in-process, one whole round of
its fixed operations at a time, until S seconds of program time have passed
and at least MIN_OPS operations succeeded.  Its answers are checked with
`checks`, which shares no code with the program.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the program's public functions and
reports per-layer metrics per round.  `all` runs each workload in a process
of its own.  The last line of standard output is one JSON object.
"""

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 100  # successful operations, so that ten lie beyond the 90th percentile
SETUP_REPEATS = 15
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def import_program():
    """Import hallwalk.cli from this checkout's src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hallwalk" or n.startswith("hallwalk.")]:
        del sys.modules[name]
    cli = importlib.import_module("hallwalk.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hallwalk was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_rounds(workload, invoke, seconds):
    rounds = []
    elapsed = succeeded = 0
    while not rounds or elapsed < seconds or 0 < succeeded < MIN_OPS:
        rounds.append(workload.round(invoke, keep=not rounds))
        elapsed += rounds[-1].elapsed
        succeeded += len(rounds[-1].latencies)
    return rounds


def end_to_end(rounds, setup_times):
    latencies = sorted(x for r in rounds for x in r.latencies)
    metrics = {
        # the median round resists a burst of load from other processes
        "ops_per_s": statistics.median(len(r.latencies) / r.elapsed for r in rounds),
        "latency_p50_ms": 1000 * statistics.median(latencies) if latencies else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    if len(latencies) >= MIN_OPS:
        metrics["latency_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items() if v is not None}


def per_layer(tracer, rounds, baseline):
    traced = sum(r.elapsed for r in rounds) / len(rounds)
    values = tracer.metrics(len(rounds))
    values["trace.overhead_pct"] = 100 * (traced / baseline.elapsed - 1)
    unit = lambda name: "%" if name.endswith("_pct") else "s" if name.endswith("_s") else "count"
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def run_workload(args):
    if not (SRC / "hallwalk" / "__init__.py").is_file():
        print(f"no hallwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_program()
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
        setup_times.append(perf_counter() - start)

    def invoke(name, argv):
        return cli.main(argv)

    if args.trace:
        tracer = tracing.Tracer(importlib.import_module("hallwalk.errors").BudgetExceededError)
        tracer.install()
        try:
            rounds = run_rounds(workload, lambda name, argv: tracer.op(name, lambda: cli.main(argv)),
                                args.seconds)
        finally:
            tracer.remove()
        baseline = workload.round(invoke, keep=False)
        metrics = per_layer(tracer, rounds, baseline)
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
        compared = rounds + [baseline]
    else:
        rounds = run_rounds(workload, invoke, args.seconds)
        metrics = end_to_end(rounds, setup_times)
        compared = rounds

    problems = [e for r in compared for e in r.errors]
    problems += workload.check(rounds[0])
    digest = rounds[0].digest
    problems += [f"round {n} answered differently from round 0"
                 for n, r in enumerate(compared) if r.digest != digest]
    for problem in problems[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    verdict = "answers correct" if not problems else f"{len(problems)} wrong answers"
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations attempted, "
          f"{failed} failed, {verdict}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  digest {args.workload} {digest}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a process of its own; one JSON object for all of them."""
    results = {}
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            code = child.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
