"""Closed-loop benchmark of the arboreal CLI and library, stdlib only.

One run drives one workload from one client, in one process and one thread,
through `arboreal.cli.main(argv)` with stdout captured (and, for level-3
Frobenius sampling, `galois.good_primes` plus `galois.frobenius_sample`).
It prints one metric per line and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0
    python3 bench/run.py sweep --workload all --runs 10 --out bench/results/a.jsonl
    python3 bench/run.py compare bench/results/a.jsonl [bench/results/b.jsonl]

`--trace 1` wraps the program's public functions (see spans.py), reports the
per-layer metrics instead of the end-to-end ones and writes the spans to
bench/results/.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 9
WALL_CAP_S = 150  # a run stops starting rounds after this, to end within 180 s

# Cold start of the CLI in a fresh interpreter: import plus one warm-up op.
SETUP_CHILD = """
import contextlib, io, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import arboreal, arboreal.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = arboreal.cli.main(sys.argv[2:])
elapsed = time.perf_counter() - start
if code != 0 or not arboreal.__file__.startswith(src):
    sys.exit("warm-up failed")
print(elapsed)
"""


def load_program():
    """Import arboreal from this checkout's src/, never from elsewhere."""
    if not (SRC / "arboreal" / "__init__.py").is_file():
        sys.exit(f"bench: no arboreal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arboreal
    import arboreal.cli
    import arboreal.dynamics
    import arboreal.galois

    if Path(arboreal.__file__).resolve().parent != SRC / "arboreal":
        sys.exit(f"bench: imported arboreal from {arboreal.__file__}")
    return arboreal


def setup_seconds(warmup, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *warmup],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            sys.exit(f"bench: set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times)


def run_op(op, program):
    """Run one operation; returns (ok, output)."""
    if op.argv is not None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = program.cli.main(op.argv)
        return code == 0, out.getvalue()
    pair = program.dynamics.QuadPair.from_normal(*op.pair)
    primes = program.galois.good_primes(pair, 3, op.params["primes"])
    report = program.galois.frobenius_sample(pair, 3, primes)
    return True, {"primes": list(report.primes), "partitions": dict(report.partitions)}


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def measure(workload, program, seed: int, seconds: float, smoke: bool, tracer):
    """Run whole rounds until `seconds` of operation time and enough samples."""
    min_ops = 1 if smoke else math.ceil(10 / (1 - workload.tail_pct / 100))
    latencies, outputs, problems = [], {}, []
    attempted = failed = 0
    wall_start = time.perf_counter()
    r = 0
    while True:
        rng = random.Random(f"{workload.name}:{seed}:{r}")
        for op in workload.round(rng, smoke, r):
            traced = tracer.operation(attempted, op.kind) if tracer else contextlib.nullcontext()
            attempted += 1
            start = time.perf_counter()
            try:
                with traced:
                    ok, output = run_op(op, program)
            except Exception as exc:  # an operation that crashes counts as failed
                ok, output = False, repr(exc)
            latencies.append(time.perf_counter() - start)
            if not ok:
                failed += 1
                print(f"bench: {op.kind} {op.argv or op.pair} failed: {str(output)[-300:]}", file=sys.stderr)
                continue
            key = (op.kind, tuple(op.argv or ()), op.pair, tuple(sorted(op.params.items())))
            if key not in outputs:
                outputs[key] = (op, output)
            elif outputs[key][1] != output:
                problems.append(f"{op.kind} {op.argv}: same input, different output")
        r += 1
        if smoke or (sum(latencies) >= seconds and len(latencies) >= min_ops):
            break
        if time.perf_counter() - wall_start > WALL_CAP_S:
            print(f"bench: stopped at the {WALL_CAP_S} s cap with {len(latencies)} ops", file=sys.stderr)
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, output in outputs.values():
        try:
            problems += [f"{op.kind} {op.argv or op.pair}: {p}" for p in workload.check(op, output)]
        except Exception as exc:  # a malformed output is a failed check
            problems.append(f"{op.kind} {op.argv or op.pair}: check raised {exc!r}")
    return latencies, attempted, failed, peak_rss_mb, problems


def run(args) -> int:
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    program = load_program()
    tracer = None
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(workload.warmup, 1 if args.smoke else SETUP_REPEATS), "s")
    with contextlib.redirect_stdout(io.StringIO()):
        if program.cli.main(workload.warmup) != 0:
            sys.exit("bench: warm-up operation failed")
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(program)

    latencies, attempted, failed, peak_rss_mb, problems = measure(
        workload, program, args.seed, args.seconds, args.smoke, tracer
    )
    ordered = sorted(latencies)
    ops_per_s = (attempted - failed) / sum(latencies)
    p50_ms = statistics.median(ordered) * 1000
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"spans-{workload.name}-{args.seed}.jsonl"
        meta = {"workload": workload.name, "seed": args.seed, "ops": attempted,
                "ops_per_s": ops_per_s, "op_p50_ms": p50_ms}
        tracer.write(path, meta)
        print(f"spans: {path}")
        metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics(len(latencies)).items()}
    else:
        metrics["ops_per_s"] = (ops_per_s, "ops/s")
        metrics["op_p50_ms"] = (p50_ms, "ms")
        metrics["op_tail_ms"] = (percentile(ordered, workload.tail_pct) * 1000, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {attempted} ops, tail = p{workload.tail_pct}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# --- sweep and compare ------------------------------------------------------------


def sweep(args) -> int:
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if done.returncode != 0:
                sys.exit(f"bench: {' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = {"workload": name, "seed": seed, **result}
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {summary}", flush=True)
    return 0


def _load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [_load(p) for p in args.files]
    for workload in sorted(set().union(*sides)):
        print(f"== {workload}")
        for side, runs in zip("AB", sides):
            rows = runs.get(workload, [])
            if rows:
                failed = sum(r["failed"] for r in rows)
                attempted = sum(r["attempted"] for r in rows)
                correct = all(r["correct"] for r in rows)
                print(f"  {side}: {len(rows)} runs, failed {failed}/{attempted}, all correct: {correct}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sides:
                values = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                stats.append(_summary(values) if values else None)
            cells = [
                "-" if s is None else f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] spread {s[3]:.1%}"
                for s in stats
            ]
            verdict = ""
            if all(stats):
                if any(s[3] > bound for s in stats):
                    verdict = "unresolved"
                elif len(stats) == 2:
                    change = (stats[1][0] - stats[0][0]) / stats[0][0]
                    worse = change > 0 if metric["better"] == "lower" else change < 0
                    verdict = f"{change:+.1%} " + (
                        ("REGRESSION" if worse else "better") if abs(change) > bound else "within bound"
                    )
            print(f"  {name:12s} bound {bound:.0%}  " + "  |  ".join(cells) + f"  {verdict}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(BENCH))
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("files", nargs="+", help="one or two result files written by sweep")
        return compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["sweep"]:
        parser = argparse.ArgumentParser(prog="run.py sweep")
        parser.add_argument("--workload", default="all")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=30)
        parser.add_argument("--out", required=True)
        return sweep(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=("survey", "records", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of tiny inputs")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
