"""Benchmark of quest-tta: one workload, one seed, timed from outside.

    python3 bench/run.py --workload hidden_rule --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up trains the reference model from a
fixed corpus, saves its checkpoint and writes the workload's benchmark files;
the timed phase then runs whole rounds of the workload for ``--seconds``
seconds; the check pass verifies every record. The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` items (one query
evaluated by one method) and the metrics, end-to-end ones with ``--trace 0``
and per-layer ones with ``--trace 1``. Exit status is 0 only when the checks
pass; without the program's sources under ``src/`` it is 2 and nothing is
printed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("hidden_rule", "self_generated", "compare_baselines")


def process_age_at_start() -> float:
    """Seconds from the process's start to ``START``, from /proc when present."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except OSError:
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - started - (time.perf_counter() - START))


def import_program():
    if not (SRC / "quest" / "__init__.py").is_file():
        raise ImportError(f"no quest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quest

    if Path(quest.__file__).resolve().parent != SRC / "quest":
        raise ImportError(f"quest imported from {quest.__file__}, not from {SRC}")


def run(workload: str, seed: int, seconds: float, trace: bool, age: float) -> dict:
    import checks
    import tracing
    from workloads import WORKLOADS
    from world import QUERIES_PER_ROUND, build_world

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        world = build_world(workdir, seed, WORKLOAD_NAMES.index(workload))
        bench = WORKLOADS[workload](world, seed, tracer)
        setup_s = age + time.perf_counter() - START

        if tracer is not None:
            tracer.phase = "timed"
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append((len(rounds), bench.run_round(len(rounds))))
            if time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = "check"

        records = [r for _, recs in rounds for r in recs]
        queries = QUERIES_PER_ROUND * len(rounds)
        failed = sum(r.error is not None for r in records)
        correct = True
        try:
            checks.equal(len(records), queries * bench.methods_per_query, "records")
            bench.check([(i, [r for r in recs if r.error is None]) for i, recs in rounds])
            if tracer is not None and not failed:
                checks.token_totals(tracer.counts["timed"], records)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        if tracer is None:
            tokens = sum(r.generated_tokens + r.trained_tokens for r in records)
            metrics = {
                "setup_s": (setup_s, "s"),
                "query_s": (wall / queries, "s"),
                "tokens_per_s": (tokens / wall, "tok/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
            overhead = tracer.spans_in("timed") * tracing.wrapper_cost_s()
            metrics = {
                name: (value, tracing.unit_of(name))
                for name, value in tracing.layer_metrics(tracer, queries).items()
            }
            metrics["trace.query_s"] = (wall / queries, "s")
            metrics["trace.overhead_pct"] = (100 * overhead / wall, "%")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    age = process_age_at_start()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("QUEST_RUN_DIR", None)  # keep the program's output in the run's own directory
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), age)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
