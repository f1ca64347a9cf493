"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/steadiness.py --seeds 1-10 [--workloads hidden_rule,...] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and reports for each workload and metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median. A
metric's bound in BENCHMARK.json should be at least three times its spread.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            runs.append(result)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": {},
        }
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            print(f"  {name:14s} median {stats['median']:.4g}  q1 {stats['q1']:.4g}  "
                  f"q3 {stats['q3']:.4g}  spread {100 * stats['spread']:.2f}%  "
                  f"(bound {100 * bound:.0f}%)", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
