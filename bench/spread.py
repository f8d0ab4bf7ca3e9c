"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 bench/spread.py --workloads census caps --seeds 1-10 --seconds 20

Runs bench/run.py once per workload and seed, one process at a time,
and prints, per workload and end-to-end metric, the median of the run
values, their quartiles and the spread (q3 - q1) / median, with the
quartiles as `statistics.quantiles(values, n=4)` gives them.  A spread
is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json.  `--out FILE` also writes every run value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            argv = [sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            *_, detail, last = done.stdout.splitlines()
            result, detail = json.loads(last), json.loads(detail)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values["failed"] = result["failed"]
            values["passes"] = detail["pass_wall_s"]
            runs.setdefault(workload, []).append({"seed": seed, **values})
            print(workload, seed, json.dumps(values), file=sys.stderr, flush=True)

    summary = {}
    for workload, rows in runs.items():
        for name, bound in bounds.items():
            values = [row[name] for row in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread < bound / 3 else "  > bound/3"
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
            }
            print(f"{workload:10} {name:12} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": seconds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
