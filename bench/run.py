"""Stage-level benchmark of the `atlas` command line.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Each workload is one process and one client in a closed loop: requests
go through `cuspatlas.cli.main([..., "--json"])` in-process, one after
another, with stdout captured in memory and every output checked.
`--trace 0` repeats passes over the workload's requests and prints the
end-to-end metrics; `--trace 1` alternates untraced and traced passes
and prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted,
failed, metrics.

`wall_s` and `cpu_s` are the sum over a pass's requests of each
request's fastest time in the run.  On a shared host each CPU's speed
swings by up to 1.8x, for under a second up to tens of seconds and on
each CPU separately, while the fastest of many short repeats moves by
a few percent.  So set-ups and passes run pinned to each allowed CPU
in turn, and the fastest time is what a change to the program moves
and host load moves least.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = BENCH / "out"
# set-up is repeated this many times per run and reported as the median
SETUPS = 11


class Run:
    """Requests sent and failures seen in one run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.cpus = (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        )

    def pin(self, i: int) -> None:
        """Move this process to the i-th allowed CPU, round robin."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def send(self, cli, request: workloads.Request, tracer=None) -> tuple[float, float]:
        """Send one request, check its output, return (wall, cpu) seconds."""
        sid = tracer.begin_request(self.attempted, request.tag) if tracer else None
        code, text, err, wall, cpu = call(cli, request.argv)
        if tracer:
            tracer.end_request(sid, len(text))
        self.attempted += 1
        found = self.check(request, code, text) if code is not None else ["crashed"]
        if found:
            self.failed += 1
            print(f"FAIL {request.key}: {'; '.join(found[:3])}", file=sys.stderr)
            if err:
                print(err.rstrip()[-2000:], file=sys.stderr)
        return wall, cpu

    def check(self, request: workloads.Request, code: int, text: str) -> list[str]:
        try:
            report = json.loads(text)
            found = checks.problems(request.argv, code, report)
            want = self.reference.get(request.key)
            got = checks.facts(request.argv, code, report)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]
        if want is None:
            found.append("no reference output")
        elif got != want:
            found.append(f"facts {got} differ from reference {want}")
        return found

    def run_pass(self, cli, requests, rng: random.Random, tracer=None) -> dict:
        """Send the requests in a shuffled order; return each request's
        (wall, cpu) seconds by key."""
        order = list(requests)
        rng.shuffle(order)
        gc.collect()
        return {request.key: self.send(cli, request, tracer) for request in order}


def call(cli, argv) -> tuple:
    """Run `cli.main(argv)` with stdout and stderr captured in memory.

    Returns (exit code or None on a crash, stdout, stderr, wall, cpu).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash fails this request, not the run
            code = None
            traceback.print_exc()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return code, out.getvalue(), err.getvalue(), wall, cpu


def load_cli():
    """Import the program afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cuspatlas"]:
        del sys.modules[name]
    cli = importlib.import_module("cuspatlas.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"cuspatlas came from {cli.__file__}, not {SRC}")
    return cli


def fits(begin: float, seconds: float, lengths: list[float]) -> bool:
    """Whether one more pass, as long as the longest so far, ends
    within the measuring time; the first pass always runs."""
    return not lengths or time.perf_counter() - begin + max(lengths) <= seconds


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cuspatlas" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text())
    list_pool = [tuple(pq) for pq in reference["list_pool"]]
    requests = workloads.requests(args.workload, args.seed, list_pool)
    run = Run(reference["outputs"])
    rng = random.Random(args.seed)

    setups = []
    for i in range(SETUPS):
        run.pin(i)
        # the previous set-up's modules are garbage now; collect them
        # untimed, as a fresh process would not have them
        gc.collect()
        start = time.perf_counter()
        cli = load_cli()
        run.send(cli, workloads.warmup(args.workload))
        setups.append(time.perf_counter() - start)

    lengths: list[float] = []
    begin = time.perf_counter()
    if not args.trace:
        times: dict[str, list[tuple[float, float]]] = {}
        while fits(begin, args.seconds, lengths):
            run.pin(len(lengths))
            start = time.perf_counter()
            for key, wall_cpu in run.run_pass(cli, requests, rng).items():
                times.setdefault(key, []).append(wall_cpu)
            lengths.append(time.perf_counter() - start)
        metrics = {
            "wall_s": metric(sum(min(w for w, _ in t) for t in times.values()), "s"),
            "cpu_s": metric(sum(min(c for _, c in t) for t in times.values()), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "setup_s": metric(statistics.median(setups), "s"),
            "ok_frac": metric((run.attempted - run.failed) / run.attempted, "frac"),
        }
        detail = {"pass_wall_s": [
            sum(t[i][0] for t in times.values()) for i in range(len(lengths))
        ]}
    else:
        walls, traced, layers, counters = [], [], [], None
        while fits(begin, args.seconds, lengths):
            # an untraced and a traced pass on the same CPU
            run.pin(len(lengths))
            start = time.perf_counter()
            walls.append(sum(w for w, _ in run.run_pass(cli, requests, rng).values()))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(
                    sum(w for w, _ in run.run_pass(cli, requests, rng, tracer).values())
                )
            finally:
                tracer.uninstall()
            values = tracer.metrics()
            layers.append(values)
            counts = {k: v for k, v in values.items() if k not in tracing.TIMES}
            if counters is None:
                counters = counts
            elif counts != counters:
                run.failed += 1
                print("FAIL counters differ between traced passes", file=sys.stderr)
            lengths.append(time.perf_counter() - start)
        units = {name: unit for name, unit, _ in tracing.METRICS}
        metrics = {
            name: metric(
                counters[name] if name in counters
                else statistics.median(v[name] for v in layers),
                units[name],
            )
            for name in units
        }
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(walls), "s"
        )
        TRACE_DIR.mkdir(exist_ok=True)
        spans = TRACE_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans.open("w") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
        detail = {
            "untraced_s": walls,
            "traced_s": traced,
            "hooks": tracer.status,
            "spans": str(spans.relative_to(BENCH.parent)),
        }

    detail.update(
        workload=args.workload,
        seed=args.seed,
        requests=[r.key for r in requests],
        setup_s=setups,
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
