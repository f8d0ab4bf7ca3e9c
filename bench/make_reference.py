"""Record the reference outputs that bench/run.py checks against.

Run from the root of a checkout, at the commit whose outputs the
reference freezes:

    python3 bench/make_reference.py

It sends every request that any seed can produce, stores the checks'
facts for each under its key, and picks the listing pool: the first
LIST_POOL_SIZE listing candidates whose string count lies in
LIST_STRINGS.  Writes bench/reference.json.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def record(cli, request: workloads.Request) -> dict:
    """The facts of one output, which must pass every invariant."""
    code, text, err, wall, _ = run.call(cli, request.argv)
    if code is None:
        raise RuntimeError(f"{request.key} crashed:\n{err}")
    report = json.loads(text)
    found = checks.problems(request.argv, code, report)
    if found:
        raise RuntimeError(f"{request.key}: {found[:3]}")
    print(f"{request.key}: {wall:.2f} s", file=sys.stderr)
    return checks.facts(request.argv, code, report)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.load_cli()
    outputs: dict = {}
    fixed = workloads.requests("census", 0, []) + workloads.requests("caps", 0, [])
    fixed += [workloads.warmup(w) for w in workloads.WORKLOADS]
    fixed += [
        workloads.lens_request(p, q)
        for pool in workloads.probe_pools().values()
        for p, q in pool
    ]
    for request in fixed:
        outputs[request.key] = record(cli, request)
    pool = []
    for p, q in workloads.list_candidates():
        if len(pool) == workloads.LIST_POOL_SIZE:
            break
        request = workloads.lens_request(p, q)
        facts = record(cli, request)
        if facts["strings"] in workloads.LIST_STRINGS:
            outputs[request.key] = facts
            pool.append([p, q])
    run.REFERENCE.write_text(
        json.dumps({"list_pool": pool, "outputs": outputs}, indent=1, sort_keys=True)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
