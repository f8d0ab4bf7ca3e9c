"""The three workloads: which `atlas ... --json` requests one pass sends.

Census and caps send a fixed request set; the seed only shuffles the
order inside each pass.  The lens workload draws its spaces from
pools with the seed.  The pools are narrow on purpose: every member of
a pool costs about the same, so a pass takes about the same time under
any seed and the run-to-run spread measures the program, not the draw.

No request takes much over half a second, and most take far less, so
a run repeats each one many times; run.py reports the sum of each
request's fastest time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt, prod

WORKLOADS = ("census", "caps", "lens")

CENSUS_DEGREES = tuple(range(4, 8))
CAP_SPECS = (
    tuple(("A", str(p)) for p in range(2, 11))
    + tuple(("B", str(p)) for p in range(2, 7))
    + (("E3",), ("E6",))
)

# lens draws this many spaces from each probe pool per run: long
# bound strings whose listing is skipped
PROBE_DRAWS = {"long2": 1, "long3": 1, "wahl": 2}
# and this many from the listing pool: spaces small enough to list
LIST_DRAWS = 5
# the listing pool: the first LIST_POOL_SIZE of list_candidates() whose
# listing holds a number of strings in LIST_STRINGS
LIST_STRINGS = range(590, 621)
LIST_POOL_SIZE = 12


@dataclass(frozen=True)
class Request:
    """One command line; `key` indexes the reference, `tag` labels
    per-cap trace metrics."""

    argv: tuple[str, ...]
    key: str
    tag: str | None = None


def _request(*argv: str, tag: str | None = None) -> Request:
    return Request((*argv, "--json"), " ".join(argv), tag)


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def probe_pools() -> dict[str, list[tuple[int, int]]]:
    """Long bound strings whose listing is skipped.

    long2 and long3 are non-Wahl L(p,2) and L(p,3); their bounds have
    about p/2 and p/3 entries.  wahl is L(m^2, m-1), where a ball
    string exists.  Each pool spans under 4% in p or m, so probe cost,
    which grows with the square of the length, varies by under 8%.
    """
    return {
        "long2": [(p, 2) for p in range(365, 378) if p % 2 and not _is_square(p)],
        "long3": [(p, 3) for p in range(543, 556) if p % 3 and not _is_square(p)],
        "wahl": [(m * m, m - 1) for m in range(182, 188)],
    }


def lens_request(p: int, q: int) -> Request:
    return _request("lens", str(p), str(q))


def requests(workload: str, seed: int, list_pool: list[tuple[int, int]]) -> list[Request]:
    """The requests of one pass; `list_pool` is the listing pool stored
    with the reference outputs."""
    rng = random.Random(seed)
    if workload == "census":
        return [_request("classify", "--degree", str(d)) for d in CENSUS_DEGREES]
    if workload == "caps":
        out = [_request("blowdown", *spec, tag="".join(spec)) for spec in CAP_SPECS]
        # the blowdown report carries no complement forms, which the E6
        # dets check needs; untagged, so the per-cap curve counts E6 once
        out.append(_request("embed", "E6"))
        return out
    if workload == "lens":
        pools = probe_pools()
        probes = [
            (p, q) for name, k in PROBE_DRAWS.items() for p, q in rng.sample(pools[name], k)
        ]
        listed = rng.sample(list_pool, LIST_DRAWS)
        return [lens_request(p, q) for p, q in probes + listed]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> Request:
    """A small request of the workload's kind, sent during set-up."""
    if workload == "census":
        return _request("classify", "--degree", "4")
    if workload == "caps":
        return _request("blowdown", "A", "3")
    return lens_request(25, 4)


def bounds_of(p: int, q: int) -> tuple[int, ...]:
    """Entry bounds of L(p,q): the expansion of p/(p-q).  Computed
    here so that the pool does not move when the program changes."""
    a, b = p, p - q
    out = []
    while b > 0:
        c = -(-a // b)
        out.append(c)
        a, b = b, c * b - a
    return tuple(out)


def walk_size(n: tuple[int, ...]) -> int:
    """Prefixes the depth-first listing visits: sum of prefix products."""
    total, size = 0, 1
    for a in n:
        total += size
        size *= a
    return total


def list_candidates() -> list[tuple[int, int]]:
    """Listing spaces of equal listing cost.

    2^15 < prod(n) <= 2^16 keeps the listing on (the CLI lists up to
    2^20 candidates) and each request near a tenth of a second; 12
    entries and a walk of 10,000..14,999 prefixes fix the depth-first
    cost.  q is the smaller of q and its
    inverse, so no space appears twice.
    """
    out = []
    for p in range(200, 1200):
        for q in range(1, p):
            if gcd(p, q) != 1 or q > pow(q, -1, p):
                continue
            n = bounds_of(p, q)
            if (
                len(n) == 12
                and 1 << 15 < prod(n) <= 1 << 16
                and 10_000 <= walk_size(n) < 15_000
            ):
                out.append((p, q))
    return out

