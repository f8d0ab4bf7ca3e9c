"""Checks on one `atlas ... --json` output.

`facts` extracts what must equal the reference recorded from the seed
commit; `problems` adds invariants that need no reference.  Both avoid
anything that depends on which cap the program picks for a
combination: gate failure sets, combo counts and the degree 4 and 5
tallies, embedding counts of the named caps, and lens data.  Continuants
are computed here with integers, independently of the program's
continued-fraction code.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

GATE_RULES = ("Semigroup", "RiemannHurwitz", "SexticSimple")
# degrees whose full tally is frozen by the acceptance criteria c1/c2
TALLY_DEGREES = (4, 5)

# acceptance anchors: combo counts, the c1 quintic tally, c3 cap counts
COMBO_COUNTS = {4: 4, 5: 19, 6: 102, 7: 651, 8: 4704}
QUINTIC_TALLY = {"Obstructed": 9, "UniqueInPlane": 8, "UniqueInBlowup(4)": 2}
CAP_COUNTS = {
    **{f"A {p}": 1 for p in range(2, 7)},
    "B 2": 3,
    "B 3": 2,
    "B 4": 2,
    "B 5": 2,
    "E3": 3,
    "E6": 6,
}
E6_K6_DETS = [64, 256]


def continuant(seq) -> int:
    """K() = 1, K(m_1..m_i) = m_i K(..m_{i-1}) - K(..m_{i-2})."""
    km2, km1 = 0, 1
    for m in seq:
        km2, km1 = km1, m * km1 - km2
    return km1


def _digest(items) -> str:
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()[:16]


def _spec(argv) -> str:
    return " ".join(a for a in argv[1:] if a != "--json")


def facts(argv, code: int, report: dict) -> dict:
    """The reference-comparable content of one output."""
    command, results = argv[0], report["results"]
    if command == "classify":
        out = {
            "count": results["count"],
            "gate_failures": {
                rule: _failures(results["records"], rule) for rule in GATE_RULES
            },
        }
        if results["degree"] in TALLY_DEGREES:
            out["tally"] = results["tally"]
        return out
    if command == "blowdown":
        return {"count": results["count"], "exit": code}
    if command == "embed":
        dets: dict[str, list[int]] = {}
        for e in results["embeddings"]:
            dets.setdefault(str(e["k"]), []).append(e["complement"]["det"])
        return {
            "count": results["count"],
            "complement_dets": {k: sorted(v) for k, v in sorted(dets.items())},
        }
    if command == "lens":
        strings = results["strings"]
        return {
            "wahl": results["wahl"],
            "ball_index": _lowered_index(results["bounds"], results["rational_ball"]),
            "strings": None if strings is None else len(strings),
        }
    raise ValueError(f"no checks for {command!r}")


def _failures(records, rule: str) -> dict:
    failed = [
        r["combo"]
        for r in records
        if any(v["rule"] == rule and v["outcome"] == "Fail" for v in r["verdicts"])
    ]
    return {"count": len(failed), "digest": _digest(failed)}


def _lowered_index(bounds, ball):
    if ball is None or len(ball) != len(bounds):
        return None
    diff = [i for i, (n, m) in enumerate(zip(bounds, ball)) if n != m]
    return diff[0] if len(diff) == 1 else None


def problems(argv, code: int, report: dict) -> list[str]:
    """Invariants of one output that hold without a reference."""
    command, results = argv[0], report["results"]
    if report.get("command") != command:
        return [f"report echoes command {report.get('command')!r}"]
    check = {
        "classify": _classify_problems,
        "blowdown": _blowdown_problems,
        "embed": _embed_problems,
        "lens": _lens_problems,
    }[command]
    return check(argv, code, results)


def _classify_problems(argv, code, results) -> list[str]:
    out = []
    d, records, tally = results["degree"], results["records"], results["tally"]
    if results["count"] != COMBO_COUNTS.get(d) or len(records) != results["count"]:
        out.append(f"degree {d}: {len(records)} records, count {results['count']}")
    recount: dict[str, int] = {}
    for r in records:
        recount[r["final_status"]] = recount.get(r["final_status"], 0) + 1
        gated = any(v["outcome"] == "Fail" for v in r["verdicts"])
        if gated and r["final_status"] != "Obstructed":
            out.append(f"{r['combo']}: failed rule but {r['final_status']}")
    if recount != tally:
        out.append(f"degree {d}: tally {tally} does not count the records")
    if d == 5 and tally != QUINTIC_TALLY:
        out.append(f"degree 5 tally {tally}")
    if code != (2 if tally.get("Obstructed") else 0):
        out.append(f"degree {d}: exit {code} with tally {tally}")
    return out


def _blowdown_problems(argv, code, results) -> list[str]:
    out = []
    spec, entries = _spec(argv), results["entries"]
    if spec in CAP_COUNTS and results["count"] != CAP_COUNTS[spec]:
        out.append(f"{spec}: {results['count']} embeddings")
    if len(entries) != results["count"]:
        out.append(f"{spec}: {len(entries)} entries for count {results['count']}")
    dead = not entries or all(e["catalog"]["status"] == "Obstructed" for e in entries)
    if code != (2 if dead else 0):
        out.append(f"{spec}: exit {code}")
    for e in entries:
        out.extend(f"{spec} k={e['k']}: {p}" for p in _image_problems(e["image"]))
    return out


def _image_problems(image: dict) -> list[str]:
    """Components u, v meet in deg_u * deg_v points with multiplicity:
    the sum over base points of mult_u * mult_v."""
    degree = {c["label"]: c["degree"] for c in image["components"]}
    if len(degree) != len(image["components"]):
        return ["component labels repeat"]
    nodes, stack = [], list(image["clusters"])
    while stack:
        node = stack.pop()
        nodes.append(node["mults"])
        stack.extend(node["children"])
    out = []
    for u, v in combinations(degree, 2):
        got = sum(m.get(u, 0) * m.get(v, 0) for m in nodes)
        if got != degree[u] * degree[v]:
            out.append(f"{u}.{v} = {got}, degrees give {degree[u] * degree[v]}")
    return out


def _embed_problems(argv, code, results) -> list[str]:
    out = []
    spec = _spec(argv)
    embs = results["embeddings"]
    if len(embs) != results["count"] or code != (0 if embs else 2):
        out.append(f"embed {spec}: count {results['count']}, exit {code}")
    if spec in CAP_COUNTS and results["count"] != CAP_COUNTS[spec]:
        out.append(f"embed {spec}: {results['count']} embeddings")
    if spec == "E6":
        dets = sorted(e["complement"]["det"] for e in embs if e["k"] == 6)
        if dets != E6_K6_DETS:
            out.append(f"E6 k=6 complement dets {dets}")
    return out


def _lens_problems(argv, code, results) -> list[str]:
    p, q = int(argv[1]), int(argv[2])
    n, ball, wahl = results["bounds"], results["rational_ball"], results["wahl"]
    name = f"L({p},{q})"
    out = []
    if code != 0 or (results["p"], results["q"]) != (p, q):
        out.append(f"{name}: exit {code}, echo {results['p']},{results['q']}")
    # n expands p/(p-q), so K(n) = p and K(n[1:]) = p - q
    if continuant(n) != p or continuant(n[1:]) != p - q:
        out.append(f"{name}: bounds do not expand {p}/{p - q}")
    if (ball is None) != (wahl is None):
        out.append(f"{name}: ball string {ball} with wahl {wahl}")
    if ball is not None:
        j = _lowered_index(n, ball)
        if j is None or (n[j], ball[j]) != (2, 1) or continuant(ball) != 0:
            out.append(f"{name}: ball string is not one 2 lowered to a zero string")
    strings = results["strings"]
    if strings is not None:
        seen = set()
        total = sum(n)
        for s in strings:
            m = tuple(s["string"])
            if (
                len(m) != len(n)
                or any(not 1 <= a <= b for a, b in zip(m, n))
                or continuant(m) != 0
                or s["excess"] != total - sum(m)
                or m in seen
            ):
                out.append(f"{name}: bad listed string {list(m)}")
                break
            seen.add(m)
    return out
