"""Command line front end, one subcommand per stage of the toolchain.

Every subcommand assembles a Report dict (command echo, inputs, results,
provenance tags collected from catalog hits, tool version) and prints a
short text summary by default, the full report with --json, or DOT
source with --dot where a graph is involved.  Exit status 0 means the
run finished without negative findings, 2 flags an obstructed or
unrealizable answer so shell pipelines can branch on it, 1 is a usage
error (or a ValueError), and 3 an internal error: a broken invariant of
the engine, or any other exception.
A reader that closes stdout early, as `| head` does, cuts the output
short without a traceback; the status stays the command's own.
The --json text is that of json.dumps(report, indent=2), built by a
direct writer (`_json_text`) that refuses non-JSON values with exit 3.
A report may hold a lazy list, a map object, which the writer draws
and writes one item at a time: classify's records are a map over
ClassificationRecord.to_dict, so --json holds one record's dict at a
time and the text output builds none.
Each subcommand loads only the stages it runs: a command, or a helper
that uses an engine name, imports it at the top of its body from the
module that owns it, so `lens` starts without loading the cap engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from math import isqrt
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__

if TYPE_CHECKING:
    from .cusp import CuspCombo, CuspType
    from .lattice import Embedding, HClass
    from .plumbing import CapRecipe, PlumbingGraph


class UsageError(Exception):
    """Bad command line input; reported on stderr with exit status 1."""


def _parse_cusp(text: str) -> CuspType:
    from .cusp import CuspType
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"a cusp is written p,q not {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"a cusp is written p,q not {text!r}") from None
    return CuspType(p, q)


def _parse_combo(text: str) -> CuspCombo:
    """Read "2,3+2,5" and infer the degree from the genus budget."""
    from .cusp import CuspCombo
    cusps = tuple(_parse_cusp(part) for part in text.split("+"))
    total = sum(c.delta for c in cusps)
    d = (3 + isqrt(8 * total + 1)) // 2
    if (d - 1) * (d - 2) != 2 * total:
        raise UsageError(
            f"delta sum {total} of {text!r} is not a plane genus (d-1)(d-2)/2"
        )
    return CuspCombo(d, cusps)


def _parse_cap(spec: Sequence[str]) -> tuple[CapRecipe, Optional[CuspCombo]]:
    """Read a cap spec: "A 3", "B 2", "E3", "E6", or a cusp combination.

    Returns the recipe, and the combination when the spec is one.
    """
    from .plumbing import cap_for_combo, family_cap
    if not spec:
        raise UsageError("cap spec missing")
    head = spec[0]
    if head in ("A", "B"):
        if len(spec) != 2:
            raise UsageError(f"family {head} needs its parameter p")
        try:
            p = int(spec[1])
        except ValueError:
            raise UsageError(f"family parameter must be an integer: {spec[1]!r}")
        return family_cap(head + "_p", p), None
    if head in ("E3", "E6"):
        if len(spec) != 1:
            raise UsageError(f"family {head} takes no parameter")
        return family_cap(head), None
    if len(spec) != 1:
        raise UsageError(f"cannot read cap spec {' '.join(spec)!r}")
    combo = _parse_combo(head)
    recipe = cap_for_combo(combo)
    if recipe is None:
        raise UsageError(f"no stock cap recipe for {combo}")
    return recipe, combo


def _parse_family(text: str) -> CuspCombo:
    from .cusp import family_combo
    name = text.replace("_", "")
    if name in ("E3", "E6"):
        return family_combo(name)
    if len(name) >= 2 and name[0] in ("A", "B") and name[1:].isdigit():
        return family_combo(name[0] + "_p", int(name[1:]))
    raise UsageError(f"unknown family {text!r}, expected A<p>, B<p>, E3 or E6")


def _report(command: str, inputs: dict, results: dict, provenance=()) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": sorted(set(provenance)),
        "version": __version__,
    }


def _json_text(report) -> str:
    """The text of json.dumps(report, indent=2), written directly.

    With an indent, json runs its pure-Python encoder; this builds the
    same characters in one list.  A map object stands for the list of
    its items: it is drawn once, and each item is written and joined
    into one string before the next is drawn, so the list's items never
    exist all at once.  Reports are exact, so a float, a set, a non-str
    key or any other non-JSON value is an engine fault and raises
    RuntimeError.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    return "".join(out)


def _write_json(o, nl: str, out: list[str]) -> None:
    """Append the JSON of o, whose own line starts after nl."""
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for k, v in o.items():
            if type(k) is not str:
                raise RuntimeError(f"report key {k!r} is a {type(k).__name__}, not a str")
            if type(v) is str:
                out.append(head + _quote(k) + ": " + _quote(v))
            elif type(v) is int:
                out.append(head + _quote(k) + ": " + int.__repr__(v))
            else:
                out.append(head + _quote(k) + ": ")
                _write_json(v, inner, out)
            head = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        head = "[" + inner
        for x in o:
            out.append(head)
            _write_json(x, inner, out)
            head = "," + inner
        out.append(nl + "]")
    elif t is map:
        # a lazy list; head still opens it when no item was drawn
        inner = nl + "  "
        head = "[" + inner
        for x in o:
            item = [head]
            _write_json(x, inner, item)
            out.append("".join(item))
            head = "," + inner
            del x, item  # let go of this item before the next is drawn
        out.append("[]" if head[0] == "[" else nl + "]")
    elif t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    else:
        raise RuntimeError(f"report holds a {t.__name__}, not a JSON value")


def _graph_dict(g: PlumbingGraph, s: int) -> dict:
    # a curve resolution whose root started at s has det (-1)^(n-1)*s: in
    # <h, e_1..e_{n-1}> its classes d*h - sum m_j e_j and e_j - (the e_k
    # blown up on e_j later) have det d, so the form has (-1)^(n-1)*d^2,
    # and moving the root by s - d^2 adds that times its cofactor (-1)^(n-1)
    return {
        "eulers": list(g.eulers),
        "labels": list(g.labels),
        "edges": [list(e) for e in g.edges],
        "corners": [list(c) for c in g.corners],
        "root": g.root,
        "det": (-1) ** (g.n - 1) * s,
    }


def _cap_dict(recipe: CapRecipe) -> dict:
    return {
        "kind": recipe.kind,
        "p": recipe.p,
        "combo": str(recipe.combo),
        "modes": list(recipe.modes),
    }


def _gate_failures(combo: Optional[CuspCombo], results: dict, lines: list[str]) -> bool:
    """Run the arithmetic gates of classify on a combination spec.

    The failed rules go into the results and the text; True if any
    failed.  Named families (no combination) are left as they are.
    """
    from .cusp import semigroup_condition
    from .obstruct import arithmetic_verdicts
    if combo is None:
        return False
    verdicts = arithmetic_verdicts(combo, semigroup_condition(combo))
    failed = [v for v in verdicts if v.failed]
    results["failed_rules"] = [v.to_dict() for v in failed]
    lines.extend(f"  {v.rule} fails: {v.details}" for v in failed)
    return bool(failed)


def _sphere_class(emb: Embedding) -> Optional[HClass]:
    """The complement class e_a - e_b - e_c - e_d if the filling has one."""
    from .lattice import HClass
    for quad in combinations(range(emb.n_used), 4):
        for pos in quad:
            rest = {i: -1 for i in quad if i != pos}
            cls = HClass.make(0, {pos: 1, **rest})
            if all(cls.pairing(c) == 0 for c in emb.classes):
                return cls
    return None


def cmd_invariants(args) -> tuple[dict, list[str], Optional[str], int]:
    from .cusp import CuspType, ms_recognize, mult_seq_length
    if args.seq is not None:
        if args.p is not None:
            raise UsageError("give either p q or --seq, not both")
        try:
            seq = tuple(int(x) for x in args.seq.split(","))
        except ValueError:
            raise UsageError(f"--seq wants comma separated integers: {args.seq!r}")
        cusp = ms_recognize(seq)
        inputs = {"seq": list(seq)}
        if cusp is None:
            rep = _report("invariants", inputs, {"status": "NotRealizable"})
            return rep, [f"{list(seq)}: NotRealizable"], None, 2
    else:
        if args.p is None or args.q is None:
            raise UsageError("invariants needs p q or --seq")
        cusp = CuspType(args.p, args.q)
        inputs = {"p": args.p, "q": args.q}
    # about q / p entries: listed, once for both outputs, only up to 2^20
    n = mult_seq_length(cusp.p, cusp.q)
    seq = list(cusp.mult_seq()) if n <= 1 << 20 else None
    results = {
        "status": "Realizable",
        "p": cusp.p,
        "q": cusp.q,
        "mult_seq": seq,
        "delta": cusp.delta,
        "milnor": cusp.milnor,
    }
    if seq is None:
        results["mult_seq_note"] = f"listing skipped: {n} entries"
    shown = f"of {n} entries, not listed" if seq is None else seq
    line = (
        f"({cusp.p},{cusp.q}): multiplicity sequence "
        f"{shown}, delta {cusp.delta}, milnor {cusp.milnor}"
    )
    return _report("invariants", inputs, results), [line], None, 0


def cmd_resolve(args) -> tuple[dict, list[str], Optional[str], int]:
    from .plumbing import curve_resolution
    combo = _parse_combo(args.combo)
    if args.modes is None:
        modes = ("nc",) * len(combo.cusps)
    else:
        modes = tuple(args.modes.split(","))
        if len(modes) != len(combo.cusps):
            raise UsageError(
                f"{combo} needs {len(combo.cusps)} modes "
                "(they follow the sorted cusp order)"
            )
    g = curve_resolution(combo, modes)
    s = combo.degree**2 if args.s is None else args.s
    if s != combo.degree**2:
        eulers = list(g.eulers)
        eulers[g.root] += s - combo.degree**2
        g = replace(g, eulers=tuple(eulers))
    inputs = {"combo": str(combo), "modes": list(modes), "s": s}
    graph = _graph_dict(g, s)
    results = {"graph": graph, "central_weight": g.eulers[g.root]}
    lines = [
        f"{combo} resolved with modes {list(modes)}:",
        f"  {g.n} curves, central weight {g.eulers[g.root]}, det {graph['det']}",
    ]
    return _report("resolve", inputs, results), lines, g.to_dot(), 0


def cmd_cap(args) -> tuple[dict, list[str], Optional[str], int]:
    from .plumbing import build_cap
    recipe, combo = _parse_cap(args.spec)
    g = build_cap(recipe)
    inputs = {"spec": list(args.spec)}
    graph = _graph_dict(g, recipe.combo.degree**2)
    results = {"cap": _cap_dict(recipe), "graph": graph}
    lines = [
        f"cap {recipe.kind} for {recipe.combo}:",
        f"  {g.n} curves, root weight {g.eulers[g.root]}, det {graph['det']}",
        f"  eulers {list(g.eulers)}",
    ]
    code = 2 if _gate_failures(combo, results, lines) else 0
    return _report("cap", inputs, results), lines, g.to_dot(), code


def cmd_embed(args) -> tuple[dict, list[str], Optional[str], int]:
    from .obstruct import run_cap
    recipe, combo = _parse_cap(args.spec)
    cap = run_cap(recipe)
    embs = cap.embeddings
    dicts = []
    n = len(embs)
    lines = [f"cap {recipe.kind}: {n} embedding{'s' if n != 1 else ''}"]
    for e, amb, form in zip(embs, cap.ambients, cap.complements):
        dicts.append({**e.to_dict(), "ambient": amb, "complement": form.to_dict()})
        lines.append(
            f"  k={e.k} ambient {amb}, complement rank {form.rank} "
            f"det {form.det} ({form.parity})"
        )
    inputs = {"spec": list(args.spec)}
    results = {"cap": _cap_dict(recipe), "count": len(embs), "embeddings": dicts}
    code = 2 if _gate_failures(combo, results, lines) or not embs else 0
    return _report("embed", inputs, results), lines, None, code


def cmd_blowdown(args) -> tuple[dict, list[str], Optional[str], int]:
    from .obstruct import image_dict, run_cap
    recipe, combo = _parse_cap(args.spec)
    cap = run_cap(recipe)
    entries = []
    n = len(cap.embeddings)
    lines = [f"cap {recipe.kind}: {n} embedding{'s' if n != 1 else ''}"]
    for e, amb, trace, entry in zip(
        cap.embeddings, cap.ambients, cap.fingerprints, cap.entries
    ):
        entries.append({"k": e.k, "ambient": amb, **image_dict(trace, entry)})
        lines.append(f"  k={e.k} {entries[-1]['summary']}")
        lines.append(f"    {entry.pattern}: {entry.status} ({entry.reason})")
    inputs = {"spec": list(args.spec)}
    results = {"cap": _cap_dict(recipe), "count": len(entries), "entries": entries}
    dead = any(v.failed for v in cap.verdicts)
    code = 2 if _gate_failures(combo, results, lines) or dead else 0
    tags = [entry.provenance for entry in cap.entries]
    return _report("blowdown", inputs, results, tags), lines, None, code


def cmd_classify(args) -> tuple[dict, list[str], Optional[str], int]:
    from .obstruct import ClassificationRecord, classify_degree
    records = classify_degree(args.degree)
    tally: dict[str, int] = {}
    tags = []
    for r in records:
        tally[r.final_status] = tally.get(r.final_status, 0) + 1
        if r.cap is not None:
            # the complement forms check themselves as they are computed:
            # force them here, so that text mode runs every check too
            r.cap.complements
            tags.extend(entry.provenance for entry in r.cap.entries)
    inputs = {"degree": args.degree}
    results = {
        "degree": args.degree,
        "count": len(records),
        "tally": {k: tally[k] for k in sorted(tally)},
        # drawn one record at a time by the writer; text mode never draws it
        "records": map(ClassificationRecord.to_dict, records),
    }
    lines = [f"{r.combo}: {r.final_status}" for r in records]
    tally_text = ", ".join(f"{v} {k}" for k, v in sorted(tally.items()))
    lines.append(f"degree {args.degree}: {len(records)} combinations ({tally_text})")
    code = 2 if tally.get("Obstructed") else 0
    return _report("classify", inputs, results, tags), lines, None, code


def cmd_lens(args) -> tuple[dict, list[str], Optional[str], int]:
    from .lens import LensSpace, to_dict
    L = LensSpace(args.p, args.q)
    results = to_dict(L)
    lines = [f"{L}: bounds {results['bounds']}"]
    if results["wahl"] is not None:
        m, k = results["wahl"]
        lines.append(f"  Wahl form ({m},{k}), ball string {results['rational_ball']}")
    else:
        lines.append("  no rational homology ball filling")
    inputs = {"p": args.p, "q": args.q}
    return _report("lens", inputs, results), lines, None, 0


def _unicuspidal_entry(cusp: CuspType, degree: int) -> dict:
    from .cusp import CuspCombo, fibonacci_cusp, fibonacci_index
    from .lens import fibonacci_boundary, rational_ball_string, wahl_family
    from .obstruct import run_cap
    from .plumbing import cap_for_combo, named_cap
    combo = CuspCombo(degree, (cusp,))
    recipe = named_cap(cusp, degree) or cap_for_combo(combo)
    entry: dict = {"cusp": [cusp.p, cusp.q], "degree": degree}
    if recipe is None:
        entry["family"] = None
        entry["note"] = "no stock cap recipe"
    else:
        entry["family"] = recipe.kind if recipe.p is None else f"{recipe.kind[0]}{recipe.p}"
        cap = run_cap(recipe)
        embs, forms = cap.embeddings, cap.complements
        entry["count"] = len(embs)
        entry["ks"] = [e.k for e in embs]
        entry["ambients"] = cap.ambients
        entry["complement_dets"] = [form.det for form in forms]
        entry["complement_parities"] = [form.parity for form in forms]
        if recipe.kind == "B_p":
            # rational blow-down: one filling carries a (-4)-sphere class.
            # The class is orthogonal to every vertex class, so it lies
            # in the complement, and a rank-0 complement has none
            for e, form in zip(embs, forms):
                cls = _sphere_class(e) if form.rank else None
                if cls is not None:
                    entry["rational_blowdown"] = {
                        "k": e.k,
                        "class": str(cls),
                        "square": cls.square,
                    }
                    break
    j = fibonacci_index(degree)
    if j is not None and cusp == fibonacci_cusp(j):
        L = fibonacci_boundary(j)
        ball = rational_ball_string(L)
        wahl = wahl_family(L)
        entry["fibonacci"] = {
            "j": j,
            "boundary": str(L),
            "wahl": None if wahl is None else list(wahl),
            "rational_ball": None if ball is None else list(ball),
        }
    return entry


def _unicuspidal_lines(entry: dict) -> list[str]:
    p, q = entry["cusp"]
    head = f"({p},{q}) degree {entry['degree']}"
    if entry.get("family") is None:
        out = [f"{head}: {entry['note']}"]
    else:
        n = entry["count"]
        out = [
            f"{head} [{entry['family']}]: {n} embedding{'s' if n != 1 else ''}, "
            f"k in {entry['ks']}, ambients {entry['ambients']}"
        ]
    if "rational_blowdown" in entry:
        rb = entry["rational_blowdown"]
        out.append(
            f"  rational blow-down of the (-4)-sphere {rb['class']} "
            f"in the k={rb['k']} filling"
        )
    if "fibonacci" in entry:
        fibo = entry["fibonacci"]
        out.append(
            f"  Fibonacci j={fibo['j']}: boundary {fibo['boundary']}, "
            f"Wahl {tuple(fibo['wahl'])}, ball string {fibo['rational_ball']}"
        )
    return out


def cmd_unicuspidal(args) -> tuple[dict, list[str], Optional[str], int]:
    from .cusp import unicuspidal_families
    if (args.family is None) == (args.degree is None):
        raise UsageError("unicuspidal needs exactly one of --degree or --family")
    if args.family is not None:
        combo = _parse_family(args.family)
        entries = [_unicuspidal_entry(combo.cusps[0], combo.degree)]
        inputs = {"family": args.family}
    else:
        cusps = unicuspidal_families(args.degree)
        entries = [_unicuspidal_entry(c, args.degree) for c in cusps]
        inputs = {"degree": args.degree}
    lines = [line for entry in entries for line in _unicuspidal_lines(entry)]
    results = {"families": entries}
    return _report("unicuspidal", inputs, results), lines, None, 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for
    # obstructed findings, so route usage problems through UsageError
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    # the description is a literal because python -OO strips __doc__.  A
    # subcommand holds its function's name, not the function: main looks
    # the name up in this module at each call, as it stands then
    parser = _Parser(
        prog="atlas",
        description="Command line front end, one subcommand per stage of the toolchain.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="print the full report")
        p.set_defaults(command=func.__name__, dot=False)
        return p

    p = add("invariants", cmd_invariants, "cusp numerics from p,q or a mult seq")
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--seq", help="comma separated multiplicity sequence")

    p = add("resolve", cmd_resolve, "resolve a combination on the plane curve")
    p.add_argument("combo", help='cusp combination, e.g. "2,3+2,5"')
    p.add_argument("--s", type=int, help="initial curve self-intersection")
    p.add_argument("--modes", help="per-cusp modes, e.g. nc,min+1")
    p.add_argument("--dot", action="store_true", help="print DOT source")

    p = add("cap", cmd_cap, "build a stock cap")
    p.add_argument("spec", nargs="+", help='"A 3", "B 2", "E3", "E6" or a combo')
    p.add_argument("--dot", action="store_true", help="print DOT source")

    p = add("embed", cmd_embed, "enumerate embeddings of a cap")
    p.add_argument("spec", nargs="+", help="cap spec as for the cap subcommand")

    p = add("blowdown", cmd_blowdown, "blow embeddings down to plane images")
    p.add_argument("spec", nargs="+", help="cap spec as for the cap subcommand")

    p = add("classify", cmd_classify, "run the pipeline over a whole degree")
    p.add_argument("--degree", type=int, required=True)

    p = add("lens", cmd_lens, "filling strings of a lens space")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = add("unicuspidal", cmd_unicuspidal, "survey unicuspidal families")
    p.add_argument("--degree", type=int)
    p.add_argument("--family", help="A<p>, B<p>, E3 or E6")

    return parser


# one parser per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.subcommand is None:
            _PARSER.print_usage(sys.stderr)
            return 1
        report, lines, dot, code = globals()[args.command](args)
        if args.json:
            if dot is not None and args.dot:
                report["results"]["dot"] = dot
            text = _json_text(report) + "\n"
        elif args.dot and dot is not None:
            text = dot
        else:
            text = "\n".join(lines) + "\n"
    except (UsageError, ValueError) as exc:
        print(f"atlas: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"atlas: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # no other exception is raised on purpose, so each is a fault
        print(f"atlas: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
