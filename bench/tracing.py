"""Spans and counters recorded around the calls into each module.

The program is not changed: `Tracer.install` replaces module attributes
with wrappers for the length of one traced pass and `uninstall` puts the
originals back.  A name is wrapped where it is looked up, so a function
imported into a second module is wrapped in both (for example
`obstruct.enumerate_embeddings` and `cli.enumerate_embeddings`).  A
target that no longer exists is reported as absent and skipped.

Every `*_s` metric is a self time: the span's duration minus the part
its child spans cover, summed over the pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "cuspatlas"
SPAN, CALL, ITEMS = "span", "call", "items"

# verdict rules and catalog statuses that get a counter of their own
RULES = ("Semigroup", "RiemannHurwitz", "SexticSimple", "NoAdjunctiveEmbedding",
         "BlowdownCatalog")
CATALOG_STATUSES = ("Obstructed", "UniqueIsotopy", "Unknown")


@dataclass(frozen=True)
class Hook:
    """Wrap `target` (a dotted path below the package).

    SPAN times each call as a span of layer `name`; CALL and ITEMS only
    count, calls or yielded items, into counter `name` when one is
    given.  `calls` names an extra call counter; `after` sees each
    result.
    """

    target: str
    kind: str
    name: Optional[str]
    calls: Optional[str] = None
    after: Optional[Callable] = None


def _length(counter: str) -> Callable:
    def after(tracer: "Tracer", result) -> None:
        tracer.count(counter, len(result))

    return after


def _failed_rules(tracer: "Tracer", record) -> None:
    for v in record.verdicts:
        if v.failed:
            tracer.count(f"obstruct.gate_fail.{v.rule}")


def _no_cap(tracer: "Tracer", recipe) -> None:
    if recipe is None:
        tracer.count("plumbing.no_cap")


def _catalog_status(tracer: "Tracer", entry) -> None:
    tracer.count(f"blowdown.catalog.{entry.status}")


def _peeled(tracer: "Tracer", line) -> None:
    if line is not None:
        tracer.count("blowdown.lines_peeled")


HOOKS = (
    # cusp: combo enumeration and the semigroup counting functions
    Hook("obstruct.enumerate_combos", SPAN, "cusp.enumerate", after=_length("cusp.combos")),
    Hook("cusp.combo_R", CALL, "cusp.combo_R_calls"),
    Hook("obstruct.combo_R", CALL, "cusp.combo_R_calls"),
    Hook("cusp.CuspType.semigroup_counts", CALL, "cusp.semigroup_tables"),
    # obstruct: the gates and the pipeline around them
    Hook("obstruct.semigroup_verdict", SPAN, "obstruct.gates"),
    Hook("obstruct.riemann_hurwitz_verdict", SPAN, "obstruct.gates"),
    Hook("obstruct.sextic_simple_verdict", SPAN, "obstruct.gates"),
    Hook("obstruct.run_pipeline", SPAN, "obstruct.pipeline", after=_failed_rules),
    Hook("cli.classify_degree", SPAN, "obstruct.pipeline"),
    # plumbing: cap choice and build
    Hook("obstruct.cap_for_combo", SPAN, "plumbing.cap", after=_no_cap),
    Hook("cli.cap_for_combo", SPAN, "plumbing.cap", after=_no_cap),
    Hook("obstruct.build_cap", SPAN, "plumbing.cap", calls="plumbing.caps_built"),
    Hook("cli.build_cap", SPAN, "plumbing.cap", calls="plumbing.caps_built"),
    # lattice: embedding search, area LP, residual forms
    Hook("obstruct.enumerate_embeddings", SPAN, "lattice.embed",
         after=_length("lattice.embeddings")),
    Hook("cli.enumerate_embeddings", SPAN, "lattice.embed",
         after=_length("lattice.embeddings")),
    Hook("lattice._Search.dfs", CALL, "lattice.search_nodes"),
    Hook("lattice._distributions", ITEMS, "lattice.candidates_generated"),
    Hook("lattice._Search.candidates", ITEMS, "lattice.candidates_accepted"),
    Hook("lattice._phase1_feasible", SPAN, "lattice.lp", calls="lattice.lp_calls"),
    Hook("obstruct.complement_form", SPAN, "lattice.forms"),
    Hook("obstruct.ambient", SPAN, "lattice.forms"),
    Hook("cli.complement_form", SPAN, "lattice.forms"),
    Hook("cli.ambient", SPAN, "lattice.forms"),
    # blowdown: trace and catalog
    Hook("obstruct.blow_down_trace", SPAN, "blowdown.trace", calls="blowdown.fingerprints"),
    Hook("cli.blow_down_trace", SPAN, "blowdown.trace", calls="blowdown.fingerprints"),
    Hook("obstruct.catalog_lookup", SPAN, "blowdown.catalog", after=_catalog_status),
    Hook("cli.catalog_lookup", SPAN, "blowdown.catalog", after=_catalog_status),
    Hook("blowdown._peelable_line", CALL, None, after=_peeled),
    # lens and cf: probes and the zero-string listing
    Hook("lens.rational_ball_string", SPAN, "lens.probe"),
    Hook("cli.rational_ball_string", SPAN, "lens.probe"),
    Hook("lens.is_zero_string", CALL, "lens.probes"),
    Hook("lens.filling_strings", SPAN, "lens.list", after=_length("lens.strings_listed")),
    Hook("cf.proj_inv", CALL, "cf.proj_ops"),
    Hook("cf.proj_sub", CALL, "cf.proj_ops"),
    # cli: building the report dict and serialising it
    Hook("obstruct.ClassificationRecord.to_dict", SPAN, "cli.report"),
    Hook("cli.lens_report", SPAN, "cli.report"),
    Hook("cli.json.dumps", SPAN, "cli.report"),
)

CAP_TAGS = tuple(
    [f"A{p}" for p in range(2, 11)] + [f"B{p}" for p in range(2, 7)] + ["E3", "E6"]
)

# (metric, unit, how to read it): ("self", span) self time in seconds,
# ("count", counter) a counter, ("ratio", a, b) counter a over counter b
METRICS = (
    [
        ("cusp.enumerate_s", "s", ("self", "cusp.enumerate")),
        ("cusp.combos", "count", ("count", "cusp.combos")),
        ("cusp.combo_R_calls", "count", ("count", "cusp.combo_R_calls")),
        ("cusp.semigroup_tables", "count", ("count", "cusp.semigroup_tables")),
        ("obstruct.gates_s", "s", ("self", "obstruct.gates")),
        ("obstruct.pipeline_self_s", "s", ("self", "obstruct.pipeline")),
    ]
    + [(f"obstruct.gate_fail.{r}", "count", ("count", f"obstruct.gate_fail.{r}"))
       for r in RULES]
    + [
        ("plumbing.cap_s", "s", ("self", "plumbing.cap")),
        ("plumbing.caps_built", "count", ("count", "plumbing.caps_built")),
        ("plumbing.no_cap", "count", ("count", "plumbing.no_cap")),
        ("lattice.embed_s", "s", ("self", "lattice.embed")),
        ("lattice.embeddings", "count", ("count", "lattice.embeddings")),
        ("lattice.search_nodes", "count", ("count", "lattice.search_nodes")),
        ("lattice.candidates_generated", "count", ("count", "lattice.candidates_generated")),
        ("lattice.candidates_accepted", "count", ("count", "lattice.candidates_accepted")),
        ("lattice.accept_ratio", "ratio",
         ("ratio", "lattice.candidates_accepted", "lattice.candidates_generated")),
        ("lattice.lp_calls", "count", ("count", "lattice.lp_calls")),
        ("lattice.lp_s", "s", ("self", "lattice.lp")),
        ("lattice.forms_s", "s", ("self", "lattice.forms")),
    ]
    + [(f"lattice.embed_s.{t}", "s", ("self", "lattice.embed", t)) for t in CAP_TAGS]
    + [(f"lattice.search_nodes.{t}", "count", ("count", "lattice.search_nodes", t))
       for t in CAP_TAGS]
    + [
        ("blowdown.trace_s", "s", ("self", "blowdown.trace")),
        ("blowdown.fingerprints", "count", ("count", "blowdown.fingerprints")),
        ("blowdown.catalog_s", "s", ("self", "blowdown.catalog")),
    ]
    + [(f"blowdown.catalog.{s}", "count", ("count", f"blowdown.catalog.{s}"))
       for s in CATALOG_STATUSES]
    + [
        ("blowdown.lines_peeled", "count", ("count", "blowdown.lines_peeled")),
        ("lens.probe_s", "s", ("self", "lens.probe")),
        ("lens.probes", "count", ("count", "lens.probes")),
        ("lens.list_s", "s", ("self", "lens.list")),
        ("lens.strings_listed", "count", ("count", "lens.strings_listed")),
        ("cf.proj_ops", "count", ("count", "cf.proj_ops")),
        ("cli.report_s", "s", ("self", "cli.report")),
        ("cli.output_bytes", "bytes", ("count", "cli.output_bytes")),
        ("cli.main_self_s", "s", ("self", "cli.main")),
    ]
)
# the metrics that are times; every other metric repeats exactly
TIMES = frozenset(name for name, _, how in METRICS if how[0] == "self")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        # (parent, layer, tag, request, start, end); parent indexes this list
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.status: dict[str, str] = {}
        self.tag: Optional[str] = None
        self.request = -1
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name, None] += n
        if self.tag is not None:
            self.counts[name, self.tag] += n

    def open(self, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([parent, layer, self.tag, self.request, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    def begin_request(self, index: int, tag: Optional[str]) -> int:
        self.request, self.tag = index, tag
        return self.open("cli.main")

    def end_request(self, sid: int, output_bytes: int) -> None:
        self.close(sid)
        self.count("cli.output_bytes", output_bytes)
        self.tag = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, hook: Hook, func: Callable) -> Callable:
        tracer = self
        if hook.kind == ITEMS:
            def items(*args, **kwargs):
                for item in func(*args, **kwargs):
                    tracer.count(hook.name)
                    yield item

            return items
        if hook.kind == CALL:
            def call(*args, **kwargs):
                if hook.name is not None:
                    tracer.count(hook.name)
                result = func(*args, **kwargs)
                if hook.after is not None:
                    hook.after(tracer, result)
                return result

            return call

        def span(*args, **kwargs):
            sid = tracer.open(hook.name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook.calls is not None:
                tracer.count(hook.calls)
            if hook.after is not None:
                hook.after(tracer, result)
            return result

        return span

    def install(self) -> None:
        for hook in HOOKS:
            module, *path = hook.target.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, path[-1], None)):
                self.status[hook.target] = "absent"
                continue
            original = getattr(owner, path[-1])
            setattr(owner, path[-1], self._wrap(hook, original))
            self._undo.append((owner, path[-1], original))
            self.status[hook.target] = "installed"

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def self_times(self) -> Counter:
        """Self seconds by (layer, None) and by (layer, tag)."""
        child = [0.0] * len(self.spans)
        for parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for sid, (_, layer, tag, _, start, end) in enumerate(self.spans):
            own = end - start - child[sid]
            out[layer, None] += own
            if tag is not None:
                out[layer, tag] += own
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {}
        for name, _, how in METRICS:
            if how[0] == "self":
                out[name] = selfs[how[1], how[2] if len(how) > 2 else None]
            elif how[0] == "count":
                out[name] = self.counts[how[1], how[2] if len(how) > 2 else None]
            else:
                den = self.counts[how[2], None]
                out[name] = self.counts[how[1], None] / den if den else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "layer": layer, "tag": tag,
             "request": request, "start": start, "end": end}
            for sid, (parent, layer, tag, request, start, end) in enumerate(self.spans)
        ]
