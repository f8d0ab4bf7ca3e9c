"""Obstruction rules and the per-combination classification pipeline.

Each rule reports a Pass or Fail verdict carrying a machine-checkable
witness.  Rules run unconditionally: a combination that dies at one
gate is still pushed through the others, so the record shows every
obstruction that bites.  When a stock cap exists the pipeline also runs
it through `run_cap`, the one function that builds a cap, enumerates its
adjunctive embeddings, blows each one down, consults the
plane-configuration catalog and reads the cap's verdicts; the pipeline
then aggregates a final status.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Union

from .blowdown import (
    OBSTRUCTED,
    UNIQUE,
    CatalogEntry,
    ConfigFingerprint,
    blow_down_trace,
    catalog_lookup,
)
from .cusp import CuspCombo, CuspType, Gate, gated_combos
from .lattice import Embedding, GramForm, ambient, complement_form, enumerate_embeddings
from .plumbing import CapRecipe, PlumbingGraph, build_cap, cap_for_combo


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of one rule: Pass, or Fail with the violated instance."""

    rule: str
    outcome: str
    details: str = ""
    witness: Optional[dict] = None

    @property
    def failed(self) -> bool:
        return self.outcome == "Fail"

    def to_dict(self) -> dict:
        out = {"rule": self.rule, "outcome": self.outcome, "details": self.details}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def semigroup_verdict(combo: CuspCombo, gate: Gate) -> ObstructionVerdict:
    """The verdict on the combo's semigroup_condition outcome."""
    if gate is None:
        return ObstructionVerdict("Semigroup", "Pass")
    j, got = gate
    d = combo.degree
    want = (j + 1) * (j + 2) // 2
    return ObstructionVerdict(
        "Semigroup",
        "Fail",
        f"counting function at {j * d + 1} gives {got}, needs {want}",
        {"j": j, "argument": j * d + 1, "value": got, "required": want},
    )


def rh_instances(
    degree: int, mult_seqs: Sequence[Sequence[int]]
) -> List[tuple[Union[int, str], int, int]]:
    """Every projection-count inequality as (base, lhs, rhs), lhs >= rhs
    required.  The pencil through cusp p, with multiplicities m_p then
    m_p2, needs 2d - 2 m_p >= 2 + sum_{q != p} (m_q - 1) + (m_p2 - 1); a
    generic pencil point off the curve needs 2d - 2 >= sum_q (m_q - 1).
    Bases: each cusp index, plus "off-curve" for the generic point."""
    total = sum(ms[0] - 1 for ms in mult_seqs)
    out: List[tuple[Union[int, str], int, int]] = [("off-curve", 2 * degree - 2, total)]
    for i, ms in enumerate(mult_seqs):
        second = ms[1] if len(ms) > 1 else 1
        # the other cusps' terms: the total less this cusp's own m_p - 1
        rhs = 2 + total - (ms[0] - 1) + (second - 1)
        out.append((i, 2 * degree - 2 * ms[0], rhs))
    return out


def riemann_hurwitz_verdict(combo: CuspCombo) -> ObstructionVerdict:
    # the first two multiplicities of (p, q) are p and min(p, q - p); a
    # second of 1 counts as none
    seqs = [(c.p, min(c.p, c.q - c.p)) for c in combo.cusps]
    bad = [
        (base, lhs, rhs)
        for base, lhs, rhs in rh_instances(combo.degree, seqs)
        if lhs < rhs
    ]
    if not bad:
        return ObstructionVerdict("RiemannHurwitz", "Pass")
    base, lhs, rhs = bad[0]
    name = "a generic point" if base == "off-curve" else str(combo.cusps[base])
    return ObstructionVerdict(
        "RiemannHurwitz",
        "Fail",
        f"pencil through {name} needs {lhs} >= {rhs}",
        {"base": base, "lhs": lhs, "rhs": rhs},
    )


_SPORADIC_SIMPLE = {(3, 4), (3, 5)}


def is_simple_cusp(c: CuspType) -> bool:
    return c.p == 2 or (c.p, c.q) in _SPORADIC_SIMPLE


def sextic_simple_verdict(combo: CuspCombo) -> ObstructionVerdict:
    """Degree-6 curves with only simple cusps cannot exist: the double
    plane branched over such a sextic is a K3 surface, whose lattice
    caps the total Milnor number at 19, while rationality forces 20."""
    if combo.degree != 6:
        return ObstructionVerdict("SexticSimple", "Pass", "inapplicable: degree != 6")
    if not all(is_simple_cusp(c) for c in combo.cusps):
        return ObstructionVerdict(
            "SexticSimple", "Pass", "inapplicable: non-simple cusp present"
        )
    mu = combo.total_milnor
    return ObstructionVerdict(
        "SexticSimple",
        "Fail",
        f"total Milnor number {mu} exceeds the simple-singularity bound 19",
        {"total_milnor": mu, "bound": 19},
    )


def image_dict(f: ConfigFingerprint, entry: CatalogEntry) -> dict:
    """The report of one blown-down image and its catalog entry."""
    return {"summary": f.summary(), "image": f.to_dict(), "catalog": entry.to_dict()}


@dataclass(frozen=True)
class CapRun:
    """One cap through every stage: its graph, its adjunctive embeddings,
    the blow-down image and catalog entry of each, and the cap's
    verdicts.  Each embedding's ambient and complement form are read
    on first use, under cap_faults, and kept with the run."""

    recipe: CapRecipe
    graph: PlumbingGraph
    embeddings: Sequence[Embedding]
    fingerprints: List[ConfigFingerprint]
    entries: List[CatalogEntry]
    verdicts: List[ObstructionVerdict]

    @cached_property
    def ambients(self) -> List[str]:
        with cap_faults(self.recipe):
            return [ambient(e) for e in self.embeddings]

    @cached_property
    def complements(self) -> List[GramForm]:
        with cap_faults(self.recipe):
            return [complement_form(e) for e in self.embeddings]


@dataclass
class ClassificationRecord:
    """Everything the pipeline learned about one combination; cap is None
    when the combination has no stock cap."""

    combo: CuspCombo
    verdicts: List[ObstructionVerdict]
    cap: Optional[CapRun]
    final_status: str

    def to_dict(self) -> dict:
        cap = self.cap
        embeddings = [] if cap is None else cap.embeddings
        images = [] if cap is None else zip(cap.fingerprints, cap.entries)
        forms = [] if cap is None else [form.to_dict() for form in cap.complements]
        ambients = [] if cap is None else cap.ambients
        return {
            "combo": str(self.combo),
            "degree": self.combo.degree,
            "cusps": [[c.p, c.q] for c in self.combo.cusps],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "cap": None if cap is None else cap.recipe.kind,
            "cap_error": (
                "no stock cap recipe for this combination" if cap is None else None
            ),
            "embeddings": [
                {**e.to_dict(), "complement": form}
                for e, form in zip(embeddings, forms)
            ],
            "ambients": ambients,
            "fingerprints": [image_dict(f, entry) for f, entry in images],
            "final_status": self.final_status,
        }


def _final_status(verdicts: List[ObstructionVerdict], cap: Optional[CapRun]) -> str:
    if any(v.failed for v in verdicts):
        return "Obstructed"
    if cap is None:
        return "Unknown"
    # a failed cap verdict has ruled out a cap with no viable embedding
    viable = [
        (e, ent)
        for e, ent in zip(cap.embeddings, cap.entries)
        if ent.status != OBSTRUCTED
    ]
    # the least k decides: the plane when it is 0, else its blow-up
    kmin = min(e.k for e, _ in viable)
    at_min = [ent for e, ent in viable if e.k == kmin]
    if len(at_min) == 1 and at_min[0].status == UNIQUE:
        return "UniqueInPlane" if kmin == 0 else f"UniqueInBlowup({kmin})"
    return "Unknown"


def arithmetic_verdicts(combo: CuspCombo, gate: Gate) -> List[ObstructionVerdict]:
    """The gates that need only the cusp data, each run unconditionally;
    gate is the combo's semigroup_condition outcome."""
    return [
        semigroup_verdict(combo, gate),
        riemann_hurwitz_verdict(combo),
        sextic_simple_verdict(combo),
    ]


def cap_verdicts(
    recipe: CapRecipe, graph: PlumbingGraph, entries: Sequence[CatalogEntry]
) -> List[ObstructionVerdict]:
    """The fate of a cap, given the catalog entry of each of its
    embeddings: NoAdjunctiveEmbedding, then BlowdownCatalog if the cap
    embeds.  The cap is dead when either fails."""
    if not entries:
        witness = {"cap": recipe.kind, "vertices": graph.n}
        reason = "no adjunctive class assignment for the cap"
        return [ObstructionVerdict("NoAdjunctiveEmbedding", "Fail", reason, witness)]
    killed = [i for i, ent in enumerate(entries) if ent.status == OBSTRUCTED]
    if len(killed) == len(entries):
        patterns = [entries[i].pattern for i in killed]
        witness = {"embeddings": killed, "patterns": patterns}
        reason = "every embedding blows down to an obstructed configuration"
        catalog = ObstructionVerdict("BlowdownCatalog", "Fail", reason, witness)
    else:
        unsettled = sum(1 for ent in entries if ent.status not in (OBSTRUCTED, UNIQUE))
        reason = f"{len(entries) - len(killed)} viable embeddings" + (
            f", {unsettled} unsettled" if unsettled else ""
        )
        catalog = ObstructionVerdict("BlowdownCatalog", "Pass", reason)
    embedded = f"{len(entries)} adjunctive embeddings"
    return [ObstructionVerdict("NoAdjunctiveEmbedding", "Pass", embedded), catalog]


@contextmanager
def cap_faults(recipe: CapRecipe) -> Iterator[None]:
    """Raise a ValueError from the block again as a RuntimeError that
    names the cap.  Every stage run on a stock cap checks what it builds,
    so its ValueError is a broken invariant of the engine, not bad input:
    a cap off +1, an embedding or an image that fails its own check, or
    classes with no residual form (a cap's Gram matrix has det +-d^2, so
    its classes are independent)."""
    try:
        yield
    except ValueError as exc:
        raise RuntimeError(f"cap {recipe.kind} for {recipe.combo}: {exc}") from exc


def run_cap(recipe: CapRecipe) -> CapRun:
    """Build the cap, enumerate its embeddings, blow each one down, look
    each image up in the catalog and read the cap's verdicts; a stage's
    ValueError is raised again under cap_faults."""
    with cap_faults(recipe):
        graph = build_cap(recipe)
        embeddings = enumerate_embeddings(graph)
        fingerprints = [blow_down_trace(e) for e in embeddings]
        entries = [catalog_lookup(f) for f in fingerprints]
    verdicts = cap_verdicts(recipe, graph, entries)
    return CapRun(recipe, graph, embeddings, fingerprints, entries, verdicts)


def run_pipeline(combo: CuspCombo, gate: Gate) -> ClassificationRecord:
    """Run every rule, then the stock cap's stages if it has one; gate is
    the combo's semigroup_condition outcome."""
    verdicts = arithmetic_verdicts(combo, gate)
    recipe = cap_for_combo(combo)
    cap = None
    if recipe is not None:
        cap = run_cap(recipe)
        verdicts += cap.verdicts
    return ClassificationRecord(combo, verdicts, cap, _final_status(verdicts, cap))


def classify_degree(degree: int) -> List[ClassificationRecord]:
    """The pipeline over every genus-balanced combination, in the
    enumerator's deterministic order, on the semigroup outcomes the
    enumerator computes as it walks."""
    return [run_pipeline(combo, gate) for combo, gate in gated_combos(degree)]
