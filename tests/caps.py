"""Every +1 cap of a degree, for the tests and checks that sweep them all."""

from itertools import combinations_with_replacement, groupby, product

from cuspatlas.cusp import gated_combos
from cuspatlas.plumbing import curve_resolution


def plus_one_caps(d):
    """The distinct curve resolutions of degree-d combinations whose root
    lands at +1.

    A combination with s >= 0 blow-ups to spare after the minimal
    resolution tries the modes min, nc and min+1..min+s on each cusp;
    a run of equal cusps takes its modes as a multiset, since the order
    among them only relabels the graph.
    """
    found = {}
    for combo, _ in gated_combos(d):
        spare = d * d - sum(m * m for c in combo.cusps for m in c.mult_seq()) - 1
        if spare < 0:
            continue
        modes = ["min", "nc", *(f"min+{t}" for t in range(1, spare + 1))]
        runs = [
            combinations_with_replacement(modes, len(list(run)))
            for _, run in groupby(combo.cusps)
        ]
        for choice in product(*runs):
            g = curve_resolution(combo, [mode for run in choice for mode in run])
            if g.eulers[g.root] == 1:
                found.setdefault(g)
    return list(found)
