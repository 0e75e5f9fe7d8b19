"""Word graphs: validation, path enumeration, best-path decoding, and the
conversion to confusion networks.

Run:  python demos/01_word_graphs_and_decoding.py
"""

import math

from latfuse import (
    LatticeError,
    WordGraph,
    best_path,
    cn_best_path,
    cn_from_wg,
    enumerate_paths,
    path_posteriors,
    validate_wg,
)
from latfuse.formats import write_cn, write_wg

# A small lattice: two competing readings of the first symbol ("a" vs "b"),
# then an optional extra symbol before the shared ending.
wg = WordGraph(
    num_vertices=5,
    initial=0,
    finals={4},
    edges=[
        (0, 1, "a", 0.7),
        (0, 1, "b", 0.3),
        (1, 2, "c", 0.6),
        (1, 3, "c", 0.4),
        (2, 3, "d", 1.0),
        (3, 4, "e", 0.9),
    ],
)

print("valid?", validate_wg(wg))

# Every WordGraph is valid by construction: an invalid one is refused with
# the first violated invariant, here an edge leaving the final vertex.
try:
    WordGraph(3, 0, {1}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5)])
except LatticeError as exc:
    print("refused:", exc)
print()

print("complete paths and product scores:")
paths = enumerate_paths(wg, limit=100)
for seq, score in paths:
    print(f"  {seq.to_text():<12} s_t = {score:.4f}")

print()
print("posteriors:", [round(p, 4) for p in path_posteriors(paths)])

seq, logscore = best_path(wg)
print(f"best path: {seq.to_text()}  (score {math.exp(logscore):.4f})")
print()

# The confusion-network ("sausage") view: a totally ordered sequence of
# label distributions; <eps> rows absorb length differences between paths.
cn = cn_from_wg(wg)
print("confusion network:")
for i, sub in enumerate(cn.subnetworks):
    row = ", ".join(f"{lab}: {s:.3f}" for lab, s in sorted(sub.items()))
    print(f"  N{i}: {row}")
print("CN best path:", cn_best_path(cn).to_text())
print()

print("text formats round-trip:")
print(write_wg(wg, name="demo"))
print(write_cn(cn, name="demo"))
