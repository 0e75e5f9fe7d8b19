"""Greedy decoding of posteriorgrams and a top-k sausage lattice builder.

The lattice builder is plumbing: it stands in for a full WFST decoder so the
rest of the toolkit has word graphs to work with, and makes no fidelity
claims beyond producing valid sausage-shaped lattices.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import BLANK, Edge, SymbolSequence, WordGraph, _rank_key, _require_count

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Posteriorgram:
    """K x |labels| row-stochastic matrix of per-step symbol activations.

    ``labels`` must contain the blank token ``<blk>``; each row is finite,
    sums to 1 within 1e-6 and has no negative entries.
    """

    labels: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if BLANK not in self.labels:
            raise ValueError(f"posteriorgram labels must include {BLANK!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate posteriorgram labels")
        if rows.ndim != 2 or rows.shape[1] != len(self.labels):
            raise ValueError("rows must be K x len(labels)")
        if rows.size:
            bad = ~np.isfinite(rows).all(axis=1)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"row {k} has a non-finite activation")
            if rows.min() < 0:
                raise ValueError("negative activation")
            sums = rows.sum(axis=1)
            bad = np.abs(sums - 1.0) > ROW_SUM_TOL
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"row {k} sums to {sums[k]!r}, not 1")

    @property
    def num_steps(self) -> int:
        return self.rows.shape[0]


def _ranked(pg: Posteriorgram, row: np.ndarray) -> tuple:
    """One row as a label -> activation dict, and its labels ranked by
    ``_rank_key``: most probable first, exact ties to the smallest label."""
    dist = dict(zip(pg.labels, row.tolist()))
    return sorted(dist, key=_rank_key(dist)), dist


def collapse_map(seq: SymbolSequence) -> SymbolSequence:
    """Merge consecutive repeated symbols, then delete every blank token."""
    out = []
    prev = None
    for lab in seq.labels:
        if lab != prev:
            out.append(lab)
        prev = lab
    return SymbolSequence(tuple(l for l in out if l != BLANK))


def greedy_decode(pg: Posteriorgram) -> SymbolSequence:
    """Take the argmax label per step, then collapse repeats and blanks.

    The output length never exceeds the number of steps K.
    """
    if pg.num_steps == 0:
        raise ValueError("empty posteriorgram")
    frame_labels = tuple(_ranked(pg, row)[0][0] for row in pg.rows)
    return collapse_map(SymbolSequence(frame_labels))


def posteriorgram_to_wg(
    pg: Posteriorgram, k: int = 3, prob_floor: float = 0.01
) -> WordGraph:
    """Sausage-shaped word graph of the per-step top-k labels.

    Step t contributes parallel edges between vertices t and t+1 for its k
    most probable labels with probability >= ``prob_floor``; the argmax is
    always kept even when it is the only survivor.  Consumers that need
    transcriptions collapse paths with the CTC mapping afterwards.
    """
    _require_count("k", k)
    if not 0.0 < prob_floor < 1.0:
        raise ValueError("prob_floor must be in (0, 1)")
    if pg.num_steps == 0:
        raise ValueError("empty posteriorgram")
    edges = []
    for t, row in enumerate(pg.rows):
        ranked, dist = _ranked(pg, row)
        top = [lab for lab in ranked[:k] if dist[lab] >= prob_floor]
        for lab in top or ranked[:1]:
            # row sums are only 1 within tolerance, so clamp into (0, 1]
            edges.append(Edge(t, t + 1, lab, min(dist[lab], 1.0)))
    return WordGraph(pg.num_steps + 1, 0, frozenset({pg.num_steps}), tuple(edges))
