"""Word graphs, confusion networks and the decoding primitives over them.

A word graph (WG) is a weighted DAG whose edges carry symbols and likelihood
scores in (0, 1]; a complete path runs from the single initial vertex to one
of the final vertices and is scored by the product of its edge scores.  A
confusion network (CN) is the "sausage" form of the same search space: a
totally ordered list of subnetworks, each a normalized label distribution.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.  The one piece of
hidden state is a memo: ``best_path`` and ``n_best_paths`` keep each decoded
path list on the ``WordGraph`` instance (in its ``__dict__``, outside the
dataclass fields, so equality, hashing and results are unaffected) and hand
out copies.  The memo lives and dies with the graph; two threads racing on
it at worst decode the same list twice.
"""

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import NoCompletePathError, PathCountExceededError

EPS = "<eps>"
BLANK = "<blk>"

#: Tolerance for per-subnetwork score sums in a confusion network.
CN_SUM_TOL = 1e-9


class Edge(NamedTuple):
    src: int
    dst: int
    label: str
    score: float


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of transcription symbols.

    The reserved tokens ``<eps>`` and ``<blk>`` are never members; they mark
    "no symbol here" in confusion networks and the CTC blank respectively,
    and must not appear in final transcriptions.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        seen = set()
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad vocabulary token {tok!r}")
            if tok in (EPS, BLANK):
                raise ValueError(f"reserved token {tok!r} cannot be a vocabulary symbol")
            if tok in seen:
                raise ValueError(f"duplicate vocabulary token {tok!r}")
            seen.add(tok)

    def __contains__(self, tok):
        return tok in self.tokens

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True)
class SymbolSequence:
    """A transcription: ordered labels, optionally score-annotated per position."""

    labels: tuple[str, ...]
    scores: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.scores is not None:
            object.__setattr__(self, "scores", tuple(self.scores))
            if len(self.scores) != len(self.labels):
                raise ValueError("scores length does not match labels length")

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_text(cls, line: str) -> "SymbolSequence":
        """Parse a whitespace-separated token line (empty line = empty sequence)."""
        return cls(tuple(line.split()))

    def to_text(self) -> str:
        return " ".join(self.labels)


@dataclass(frozen=True)
class WordGraph:
    """Weighted DAG of scored, labeled edges.

    ``finals`` is the non-empty set of accepting vertices; no edge may leave
    a final vertex or enter the initial one.  Parallel edges between the same
    vertex pair (with different labels) are allowed; they are what makes
    sausage-shaped lattices expressible.
    """

    num_vertices: int
    initial: int
    finals: frozenset[int]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))

    def out_edges(self) -> list[list[Edge]]:
        """Adjacency lists indexed by source vertex, in deterministic order."""
        adj = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            adj[e.src].append(e)
        for lst in adj:
            lst.sort(key=lambda e: (e.dst, e.label, e.score))
        return adj


@dataclass(frozen=True)
class ConfusionNetwork:
    """Totally ordered sequence of subnetworks (label -> score maps).

    Each subnetwork's scores sum to 1; every complete path visits every
    subnetwork exactly once, which is structural in this representation.
    Subnetwork dicts are treated as read-only.
    """

    subnetworks: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "subnetworks", tuple(dict(s) for s in self.subnetworks)
        )

    def __len__(self):
        return len(self.subnetworks)


@dataclass(frozen=True)
class Verdict:
    """Validation outcome: ``ok``, or the first violated invariant + offender."""

    ok: bool
    violation: str | None = None
    offender: object = None

    def __bool__(self):
        return self.ok


def topological_order(wg: WordGraph) -> list[int] | None:
    """Kahn topological order of all vertices, or None if the graph has a cycle."""
    indeg = [0] * wg.num_vertices
    adj = [[] for _ in range(wg.num_vertices)]
    for e in wg.edges:
        indeg[e.dst] += 1
        adj[e.src].append(e.dst)
    queue = [v for v in range(wg.num_vertices) if indeg[v] == 0]
    order = []
    while queue:
        v = heapq.heappop(queue)
        order.append(v)
        for u in adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(queue, u)
    if len(order) != wg.num_vertices:
        return None
    return order


def validate_wg(wg: WordGraph) -> Verdict:
    """Check every word-graph invariant; report the first violation found.

    Check order: vertex ranges, finals non-empty, initial not final, edge
    endpoint/score sanity, acyclicity, no edge into the initial vertex, no
    edge out of a final vertex, and existence of a complete path.
    """
    n = wg.num_vertices
    if n < 1:
        return Verdict(False, "vertex count", n)
    if not 0 <= wg.initial < n:
        return Verdict(False, "initial vertex out of range", wg.initial)
    if not wg.finals:
        return Verdict(False, "finals non-empty", None)
    for f in sorted(wg.finals):
        if not 0 <= f < n:
            return Verdict(False, "final vertex out of range", f)
    if wg.initial in wg.finals:
        return Verdict(False, "initial vertex is final", wg.initial)
    for e in wg.edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            return Verdict(False, "edge endpoint out of range", e)
        if not e.label or any(ch.isspace() for ch in e.label):
            return Verdict(False, "edge label empty or has whitespace", e)
        if not 0.0 < e.score <= 1.0:
            return Verdict(False, "edge score outside (0, 1]", e)
    order = topological_order(wg)
    if order is None:
        return Verdict(False, "acyclic", None)
    for e in wg.edges:
        if e.dst == wg.initial:
            return Verdict(False, "edge enters initial vertex", e)
        if e.src in wg.finals:
            return Verdict(False, "edge leaves final vertex", e)
    if _count_paths_along(wg, order) == 0:
        return Verdict(False, "no complete path", None)
    return Verdict(True)


def count_paths(wg: WordGraph) -> int:
    """Exact number of complete paths (exact integer arithmetic)."""
    order = topological_order(wg)
    return 0 if order is None else _count_paths_along(wg, order)


def _count_paths_along(wg: WordGraph, order: list[int]) -> int:
    ways = [0] * wg.num_vertices
    ways[wg.initial] = 1
    adj = wg.out_edges()
    for v in order:
        if ways[v] == 0:
            continue
        for e in adj[v]:
            ways[e.dst] += ways[v]
    return sum(ways[f] for f in wg.finals)


def enumerate_paths(wg: WordGraph, limit: int) -> list[tuple[SymbolSequence, float]]:
    """All complete paths with their product scores s_t.

    Paths are ordered lexicographically by vertex-id sequence, then by label
    sequence.  Raises PathCountExceededError when the lattice holds more than
    ``limit`` paths (use best_path or n_best_paths instead), and
    NoCompletePathError when it holds none.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    total = count_paths(wg)
    if total == 0:
        raise NoCompletePathError("word graph has no complete path")
    if total > limit:
        raise PathCountExceededError(total, limit)
    adj = wg.out_edges()
    found = []

    def walk(v, vids, labels, scores, prod):
        if v in wg.finals:
            found.append((tuple(vids), tuple(labels), tuple(scores), prod))
            return
        for e in adj[v]:
            vids.append(e.dst)
            labels.append(e.label)
            scores.append(e.score)
            walk(e.dst, vids, labels, scores, prod * e.score)
            vids.pop()
            labels.pop()
            scores.pop()

    walk(wg.initial, [wg.initial], [], [], 1.0)
    found.sort(key=lambda p: (p[0], p[1]))
    return [
        (SymbolSequence(labels, scores), prod)
        for _vids, labels, scores, prod in found
    ]


def best_path(wg: WordGraph) -> tuple[SymbolSequence, float]:
    """Maximum-likelihood complete path and its log score.

    The 1-best of ``n_best_paths``: exact score ties are broken by the
    lexicographically smallest vertex-id sequence, then label sequence, so
    results are reproducible.
    """
    return _k_best(wg, 1)[0]


def n_best_paths(wg: WordGraph, n: int) -> list[tuple[SymbolSequence, float]]:
    """Up to ``n`` highest-scoring complete paths with their log scores.

    Paths come out in descending score order (ties: lexicographic vertex-id
    then label sequence).  Returns all complete paths when the lattice holds
    fewer than ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _k_best(wg, n)


def _k_best(wg: WordGraph, n: int) -> list[tuple[SymbolSequence, float]]:
    """The ``n`` best complete paths by one k-best DP in topological order.

    Each vertex keeps its ``n`` best prefixes as ``(-logscore, vids, labels,
    scores)`` tuples with log scores summed in path order, so tuple order is
    the documented order.  Two prefixes ending at the same vertex keep their
    order under any common extension (up to rounding of the sums), which
    makes the per-vertex truncation exact.  A path stops at the first final
    vertex it reaches.  The result is memoized per ``n`` in the graph's
    ``__dict__``; callers get a fresh list.
    """
    memo = wg.__dict__.setdefault("_k_best", {})
    if n in memo:
        return list(memo[n])
    order = topological_order(wg)
    if order is None:
        raise NoCompletePathError("word graph has a cycle")
    adj = wg.out_edges()
    state = [[] for _ in range(wg.num_vertices)]
    state[wg.initial].append((0.0, (wg.initial,), (), ()))
    complete = []
    for v in order:
        kept = sorted(state[v])[:n]
        state[v] = None  # released: each prefix is now extended or complete
        if v in wg.finals:
            complete += kept
            continue
        for e in adj[v]:
            cost = math.log(e.score)
            state[e.dst] += [
                (neg - cost, vids + (e.dst,), labels + (e.label,),
                 scores + (e.score,))
                for neg, vids, labels, scores in kept
            ]
    if not complete:
        raise NoCompletePathError("word graph has no complete path")
    # 0.0 - neg keeps an all-1.0 path's log score at +0.0, not -0.0
    memo[n] = [
        (SymbolSequence(labels, scores), 0.0 - neg)
        for neg, _vids, labels, scores in sorted(complete)[:n]
    ]
    return list(memo[n])


def path_posteriors(paths: list[tuple[SymbolSequence, float]]) -> list[float]:
    """Normalize product scores into per-path posterior probabilities."""
    if not paths:
        raise ValueError("empty path set")
    scores = [s for _, s in paths]
    if any(s <= 0 for s in scores):
        raise ValueError("non-positive path score")
    total = sum(scores)
    return [s / total for s in scores]


def _posteriors_from_log(logscores: Iterable[float]) -> list[float]:
    """Softmax of log scores, shifted for numerical safety."""
    logs = list(logscores)
    m = max(logs)
    weights = [math.exp(x - m) for x in logs]
    total = sum(weights)
    return [w / total for w in weights]


def cn_from_wg(wg: WordGraph, max_paths: int = 100) -> ConfusionNetwork:
    """Convert a word graph to a confusion network by pivot alignment.

    The best path acts as the pivot.  Every other complete path (the n-best,
    up to ``max_paths``) is aligned to it by token edit distance; aligned
    positions pour their posterior mass into the pivot's subnetworks, gaps
    pour theirs into ``<eps>``, and inserted symbols open extra subnetworks
    between pivot positions (shared, left-aligned, across paths).  Posteriors
    are renormalized over the retained path set, and every subnetwork is
    renormalized to sum to 1.
    """
    from .align import _align_to_pivot  # align imports this module

    paths = n_best_paths(wg, max_paths)
    posts = _posteriors_from_log([ls for _, ls in paths])
    pivot = paths[0][0].labels

    all_ops = _align_to_pivot(pivot, [seq.labels for seq, _ in paths])

    max_ins = [0] * (len(pivot) + 1)
    for ops in all_ops:
        for g, cnt in Counter(op[1] for op in ops if op[0] == "i").items():
            max_ins[g] = max(max_ins[g], cnt)

    # Global column order: gap-0 slots, pivot 0, gap-1 slots, pivot 1, ...
    col_index = {}
    ncols = 0
    for g in range(len(pivot) + 1):
        for s in range(max_ins[g]):
            col_index[("ins", g, s)] = ncols
            ncols += 1
        if g < len(pivot):
            col_index[("piv", g)] = ncols
            ncols += 1

    columns = [{} for _ in range(ncols)]
    for (seq, _), post, ops in zip(paths, posts, all_ops):
        labels = seq.labels
        touched = set()
        slot_at = {}
        for op in ops:
            if op[0] == "m":
                c = col_index[("piv", op[1])]
                lab = labels[op[2]]
            elif op[0] == "d":
                c = col_index[("piv", op[1])]
                lab = EPS
            else:
                g = op[1]
                s = slot_at.get(g, 0)
                slot_at[g] = s + 1
                c = col_index[("ins", g, s)]
                lab = labels[op[2]]
            columns[c][lab] = columns[c].get(lab, 0.0) + post
            touched.add(c)
        for c in range(ncols):
            if c not in touched:
                columns[c][EPS] = columns[c].get(EPS, 0.0) + post

    for col in columns:
        total = sum(col.values())
        for lab in col:
            col[lab] /= total
    return ConfusionNetwork(tuple(columns))


def validate_cn(cn: ConfusionNetwork) -> Verdict:
    """Check confusion-network invariants (first violation wins)."""
    if len(cn) == 0:
        return Verdict(False, "no subnetworks", None)
    for idx, sub in enumerate(cn.subnetworks):
        if not sub:
            return Verdict(False, "empty subnetwork", idx)
        for lab, score in sub.items():
            if not lab or any(ch.isspace() for ch in lab):
                return Verdict(False, "bad subnetwork label", (idx, lab))
            if not 0.0 <= score <= 1.0:
                return Verdict(False, "subnetwork score outside [0, 1]", (idx, lab))
        if abs(sum(sub.values()) - 1.0) > CN_SUM_TOL:
            return Verdict(False, "subnetwork scores do not sum to 1", idx)
    return Verdict(True)


def cn_best_path(cn: ConfusionNetwork) -> SymbolSequence:
    """Per-subnetwork argmax labels (score ties: lexicographically smallest)."""
    if len(cn) == 0:
        raise ValueError("empty confusion network")
    labels = []
    scores = []
    for sub in cn.subnetworks:
        lab = min(sub, key=lambda l: (-sub[l], l))
        labels.append(lab)
        scores.append(sub[lab])
    return SymbolSequence(tuple(labels), tuple(scores))


def strip_eps(seq: SymbolSequence) -> SymbolSequence:
    """Remove every ``<eps>`` item; final transcriptions carry no epsilon."""
    if EPS not in seq.labels:
        return seq
    if seq.scores is None:
        return SymbolSequence(tuple(l for l in seq.labels if l != EPS))
    kept = [(l, s) for l, s in zip(seq.labels, seq.scores) if l != EPS]
    return SymbolSequence(
        tuple(l for l, _ in kept), tuple(s for _, s in kept)
    )
