"""Word graphs, confusion networks and the decoding primitives over them.

A word graph (WG) is a weighted DAG whose edges carry symbols and likelihood
scores in (0, 1]; a complete path runs from the single initial vertex to one
of the final vertices and is scored by the product of its edge scores.  A
confusion network (CN) is the "sausage" form of the same search space: a
totally ordered list of subnetworks, each a normalized label distribution.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.  The only hidden
state is memos on the ``WordGraph`` instance (in its ``__dict__``, outside
the dataclass fields, so equality, hashing and results are unaffected):
``best_path`` and ``n_best_paths`` keep each decoded path list and hand out
copies, and ``topological_order`` and ``out_edges`` keep their tuples.  The
memos live and die with the graph; two threads racing on one at worst
compute it twice.

A ``WordGraph`` and a ``ConfusionNetwork`` are valid by construction: their
constructors run ``validate_wg`` and ``validate_cn`` and raise
``LatticeError`` naming the first violated invariant, so the decoders never
meet a cycle, a dangling edge, a graph without a complete path, an empty
network or a subnetwork that is not a distribution.
"""

import heapq
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, NoReturn

from .errors import LatticeError, PathCountExceededError

EPS = "<eps>"
BLANK = "<blk>"

#: Tolerance for per-subnetwork score sums in a confusion network.
CN_SUM_TOL = 1e-9

#: Default n-best cap behind MBR and confusion-network construction.
MAX_PATHS = 100


class Edge(NamedTuple):
    src: int
    dst: int
    label: str
    score: float


def _require_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _require_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1."""
    _require_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _rank_key(dist: dict):
    """The sort key that ranks the labels of ``dist`` (label -> score):
    highest score first, exact ties to the smaller label."""
    return lambda lab: (-dist[lab], lab)


def _is_symbol(lab) -> bool:
    """A symbol is a non-empty string without whitespace (``str.split`` and
    ``str.isspace`` share one whitespace table); any other type raises
    ``TypeError``."""
    return str.split(lab) == [lab]


def _refuse(kind: str, violation: str, where) -> NoReturn:
    """Raise ``LatticeError("invalid <kind>: <violation>[: <where>]")``."""
    detail = "" if where is None else f": {where}"
    raise LatticeError(f"invalid {kind}: {violation}{detail}")


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
        index = {}
        for tok in self.tokens:
            if not _is_symbol(tok):
                raise ValueError(f"bad vocabulary token {tok!r}")
            if tok in (EPS, BLANK):
                raise ValueError(f"reserved token {tok!r} cannot be a vocabulary symbol")
            if tok in index:
                raise ValueError(f"duplicate vocabulary token {tok!r}")
            index[tok] = len(index)
        # token -> position, outside the fields like the WordGraph memo
        object.__setattr__(self, "_index", index)

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

    Construction, ``dataclasses.replace`` included, raises ``LatticeError``
    unless ``validate_wg`` accepts the graph.  The message is ``invalid word
    graph: <violation>``, followed by ``: <offender>`` when there is one; an
    offending edge is printed as its WG ``E`` line.
    """

    num_vertices: int
    initial: int
    finals: frozenset[int]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        verdict = validate_wg(self)
        if not verdict:
            where = verdict.offender
            if isinstance(where, Edge):
                text = format(float(where.score), ".12g")
                if float(text) != where.score:  # rounding may hide the fault
                    text = repr(float(where.score))
                where = f"E {where.src} {where.dst} {where.label} {text}"
            _refuse("word graph", verdict.violation, where)

    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Out-edges indexed by source vertex, each sorted by (dst, label,
        score).  Built once per graph and kept in its ``__dict__``; tuples,
        so no caller can change them."""
        adj = self.__dict__.get("_out_edges")
        if adj is None:
            lists = [[] for _ in range(self.num_vertices)]
            for e in self.edges:
                lists[e.src].append(e)
            adj = self.__dict__["_out_edges"] = tuple(
                tuple(sorted(lst, key=lambda e: (e.dst, e.label, e.score)))
                for lst in lists)
        return adj


@dataclass(frozen=True)
class ConfusionNetwork:
    """Totally ordered sequence of subnetworks (label -> score maps).

    Each subnetwork's scores sum to 1; every complete path visits every
    subnetwork exactly once, which is structural in this representation.
    Subnetwork dicts are treated as read-only.

    Construction, ``dataclasses.replace`` included, raises ``LatticeError``
    unless ``validate_cn`` accepts the network.  The message is ``invalid
    confusion network: <violation>``, followed by ``: <offender>`` when
    there is one: a subnetwork index, or an ``(index, label)`` pair.
    """

    subnetworks: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "subnetworks", tuple(dict(s) for s in self.subnetworks)
        )
        verdict = validate_cn(self)
        if not verdict:
            _refuse("confusion network", verdict.violation, verdict.offender)

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


def topological_order(wg: WordGraph) -> tuple[int, ...] | None:
    """Kahn topological order of all vertices, or None if the graph has a cycle.

    Ready vertices leave smallest id first.  The walk reads ``out_edges``.
    The order is computed once per graph (by ``validate_wg``, at
    construction, after its endpoint check) and kept, as a tuple, in the
    graph's ``__dict__``.
    """
    order = wg.__dict__.get("_topological_order")
    if order is not None:
        return order
    indeg = [0] * wg.num_vertices
    for e in wg.edges:
        indeg[e.dst] += 1
    adj = wg.out_edges()
    queue = [v for v in range(wg.num_vertices) if indeg[v] == 0]
    order = []
    while queue:
        v = heapq.heappop(queue)
        order.append(v)
        for e in adj[v]:
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                heapq.heappush(queue, e.dst)
    if len(order) != wg.num_vertices:
        return None
    order = wg.__dict__["_topological_order"] = tuple(order)
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
        if not _is_symbol(e.label):
            return Verdict(False, "edge label empty or has whitespace", e)
        if not 0.0 < e.score <= 1.0:
            return Verdict(False, "edge score outside (0, 1]", e)
    if topological_order(wg) is None:
        return Verdict(False, "acyclic", None)
    for e in wg.edges:
        if e.dst == wg.initial:
            return Verdict(False, "edge enters initial vertex", e)
        if e.src in wg.finals:
            return Verdict(False, "edge leaves final vertex", e)
    if count_paths(wg) == 0:
        return Verdict(False, "no complete path", None)
    return Verdict(True)


def count_paths(wg: WordGraph) -> int:
    """Exact number of complete paths (exact integer arithmetic)."""
    ways = [0] * wg.num_vertices
    ways[wg.initial] = 1
    adj = wg.out_edges()
    for v in topological_order(wg):
        if ways[v] == 0:
            continue
        for e in adj[v]:
            ways[e.dst] += ways[v]
    return sum(ways[f] for f in wg.finals)


def enumerate_paths(wg: WordGraph, limit: int) -> list[tuple[SymbolSequence, float]]:
    """All complete paths with their product scores s_t.

    Paths are ordered lexicographically by vertex-id sequence, then by label
    sequence; same-label parallel copies keep ``out_edges`` order.  Raises
    PathCountExceededError when the lattice holds more than ``limit`` paths
    (use best_path or n_best_paths instead); ``limit`` must be an integer
    >= 1.  The walk is a preorder over ``_k_best``'s back-pointer entries,
    with the product for a score, on an explicit stack, so a long path
    needs no recursion.
    """
    _require_count("limit", limit)
    total = count_paths(wg)
    if total > limit:
        raise PathCountExceededError(total, limit)
    adj = wg.out_edges()
    found, stack = [], [(1.0, None, None)]
    while stack:
        ent = stack.pop()
        v = wg.initial if ent[2] is None else ent[2].dst
        if v in wg.finals:
            found.append(ent)
        else:
            stack += [(ent[0] * e.score, ent, e) for e in reversed(adj[v])]
    found.sort(key=lambda ent: _tie_key(_prefix_edges(ent)))
    return [(_path_sequence(ent), ent[0]) for ent in found]


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
    fewer than ``n``.  ``n`` must be an integer >= 1.
    """
    _require_count("n", n)
    return _k_best(wg, n)


def _k_best(wg: WordGraph, n: int) -> list[tuple[SymbolSequence, float]]:
    """The ``n`` best complete paths by one k-best DP in topological order.

    Each vertex keeps its ``n`` best prefixes as back-pointer entries
    ``(-logscore, parent_entry, edge)``, with log scores summed in path
    order; the initial vertex holds ``(0.0, None, None)``.  ``_n_best``
    ranks entries in the documented order.  Two prefixes ending at the same
    vertex keep their order under any common extension (up to rounding of
    the sums), which makes the per-vertex truncation exact.  A path stops at
    the first final vertex it reaches; the graph is valid, so one does.
    Label and score tuples are built only for the ``n`` survivors.  The
    result is memoized per ``n`` in the graph's ``__dict__``; callers get a
    fresh list.
    """
    memo = wg.__dict__.setdefault("_k_best", {})
    if n in memo:
        return list(memo[n])
    order = topological_order(wg)
    adj = wg.out_edges()
    state = [[] for _ in range(wg.num_vertices)]
    state[wg.initial].append((0.0, None, None))
    complete = []
    for v in order:
        kept = _n_best(state[v], n)
        state[v] = None  # released: each prefix is now extended or complete
        if v in wg.finals:
            complete += kept
            continue
        for e in adj[v]:
            cost = math.log(e.score)
            state[e.dst] += [(ent[0] - cost, ent, e) for ent in kept]
    # 0.0 - neg keeps an all-1.0 path's log score at +0.0, not -0.0
    memo[n] = [(_path_sequence(ent), 0.0 - ent[0]) for ent in _n_best(complete, n)]
    return list(memo[n])


def _n_best(entries: list, n: int) -> list:
    """The first ``n`` back-pointer entries by score, then ``_tie_key``, then
    edge scores.

    Sorts ``entries`` in place by score alone (stably), then re-sorts each
    run of exactly equal scores that reaches into the first ``n``: only
    those runs decide the order or the cutoff.
    """
    entries.sort(key=itemgetter(0))
    head = [ent[0] for ent in entries[:n + 1]]
    if len(set(head)) < len(head):  # some exact tie reaches into the first n
        negs = [ent[0] for ent in entries]
        start = 0
        while start < min(n, len(negs)):
            stop = bisect_right(negs, negs[start])
            if stop - start > 1:
                entries[start:stop] = sorted(entries[start:stop], key=_entry_key)
            start = stop
    return entries[:n]


def _prefix_edges(ent) -> list[Edge]:
    """The edges of a back-pointer entry's prefix, in path order (every
    entry but the initial vertex's has at least one)."""
    edges = []
    while ent[2] is not None:
        edges.append(ent[2])
        ent = ent[1]
    edges.reverse()
    return edges


def _path_sequence(ent) -> SymbolSequence:
    """The labels and scores of a back-pointer entry's prefix."""
    _, _, labels, scores = zip(*_prefix_edges(ent))
    return SymbolSequence(labels, scores)


def _tie_key(edges) -> tuple:
    """The documented order of equal-scoring paths over one graph: by the
    vertex ids of their ``edges`` (less the initial one, which all share),
    then by their labels.  An empty edge list ranks first."""
    return tuple(zip(*edges))[1:3]


def _entry_key(ent) -> tuple:
    """A back-pointer entry's ``_tie_key``, then its edge scores."""
    edges = _prefix_edges(ent)
    return _tie_key(edges), [e.score for e in edges]


def path_posteriors(paths: list[tuple[SymbolSequence, float]]) -> list[float]:
    """Normalize product scores into per-path posterior probabilities."""
    if not paths:
        raise ValueError("empty path set")
    scores = [s for _, s in paths]
    if any(s <= 0 for s in scores):
        raise ValueError("non-positive path score")
    total = sum(scores)
    return [s / total for s in scores]


def _n_best_posteriors(wg: WordGraph, max_paths: int) -> list:
    """``(path, posterior)`` for each of the ``max_paths`` best paths of
    ``wg``, in n-best order, the posteriors renormalized over those paths: a
    softmax of their log scores, shifted by the largest."""
    paths = n_best_paths(wg, max_paths)
    m = max(ls for _, ls in paths)
    weights = [math.exp(ls - m) for _, ls in paths]
    total = sum(weights)
    return [(seq, w / total) for (seq, _), w in zip(paths, weights)]


def cn_from_wg(wg: WordGraph, max_paths: int = MAX_PATHS) -> ConfusionNetwork:
    """Convert a word graph to a confusion network by pivot alignment.

    The best path acts as the pivot.  Every other complete path (the n-best,
    up to ``max_paths``) is aligned to it by token edit distance; aligned
    positions pour their posterior mass into the pivot's subnetworks, gaps
    pour theirs into ``<eps>``, and inserted symbols open extra subnetworks
    between pivot positions (shared, left-aligned, across paths).  Posteriors
    are renormalized over the retained path set, and every subnetwork is
    renormalized to sum to 1.

    ``_align_to_pivot`` gives each path its ``(at_pivot, inserted)`` pair.
    Pivot gap g opens as many insertion columns as the most labels one path
    inserts there, and the columns run: gap 0's, pivot position 0, gap 1's,
    pivot position 1, ...  Each path becomes one row of labels across all
    columns, its insertions in each gap, padded with ``<eps>`` to the gap's
    width, spliced into its ``at_pivot``.  Rows are added in n-best order and
    each gives every column exactly one addition, so each column sums the
    same floats in the same order as a column-by-column construction, and
    each label enters its column with the first path that puts it there.  A
    gap and a matched ``<eps>`` label add to the same ``<eps>`` key.
    """
    from .align import _align_to_pivot  # align imports this module

    ranked = _n_best_posteriors(wg, max_paths)
    pivot = ranked[0][0].labels
    rows = _align_to_pivot(pivot, [seq.labels for seq, _ in ranked])
    # over distinct insertion tuples: the certified rows share one
    widths = [max(map(len, gap)) for gap in zip(*{ins for _, ins in rows})]
    columns = [{} for _ in range(len(pivot) + sum(widths))]
    # spliced right to left, so gap g still sits before at_pivot[g]
    open_gaps = [g for g in reversed(range(len(widths))) if widths[g]]
    for (_, post), (at_pivot, inserted) in zip(ranked, rows):
        row = list(at_pivot)
        for g in open_gaps:
            row[g:g] = inserted[g] + (EPS,) * (widths[g] - len(inserted[g]))
        for col, lab in zip(columns, row):
            col[lab] = col.get(lab, 0.0) + post

    for col in columns:
        total = sum(col.values())
        for lab in col:
            col[lab] /= total
    return ConfusionNetwork(tuple(columns))


def validate_cn(cn: ConfusionNetwork) -> Verdict:
    """Check confusion-network invariants (first violation wins).

    Check order: at least one subnetwork, then column by column: the column
    is not empty, each label (in insertion order) is a symbol with a score
    in [0, 1], and the scores sum to 1 within ``CN_SUM_TOL``.
    """
    if len(cn) == 0:
        return Verdict(False, "no subnetworks", None)
    for idx, sub in enumerate(cn.subnetworks):
        if not sub:
            return Verdict(False, "empty subnetwork", idx)
        for lab, score in sub.items():
            if not _is_symbol(lab):
                return Verdict(False, "bad subnetwork label", (idx, lab))
            if not 0.0 <= score <= 1.0:
                return Verdict(False, "subnetwork score outside [0, 1]", (idx, lab))
        if abs(sum(sub.values()) - 1.0) > CN_SUM_TOL:
            return Verdict(False, "subnetwork scores do not sum to 1", idx)
    return Verdict(True)


def cn_best_path(cn: ConfusionNetwork) -> SymbolSequence:
    """Per-subnetwork argmax labels, by ``_rank_key``: score ties go to the
    lexicographically smallest label."""
    labels = []
    scores = []
    for sub in cn.subnetworks:
        lab = min(sub, key=_rank_key(sub))
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
