"""Random lattice/network/posteriorgram builders for the tests."""

import numpy as np

from latfuse import (
    BLANK,
    EPS,
    ConfusionNetwork,
    LatticeError,
    Posteriorgram,
    SWParams,
    SymbolSequence,
    WordGraph,
    count_paths,
)
from latfuse.formats import _lines

LETTERS = ("a", "b", "c", "d", "e", "f")

# tokens sharing a first character, so no pair is "completely different"
CLOSE_TOKENS = ("xa", "xb", "xc", "xd", "xe")


def random_wg(rng, max_paths=200, vocab=LETTERS, max_vertices=8,
              extra_edges=6, parallel_prob=0.3):
    """Random valid word graph with a bounded number of complete paths.

    A forward backbone guarantees a complete path; extra forward edges and
    occasional parallel edges add bushiness.  Regenerates until the path
    count fits under ``max_paths``.
    """
    while True:
        n = int(rng.integers(3, max_vertices + 1))
        edges = []

        def add(u, v):
            edges.append(
                (u, v, vocab[rng.integers(0, len(vocab))],
                 float(rng.uniform(0.05, 1.0)))
            )

        for v in range(1, n):
            add(v - 1, v)
        for _ in range(int(rng.integers(0, extra_edges + 1))):
            u = int(rng.integers(0, n - 1))
            v = int(rng.integers(u + 1, n))
            add(u, v)
        if rng.random() < parallel_prob:
            k = int(rng.integers(0, len(edges)))
            u, v, lab, _ = edges[k]
            others = [t for t in vocab if t != lab]
            edges.append(
                (u, v, others[rng.integers(0, len(others))],
                 float(rng.uniform(0.05, 1.0)))
            )
        # drop edges leaving the final vertex (none by construction) and
        # entering the initial one (impossible: edges only go forward)
        try:
            wg = WordGraph(n, 0, {n - 1}, edges)
        except LatticeError:
            continue
        if 1 <= count_paths(wg) <= max_paths:
            return wg


def layered_wg(rng, widths, vocab=LETTERS):
    """Sausage-like lattice with the given per-layer branch widths."""
    edges = []
    for t, w in enumerate(widths):
        labs = list(rng.choice(vocab, size=w, replace=False))
        for lab in labs:
            edges.append((t, t + 1, lab, float(rng.uniform(0.05, 1.0))))
    return WordGraph(len(widths) + 1, 0, {len(widths)}, edges)


def random_sw_case(rng, unscored_prob=0.3):
    """Random ``(seq_i, seq_a, params)`` for local alignment and fusion.

    Alphabets of 2, 3 or 6 letters and lengths 0-9 make repeats and ties
    common; scores come from a few dyadic values so that conflicts tie
    too; zero penalties are drawn as often as negative ones.  Each side
    is unscored with probability ``unscored_prob``.
    """
    vocab = LETTERS[:int(rng.choice((2, 3, 6)))]
    params = SWParams(float(rng.choice((0.5, 1.0, 2.0))),
                      float(rng.choice((0.0, -0.5, -1.0, -2.0))),
                      float(rng.choice((0.0, -0.5, -1.0, -2.0))))
    seqs = []
    for _ in range(2):
        n = int(rng.integers(0, 10))
        labels = tuple(vocab[k] for k in rng.integers(0, len(vocab), n))
        scores = (None if rng.random() < unscored_prob else
                  tuple(float(x) for x in rng.choice((0.25, 0.5, 0.75, 1.0), n)))
        seqs.append(SymbolSequence(labels, scores))
    return seqs[0], seqs[1], params


def random_cn(rng, max_len=8, vocab=LETTERS, eps_prob=0.2):
    """Random valid confusion network (scores normalized per column)."""
    cols = []
    for _ in range(int(rng.integers(1, max_len + 1))):
        k = int(rng.integers(1, 4))
        labels = list(rng.choice(vocab, size=k, replace=False))
        if rng.random() < eps_prob:
            labels.append(EPS)
        weights = rng.dirichlet(np.ones(len(labels)))
        cols.append({lab: float(w) for lab, w in zip(labels, weights)})
    return ConfusionNetwork(cols)


def random_pg(rng, steps=20, labels=("<blk>", "a", "b", "c", "d", "e")):
    assert BLANK in labels
    rows = rng.dirichlet(np.ones(len(labels)), size=steps)
    return Posteriorgram(labels, rows)


def dominant_pg(rng, steps=10, labels=("<blk>", "a", "b", "c")):
    """Posteriorgram whose per-row argmax holds a strict majority."""
    rows = []
    for _ in range(steps):
        w = rng.dirichlet(np.ones(len(labels)) * 0.5)
        k = int(rng.integers(0, len(labels)))
        row = 0.3 * w
        row[k] += 0.7
        rows.append(row / row.sum())
    return Posteriorgram(labels, np.array(rows))


# small values a corrupted file might hold in place of a token
MUTATION_TOKENS = ("0", "1", "2", "-1", "9", "0.5", "1.5", "nan", "inf",
                   "x", "#", "END", BLANK)


def mutate_text(text, rng, max_edits=3):
    """Seeded corruption of a line-based file, split into lines as the
    parsers split it.

    Each of 1..``max_edits`` edits picks a line and deletes, duplicates or
    truncates it, or drops one of its tokens, or replaces one with a
    ``MUTATION_TOKENS`` value.
    """
    lines = _lines(text)
    for _ in range(int(rng.integers(1, max_edits + 1))):
        if not lines:
            break
        i = int(rng.integers(0, len(lines)))
        op = int(rng.integers(0, 5))
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = lines[i][: int(rng.integers(0, len(lines[i]) + 1))]
        else:
            toks = lines[i].split()
            if toks:
                j = int(rng.integers(0, len(toks)))
                if op == 3:
                    del toks[j]
                else:
                    toks[j] = MUTATION_TOKENS[
                        int(rng.integers(0, len(MUTATION_TOKENS)))]
            lines[i] = " ".join(toks)
    return "".join(line + "\n" for line in lines)
