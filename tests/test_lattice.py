import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from latfuse import (
    BLANK,
    EPS,
    ConfusionNetwork,
    FusionConfig,
    LatticeError,
    PathCountExceededError,
    Posteriorgram,
    SWParams,
    SymbolSequence,
    Verdict,
    Vocabulary,
    WordGraph,
    best_path,
    cn_best_path,
    cn_from_wg,
    count_paths,
    enumerate_paths,
    n_best_paths,
    path_posteriors,
    posteriorgram_to_wg,
    strip_eps,
    validate_cn,
    validate_wg,
)
from latfuse import lattice, simulate
from latgen import LETTERS, random_wg
from oracles import (
    best_path_by_enumeration, cn_by_pivot_alignment, dfs_paths,
    n_best_by_enumeration,
)


def invalid(message):
    """Expect construction to fail with ``invalid word graph: <message>``."""
    expected = re.escape(f"invalid word graph: {message}")
    return pytest.raises(LatticeError, match=f"^{expected}$")


def minimal_wg():
    return WordGraph(2, 0, {1}, [(0, 1, "a", 0.5)])


def diamond_wg():
    # parallel branches a/b, shared tail c
    return WordGraph(
        4, 0, {3}, [(0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 3, "c", 0.9)]
    )


def tie_wg():
    # not a sausage; f f a f and d e a f tie at 1/32, and f f a f has the
    # smaller vertex ids (0 1 2 6 7 against 0 3 4 6 7), so it heads the ranking
    return WordGraph(
        8, 0, {7},
        [(0, 1, "f", 0.5), (1, 2, "f", 1.0), (2, 3, "a", 0.25),
         (3, 4, "e", 0.5), (4, 5, "a", 1.0), (5, 6, "d", 0.5),
         (6, 7, "f", 0.25), (4, 6, "a", 1.0), (3, 6, "e", 0.5),
         (2, 6, "a", 0.25), (0, 3, "d", 0.25), (1, 3, "f", 0.25)],
    )


def dyadic_wg(rng):
    """random_wg with scores drawn from {0.25, 0.5, 1.0}: exact ties abound."""
    wg = random_wg(rng)
    return WordGraph(
        wg.num_vertices, wg.initial, wg.finals,
        [e._replace(score=float(rng.choice((0.25, 0.5, 1.0))))
         for e in wg.edges],
    )


class TestValidation:
    def test_minimal_legal(self):
        assert validate_wg(minimal_wg()).ok

    def test_cycle(self):
        # the reverse edge added to the minimal legal graph forms a cycle
        with invalid("acyclic"):
            WordGraph(2, 0, {1}, [(0, 1, "a", 0.5), (1, 0, "b", 0.5)])

    def test_empty_finals(self):
        with invalid("finals non-empty"):
            WordGraph(2, 0, set(), [(0, 1, "a", 0.5)])

    def test_initial_in_finals(self):
        with invalid("initial vertex is final: 0"):
            WordGraph(2, 0, {0, 1}, [(0, 1, "a", 0.5)])

    def test_edge_leaves_final(self):
        with invalid("edge leaves final vertex: E 1 2 b 0.5"):
            WordGraph(3, 0, {1}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5)])

    def test_edge_enters_initial(self):
        with invalid("edge enters initial vertex: E 1 0 b 0.5"):
            WordGraph(3, 0, {2}, [(0, 2, "a", 0.5), (1, 0, "b", 0.5)])

    def test_zero_score_rejected(self):
        with invalid("edge score outside (0, 1]: E 0 1 a 0"):
            WordGraph(2, 0, {1}, [(0, 1, "a", 0.0)])

    def test_no_complete_path(self):
        with invalid("no complete path"):
            WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])

    def test_random_generator_only_emits_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert validate_wg(random_wg(rng)).ok


BAD_SUM = "subnetwork scores do not sum to 1"
BAD_SCORE = "subnetwork score outside [0, 1]"
BAD_LABEL = "bad subnetwork label"


class TestValidateCn:
    """Each violation of ``validate_cn`` with its offender; the first one,
    in column then label order, wins.  The constructor runs the check, so
    an invalid network cannot be built: its message names the violation and
    the offender."""

    @pytest.mark.parametrize("subnetworks, violation, offender", [
        ((), "no subnetworks", None),
        (({"a": 1.0}, {}), "empty subnetwork", 1),
        (({"a": 0.5}, {}), BAD_SUM, 0),
        (({"a": 1.0}, {"": 1.0}), BAD_LABEL, (1, "")),
        (({"a b": 1.0},), BAD_LABEL, (0, "a b")),
        (({"a": 0.5, "b\tc": 0.5},), BAD_LABEL, (0, "b\tc")),
        (({"a": 0.5, "b": math.nan},), BAD_SCORE, (0, "b")),
        (({"a": 1.0}, {"b": -0.1, "c": 1.1}), BAD_SCORE, (1, "b")),
        (({"a": 1.5},), BAD_SCORE, (0, "a")),
        (({"a": math.inf},), BAD_SCORE, (0, "a")),
        (({"a": 0.5, "b": 0.4},), BAD_SUM, 0),
        (({"a": 1.0}, {"a": 0.6, "b": 0.6}), BAD_SUM, 1),
        (({"a": 0.5, "b": 0.5 + 2 * lattice.CN_SUM_TOL},), BAD_SUM, 0),
        (({"a": 0.5, "b": 0.5 - 2 * lattice.CN_SUM_TOL},), BAD_SUM, 0),
    ], ids=["no-subnetworks", "empty-subnetwork", "sum-before-empty",
            "empty-label", "space-in-label", "tab-in-label", "nan-score",
            "negative-score", "score-above-1", "inf-score", "sum-below-1",
            "sum-above-1", "sum-just-above-tolerance",
            "sum-just-below-tolerance"])
    def test_violation_and_offender(self, subnetworks, violation, offender):
        detail = "" if offender is None else f": {offender}"
        expected = re.escape(f"invalid confusion network: {violation}{detail}")
        with pytest.raises(LatticeError, match=f"^{expected}$"):
            ConfusionNetwork(subnetworks)

    @pytest.mark.parametrize("subnetworks", [
        ({"a": 1.0},),
        ({"a": 0.0, "b": 1.0}, {EPS: 1.0}),
        ({"a": 0.5, "b": 0.5 + 0.5 * lattice.CN_SUM_TOL},),
    ], ids=["one-label", "zero-score-and-eps", "sum-inside-tolerance"])
    def test_valid(self, subnetworks):
        assert validate_cn(ConfusionNetwork(subnetworks)) == Verdict(True)

    def test_replace_raises(self):
        valid = ConfusionNetwork([{"a": 1.0}])
        with pytest.raises(LatticeError, match="^invalid confusion network: "
                           "empty subnetwork: 0$"):
            dataclasses.replace(valid, subnetworks=[{}])


class TestIsSymbol:
    """``_is_symbol`` refuses a label holding any ``isspace()`` character,
    over all 0x110000 code points."""

    def test_every_whitespace_code_point(self):
        white = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(white) > 20 and "\u3000" in white
        for ch in white:
            for lab in (ch, f"a{ch}", f"{ch}a", f"a{ch}b", ch * 2):
                assert not lattice._is_symbol(lab), repr(lab)

    def test_every_other_code_point_is_a_symbol(self):
        others = [chr(c) for c in range(0x110000) if not chr(c).isspace()]
        assert all(map(lattice._is_symbol, others))
        assert lattice._is_symbol("note-C#4") and not lattice._is_symbol("")

    def test_wrong_type_raises_type_error(self):
        with pytest.raises(TypeError):
            lattice._is_symbol(5)


# every float field of the validated value types: a builder, and a value
# it accepts
FLOAT_FIELDS = {
    "WordGraph.edge-score": (
        lambda x: WordGraph(2, 0, {1}, [(0, 1, "a", x)]), 1.0),
    "ConfusionNetwork.score": (lambda x: ConfusionNetwork([{"a": x}]), 1.0),
    "ConfusionNetwork.later-score": (lambda x: ConfusionNetwork(
        [{"a": 1.0}, {"a": 0.5, "b": x}]), 0.5),
    "Posteriorgram.activation": (
        lambda x: Posteriorgram((BLANK, "a"), [[x, 0.5]]), 0.5),
    "SWParams.match_score": (lambda x: SWParams(match_score=x), 2.0),
    "SWParams.mismatch_penalty": (lambda x: SWParams(mismatch_penalty=x), -1.0),
    "SWParams.gap_penalty": (lambda x: SWParams(gap_penalty=x), -2.0),
    "FusionConfig.alpha": (lambda x: FusionConfig(alpha=x), 0.5),
    "FusionConfig.laplace_lambda": (
        lambda x: FusionConfig(laplace_lambda=x), 1.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, ok", FLOAT_FIELDS.values(), ids=FLOAT_FIELDS)
def test_non_finite_float_field_is_refused(build, ok, value):
    build(ok)
    with pytest.raises((ValueError, LatticeError)):
        build(value)


VALID_FIELDS = dict(
    num_vertices=3, initial=0, finals={2},
    edges=[(0, 1, "a", 0.5), (1, 2, "b", 0.5)],
)

# one change to VALID_FIELDS per validate_wg invariant, in its check order
VIOLATIONS = [
    ("vertex-count", dict(num_vertices=0), "vertex count: 0"),
    ("initial-range", dict(initial=5), "initial vertex out of range: 5"),
    ("finals-empty", dict(finals=set()), "finals non-empty"),
    ("final-range", dict(finals={2, 7}), "final vertex out of range: 7"),
    ("initial-final", dict(finals={0, 2}), "initial vertex is final: 0"),
    ("endpoint-range", dict(edges=[(0, 1, "a", 0.5), (1, 9, "b", 0.5)]),
     "edge endpoint out of range: E 1 9 b 0.5"),
    ("label", dict(edges=[(0, 1, "a b", 0.5), (1, 2, "b", 0.5)]),
     "edge label empty or has whitespace: E 0 1 a b 0.5"),
    ("score", dict(edges=[(0, 1, "a", 0.5), (1, 2, "b", 1.5)]),
     "edge score outside (0, 1]: E 1 2 b 1.5"),
    ("cycle", dict(edges=[(0, 1, "a", 0.5), (1, 2, "b", 0.5),
                          (1, 0, "c", 0.5)]),
     "acyclic"),
    ("enters-initial", dict(num_vertices=4, edges=[
        (0, 1, "a", 0.5), (1, 2, "b", 0.5), (3, 0, "c", 0.5)]),
     "edge enters initial vertex: E 3 0 c 0.5"),
    ("leaves-final", dict(num_vertices=4, edges=[
        (0, 1, "a", 0.5), (1, 2, "b", 0.5), (2, 3, "c", 0.5)]),
     "edge leaves final vertex: E 2 3 c 0.5"),
    ("no-path", dict(edges=[(0, 1, "a", 0.5)]), "no complete path"),
]


class TestConstruction:
    """Every invalid graph is refused where it is built, not where it is used."""

    @pytest.mark.parametrize(
        "change, message", [v[1:] for v in VIOLATIONS],
        ids=[v[0] for v in VIOLATIONS])
    def test_constructor_raises(self, change, message):
        with invalid(message):
            WordGraph(**{**VALID_FIELDS, **change})

    @pytest.mark.parametrize(
        "change, message", [v[1:] for v in VIOLATIONS],
        ids=[v[0] for v in VIOLATIONS])
    def test_replace_raises(self, change, message):
        valid = WordGraph(**VALID_FIELDS)
        with invalid(message):
            dataclasses.replace(valid, **change)

    def test_score_printed_with_twelve_digits(self):
        with invalid("edge score outside (0, 1]: E 0 1 a 1.00000000012"):
            WordGraph(2, 0, {1}, [(0, 1, "a", 1.00000000012)])
        with invalid("edge label empty or has whitespace: E 0 1 a b 1"):
            WordGraph(2, 0, {1}, [(0, 1, "a b", 1.0)])

    @pytest.mark.parametrize("score", [1.0000000000001, 1.000000000123456],
                             ids=["rounds-to-1", "rounds-to-1.00000000012"])
    def test_inexact_twelve_digit_score_printed_in_full(self, score):
        # 12 digits of the first would print "1", a score inside (0, 1]
        with invalid(f"edge score outside (0, 1]: E 0 1 a {score!r}"):
            WordGraph(2, 0, {1}, [(0, 1, "a", score)])

    def test_non_finite_score(self):
        for score, text in ((math.nan, "nan"), (math.inf, "inf")):
            with invalid(f"edge score outside (0, 1]: E 0 1 a {text}"):
                WordGraph(2, 0, {1}, [(0, 1, "a", score)])

    @pytest.mark.parametrize(
        "fields, message",
        [
            # MBR fusion would decode this graph without complaint
            ((3, 0, {1}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5)]),
             "edge leaves final vertex: E 1 2 b 0.5"),
            # the decoders would index past the vertex list (IndexError)
            ((4, 0, {3}, [(0, 1, "a", 0.5), (1, 3, "b", 0.5),
                          (1, 9, "c", 0.5)]),
             "edge endpoint out of range: E 1 9 c 0.5"),
            # best_path would take log(0) ("math domain error")
            ((2, 0, {1}, [(0, 1, "a", 0.0)]),
             "edge score outside (0, 1]: E 0 1 a 0"),
        ],
        ids=["mbr-decodes-final-edge", "index-error", "math-domain-error"],
    )
    def test_decoder_crashes_refused(self, fields, message):
        with invalid(message):
            WordGraph(*fields)


class TestVocabulary:
    def test_reserved_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", EPS))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"))

    def test_whitespace_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a b",))


class TestEnumerate:
    def test_linear(self):
        wg = WordGraph(
            4, 0, {3},
            [(0, 1, "a", 0.5), (1, 2, "b", 0.25), (2, 3, "c", 0.125)],
        )
        paths = enumerate_paths(wg, 10)
        assert len(paths) == 1
        seq, score = paths[0]
        assert seq.labels == ("a", "b", "c")
        assert score == 0.5 * 0.25 * 0.125

    def test_diamond_count(self):
        assert len(enumerate_paths(diamond_wg(), 10)) == 2

    def test_limit(self):
        with pytest.raises(PathCountExceededError):
            enumerate_paths(diamond_wg(), 1)

    def test_no_path(self):
        # a graph without a complete path never reaches enumerate_paths
        with invalid("no complete path"):
            WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])

    def test_matches_dfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            wg = random_wg(rng)
            got = enumerate_paths(wg, 200)
            want = sorted(dfs_paths(wg), key=lambda p: (p[0], p[1]))
            assert len(got) == len(want) == count_paths(wg)
            for (seq, score), (_, labels, prod) in zip(got, want):
                assert seq.labels == labels
                assert score == prod  # both multiply in path order

    def test_order_is_lexicographic(self):
        rng = np.random.default_rng(8)
        wg = random_wg(rng)
        got = enumerate_paths(wg, 200)
        keys = [
            (p[0], p[1])
            for p in sorted(dfs_paths(wg), key=lambda p: (p[0], p[1]))
        ]
        assert keys == sorted(keys)

    def test_long_chain(self):
        # one path of 1,200 edges: the walk must not recurse once per edge
        wg = WordGraph(1201, 0, {1200}, [
            (v, v + 1, "ab"[v % 2], 0.5 if v % 2 else 1.0) for v in range(1200)])
        (seq, score), = enumerate_paths(wg, 10)
        assert seq == best_path(wg)[0]
        assert score == 0.5 ** 600  # every partial product is exact


class TestCountParameters:
    """``n``, ``limit``, ``k`` and ``max_paths`` share one rule: an integer
    (a bool is not one) >= 1, each refused with its own name."""

    CALLS = {
        "n": lambda v: n_best_paths(diamond_wg(), v),
        "limit": lambda v: enumerate_paths(diamond_wg(), v),
        "k": lambda v: posteriorgram_to_wg(
            Posteriorgram((BLANK, "a"), np.array([[0.25, 0.75]])), k=v),
        "max_paths": lambda v: FusionConfig(max_paths=v),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("value, rule", [
        (float("nan"), "an integer, not nan"), (2.5, "an integer, not 2.5"),
        (True, "an integer, not True"), ("3", "an integer, not '3'"),
        (0, ">= 1"), (np.int64(-1), ">= 1"),
    ], ids=["nan", "2.5", "True", "'3'", "0", "int64(-1)"])
    def test_refused(self, name, value, rule):
        message = re.escape(f"{name} must be {rule}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.CALLS[name](value)


class TestBestPath:
    def test_single_path(self):
        seq, logscore = best_path(minimal_wg())
        assert seq.labels == ("a",)
        assert seq.scores == (0.5,)
        assert math.isclose(math.exp(logscore), 0.5)

    def test_diamond(self):
        seq, logscore = best_path(diamond_wg())
        assert seq.labels == ("a", "c")
        assert math.isclose(math.exp(logscore), 0.54, rel_tol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            wg = random_wg(rng)
            seq, logscore = best_path(wg)
            _, labels, prod = best_path_by_enumeration(wg)
            assert seq.labels == labels
            assert abs(math.exp(logscore) - prod) < 1e-9

    def test_tie_break_lexicographic(self):
        wg = WordGraph(
            4, 0, {3},
            [(0, 2, "b", 0.5), (0, 1, "a", 0.5), (1, 3, "x", 0.4),
             (2, 3, "x", 0.4)],
        )
        seq, _ = best_path(wg)
        # equal scores: vertex path (0,1,3) beats (0,2,3)
        assert seq.labels == ("a", "x")

    def test_no_path(self):
        # a graph without a complete path never reaches best_path
        with invalid("no complete path"):
            WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])

    def test_all_one_path_scores_positive_zero(self):
        # the CLI prints LOGSCORE 0 here, never -0
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 1.0), (1, 2, "b", 1.0)])
        _, logscore = best_path(wg)
        assert logscore == 0.0 and math.copysign(1.0, logscore) == 1.0


class TestNBest:
    def test_matches_sorted_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            wg = random_wg(rng)
            all_paths = sorted(
                dfs_paths(wg), key=lambda p: (-p[2], p[0], p[1])
            )
            n = int(rng.integers(1, len(all_paths) + 3))
            got = n_best_paths(wg, n)
            assert len(got) == min(n, len(all_paths))
            for (seq, logscore), (_, labels, prod) in zip(got, all_paths):
                assert seq.labels == labels
                assert abs(math.exp(logscore) - prod) < 1e-9


    def test_tie_order_matches_enumeration(self):
        # the full ranking, so that every exact tie has to come out in
        # vertex-id then label order
        rng = np.random.default_rng(11)
        for _ in range(3000):
            wg = dyadic_wg(rng)
            ranked = [
                (labels, logscore)
                for _, labels, logscore in n_best_by_enumeration(
                    wg, count_paths(wg))
            ]
            got = n_best_paths(wg, len(ranked))
            assert [(seq.labels, ls) for seq, ls in got] == ranked
            seq, logscore = best_path(wg)
            assert (seq.labels, logscore) == ranked[0]

    def test_tie_order_pinned(self):
        wg = tie_wg()
        ranked = n_best_by_enumeration(wg, count_paths(wg))
        assert ranked[0][1] == ("f", "f", "a", "f")
        got = n_best_paths(wg, 100)
        assert [(seq.labels, ls) for seq, ls in got] == [
            (labels, ls) for _, labels, ls in ranked
        ]
        assert best_path(wg) == got[0]

    def test_n_below_one(self):
        wg = diamond_wg()
        n_best_paths(wg, 1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                n_best_paths(wg, n)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, math.nan, "3"])
    def test_n_must_be_an_integer(self, n):
        wg = diamond_wg()
        with pytest.raises(ValueError, match=f"^n must be an integer, not {n!r}$"):
            n_best_paths(wg, n)
        with pytest.raises(ValueError, match="^n must be an integer, "):
            cn_from_wg(wg, n)
        assert n_best_paths(wg, np.int64(2)) == n_best_paths(wg, 2)


def all_tied_wg(rng, widths, parallel):
    """Layered graph whose every edge scores 0.5, so every path ties.

    ``widths`` counts the vertices of each inner layer; every vertex links
    to every vertex of the next layer.  Inner vertex ids are shuffled, so
    id order need not follow label order.  With ``parallel`` each vertex pair
    gets one to three edges with distinct labels.
    """
    ids = iter(1 + rng.permutation(sum(widths)))
    layers = [[0], *([int(next(ids)) for _ in range(w)] for w in widths),
              [sum(widths) + 1]]
    edges = []
    for here, there in zip(layers, layers[1:]):
        for u in here:
            for v in there:
                k = int(rng.integers(1, 4)) if parallel else 1
                edges += [(u, v, str(lab), 0.5)
                          for lab in rng.choice(LETTERS, size=k, replace=False)]
    return WordGraph(sum(widths) + 2, 0, {sum(widths) + 1}, edges)


class TestNBestTieCutoff:
    # every path ties, so the cutoff at n falls inside a tie run at every
    # vertex, for every n

    @pytest.mark.parametrize(
        "widths, parallel",
        [((1, 1, 1, 1), True),   # a sausage: only parallel edges branch
         ((2, 3, 2), False),
         ((2, 1, 3), True),
         ((3, 2, 1, 2), False)],
        ids=["sausage", "layers", "layers-parallel", "layers-wide"],
    )
    def test_every_n_matches_enumeration(self, widths, parallel):
        rng = np.random.default_rng(sum(widths) + 7 * parallel)
        wg = all_tied_wg(rng, widths, parallel)
        total = count_paths(wg)
        assert total >= 8
        ranked = [(labels, ls) for _, labels, ls
                  in n_best_by_enumeration(wg, total)]
        assert len({ls for _, ls in ranked}) == 1
        for n in range(1, total + 1):
            got = n_best_paths(wg, n)
            assert [(seq.labels, ls) for seq, ls in got] == ranked[:n]

    def test_tie_run_after_a_distinct_best(self):
        # f g (0.5) is best; a b c, d e and h i j tie at 0.25.  Vertex 7 meets
        # them in the order d e, h i j, a b c (its predecessors' topological
        # order), but a b c has the smallest vertex ids (0 1 6 7)
        wg = WordGraph(
            8, 0, {7},
            [(0, 1, "a", 0.5), (1, 6, "b", 0.5), (6, 7, "c", 1.0),
             (0, 2, "d", 0.5), (2, 7, "e", 0.5),
             (0, 3, "f", 1.0), (3, 7, "g", 0.5),
             (0, 4, "h", 0.5), (4, 5, "i", 0.5), (5, 7, "j", 1.0)],
        )
        ranked = [(labels, ls) for _, labels, ls in n_best_by_enumeration(wg, 4)]
        assert [labels for labels, _ in ranked] == [
            ("f", "g"), ("a", "b", "c"), ("d", "e"), ("h", "i", "j")]
        for n in range(1, 5):
            got = n_best_paths(wg, n)
            assert [(seq.labels, ls) for seq, ls in got] == ranked[:n]

    def test_same_label_copies_rank_by_edge_scores(self):
        # two paths share vertex ids and labels and tie bit for bit; the
        # n-best ranks them by their edge scores, while enumeration keeps
        # the depth-first order of the sorted out-edges
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 0.5), (0, 1, "a", 0.25),
                                   (1, 2, "b", 0.25), (1, 2, "b", 0.5)])
        got = n_best_paths(wg, 4)
        assert got[1][1] == got[2][1]
        assert [seq.scores for seq, _ in got] == [
            (0.5, 0.5), (0.25, 0.5), (0.5, 0.25), (0.25, 0.25)]
        assert [seq.scores for seq, _ in enumerate_paths(wg, 4)] == [
            (0.25, 0.25), (0.25, 0.5), (0.5, 0.25), (0.5, 0.5)]
        # with an exact copy, depth first is not edge-score order
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 0.5), (0, 1, "a", 0.5),
                                   (1, 2, "b", 0.25), (1, 2, "b", 0.5)])
        assert [seq.scores for seq, _ in enumerate_paths(wg, 4)] == [
            (0.5, 0.25), (0.5, 0.5), (0.5, 0.25), (0.5, 0.5)]


class TestDecodeMemo:
    def test_repeat_call_does_not_decode_again(self, monkeypatch):
        # every decode starts with one topological sort
        calls = []
        original = lattice.topological_order

        def counted(wg):
            calls.append(wg)
            return original(wg)

        wg = tie_wg()  # construction sorts once, before the counting starts
        monkeypatch.setattr(lattice, "topological_order", counted)
        first = (best_path(wg), n_best_paths(wg, 100))
        assert len(calls) == 2
        for _ in range(3):
            assert (best_path(wg), n_best_paths(wg, 100)) == first
        assert len(calls) == 2
        n_best_paths(wg, 3)
        assert len(calls) == 3

    def test_returned_list_is_fresh(self):
        wg = tie_wg()
        got = n_best_paths(wg, 5)
        expected = list(got)
        got.reverse()
        got.pop()
        assert n_best_paths(wg, 5) == expected
        assert n_best_paths(wg, 5) is not n_best_paths(wg, 5)

    def test_one_best_and_hundred_best_in_either_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            wg = random_wg(rng)
            fields = (wg.num_vertices, wg.initial, wg.finals, wg.edges)
            hundred_first = WordGraph(*fields)
            many = n_best_paths(hundred_first, 100)
            one = best_path(hundred_first)
            one_first = WordGraph(*fields)
            assert best_path(one_first) == one == many[0]
            assert n_best_paths(one_first, 100) == many

    def test_equality_hash_and_pickle(self):
        decoded = tie_wg()
        expected = (best_path(decoded), n_best_paths(decoded, 100))
        fresh = tie_wg()
        assert decoded == fresh
        assert hash(decoded) == hash(fresh)
        restored = pickle.loads(pickle.dumps(decoded))
        assert restored == fresh
        assert hash(restored) == hash(fresh)
        assert (best_path(restored), n_best_paths(restored, 100)) == expected
        assert (best_path(fresh), n_best_paths(fresh, 100)) == expected

    def test_order_and_adjacency_built_once(self):
        wg = tie_wg()
        order, adj = lattice.topological_order(wg), wg.out_edges()
        assert lattice.topological_order(wg) is order
        assert wg.out_edges() is adj
        # tuples all the way down, so a caller cannot change the memo
        assert isinstance(order, tuple)
        assert isinstance(adj, tuple) and all(type(a) is tuple for a in adj)
        assert adj == tuple(
            tuple(sorted((e for e in wg.edges if e.src == v),
                         key=lambda e: (e.dst, e.label, e.score)))
            for v in range(wg.num_vertices))
        # replace() builds a new graph with its own memo; equality and
        # hashing still see the fields only
        same = dataclasses.replace(wg)
        assert same == wg and hash(same) == hash(wg)
        assert same.out_edges() == adj and same.out_edges() is not adj
        reordered = dataclasses.replace(wg, edges=wg.edges[::-1])
        assert reordered != wg
        assert reordered.out_edges() == adj
        assert lattice.topological_order(reordered) == order

    @pytest.mark.parametrize(
        "fields, violation",
        [
            ((4, 0, {3}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5),
                          (2, 1, "c", 0.5), (2, 3, "d", 0.5)]),
             "acyclic"),
            ((3, 0, {2}, [(0, 1, "a", 0.5)]), "no complete path"),
        ],
        ids=["cycle", "no-path"],
    )
    def test_errors_raise_on_every_call(self, fields, violation):
        # nothing is cached for a graph that never gets built
        for _ in range(2):
            with invalid(violation):
                WordGraph(*fields)


class TestPosteriors:
    def test_two_paths(self):
        paths = [(SymbolSequence(("a",)), 0.6), (SymbolSequence(("b",)), 0.2)]
        assert path_posteriors(paths) == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_single(self):
        assert path_posteriors([(SymbolSequence(("a",)), 0.3)]) == [1.0]

    def test_already_normalized(self):
        paths = [(SymbolSequence((t,)), s) for t, s in
                 (("a", 0.5), ("b", 0.3), ("c", 0.2))]
        got = path_posteriors(paths)
        assert np.allclose(got, [0.5, 0.3, 0.2], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            wg = random_wg(rng)
            posts = path_posteriors(enumerate_paths(wg, 200))
            assert abs(sum(posts) - 1.0) <= 1e-9
            assert all(0.0 < p <= 1.0 for p in posts)

    def test_errors(self):
        with pytest.raises(ValueError):
            path_posteriors([])
        with pytest.raises(ValueError):
            path_posteriors([(SymbolSequence(("a",)), 0.0)])


class TestCnFromWg:
    def test_single_path(self):
        wg = WordGraph(
            6, 0, {5},
            [(i, i + 1, lab, 0.9) for i, lab in enumerate("abcde")],
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 5
        for sub, lab in zip(cn.subnetworks, "abcde"):
            assert sub == {lab: 1.0}

    def test_diamond(self):
        wg = WordGraph(
            4, 0, {3}, [(0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 3, "c", 1.0)]
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 2
        assert cn.subnetworks[0] == pytest.approx({"a": 0.6, "b": 0.4})
        assert cn.subnetworks[1] == {"c": 1.0}

    def test_unequal_lengths_open_eps_column(self):
        # paths: a b c d (0.6) and a b d (0.4); hand alignment puts the
        # short path's whole 0.4 posterior on <eps> at the "c" column
        wg = WordGraph(
            5, 0, {4},
            [(0, 1, "a", 1.0), (1, 2, "b", 1.0), (2, 3, "c", 0.6),
             (3, 4, "d", 1.0), (2, 4, "d", 0.4)],
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 4
        eps_cols = [sub for sub in cn.subnetworks if EPS in sub]
        assert len(eps_cols) == 1
        assert eps_cols[0] == pytest.approx({"c": 0.6, EPS: 0.4})

    def test_sum_to_one_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cn = cn_from_wg(random_wg(rng))
            verdict = validate_cn(cn)
            assert verdict.ok, verdict

    def test_single_path_roundtrip_to_best(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            wg = random_wg(rng, max_paths=1)
            assert count_paths(wg) == 1
            assert cn_best_path(cn_from_wg(wg)).labels == best_path(wg)[0].labels


class TestCnFromWgExact:
    """``cn_from_wg`` against the literal construction, to the last bit.

    Report digests pin SERs and ``write_cn`` rounds scores to 12 digits, so
    neither would notice a change in the order a column sums its posteriors
    or a label first enters a column.
    """

    @staticmethod
    def items(cn):
        return [list(sub.items()) for sub in cn.subnetworks]

    def test_random_graphs(self):
        rng = np.random.default_rng(23)
        mixed = widened = 0
        for _ in range(500):
            # two or three letters, so equal-cost alignments are common
            letters = LETTERS[: int(rng.integers(2, 4))]
            wg = random_wg(rng, vocab=letters, max_vertices=10)
            m = int(rng.integers(1, 40))
            got = self.items(cn_from_wg(wg, m))
            assert got == cn_by_pivot_alignment(wg, m)
            lengths = {len(seq) for seq, _ in n_best_paths(wg, m)}
            mixed += len(lengths) > 1
            widened += len(got) > len(best_path(wg)[0])
        # rows of other lengths take the row DP, and open insertion columns
        assert mixed > 100 and widened > 100

    def test_grid_sausages(self):
        spec = simulate.grid_specs(trials=1, seed=7)[0]
        tokens = simulate.default_vocabulary(spec.vocab_size).tokens
        rng = np.random.default_rng(29)
        # about the calibrated Low, Medium and High rates at seed 7
        for rate in (0.074, 0.178, 0.282):
            for n in (12, 20, 28):
                truth = SymbolSequence(
                    tuple(tokens[j] for j in rng.integers(0, len(tokens), n)))
                for wg in simulate.generate_wg_pair(truth, rate, rate, spec, rng):
                    got = self.items(cn_from_wg(wg))
                    assert got == cn_by_pivot_alignment(wg, lattice.MAX_PATHS)


class TestCnBestPath:
    def test_simple(self):
        cn = ConfusionNetwork([{"a": 0.7, "b": 0.3}])
        seq = cn_best_path(cn)
        assert seq.labels == ("a",)
        assert seq.scores == (0.7,)

    def test_all_eps(self):
        cn = ConfusionNetwork([{EPS: 0.6, "a": 0.4}, {EPS: 1.0}])
        assert cn_best_path(cn).labels == (EPS, EPS)

    def test_tie_prefers_smallest_label(self):
        cn = ConfusionNetwork([{"b": 0.5, "a": 0.5}])
        assert cn_best_path(cn).labels == ("a",)

    def test_empty(self):
        # cn_best_path never meets an empty network: none can be built
        with pytest.raises(LatticeError, match="^invalid confusion network: "
                           "no subnetworks$"):
            ConfusionNetwork(())

    def test_matches_argmax_oracle(self):
        from latgen import random_cn
        from oracles import column_argmax

        rng = np.random.default_rng(15)
        for _ in range(20):
            cn = random_cn(rng)
            assert cn_best_path(cn).labels == column_argmax(cn)


class TestRankKey:
    def test_one_order_for_every_distribution(self):
        # exact dyadic ties: the smaller label first in the CN best path,
        # the CN file and a posteriorgram row alike
        from latfuse.ctc import _ranked
        from latfuse.formats import write_cn

        sub = {"c": 0.125, "d": 0.375, "b": 0.375, "a": 0.125}
        assert sorted(sub, key=lattice._rank_key(sub)) == ["b", "d", "a", "c"]
        assert cn_best_path(ConfusionNetwork([sub])).labels == ("b",)
        assert write_cn(ConfusionNetwork([sub])).split("\n")[2:6] == [
            "A b 0.375", "A d 0.375", "A a 0.125", "A c 0.125"]
        pg = Posteriorgram((BLANK, *sub), np.array([[0.0, *sub.values()]]))
        assert _ranked(pg, pg.rows[0])[0] == ["b", "d", "a", "c", BLANK]


class TestStripEps:
    FIG_SEQ = (
        EPS, "clef-G2", "keySignature-GM", "timeSignature-3/4",
        "note-B4_eighth.", "gracenote-B4_sixteenth", EPS,
    )

    def test_strips_boundary_eps(self):
        got = strip_eps(SymbolSequence(self.FIG_SEQ))
        assert got.labels == self.FIG_SEQ[1:-1]

    def test_identity_without_eps(self):
        seq = SymbolSequence(("a", "b"), (0.5, 0.6))
        assert strip_eps(seq) is seq

    def test_all_eps(self):
        assert strip_eps(SymbolSequence((EPS, EPS))).labels == ()

    def test_idempotent(self):
        seq = SymbolSequence(self.FIG_SEQ)
        once = strip_eps(seq)
        assert strip_eps(once) == once

    def test_scores_follow_labels(self):
        seq = SymbolSequence((EPS, "a", EPS, "b"), (0.1, 0.2, 0.3, 0.4))
        got = strip_eps(seq)
        assert got.labels == ("a", "b")
        assert got.scores == (0.2, 0.4)
