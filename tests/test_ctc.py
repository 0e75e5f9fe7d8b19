import numpy as np
import pytest

from latfuse import (
    BLANK,
    Posteriorgram,
    SymbolSequence,
    best_path,
    collapse_map,
    count_paths,
    greedy_decode,
    posteriorgram_to_wg,
    validate_wg,
)
from latgen import dominant_pg, random_pg


def pg_from_argmaxes(labels, picks, top=0.7):
    """Rows whose argmax is the requested label, rest spread evenly."""
    rows = []
    for pick in picks:
        row = np.full(len(labels), (1.0 - top) / (len(labels) - 1))
        row[labels.index(pick)] = top
        rows.append(row)
    return Posteriorgram(tuple(labels), np.array(rows))


class TestCollapse:
    @pytest.mark.parametrize(
        "raw, want",
        [
            (("a", "a", "b", "b", BLANK, "b"), ("a", "b", "b")),
            ((), ()),
            ((BLANK, BLANK), ()),
            (("a", "a", BLANK, "a", "b"), ("a", "a", "b")),
        ],
    )
    def test_cases(self, raw, want):
        assert collapse_map(SymbolSequence(raw)).labels == want


class TestGreedy:
    def test_blank_separates_repeats(self):
        pg = pg_from_argmaxes([BLANK, "a", "b"], ["a", "a", BLANK, "a", "b"])
        assert greedy_decode(pg).labels == ("a", "a", "b")

    def test_all_blank(self):
        pg = pg_from_argmaxes([BLANK, "a"], [BLANK, BLANK, BLANK])
        assert greedy_decode(pg).labels == ()

    def test_empty_posteriorgram(self):
        pg = Posteriorgram((BLANK, "a"), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            greedy_decode(pg)

    def test_argmax_tie_prefers_smallest_label(self):
        pg = Posteriorgram((BLANK, "b", "a"), np.array([[0.2, 0.4, 0.4]]))
        assert greedy_decode(pg).labels == ("a",)

    def test_matches_two_line_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            pg = random_pg(rng, steps=20)
            # independent oracle: lexicographic argmax per row, then collapse
            frames = []
            for row in pg.rows:
                best = row.max()
                frames.append(min(pg.labels[i] for i in np.flatnonzero(row == best)))
            merged = [l for i, l in enumerate(frames) if i == 0 or frames[i - 1] != l]
            want = tuple(l for l in merged if l != BLANK)
            assert greedy_decode(pg).labels == want

    def test_decomposition_and_length_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pg = random_pg(rng, steps=int(rng.integers(1, 25)))
            frames = []
            for row in pg.rows:
                best = row.max()
                frames.append(min(pg.labels[i] for i in np.flatnonzero(row == best)))
            assert greedy_decode(pg) == collapse_map(SymbolSequence(frames))
            assert len(greedy_decode(pg)) <= pg.num_steps


class TestPosteriorgramType:
    def test_requires_blank(self):
        with pytest.raises(ValueError):
            Posteriorgram(("a", "b"), np.array([[0.5, 0.5]]))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Posteriorgram((BLANK, "a"), np.array([[0.6, 0.5]]))

    def test_no_negative_entries(self):
        with pytest.raises(ValueError):
            Posteriorgram((BLANK, "a"), np.array([[1.2, -0.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        rows = np.array([[0.5, 0.5], [bad, bad], [1.0, 0.0]])
        with pytest.raises(ValueError, match="row 1 has a non-finite"):
            Posteriorgram((BLANK, "a"), rows)


class TestSausageBuilder:
    def test_k1_linear(self):
        pg = pg_from_argmaxes([BLANK, "a", "b"], ["a", BLANK, "b"])
        wg = posteriorgram_to_wg(pg, k=1, prob_floor=0.01)
        assert validate_wg(wg).ok
        assert count_paths(wg) == 1
        seq, _ = best_path(wg)
        assert seq.labels == ("a", BLANK, "b")

    def test_full_width_path_count(self):
        rng = np.random.default_rng(23)
        pg = random_pg(rng, steps=5)
        floor = 1e-9
        wg = posteriorgram_to_wg(pg, k=len(pg.labels), prob_floor=floor)
        per_row = [(row >= floor).sum() for row in pg.rows]
        assert count_paths(wg) == int(np.prod(per_row))

    def test_best_path_equals_argmax_when_dominant(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            pg = dominant_pg(rng, steps=int(rng.integers(2, 12)))
            wg = posteriorgram_to_wg(pg, k=3, prob_floor=0.01)
            seq, _ = best_path(wg)
            argmaxes = tuple(
                pg.labels[int(np.argmax(row))] for row in pg.rows
            )
            assert seq.labels == argmaxes

    def test_ties_keep_the_smallest_labels_first(self):
        # dyadic rows, so each tie is exact; k is smaller than every tie
        labels = (BLANK, "d", "b", "c", "a")
        rows = np.array([
            [0.0625, 0.234375, 0.234375, 0.234375, 0.234375],  # a, b, c, d
            [0.25, 0.25, 0.25, 0.25, 0.0],  # <blk>, b, c, d
            [0.0, 0.125, 0.375, 0.125, 0.375],  # a, b; then c, d
            [0.5, 0.0, 0.0, 0.0, 0.5],  # <blk>, a
            [0.0, 0.25, 0.25, 0.25, 0.25],
        ])
        pg = Posteriorgram(labels, rows)
        wg = posteriorgram_to_wg(pg, k=2, prob_floor=0.01)
        steps = [[e.label for e in wg.edges if e.src == t] for t in range(5)]
        assert steps == [["a", "b"], [BLANK, "b"], ["a", "b"], [BLANK, "a"],
                         ["a", "b"]]
        tops = [labs[0] for labs in steps]
        assert greedy_decode(pg) == collapse_map(SymbolSequence(tuple(tops)))
        for row, top in zip(rows, tops):  # one step: its frame label, collapsed
            one = greedy_decode(Posteriorgram(labels, row[None, :]))
            assert one.labels == (() if top == BLANK else (top,))

    def test_always_valid(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            pg = random_pg(rng, steps=int(rng.integers(1, 15)))
            k = int(rng.integers(1, len(pg.labels) + 1))
            wg = posteriorgram_to_wg(pg, k=k, prob_floor=0.05)
            assert validate_wg(wg).ok

    def test_floor_keeps_argmax(self):
        pg = Posteriorgram((BLANK, "a"), np.array([[0.55, 0.45]]))
        wg = posteriorgram_to_wg(pg, k=2, prob_floor=0.6)
        assert [e.label for e in wg.edges] == [BLANK]

    def test_bad_args(self):
        pg = pg_from_argmaxes([BLANK, "a"], ["a"])
        with pytest.raises(ValueError):
            posteriorgram_to_wg(pg, k=0)
        with pytest.raises(ValueError):
            posteriorgram_to_wg(pg, k=1, prob_floor=0.0)
