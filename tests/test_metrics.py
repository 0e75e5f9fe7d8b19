import os
import subprocess
import sys

import numpy as np
import pytest

from latfuse import (
    EvalPair,
    SymbolSequence,
    result_line,
    ser,
    wilcoxon_signed_rank,
)
from latfuse.metrics import _average_ranks, _exact_two_sided_p
from oracles import wilcoxon_by_enumeration, wilcoxon_p_by_enumeration


def pair(hyp, ref):
    return EvalPair(SymbolSequence(tuple(hyp)), SymbolSequence(tuple(ref)))


class TestSer:
    def test_perfect(self):
        pairs = [pair(("a", "b"), ("a", "b")), pair(("c",), ("c",))]
        assert ser(pairs) == 0.0

    def test_single_pair(self):
        hyp = ("x", "x", "c", "d", "e", "f", "g", "h", "i", "j")
        ref = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
        assert ser([pair(hyp, ref)]) == 20.0

    def test_corpus_pooling_not_mean_of_rates(self):
        # (ED 1, len 5) and (ED 3, len 15): pooled 100*4/20, not (20+20)/2
        p1 = pair(("x", "b", "c", "d", "e"), ("a", "b", "c", "d", "e"))
        ref2 = tuple(f"t{i}" for i in range(15))
        hyp2 = ("x", "y", "z") + ref2[3:]
        p2 = pair(hyp2, ref2)
        assert ser([p1, p2]) == 20.0

    def test_may_exceed_100(self):
        assert ser([pair(("a", "b", "c", "d"), ("x",))]) == 400.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(61)
        toks = ("a", "b", "c")
        pairs = [
            pair(rng.choice(toks, size=rng.integers(1, 6)),
                 rng.choice(toks, size=rng.integers(1, 6)))
            for _ in range(10)
        ]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert ser(pairs) == ser(shuffled)

    def test_concatenation_pools(self):
        a = [pair(("a",), ("b",)), pair(("c", "d"), ("c", "d"))]
        b = [pair(("x", "y", "z"), ("x", "q", "z"))]
        num = 1 + 0 + 1
        den = 1 + 2 + 3
        assert ser(a + b) == pytest.approx(100.0 * num / den)

    def test_empty_reference_corpus(self):
        with pytest.raises(ValueError):
            ser([pair(("a",), ())])
        with pytest.raises(ValueError):
            ser([])


class TestWilcoxon:
    def test_all_zero_differences(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_rejected(self, bad, side):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 4.0, 6.0, 8.0]
        (a if side == "a" else b)[2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            wilcoxon_signed_rank(a, b)

    def test_positive_shift_n9(self):
        b = [float(k) for k in range(1, 10)]
        a = [x + 2.0 for x in b]
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == 0.0
        assert res.n_effective == 9
        assert res.p_value == 2.0 / 512.0
        assert res.verdict == "greater"

    def test_textbook_ten_pairs(self):
        # classic paired-sample vector with a tie in |diff|
        a = [125, 115, 130, 140, 140, 115, 140, 125, 140, 135]
        b = [110, 122, 125, 120, 140, 124, 123, 137, 135, 145]
        res = wilcoxon_signed_rank(a, b)
        w, n, p = wilcoxon_by_enumeration(a, b)
        assert res.statistic == w
        assert res.n_effective == n == 9
        assert abs(res.p_value - p) < 1e-12

    def test_exact_matches_enumeration(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.count_nonzero(a - b) < 2:
                continue
            res = wilcoxon_signed_rank(a, b)
            w, n_eff, p = wilcoxon_by_enumeration(a, b)
            assert res.statistic == w
            assert res.n_effective == n_eff
            assert abs(res.p_value - p) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n)
            if np.count_nonzero(a - b) < 2:
                continue
            fwd = wilcoxon_signed_rank(a, b)
            rev = wilcoxon_signed_rank(b, a)
            assert fwd.p_value == rev.p_value
            assert fwd.statistic == rev.statistic
            mirror = {"greater": "lower", "lower": "greater",
                      "no-difference": "no-difference"}
            assert rev.verdict == mirror[fwd.verdict]

    def test_normal_approximation_large_n(self):
        rng = np.random.default_rng(64)
        n = 60
        b = rng.normal(size=n)
        a = b + 0.8 + rng.normal(scale=0.2, size=n)
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective > 20
        assert 0.0 <= res.p_value < 0.05
        assert res.verdict == "greater"

    def test_large_n_agrees_with_scipy(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(65)
        n = 40
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.7, size=n)
        res = wilcoxon_signed_rank(a, b)
        ref = scipy_wilcoxon(
            a, b, zero_method="wilcox", correction=False, method="approx"
        )
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


class TestWilcoxonInternals:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_counting_dp_equals_enumeration_bit_for_bit(self, n):
        from scipy.stats import rankdata

        rng = np.random.default_rng(1000 + n)
        tie_free = rng.permutation(np.arange(1.0, n + 1))
        tie_heavy = rankdata(rng.integers(1, 4, size=n))
        for ranks in (tie_free, tie_heavy):
            for _ in range(2):
                w_plus = float(ranks[rng.random(n) < 0.5].sum())
                got = _exact_two_sided_p(ranks, w_plus)
                want = wilcoxon_p_by_enumeration(ranks, w_plus)
                assert type(got) is float
                assert got.hex() == float(want).hex()

    def test_average_ranks_match_scipy(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(66)
        for k in range(2000):
            n = int(rng.integers(1, 40))
            if k % 2:
                x = rng.integers(0, int(rng.integers(1, 8)), size=n) / 4.0
            else:
                x = rng.normal(size=n)
            got, want = _average_ranks(x), rankdata(x)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [12, 60])
    def test_p_value_is_a_python_float(self, n):
        rng = np.random.default_rng(67)
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert type(wilcoxon_signed_rank(a, b).p_value) is float

    def test_all_tied_normal_branch(self):
        res = wilcoxon_signed_rank([1.0] * 25, [0.0] * 25)
        assert (res.statistic, res.n_effective) == (0.0, 25)
        assert type(res.p_value) is float and res.p_value < 1e-5
        assert res.verdict == "greater"

    def test_scipy_stays_off_the_import_path(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        rng = np.random.default_rng(68)
        a.write_text("\n".join(map(str, rng.integers(0, 9, size=12))) + "\n")
        b.write_text("\n".join(map(str, rng.integers(0, 9, size=12))) + "\n")
        code = (
            "import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import latfuse\n"
            "assert not loaded(), loaded()\n"
            "import latfuse.cli as cli\n"
            "assert not loaded(), loaded()\n"
            f"assert cli.run(['wilcoxon', '--a', {str(a)!r}, '--b', {str(b)!r}]) == 0\n"
            "assert not loaded(), loaded()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("W ")

    def test_25_pairs_match_scipy(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(69)
        a = rng.integers(0, 12, size=25).astype(float)
        b = rng.integers(0, 12, size=25).astype(float)
        res = wilcoxon_signed_rank(a, b)
        ref = scipy_wilcoxon(
            a, b, zero_method="wilcox", correction=False, method="approx"
        )
        assert res.n_effective > 20
        assert res.statistic == float(ref.statistic)
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


class TestResultLine:
    def test_format(self):
        line = result_line("mbr", 3, 0.5, 12.345678901234)
        assert line == "METHOD mbr SCENARIO 3 ALPHA 0.5 SER 12.3456789012"
