import contextlib
import errno
import gc
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from latfuse.cli import build_parser, run
from latfuse.formats import write_pg, write_wg
from latfuse.lattice import WordGraph
from latgen import mutate_text, random_pg, random_wg


@pytest.fixture
def single_path_file(tmp_path):
    def make(labels, name="wg", score=0.5, fname=None):
        n = len(labels)
        wg = WordGraph(
            n + 1, 0, {n},
            [(i, i + 1, lab, score) for i, lab in enumerate(labels)],
        )
        path = tmp_path / (fname or f"{name}.wg")
        path.write_text(write_wg(wg, name=name))
        return path

    return make


# the commands that take a numeric flag, when not just ``fuse``
FLAG_COMMANDS = {"--max-paths": ("fuse", "wg-to-cn"), "--trials": ("simulate",),
                 "--alpha-step": ("simulate",), "--seed": ("simulate",)}


class TestFuseCommand:
    def test_identical_single_paths(self, single_path_file, capsys):
        img = single_path_file(("a", "b", "c"), fname="img.wg")
        aud = single_path_file(("a", "b", "c"), fname="aud.wg")
        code = run(["fuse", "--method", "mbr", "--alpha", "0.5",
                    "--image", str(img), "--audio", str(aud)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "a b c"

    def test_all_methods_run(self, single_path_file, capsys):
        img = single_path_file(("a", "b"), fname="i.wg")
        aud = single_path_file(("a", "c"), fname="a.wg")
        for method in ("mbr", "lightly-ia", "lightly-ai", "global", "local"):
            code = run(["fuse", "--method", method,
                        "--image", str(img), "--audio", str(aud)])
            assert code == 0
            assert capsys.readouterr().out.strip()

    def test_alpha_one_is_usage_error(self, single_path_file):
        img = single_path_file(("a",), fname="x.wg")
        code = run(["fuse", "--method", "mbr", "--alpha", "1.0",
                    "--image", str(img), "--audio", str(img)])
        assert code == 1

    def test_unknown_flag_is_usage_error(self, single_path_file):
        img = single_path_file(("a",), fname="y.wg")
        code = run(["fuse", "--method", "mbr", "--image", str(img),
                    "--audio", str(img), "--frobnicate", "3"])
        assert code == 1

    def test_sw_flags(self, single_path_file, capsys):
        img = single_path_file(("a", "b", "d"), fname="swi.wg")
        aud = single_path_file(("a", "b", "c", "d"), fname="swa.wg")
        code = run(["fuse", "--method", "local", "--sw-match", "2",
                    "--sw-mismatch", "-1", "--sw-gap", "-2",
                    "--image", str(img), "--audio", str(aud)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "a b c d"


    def test_nan_sw_params_exit_1(self, single_path_file, capsys):
        img = single_path_file(("a", "b"), fname="ni.wg")
        aud = single_path_file(("a", "c"), fname="na.wg")
        code = run(["fuse", "--method", "local", "--sw-match", "nan",
                    "--sw-gap", "nan", "--image", str(img), "--audio", str(aud)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "latfuse fuse: error: argument --sw-match: value must be finite\n")

    def test_overflowing_lambda_exit_3(self, single_path_file, capsys):
        # the <eps> pair of a completely different column has 2 labels, and
        # 1 + 1e308 * 2 is inf; this used to end in a ZeroDivisionError
        img = single_path_file(("a", "b"), fname="li.wg")
        aud = single_path_file(("a", "c"), fname="la.wg")
        code = run(["fuse", "--method", "global", "--lambda", "1e308",
                    "--image", str(img), "--audio", str(aud)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "latfuse: lam 1e+308 times 2 labels overflows\n"
        # a finite denominator merges: each column is flat, and its exact
        # tie goes to "<eps>", the smallest label
        assert run(["fuse", "--method", "global", "--lambda", "1e307",
                    "--image", str(img), "--audio", str(aud)]) == 0
        assert capsys.readouterr().out == "a\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "nan", "value must be finite"),
        ("--lambda", "inf", "value must be finite"),
        ("--sw-match", "inf", "value must be finite"),
        ("--sw-match", "-inf", "value must be finite"),
        ("--sw-mismatch", "nan", "penalty must be finite"),
        ("--sw-gap", "-inf", "penalty must be finite"),
        # one unparsable and one out-of-range value per numeric flag
        ("--alpha", "x", "bad alpha 'x'"),
        ("--alpha", "1.0", "alpha must lie strictly inside (0, 1)"),
        ("--alpha", "nan", "alpha must lie strictly inside (0, 1)"),
        ("--lambda", "x", "bad value 'x'"),
        ("--lambda", "0", "value must be > 0"),
        ("--sw-match", "x", "bad value 'x'"),
        ("--sw-match", "-1", "value must be > 0"),
        ("--sw-mismatch", "x", "bad value 'x'"),
        ("--sw-mismatch", "0.5", "penalty must be <= 0"),
        ("--sw-gap", "x", "bad value 'x'"),
        ("--sw-gap", "1", "penalty must be <= 0"),
        ("--max-paths", "2.5", "bad value '2.5'"),
        ("--max-paths", "0", "value must be > 0"),
        ("--trials", "x", "bad value 'x'"),
        ("--trials", "0", "value must be > 0"),
        ("--alpha-step", "x", "bad alpha 'x'"),
        ("--alpha-step", "0", "alpha must lie strictly inside (0, 1)"),
        ("--seed", "x", "bad value 'x'"),
        ("--seed", "-1", "value must be >= 0"),
    ])
    def test_non_finite_value_exit_1(self, single_path_file, tmp_path, capsys,
                                     flag, value, message):
        img = str(single_path_file(("a",), fname="f.wg"))
        out = tmp_path / "out"
        base = {"fuse": ["--method", "local", "--image", img, "--audio", img],
                "wg-to-cn": ["--wg", img],
                "simulate": ["--grid", "--trials", "1", "--seed", "0",
                             "--out", str(out)]}
        for command in FLAG_COMMANDS.get(flag, ("fuse",)):
            code = run([command, f"{flag}={value}", *base[command]])
            assert code == 1
            assert capsys.readouterr().err == (
                f"latfuse {command}: error: argument {flag}: {message}\n")
        assert not out.exists()  # simulate fails before it makes --out


class TestDecodeCommands:
    def test_decode_greedy(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        pg = random_pg(rng, steps=8)
        path = tmp_path / "p.pg"
        path.write_text(write_pg(pg))
        assert run(["decode-greedy", "--pg", str(path)]) == 0
        from latfuse import greedy_decode

        assert capsys.readouterr().out.strip() == greedy_decode(pg).to_text()

    def test_wg_best_path(self, single_path_file, capsys):
        wg = single_path_file(("a", "b"), score=0.5, fname="bp.wg")
        assert run(["wg-best-path", "--wg", str(wg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "a b"
        assert out[1].startswith("LOGSCORE ")
        assert float(out[1].split()[1]) == pytest.approx(np.log(0.25), rel=1e-9)

    def test_wg_to_cn(self, tmp_path, capsys):
        rng = np.random.default_rng(82)
        wg = random_wg(rng)
        path = tmp_path / "r.wg"
        path.write_text(write_wg(wg))
        assert run(["wg-to-cn", "--wg", str(path), "--max-paths", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CN ")
        from latfuse.formats import parse_cns

        (_, cn), = parse_cns(out)
        assert len(cn) >= 1


class TestEvalSer:
    def test_perfect(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b c\nd\n")
        ref.write_text("a b c\nd\n")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "SER 0.00"

    def test_value(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a x c d e\n")
        ref.write_text("a b c d e\n")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "SER 20.00"

    def test_crlf_and_lone_cr_end_a_line(self, tmp_path, capsys):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_bytes(b"a b c\r\nd\r\n")
        ref.write_bytes(b"a b c\rd\r")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out == "SER 0.00\n"

    def test_length_mismatch_domain_error(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\nb\n")
        ref.write_text("a\n")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 3

    def test_empty_reference_corpus(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\n")
        ref.write_text("\n")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 3


class TestErrorPaths:
    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wg"
        bad.write_text("WG x\nV 2\nI 0\nF 1\nE 0 1 a oops\nEND\n")
        assert run(["wg-best-path", "--wg", str(bad)]) == 2
        assert ":5:" in capsys.readouterr().err

    def test_tokens_after_end_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wg"
        bad.write_text("WG x\nV 2\nI 0\nF 1\nE 0 1 a 1\nEND junk\n")
        assert run(["wg-best-path", "--wg", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latfuse: {bad}:6: expected: END\n"

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["wg-best-path", "--wg", str(tmp_path / "nope.wg")]) == 2

    @pytest.mark.parametrize("head, line", [
        (b"", 1),
        (b"WG x\nV 2\n", 3),
        (b"WG x\r\nV 2\r\nI 0\r", 4),  # CRLF and a lone CR each end a line
        (b"WG \xc3\xa9\n# caf\xc3", 2),  # a sequence cut short
        (b"WG x\n# a\x0cb\xc2\x85c\n", 3),  # FF and NEL end no line
    ])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, head, line):
        bad = tmp_path / "bad.wg"
        bad.write_bytes(head + b"\xff rest\nEND\n")
        for argv in (["wg-best-path", "--wg", str(bad)],
                     ["eval-ser", "--hyp", str(bad), "--ref", str(bad)]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"latfuse: {bad}:{line}: not valid UTF-8\n"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        text = write_wg(WordGraph(3, 0, {2}, [
            (0, 1, "a", 0.5), (0, 1, "b", 0.25), (1, 2, "c", 1.0)]), name="x")
        plain, bom = tmp_path / "plain.wg", tmp_path / "bom.wg"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run(["wg-best-path", "--wg", str(plain)]) == 0
        expected = capsys.readouterr()
        assert run(["wg-best-path", "--wg", str(bom)]) == 0
        assert capsys.readouterr() == expected
        assert expected.out.startswith("a c\n")

    def test_form_feed_in_a_comment_ends_no_line(self, tmp_path, capsys):
        good = tmp_path / "ff.wg"
        good.write_bytes(b"WG x\nV 2\nI 0\nF 1\n# tempo\x0cnote\nE 0 1 a 1\nEND\n")
        assert run(["wg-best-path", "--wg", str(good)]) == 0
        assert capsys.readouterr().out == "a\nLOGSCORE 0\n"
        good.write_bytes(b"WG x\nV 2\nI 0\nF 1\n# tempo\x0cnote\nE 0 1 a 2\nEND\n")
        assert run(["wg-best-path", "--wg", str(good)]) == 2
        assert capsys.readouterr().err == (
            f"latfuse: {good}:6: score '2' outside (0, 1]\n")

    def test_byte_order_mark_in_a_reference_file(self, tmp_path, capsys):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_bytes(b"a b\n")
        ref.write_bytes(b"\xef\xbb\xbfa b\n")
        assert run(["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out == "SER 0.00\n"

    def test_bad_byte_after_a_byte_order_mark(self, tmp_path, capsys):
        bad = tmp_path / "bad.wg"
        bad.write_bytes(b"\xef\xbb\xbfWG x\nV 2\nI \xff0\nEND\n")
        assert run(["wg-best-path", "--wg", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latfuse: {bad}:3: not valid UTF-8\n"

    def test_no_complete_path_exit_2(self, tmp_path, capsys):
        dead = tmp_path / "dead.wg"
        dead.write_text("WG x\nV 3\nI 0\nF 2\nE 0 1 a 0.5\nEND\n")
        assert run(["wg-best-path", "--wg", str(dead)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"latfuse: {dead}:1: invalid word graph: no complete path\n")

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("E 0 1 a 0.5\nE 1 2 b 0.5\nE 0 9 c 0.5\n", ":1: invalid word "
             "graph: edge endpoint out of range: E 0 9 c 0.5"),
            # a zero score is refused at its own E line, like any bad score
            ("E 0 1 a 0\nE 1 2 b 0.5\n", ":5: score '0' outside (0, 1]"),
            ("E 0 1 a 0.5\nE 1 2 b 1.5\n", ":6: score '1.5' outside (0, 1]"),
            ("E 0 1 a 0.5\nE 1 2 b 0.5\nE 2 3 c 0.5\n", ":1: invalid word "
             "graph: edge leaves final vertex: E 2 3 c 0.5"),
        ],
        ids=["vertex-out-of-range", "zero-score", "score-above-one",
             "edge-leaves-final"],
    )
    def test_invalid_word_graph_exit_2(self, tmp_path, capsys, edges, message):
        bad = tmp_path / "bad.wg"
        bad.write_text(f"WG x\nV 4\nI 0\nF 2\n{edges}END\n")
        for argv in (["wg-best-path", "--wg", str(bad)],
                     ["fuse", "--method", "mbr", "--image", str(bad),
                      "--audio", str(bad)]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"latfuse: {bad}{message}\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", ":2: record 'p' missing LABELS line"),
            ("LABELS <blk> a\nROW 1 0\nROW nan nan\n",
             ":1: row 1 has a non-finite activation"),
        ],
        ids=["missing-labels", "nan-row"],
    )
    def test_bad_posteriorgram_exit_2(self, tmp_path, capsys, body, message):
        bad = tmp_path / "p.pg"
        bad.write_text(f"PG p\n{body}END\n")
        assert run(["decode-greedy", "--pg", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latfuse: {bad}{message}\n"

    def test_no_command_exit_1(self):
        assert run([]) == 1

    def test_mutated_files_never_escape(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        path = tmp_path / "m.txt"
        codes = set()
        for i in range(200):
            if i % 2:
                argv = ["decode-greedy", "--pg", str(path)]
                text = write_pg(random_pg(rng, steps=3))
            else:
                argv = ["wg-best-path", "--wg", str(path)]
                text = write_wg(random_wg(rng))
            path.write_text(mutate_text(text, rng))
            code = run(argv)
            assert code in (0, 2, 3)
            codes.add(code)
            assert "Traceback" not in capsys.readouterr().err
        # exit 3 came only from invalid word graphs, which are now exit 2
        assert codes == {0, 2}


class TestWilcoxonCommand:
    def test_output(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("".join(f"{x + 1}\n" for x in range(9)))
        b.write_text("".join(f"{x}\n" for x in range(9)))
        assert run(["wilcoxon", "--a", str(a), "--b", str(b)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "W 0 N 9 P 0.00390625 VERDICT greater"

    def test_all_equal_exit_3(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1\n2\n3\n")
        assert run(["wilcoxon", "--a", str(a), "--b", str(a)]) == 3

    def test_bad_number_exit_2(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\nbanana\n")
        b.write_text("1\n2\n")
        assert run(["wilcoxon", "--a", str(a), "--b", str(b)]) == 2

    def test_nan_value_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n2\nnan\n4\n")
        b.write_text("2\n3\n4\n5\n")
        assert run(["wilcoxon", "--a", str(a), "--b", str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latfuse: {a}:3: bad number 'nan'\n"


class TestSimulateCommand:
    def test_tiny_grid_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run(["simulate", "--grid", "--trials", "1", "--seed", "5",
                    "--alpha-step", "0.5", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"scenario_{i}.txt" for i in range(1, 10)] + ["summary.txt"]
        body = (out / "scenario_1.txt").read_text()
        assert "METHOD mbr SCENARIO 1 ALPHA 0.5" in body

    def test_grid_flag_required(self):
        assert run(["simulate", "--trials", "1", "--seed", "5"]) == 1

    def test_alpha_step_not_dividing_one(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run(["simulate", "--grid", "--trials", "1", "--seed", "5",
                    "--alpha-step", "0.7", "--out", str(out)])
        assert code == 0
        body = (out / "scenario_1.txt").read_text()
        assert "METHOD mbr SCENARIO 1 ALPHA 0.7" in body
        assert "BEST mbr SCENARIO 1 ALPHA 0.7 " in body

    def test_unusable_out_dir_fails_before_the_grid(self, tmp_path, capsys,
                                                    monkeypatch):
        import latfuse.cli as cli

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_scenario_grid", no_grid)
        blocker = tmp_path / "somefile"
        blocker.write_text("")
        out = blocker / "x"
        code = run(["simulate", "--grid", "--trials", "1", "--seed", "5",
                    "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"latfuse: {out}:0: cannot write reports: Not a directory\n")

    def test_failed_report_write_exit_2(self, tmp_path, capsys, monkeypatch):
        import latfuse.cli as cli

        def no_space(reports, out_dir):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "run_scenario_grid", lambda *a, **kw: [])
        monkeypatch.setattr(cli, "write_grid_reports", no_space)
        out = tmp_path / "reports"
        code = run(["simulate", "--grid", "--trials", "1", "--seed", "5",
                    "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"latfuse: {out}:0: cannot write reports: "
            f"{os.strerror(errno.ENOSPC)}\n")


class TestParserReuse:
    @pytest.fixture
    def ser_files(self, tmp_path):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("a x c d e\n")
        ref.write_text("a b c d e\n")
        return ["eval-ser", "--hyp", str(hyp), "--ref", str(ref)]

    def test_a_call_leaves_no_cyclic_garbage(self, ser_files, capsys):
        assert run(ser_files) == 0  # warm-up
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert run(ser_files) == 0
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert capsys.readouterr().out == "SER 20.00\nSER 20.00\n"

    def test_usage_error_then_valid_call(self, ser_files, capsys):
        assert run(ser_files + ["--frobnicate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "latfuse: error: unrecognized arguments: --frobnicate\n")
        assert run(ser_files) == 0
        assert capsys.readouterr() == ("SER 20.00\n", "")

    def test_output_goes_to_the_current_streams(self):
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                assert run(["--help"]) == 0
                assert run(["fuse"]) == 1
            assert out.getvalue().startswith("usage: latfuse ")
            assert "the following arguments are required" in err.getvalue()


def _readme_synopsis():
    """Subcommand -> set of --flags in the README "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    flags = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("latfuse "):
            cmd = line.split()[1]
            flags[cmd] = set()
        if line.strip():
            flags[cmd] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_synopsis_lists_every_flag():
    sub = next(a for a in build_parser()._actions if a.choices)
    parsers = {
        cmd: {opt for a in p._actions for opt in a.option_strings
              if opt not in ("-h", "--help")}
        for cmd, p in sub.choices.items()
    }
    assert _readme_synopsis() == parsers
