import numpy as np
import pytest

from latfuse import BLANK, FormatError, SymbolSequence
from latfuse.formats import (
    _lines,
    format_score,
    parse_cns,
    parse_pgs,
    parse_single,
    parse_word_graphs,
    read_transcriptions,
    read_values,
    write_cn,
    write_pg,
    write_transcriptions,
    write_wg,
)
from latgen import mutate_text, random_cn, random_pg, random_wg


class TestScoreFormatting:
    def test_twelve_significant_digits(self):
        assert format_score(0.123456789012345) == "0.123456789012"
        assert format_score(1.0) == "1"

    def test_print_parse_print_is_stable(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            x = float(rng.uniform(1e-8, 1.0))
            once = format_score(x)
            assert format_score(float(once)) == once


class TestWgFormat:
    def test_roundtrip_bytes(self):
        rng = np.random.default_rng(72)
        for _ in range(25):
            wg = random_wg(rng)
            text = write_wg(wg, name="g")
            (name, parsed), = parse_word_graphs(text)
            assert name == "g"
            assert write_wg(parsed, name="g") == text
            assert parsed.num_vertices == wg.num_vertices
            assert parsed.finals == wg.finals
            assert [e.label for e in parsed.edges] == [e.label for e in wg.edges]

    def test_parse_with_comments_and_blanks(self):
        text = """
# a diamond
WG d
V 4
I 0
F 3

E 0 1 a 0.6
E 0 1 b 0.4
E 1 3 c 0.9
END
"""
        (_, wg), = parse_word_graphs(text)
        assert wg.num_vertices == 4
        assert len(wg.edges) == 3

    def test_multiple_records(self):
        rng = np.random.default_rng(73)
        a, b = random_wg(rng), random_wg(rng)
        text = write_wg(a, "first") + write_wg(b, "second")
        records = parse_word_graphs(text)
        assert [n for n, _ in records] == ["first", "second"]

    def test_error_names_line(self):
        text = "WG x\nV 3\nI 0\nF 2\nE 0 1 a nope\nEND\n"
        with pytest.raises(FormatError) as err:
            parse_word_graphs(text, source="bad.wg")
        assert err.value.line_no == 5
        assert "bad.wg" in str(err.value)

    def test_missing_end(self):
        with pytest.raises(FormatError):
            parse_word_graphs("WG x\nV 2\nI 0\nF 1\n")

    def test_missing_required_line(self):
        with pytest.raises(FormatError):
            parse_word_graphs("WG x\nV 2\nF 1\nEND\n")

    def test_score_out_of_range(self):
        with pytest.raises(FormatError):
            parse_word_graphs("WG x\nV 2\nI 0\nF 1\nE 0 1 a 1.5\nEND\n")

    def test_invalid_graph_reported_at_head_line(self):
        rng = np.random.default_rng(76)
        text = (write_wg(random_wg(rng), "ok") + "\n# dangling edge\n"
                "WG bad\nV 3\nI 0\nF 1\nE 0 1 a 0.5\nE 1 2 b 0.5\nEND\n")
        head = text.splitlines().index("WG bad") + 1
        with pytest.raises(FormatError) as err:
            parse_word_graphs(text, source="f.wg")
        assert err.value.line_no == head
        assert str(err.value) == (f"f.wg:{head}: invalid word graph: "
                                  "edge leaves final vertex: E 1 2 b 0.5")

    def test_parse_single_rejects_multi(self):
        rng = np.random.default_rng(74)
        text = write_wg(random_wg(rng)) * 2
        with pytest.raises(FormatError):
            parse_single(parse_word_graphs(text), "WG", "two.wg")


class TestCnFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            cn = random_cn(rng)
            text = write_cn(cn, name="c")
            (_, parsed), = parse_cns(text)
            assert write_cn(parsed, name="c") == text
            assert len(parsed) == len(cn)
            for sa, sb in zip(parsed.subnetworks, cn.subnetworks):
                assert set(sa) == set(sb)

    def test_example_text(self):
        text = "CN c\nS\nA a 0.7\nA b 0.3\nS\nA c 1\nEND\n"
        (_, cn), = parse_cns(text)
        assert cn.subnetworks[0] == {"a": 0.7, "b": 0.3}
        assert cn.subnetworks[1] == {"c": 1.0}

    def test_add_outside_subnetwork(self):
        with pytest.raises(FormatError) as err:
            parse_cns("CN c\nA a 1.0\nEND\n")
        assert err.value.line_no == 2

    def test_duplicate_label(self):
        with pytest.raises(FormatError):
            parse_cns("CN c\nS\nA a 0.5\nA a 0.5\nEND\n")

    @pytest.mark.parametrize("body, message", [
        ("S\nA a 0.5\nA b 0.4\n", "subnetwork scores do not sum to 1: 0"),
        ("S\nA a 1\nS\n", "empty subnetwork: 1"),
        ("", "no subnetworks"),
    ], ids=["bad-sum", "empty-subnetwork", "no-subnetworks"])
    def test_invalid_network_reported_at_head_line(self, body, message):
        text = f"CN ok\nS\nA a 1\nEND\n# next\nCN bad\n{body}END\n"
        with pytest.raises(FormatError) as err:
            parse_cns(text, source="f.cn")
        assert str(err.value) == f"f.cn:6: invalid confusion network: {message}"


class TestPgFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(76)
        pg = random_pg(rng, steps=6)
        text = write_pg(pg, name="p")
        (_, parsed), = parse_pgs(text)
        assert write_pg(parsed, name="p") == text
        assert parsed.labels == pg.labels
        assert parsed.rows.shape == pg.rows.shape

    def test_requires_blank(self):
        text = "PG p\nLABELS a b\nROW 0.5 0.5\nEND\n"
        with pytest.raises(FormatError):
            parse_pgs(text)

    def test_row_width_checked(self):
        text = f"PG p\nLABELS {BLANK} a\nROW 0.5\nEND\n"
        with pytest.raises(FormatError) as err:
            parse_pgs(text)
        assert err.value.line_no == 3

    def test_row_sum_checked(self):
        text = f"PG p\nLABELS {BLANK} a\nROW 0.9 0.3\nEND\n"
        with pytest.raises(FormatError):
            parse_pgs(text)

    def test_missing_labels_line(self):
        with pytest.raises(FormatError) as err:
            parse_pgs("PG p\nEND\n", source="f.pg")
        assert err.value.line_no == 2
        assert str(err.value) == "f.pg:2: record 'p' missing LABELS line"

    @pytest.mark.parametrize("row", ["nan nan", "inf 0", "0.5 -inf"])
    def test_non_finite_row(self, row):
        text = f"PG p\nLABELS {BLANK} a\nROW 1 0\nROW {row}\nEND\n"
        with pytest.raises(FormatError) as err:
            parse_pgs(text, source="f.pg")
        assert str(err.value) == "f.pg:1: row 1 has a non-finite activation"


PARSERS = {"WG": parse_word_graphs, "CN": parse_cns, "PG": parse_pgs}


class TestRecordFraming:
    """The framing rules WG, CN and PG share, checked on every format."""

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_nested_head(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head](f"{head} a\n\n{head} b\nEND\n", source="f")
        assert str(err.value) == f"f:3: {head} record not closed with END"

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_unclosed_at_eof_names_head_line(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head](f"# c\n{head} a\n", source="f")
        assert str(err.value) == f"f:2: {head} record not closed with END"

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_line_outside_record(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head]("END\n", source="f")
        assert str(err.value) == f"f:1: 'END' outside a {head} record"

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_unknown_keyword(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head](f"{head} a\nZ 1\nEND\n", source="f")
        assert str(err.value) == "f:2: unknown keyword 'Z'"

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_head_needs_one_name(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head](f"{head} a b\nEND\n", source="f")
        assert str(err.value) == f"f:1: expected: {head} <name>"

    @pytest.mark.parametrize("head", sorted(PARSERS))
    def test_end_takes_no_arguments(self, head):
        with pytest.raises(FormatError) as err:
            PARSERS[head](f"{head} a\nEND junk\n", source="f")
        assert str(err.value) == "f:2: expected: END"

    def test_hash_inside_label_is_not_a_comment(self):
        (_, cn), = parse_cns("CN c\nS\nA C#4 1\nEND\n")
        assert cn.subnetworks[0] == {"C#4": 1.0}


class TestMutationFuzz:
    """Corrupted files either parse or raise FormatError, nothing else."""

    @pytest.mark.parametrize("head, make, write", [
        ("WG", random_wg, write_wg),
        ("CN", random_cn, write_cn),
        ("PG", lambda rng: random_pg(rng, steps=3), write_pg),
    ])
    def test_parse_or_format_error(self, head, make, write):
        rng = np.random.default_rng(91)
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(1000):
            text = mutate_text(write(make(rng), "r") * 2, rng)
            try:
                records = PARSERS[head](text, source="m")
            except FormatError:
                outcomes["rejected"] += 1
            else:
                assert isinstance(records, list)
                outcomes["parsed"] += 1
        assert min(outcomes.values()) > 0

    def test_invalid_graphs_rejected_at_head_line(self):
        # the WG texts of test_parse_or_format_error; 35 of the 51 invalid
        # records sit in texts that would parse without the constructor check.
        # A zero edge score is refused at its own E line: 11 of those 51
        # records, and 6 texts whose first error used to come after it.  So
        # is any other score outside (0, 1]: 14 more texts (1.5, 2, 9, inf,
        # nan and -1), which read "outside [0, 1]" before.
        rng = np.random.default_rng(91)
        outcomes = {"parsed": 0, "invalid": 0, "score range": 0}
        for _ in range(1000):
            text = mutate_text(write_wg(random_wg(rng), "r") * 2, rng)
            try:
                parse_word_graphs(text, source="m")
            except FormatError as err:
                line = _lines(text)[err.line_no - 1]
                if "invalid word graph: " in str(err):
                    assert line.split()[0] == "WG"
                    outcomes["invalid"] += 1
                elif str(err).endswith(" outside (0, 1]"):
                    assert line.split()[0] == "E"
                    outcomes["score range"] += 1
            else:
                outcomes["parsed"] += 1
        assert outcomes == {"parsed": 186, "invalid": 40, "score range": 31}


class TestValues:
    def test_skips_blanks_and_comments(self):
        assert read_values("# head\n1\n\n  2.5  \n# tail\n") == [1.0, 2.5]

    def test_bad_number_names_line(self):
        with pytest.raises(FormatError) as err:
            read_values("1\n# c\nbanana\n", source="v.txt")
        assert str(err.value) == "v.txt:3: bad number 'banana'"

    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_names_line(self, tok):
        with pytest.raises(FormatError) as err:
            read_values(f"1\n# c\n{tok}\n", source="v.txt")
        assert str(err.value) == f"v.txt:3: bad number {tok!r}"


class TestLineRule:
    """Every reader splits lines one way: LF, CRLF and a lone CR end a line,
    and a leading byte-order mark is skipped."""

    @pytest.mark.parametrize("text, lines", [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\nb\n", ["a", "b"]),
        ("a\r\nb\rc\r", ["a", "b", "c"]),
        ("a\r\r\nb", ["a", "", "b"]),
        ("\ufeffa\n\ufeffb", ["a", "\ufeffb"]),
        ("a\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029c\n",
         ["a\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029c"]),
    ], ids=["empty", "one-empty-line", "no-final-newline", "lf", "crlf-and-cr",
            "cr-then-crlf", "bom-only-at-start", "other-separators"])
    def test_lines(self, text, lines):
        assert _lines(text) == lines

    @pytest.mark.parametrize("read, write, make", [
        (parse_word_graphs, write_wg, random_wg),
        (parse_cns, write_cn, random_cn),
        (parse_pgs, write_pg, lambda rng: random_pg(rng, steps=3)),
    ], ids=["WG", "CN", "PG"])
    def test_record_parsers_skip_a_byte_order_mark(self, read, write, make):
        text = write(make(np.random.default_rng(77)), "r")
        (name, parsed), = read("\ufeff" + text)
        assert name == "r" and write(parsed, "r") == text

    def test_plain_readers_skip_a_byte_order_mark(self):
        assert read_values("\ufeff1.5\n2\n") == [1.5, 2.0]
        assert read_transcriptions("\ufeffa b\n") == [SymbolSequence(("a", "b"))]

    @pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_other_separators_do_not_end_a_comment(self, sep):
        text = f"WG x\nV 2\nI 0\nF 1\n# tempo{sep}note\nE 0 1 a oops\nEND\n"
        with pytest.raises(FormatError) as err:
            parse_word_graphs(text, source="ff.wg")
        assert str(err.value) == "ff.wg:6: bad score 'oops'"

    def test_form_feed_inside_a_value_line(self):
        with pytest.raises(FormatError) as err:
            read_values("1\x0c2\n3\n", source="v")
        assert str(err.value) == r"v:1: bad number '1\x0c2'"

    def test_transcriptions_end_at_crlf_and_lone_cr(self):
        got = read_transcriptions("a b\r\nc\rd\x0ce\r\n\r")
        assert [seq.labels for seq in got] == [("a", "b"), ("c",), ("d", "e"), ()]


class TestTranscriptions:
    def test_roundtrip(self):
        seqs = [
            SymbolSequence(("a", "b")),
            SymbolSequence(()),
            SymbolSequence(("c",)),
        ]
        text = write_transcriptions(seqs)
        assert read_transcriptions(text) == seqs

    def test_empty_lines_are_empty_sequences(self):
        got = read_transcriptions("a b\n\nc\n")
        assert [s.labels for s in got] == [("a", "b"), (), ("c",)]

    def test_empty_file(self):
        assert read_transcriptions("") == []
