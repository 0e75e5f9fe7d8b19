"""Line-based UTF-8 text formats for word graphs, confusion networks and
posteriorgrams, plus plain transcription and value files.

WG, CN and PG files share one record grammar (``_record_lines``): a
``<head> <name>`` line, one keyword per line, then ``END``.  Scores are
printed with 12 significant digits and the parsers round-trip bit-exactly at
that precision: parse(write(x)) serializes back to identical bytes.  A line
starting with ``#`` is a comment; blank lines are ignored (except in
transcription files, where every line is one transcription).  Every reader
splits its text into lines with ``_lines``.
"""

import numpy as np

from .ctc import Posteriorgram
from .errors import FormatError, LatticeError
from .lattice import ConfusionNetwork, Edge, SymbolSequence, WordGraph, _rank_key


def format_score(x: float) -> str:
    """``x`` to 12 significant digits, as every score and statistic prints."""
    return format(float(x), ".12g")


def _lines(text: str) -> list:
    """The lines of ``text``, after a leading byte-order mark (U+FEFF).

    LF, CRLF and a lone CR end a line; every other separator (form feed,
    NEL, U+2028, ...) is whitespace inside one.  A final line ending adds no
    empty line.
    """
    text = text.removeprefix("\ufeff").replace("\r\n", "\n")
    lines = text.replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _content_lines(text: str):
    """Yield (line_no, stripped content) skipping blanks and comment lines.

    Only whole-line comments are recognized so that labels containing ``#``
    (sharps in music tokens) survive untouched.
    """
    for no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def _parse_score(tok: str, source, no, above_zero: bool) -> float:
    """A score in [0, 1] (CN), or in (0, 1] when ``above_zero`` (WG edge)."""
    try:
        value = float(tok)
    except ValueError:
        raise FormatError(source, no, f"bad score {tok!r}") from None
    if not (0.0 < value <= 1.0 if above_zero else 0.0 <= value <= 1.0):
        interval = "(0, 1]" if above_zero else "[0, 1]"
        raise FormatError(source, no, f"score {tok!r} outside {interval}")
    return value


def _record_lines(text: str, source, head: str, body: tuple):
    """Yield (line_no, keyword, args) for each content line of ``head`` records.

    Owns the record framing shared by the WG, CN and PG formats: ``<head>
    <name>`` opens a record, a bare ``END`` closes it, records do not nest,
    and only the ``body`` keywords may appear in between.  The head line
    comes out as (no, head, [name]), the closing one as (no, "END", []).
    Lines are yielded one at a time, so every error surfaces in file order.
    """
    open_at = None
    for no, line in _content_lines(text):
        kw, *args = line.split()
        if kw == head:
            if open_at is not None:
                open_at = no  # a nested head is reported where it appears
                break
            if len(args) != 1:
                raise FormatError(source, no, f"expected: {head} <name>")
            open_at = no
        elif open_at is None:
            raise FormatError(source, no, f"{kw!r} outside a {head} record")
        elif kw == "END":
            if args:
                raise FormatError(source, no, "expected: END")
            open_at = None
        elif kw not in body:
            raise FormatError(source, no, f"unknown keyword {kw!r}")
        yield no, kw, args
    if open_at is not None:
        raise FormatError(source, open_at, f"{head} record not closed with END")


def _construct(source, no, cls, *args):
    """``cls(*args)``; a constructor error is reported at line ``no``, the
    record's head line."""
    try:
        return cls(*args)
    except (LatticeError, ValueError) as exc:
        raise FormatError(source, no, str(exc)) from None


def _require(fields: dict, need: tuple, name: str, source, no):
    """Fail at the END line of record ``name`` unless every ``need`` line came."""
    for kw in need:
        if kw not in fields:
            raise FormatError(source, no, f"record {name!r} missing {kw} line")


def _write_record(head: str, name: str, body: list) -> str:
    return "\n".join([f"{head} {name}", *body, "END"]) + "\n"


def write_wg(wg: WordGraph, name: str = "wg") -> str:
    return _write_record("WG", name, [
        f"V {wg.num_vertices}",
        f"I {wg.initial}",
        "F " + " ".join(str(f) for f in sorted(wg.finals)),
        *(f"E {e.src} {e.dst} {e.label} {format_score(e.score)}"
          for e in wg.edges),
    ])


def parse_word_graphs(text: str, source: str = "<wg>") -> list:
    """Parse a stream of WG records; returns [(name, WordGraph), ...].

    An edge score outside (0, 1] is reported at its ``E`` line.  A record
    that parses but fails ``validate_wg`` is reported at its ``WG`` line
    with the constructor's ``invalid word graph: ...`` message.
    """
    records = []
    for no, kw, args in _record_lines(text, source, "WG", ("E", "V", "I", "F")):
        if kw == "E":
            if len(args) != 4:
                raise FormatError(
                    source, no, "expected: E <from> <to> <label> <score>"
                )
            try:
                src, dst = int(args[0]), int(args[1])
            except ValueError:
                raise FormatError(source, no, "bad edge vertex id") from None
            score = _parse_score(args[3], source, no, above_zero=True)
            edges.append(Edge(src, dst, args[2], score))
        elif kw == "WG":
            name, head_no, fields, edges = args[0], no, {}, []
        elif kw == "END":
            _require(fields, ("V", "I", "F"), name, source, no)
            records.append((name, _construct(
                source, head_no, WordGraph,
                fields["V"], fields["I"], fields["F"], tuple(edges))))
        elif kw == "F":
            if not args or "F" in fields:
                raise FormatError(source, no, "expected one: F <id> [<id>...]")
            try:
                fields["F"] = frozenset(int(p) for p in args)
            except ValueError:
                raise FormatError(source, no, "bad final vertex id") from None
        else:  # V or I
            if len(args) != 1 or kw in fields:
                raise FormatError(source, no, f"expected one: {kw} <count>")
            try:
                fields[kw] = int(args[0])
            except ValueError:
                raise FormatError(source, no, f"bad integer {args[0]!r}") from None
    return records


def write_cn(cn: ConfusionNetwork, name: str = "cn") -> str:
    body = []
    for sub in cn.subnetworks:
        body.append("S")
        for lab in sorted(sub, key=_rank_key(sub)):
            body.append(f"A {lab} {format_score(sub[lab])}")
    return _write_record("CN", name, body)


def parse_cns(text: str, source: str = "<cn>") -> list:
    """Parse a stream of CN records; returns [(name, ConfusionNetwork), ...].

    A score outside [0, 1] or a repeated label is reported at its ``A``
    line.  A record that parses but fails ``validate_cn`` (no subnetworks,
    an empty one, scores that do not sum to 1) is reported at its ``CN``
    line with the constructor's ``invalid confusion network: ...`` message.
    """
    records = []
    for no, kw, args in _record_lines(text, source, "CN", ("A", "S")):
        if kw == "A":
            if len(args) != 2:
                raise FormatError(source, no, "expected: A <label> <score>")
            if not subs:
                raise FormatError(source, no, "A line before any S line")
            if args[0] in subs[-1]:
                raise FormatError(source, no, f"duplicate label {args[0]!r}")
            score = _parse_score(args[1], source, no, above_zero=False)
            subs[-1][args[0]] = score
        elif kw == "S":
            if args:
                raise FormatError(source, no, "expected bare S line")
            subs.append({})
        elif kw == "CN":
            name, head_no, subs = args[0], no, []
        else:  # END
            records.append((name, _construct(
                source, head_no, ConfusionNetwork, tuple(subs))))
    return records


def write_pg(pg: Posteriorgram, name: str = "pg") -> str:
    return _write_record("PG", name, [
        "LABELS " + " ".join(pg.labels),
        *("ROW " + " ".join(format_score(v) for v in row) for row in pg.rows),
    ])


def parse_pgs(text: str, source: str = "<pg>") -> list:
    """Parse a stream of PG records; returns [(name, Posteriorgram), ...]."""
    records = []
    for no, kw, args in _record_lines(text, source, "PG", ("ROW", "LABELS")):
        if kw == "ROW":
            if "LABELS" not in fields:
                raise FormatError(source, no, "ROW before LABELS")
            width = len(fields["LABELS"])
            if len(args) != width:
                raise FormatError(
                    source, no, f"expected {width} values, got {len(args)}"
                )
            try:
                rows.append([float(p) for p in args])
            except ValueError:
                raise FormatError(source, no, "bad activation value") from None
        elif kw == "PG":
            name, head_no, fields, rows = args[0], no, {}, []
        elif kw == "LABELS":
            if not args or "LABELS" in fields:
                raise FormatError(source, no, "expected one: LABELS <tok> ...")
            fields["LABELS"] = tuple(args)
        else:  # END
            _require(fields, ("LABELS",), name, source, no)
            labels = fields["LABELS"]
            records.append((name, _construct(
                source, head_no, Posteriorgram, labels,
                np.array(rows, dtype=float).reshape(len(rows), len(labels)))))
    return records


def parse_single(records: list, kind: str, source: str):
    if len(records) != 1:
        raise FormatError(
            source, 1, f"expected exactly one {kind} record, found {len(records)}"
        )
    return records[0][1]


def read_values(text: str, source: str = "<values>") -> list:
    """One finite number per line; blank and ``#`` comment lines are skipped."""
    values = []
    for no, line in _content_lines(text):
        try:
            value = float(line)
            if not np.isfinite(value):
                raise ValueError
        except ValueError:
            raise FormatError(source, no, f"bad number {line!r}") from None
        values.append(value)
    return values


def read_transcriptions(text: str) -> list:
    """One transcription per line, tokens whitespace-separated.

    Every line counts, including empty ones (an empty transcription); a
    trailing newline does not add a final empty transcription.
    """
    return [SymbolSequence.from_text(line) for line in _lines(text)]


def write_transcriptions(seqs) -> str:
    return "".join(seq.to_text() + "\n" for seq in seqs)
