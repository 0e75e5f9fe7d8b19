"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 malformed input file (the message
names the line; a word graph that fails validation is one) or unusable
output directory, 3 domain error (e.g. files of unequal length).
"""

import argparse
import contextlib
import functools
import math
import os
import sys

from .align import SWParams
from .ctc import greedy_decode
from .errors import FormatError, LatticeError
from .formats import (
    _lines,
    format_score,
    parse_pgs,
    parse_single,
    parse_word_graphs,
    read_transcriptions,
    read_values,
    write_cn,
)
from .fusion import METHODS, FusionConfig, run_fusion
from .lattice import MAX_PATHS, best_path, cn_from_wg
from .metrics import EvalPair, ser, wilcoxon_line, wilcoxon_signed_rank
from .simulate import (
    DEFAULT_ALPHA_STEP,
    alpha_grid_from_step,
    dump_scenario_corpus,
    grid_specs,
    run_scenario_grid,
    write_grid_reports,
)

class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind, ok, rule, bad="value", finite=None):
    """An argparse type that parses with ``kind``, then requires a finite
    value if ``finite`` names it, and ``ok``, whose failure reads ``rule``."""

    def convert(value):
        try:
            x = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {bad} {value!r}") from None
        if finite and not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"{finite} must be finite")
        if not ok(x):
            raise argparse.ArgumentTypeError(rule)
        return x

    return convert


# a NaN alpha fails the range test, so it needs no finiteness test
_alpha = _number(float, lambda x: 0.0 < x < 1.0,
                 "alpha must lie strictly inside (0, 1)", bad="alpha")
_count = _number(int, lambda x: x > 0, "value must be > 0")
_seed = _number(int, lambda x: x >= 0, "value must be >= 0")
_positive = _number(float, lambda x: x > 0, "value must be > 0", finite="value")
_penalty = _number(float, lambda x: x <= 0, "penalty must be <= 0",
                   finite="penalty")


def _read(path):
    """A UTF-8 file's text, read once.  The parsers skip a leading byte-order
    mark and end lines at LF, CRLF and CR; a byte that is not UTF-8 is
    reported at its line, split by the same rule."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(path, 0, f"cannot read file: {exc.strerror}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(raw[:exc.start].decode("utf-8") + "."))
        raise FormatError(path, line, "not valid UTF-8") from None


@contextlib.contextmanager
def _writing_to(out_dir):
    """Report an OSError on the output directory as a one-line exit 2."""
    try:
        yield
    except OSError as exc:
        raise FormatError(out_dir, 0, f"cannot write reports: {exc.strerror}") from None


def _load_wg(path):
    return parse_single(parse_word_graphs(_read(path), source=path), "WG", path)


def build_parser() -> argparse.ArgumentParser:
    fusion, sw = FusionConfig(), SWParams()
    parser = _Parser(prog="latfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("decode-greedy",
                       help="greedy-decode a posteriorgram file")
    p.add_argument("--pg", required=True, metavar="FILE")

    p = sub.add_parser("wg-best-path",
                       help="best path of a word-graph file")
    p.add_argument("--wg", required=True, metavar="FILE")

    p = sub.add_parser("wg-to-cn",
                       help="convert a word graph to a confusion network")
    p.add_argument("--wg", required=True, metavar="FILE")
    p.add_argument("--max-paths", type=_count, default=MAX_PATHS)

    p = sub.add_parser("fuse",
                       help="fuse an image and an audio word graph")
    p.add_argument("--method", required=True,
                   choices=sorted(m.replace("_", "-") for m in METHODS))
    p.add_argument("--image", required=True, metavar="FILE")
    p.add_argument("--audio", required=True, metavar="FILE")
    p.add_argument("--alpha", type=_alpha, default=fusion.alpha)
    p.add_argument("--lambda", dest="laplace_lambda",
                   type=_positive, default=fusion.laplace_lambda)
    p.add_argument("--sw-match", type=_positive, default=sw.match_score)
    p.add_argument("--sw-mismatch", type=_penalty,
                   default=sw.mismatch_penalty)
    p.add_argument("--sw-gap", type=_penalty, default=sw.gap_penalty)
    p.add_argument("--max-paths", type=_count, default=MAX_PATHS)

    p = sub.add_parser("eval-ser",
                       help="corpus symbol error rate of parallel files")
    p.add_argument("--hyp", required=True, metavar="FILE")
    p.add_argument("--ref", required=True, metavar="FILE")

    p = sub.add_parser("simulate",
                       help="run the nine-scenario evaluation grid")
    p.add_argument("--grid", action="store_true", required=True)
    p.add_argument("--trials", type=_count, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--alpha-step", type=_alpha, default=DEFAULT_ALPHA_STEP)
    p.add_argument("--out", default="reports", metavar="DIR")
    p.add_argument("--dump-lattices", action="store_true",
                   help="also write the generated corpora in WG text format")

    p = sub.add_parser("wilcoxon",
                       help="paired signed-rank test of two value files")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    return parser


def _cmd_decode_greedy(args):
    pg = parse_single(parse_pgs(_read(args.pg), source=args.pg), "PG", args.pg)
    print(greedy_decode(pg).to_text())


def _cmd_wg_best_path(args):
    seq, logscore = best_path(_load_wg(args.wg))
    print(seq.to_text())
    print(f"LOGSCORE {format_score(logscore)}")


def _cmd_wg_to_cn(args):
    cn = cn_from_wg(_load_wg(args.wg), args.max_paths)
    sys.stdout.write(write_cn(cn, name="cn"))


def _cmd_fuse(args):
    cfg = FusionConfig(
        alpha=args.alpha,
        method=args.method.replace("-", "_"),
        laplace_lambda=args.laplace_lambda,
        sw=SWParams(args.sw_match, args.sw_mismatch, args.sw_gap),
        max_paths=args.max_paths,
    )
    fused = run_fusion(_load_wg(args.image), _load_wg(args.audio), cfg)
    print(fused.to_text())


def _cmd_eval_ser(args):
    hyps = read_transcriptions(_read(args.hyp))
    refs = read_transcriptions(_read(args.ref))
    if len(hyps) != len(refs):
        raise ValueError(
            f"hypothesis file has {len(hyps)} lines, reference file {len(refs)}"
        )
    value = ser([EvalPair(h, r) for h, r in zip(hyps, refs)])
    print(f"SER {value:.2f}")


def _cmd_simulate(args):
    specs = grid_specs(trials=args.trials, seed=args.seed)
    alpha_grid = alpha_grid_from_step(args.alpha_step)
    with _writing_to(args.out):  # an unusable directory fails before the grid
        os.makedirs(args.out, exist_ok=True)
    reports = run_scenario_grid(specs, alpha_grid=alpha_grid)
    with _writing_to(args.out):
        paths = write_grid_reports(reports, args.out)
        if args.dump_lattices:
            for report in reports:
                paths.extend(dump_scenario_corpus(report, args.out))
    print(f"wrote {len(paths)} files to {args.out}")


def _cmd_wilcoxon(args):
    va = read_values(_read(args.a), source=args.a)
    vb = read_values(_read(args.b), source=args.b)
    if len(va) != len(vb):
        raise ValueError(f"files hold {len(va)} and {len(vb)} values")
    print(wilcoxon_line(wilcoxon_signed_rank(va, vb)))


_COMMANDS = {
    "decode-greedy": _cmd_decode_greedy,
    "wg-best-path": _cmd_wg_best_path,
    "wg-to-cn": _cmd_wg_to_cn,
    "fuse": _cmd_fuse,
    "eval-ser": _cmd_eval_ser,
    "simulate": _cmd_simulate,
    "wilcoxon": _cmd_wilcoxon,
}


# argparse looks up sys.stdout and sys.stderr when it prints, so one parser
# serves every call
_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"latfuse: {exc}", file=sys.stderr)
        return 2
    except (LatticeError, ValueError) as exc:
        print(f"latfuse: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
