"""Span tracing of latfuse's public functions from outside the package.

The tracer replaces each traced function at every ``latfuse`` module
attribute that refers to it (``latfuse.simulate.MbrTables``,
``latfuse.cli.run_fusion``, ...), so callers inside the package reach the
wrapper through the same global lookup they already do.  Class targets get
their ``__init__`` and named methods wrapped on the class itself.

Each call records one span ``(id, parent, name, start_ns, end_ns)`` in
memory; counters derived from call arguments and return values (cells,
paths, candidates, gauges) are kept next to the spans.  ``uninstall``
restores every original attribute, so a traced and an untraced phase can
run in one process.
"""

import functools
import json
import math
import statistics
import time
from collections import defaultdict


def _lattice_stats(wg):
    """(log total path mass, number of complete paths) of a word graph.

    A forward pass in log space over a Kahn order; the benchmark's own
    computation, so the gauges do not depend on the code they measure.
    """
    n = wg.num_vertices
    indeg = [0] * n
    adj = [[] for _ in range(n)]
    for e in wg.edges:
        indeg[e.dst] += 1
        adj[e.src].append(e)
    order = [v for v in range(n) if indeg[v] == 0]
    logz = [-math.inf] * n
    ways = [0] * n
    logz[wg.initial] = 0.0
    ways[wg.initial] = 1
    k = 0
    while k < len(order):
        v = order[k]
        k += 1
        for e in adj[v]:
            if ways[v]:
                a, b = logz[e.dst], logz[v] + math.log(e.score)
                hi = max(a, b)
                logz[e.dst] = hi + math.log(math.exp(a - hi) + math.exp(b - hi))
                ways[e.dst] += ways[v]
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                order.append(e.dst)
    finals = [f for f in wg.finals if ways[f]]
    if not finals:
        return -math.inf, 0
    hi = max(logz[f] for f in finals)
    total = hi + math.log(sum(math.exp(logz[f] - hi) for f in finals))
    return total, sum(ways[f] for f in finals)


def _logsumexp(values):
    hi = max(values)
    return hi + math.log(sum(math.exp(v - hi) for v in values))


class Tracer:
    """Wraps latfuse's layer functions and aggregates their spans."""

    def __init__(self, latfuse_pkg):
        self._pkg = latfuse_pkg
        self._saved = []  # (owner, attr, original)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.counts = defaultdict(float)
        self.mass_kept = []

    # -- counters fed from call arguments and return values -------------

    def _count_edit_distance_matrix(self, first, args, kwargs, result):
        cands, refs = args[0], args[1]
        longest_ref = max((len(r) for r in refs), default=0)
        longest_cand = max((len(c) for c in cands), default=0)
        self.counts["align.edit_distance_matrix.cells"] += (
            len(cands) * len(refs) * longest_ref * longest_cand
        )

    def _count_mbr_tables(self, first, args, kwargs, result):
        self.counts["fusion.MbrTables.candidates"] += len(args[0].candidates)

    def _count_n_best(self, first, args, kwargs, result):
        self.counts["lattice.n_best_paths.paths"] += len(result)
        logz, _ = _lattice_stats(args[0])
        if result and logz > -math.inf:
            kept = _logsumexp([ls for _, ls in result]) - logz
            self.mass_kept.append(min(1.0, math.exp(kept)))

    def _count_lattice_hypotheses(self, first, args, kwargs, result):
        wg = args[0]
        max_paths = args[1] if len(args) > 1 else kwargs["max_paths"]
        _, npaths = _lattice_stats(wg)
        self.counts["fusion.lattice_hypotheses.distinct"] += len(result)
        self.counts["fusion.lattice_hypotheses.paths"] += min(max_paths, npaths)

    def _count_cn_from_wg(self, first, args, kwargs, result):
        self.counts["lattice.cn_from_wg.columns"] += len(result)

    def _count_seq_to_lattice(self, first, args, kwargs, result):
        seq, wg = args[0], args[1]
        self.counts["align.align_seq_to_lattice.cells"] += (
            wg.num_vertices * (len(seq) + 1)
        )

    def _count_dtw(self, first, args, kwargs, result):
        self.counts["align.dtw_align.cells"] += len(args[0]) * len(args[1])

    def _count_parse_wg(self, first, args, kwargs, result):
        self.counts["formats.parse_word_graphs.bytes"] += len(
            args[0].encode("utf-8")
        )

    def _count_calibrate(self, first, args, kwargs, result):
        inner = sum(1 for s in self.spans[first:] if s[2] == "align.edit_distance")
        self.counts["simulate.calibrate_noise.iterations"] += (
            inner / self._pkg.simulate.CALIBRATION_CORPUS_SIZE)

    # -- targets ---------------------------------------------------------

    def _targets(self):
        """(module, attribute, methods, counter); methods=None for functions."""
        return [
            ("simulate", "calibrate_noise", None, self._count_calibrate),
            ("simulate", "generate_wg_pair", None, None),
            ("simulate", "run_scenario", None, None),
            ("simulate", "write_grid_reports", None, None),
            ("align", "edit_distance_matrix", None,
             self._count_edit_distance_matrix),
            ("align", "edit_distance", None, None),
            ("align", "align_seq_to_lattice", None, self._count_seq_to_lattice),
            ("align", "dtw_align", None, self._count_dtw),
            ("align", "smith_waterman", None, None),
            ("fusion", "MbrTables", {"__init__": self._count_mbr_tables,
                                     "decode": None}, None),
            ("fusion", "lattice_hypotheses", None,
             self._count_lattice_hypotheses),
            ("fusion", "fuse_lightly", None, None),
            ("fusion", "combine_cns", None, None),
            ("fusion", "merge_aligned_best_paths", None, None),
            ("fusion", "run_fusion", None, None),
            ("lattice", "n_best_paths", None, self._count_n_best),
            ("lattice", "cn_from_wg", None, self._count_cn_from_wg),
            ("lattice", "best_path", None, None),
            ("lattice", "cn_best_path", None, None),
            ("metrics", "wilcoxon_signed_rank", None, None),
            ("metrics", "ser", None, None),
            ("cli", "run", None, None),
            ("formats", "parse_word_graphs", None, self._count_parse_wg),
            ("formats", "parse_pgs", None, None),
            ("formats", "read_transcriptions", None, None),
            ("formats", "write_cn", None, None),
            ("ctc", "greedy_decode", None, None),
        ]

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            first = len(spans)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if counter is not None:
                # counted as a child of the caller's span, so the gauge work
                # never lands in a layer's self time
                cstart = clock()
                counter(first, args, kwargs, result)
                spans.append((self._next_id, parent, "trace.counter", cstart,
                              clock()))
                self._next_id += 1
            return result

        return traced

    def install(self):
        modules = [
            getattr(self._pkg, m)
            for m in ("align", "cli", "ctc", "formats", "fusion", "lattice",
                      "metrics", "simulate")
        ]
        namespaces = [self._pkg] + modules
        for mod_name, attr, methods, counter in self._targets():
            original = getattr(getattr(self._pkg, mod_name), attr)
            if methods is not None:
                for meth, meth_counter in methods.items():
                    name = (
                        f"{mod_name}.{attr}" if meth == "__init__"
                        else f"{mod_name}.{attr}.{meth}"
                    )
                    fn = original.__dict__[meth]
                    self._saved.append((original, meth, fn))
                    setattr(original, meth, self._wrap(name, fn, meth_counter))
                continue
            wrapped = self._wrap(f"{mod_name}.{attr}", original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls and self ns (span time minus its children)."""
        calls = defaultdict(int)
        child = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            self_ns[name] += (end - start) - child[sid]
        return calls, self_ns

    def span_names(self):
        names = []
        for mod_name, attr, methods, _ in self._targets():
            if methods is None:
                names.append(f"{mod_name}.{attr}")
            else:
                names += [f"{mod_name}.{attr}" if m == "__init__"
                          else f"{mod_name}.{attr}.{m}" for m in methods]
        return names

    def metrics(self):
        """Every per-layer value this tracer can produce, by metric name."""
        calls, self_ns = self.layer_totals()
        out = {}
        for name in self.span_names():
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
            out[f"{name}.calls"] = calls.get(name, 0)
        for key in ("align.edit_distance_matrix.cells",
                    "fusion.MbrTables.candidates",
                    "lattice.n_best_paths.paths",
                    "lattice.cn_from_wg.columns",
                    "align.align_seq_to_lattice.cells",
                    "align.dtw_align.cells",
                    "formats.parse_word_graphs.bytes",
                    "simulate.calibrate_noise.iterations"):
            out[key] = self.counts.get(key, 0)
        out["cli.run.uncaught"] = self.counts.get("cli.run.raised", 0)
        paths = self.counts.get("fusion.lattice_hypotheses.paths", 0)
        out["fusion.lattice_hypotheses.distinct_ratio"] = (
            self.counts.get("fusion.lattice_hypotheses.distinct", 0) / paths
            if paths else 1.0
        )
        kept = self.mass_kept or [1.0]
        out["lattice.nbest_mass_kept.p50"] = statistics.median(kept)
        out["lattice.nbest_mass_kept.min"] = min(kept)
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
