"""Late fusion of two word graphs into a single transcription.

Five variants: expected-risk minimization over the pooled path sets (mbr),
lightly-supervised correction in either direction (lightly_ia, lightly_ai),
confusion-network merging after DTW alignment (global), and merging of the
two best paths after Smith-Waterman local alignment (local).

``PREPARE_METHOD`` holds each variant as work done once per lattice pair
plus a decode per alpha.  ``run_fusion`` runs one variant at one alpha and
is the way to call them; the scenario grid reads the table directly.

The ``wg_i``/``wg_a`` argument pair is by convention the image-side and
audio-side lattice; ``alpha`` weights the image side, ``1 - alpha`` the
audio side.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .align import (
    SWParams,
    _subnetwork_distances,
    align_seq_to_lattice,
    dtw_align,
    edit_distance_matrix,
    smith_waterman,
)
from .lattice import (
    EPS,
    MAX_PATHS,
    ConfusionNetwork,
    SymbolSequence,
    WordGraph,
    _n_best_posteriors,
    _require_count,
    best_path,
    cn_best_path,
    cn_from_wg,
    strip_eps,
)

_EPS_SUBNETWORK = {EPS: 1.0}


@dataclass(frozen=True)
class FusionConfig:
    """Knobs shared by the fusion strategies.

    ``alpha`` must lie strictly inside (0, 1) and ``laplace_lambda`` must be
    finite and > 0.  ``max_paths``, an integer >= 1, caps the number of
    lattice paths considered; larger lattices are truncated to their n-best
    with renormalized posteriors.
    """

    alpha: float = 0.5
    method: str = "mbr"
    laplace_lambda: float = 1.0
    sw: SWParams = field(default_factory=SWParams)
    max_paths: int = MAX_PATHS

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown fusion method {self.method!r}")
        if not math.isfinite(self.laplace_lambda):
            raise ValueError("laplace_lambda must be finite")
        if self.laplace_lambda <= 0:
            raise ValueError("laplace_lambda must be > 0")
        _require_count("max_paths", self.max_paths)


def lattice_hypotheses(wg: WordGraph, max_paths: int) -> dict:
    """Distinct path label sequences with aggregated posterior probability.

    Uses all complete paths when the lattice holds at most ``max_paths``,
    otherwise the n-best with posteriors renormalized over that subset.
    """
    grouped = {}
    for seq, p in _n_best_posteriors(wg, max_paths):
        grouped[seq.labels] = grouped.get(seq.labels, 0.0) + p
    return grouped


def _risks(cands: list, hyps: list) -> list:
    """Per hypothesis set in ``hyps`` (label tuple -> posterior): each
    candidate's posterior-weighted edit distance to its paths, and the
    candidate's own posterior there.

    One ``edit_distance_matrix`` call takes every set's paths, in sorted
    order, as refs side by side; each set reads its own columns.
    """
    refs = [sorted(hyp) for hyp in hyps]
    dist = edit_distance_matrix(cands, [r for side in refs for r in side])
    out, lo = [], 0
    for hyp, side in zip(hyps, refs):
        risk = dist[:, lo:lo + len(side)] @ np.array([hyp[r] for r in side])
        out.append((risk, np.array([hyp.get(c, 0.0) for c in cands])))
        lo += len(side)
    return out


def _least_risk(cands: list, risk, post) -> SymbolSequence:
    """The candidate of least risk; ties go to the higher posterior, then to
    the lower index: the smaller label sequence, as ``cands`` is sorted."""
    return SymbolSequence(cands[np.lexsort((-post, risk))[0]])


class MbrTables:
    """Precomputed risk tables for one lattice pair, reusable across alpha.

    Minimum-expected-risk fusion: the candidate set is the union of the two
    lattices' path label sequences; the risk of a candidate is its
    posterior-weighted edit distance to each lattice's paths, mixed with
    weight ``alpha`` on the image side by ``decode``.  Both sides' risks
    come from one ``edit_distance_matrix`` call, whose refs are the image
    paths then the audio paths, so the candidates are interned and their
    prefixes advanced once per lattice pair.
    """

    def __init__(self, wg_i: WordGraph, wg_a: WordGraph, max_paths: int):
        hyp_i = lattice_hypotheses(wg_i, max_paths)
        hyp_a = lattice_hypotheses(wg_a, max_paths)
        self.candidates = sorted(set(hyp_i) | set(hyp_a))
        (self.risk_i, self._cand_post_i), (self.risk_a, self._cand_post_a) = (
            _risks(self.candidates, [hyp_i, hyp_a]))

    def decode(self, alpha: float) -> SymbolSequence:
        """Candidate with minimum alpha-weighted expected edit distance,
        ties broken by the alpha-weighted posterior as in ``_least_risk``."""
        return _least_risk(
            self.candidates,
            alpha * self.risk_i + (1.0 - alpha) * self.risk_a,
            alpha * self._cand_post_i + (1.0 - alpha) * self._cand_post_a)


def mbr_decode(wg: WordGraph, max_paths: int = MAX_PATHS) -> SymbolSequence:
    """Unimodal minimum-risk decode: the set-median path of one lattice."""
    hyp = lattice_hypotheses(wg, max_paths)
    refs = sorted(hyp)
    return _least_risk(refs, *_risks(refs, [hyp])[0])


def fuse_lightly(wg_src: WordGraph, wg_corr: WordGraph) -> SymbolSequence:
    """Correct one modality's best path with the other modality's lattice.

    The source transcript (best path of ``wg_src``) is collapsed against
    ``wg_corr``: the output is the complete path of ``wg_corr`` closest to
    the transcript in edit distance (score, then lexicographic tie-breaks).
    """
    transcript, _ = best_path(wg_src)
    path, _cost = align_seq_to_lattice(transcript, wg_corr)
    return path


def merge_subnetworks(sub_i: dict, sub_a: dict, alpha: float, lam: float) -> dict:
    """Geometric-mean combination of two subnetworks with Laplace smoothing.

    Scores are smoothed over the union label set L as (s + lam)/(1 + lam|L|),
    combined as image^alpha * audio^(1-alpha), and renormalized to sum to 1.
    ``alpha`` must lie strictly inside (0, 1), as ``FusionConfig`` requires,
    and ``lam`` must be finite and > 0, with ``lam * |L|`` finite too.
    """
    if not 0.0 < alpha < 1.0:  # also rejects NaN
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam <= 0:
        raise ValueError("lam must be > 0")
    union = sorted(set(sub_i) | set(sub_a))
    denom = 1.0 + lam * len(union)
    if denom == math.inf:  # every smoothed score would be 0
        raise ValueError(f"lam {lam!r} times {len(union)} labels overflows")
    col = {}
    for lab in union:
        si = (sub_i.get(lab, 0.0) + lam) / denom
        sa = (sub_a.get(lab, 0.0) + lam) / denom
        col[lab] = si**alpha * sa ** (1.0 - alpha)
    total = sum(col.values())
    for lab in col:
        col[lab] /= total
    return col


def _column_pairs(cn_i: ConfusionNetwork, cn_a: ConfusionNetwork, path: list,
                  apart: list) -> list:
    """The ``(image, audio)`` subnetwork pair behind each merged column.

    Walks the ``dtw_align`` warping path: a diagonal step pairs the matched
    subnetworks, or, if they are completely different (``apart[i][j]``, as
    ``dtw_align`` fills it), pairs each with the unit-weight ``<eps>``
    subnetwork (image first); any other step pairs one subnetwork with
    ``<eps>`` on the missing side.  Independent of alpha.
    """
    subs_i, subs_a = cn_i.subnetworks, cn_a.subnetworks
    pairs = []
    prev = None
    for i, j in path:
        matched = prev is None or (i - prev[0], j - prev[1]) == (1, 1)
        if matched:
            if apart[i][j]:
                pairs.append((subs_i[i], _EPS_SUBNETWORK))
                pairs.append((_EPS_SUBNETWORK, subs_a[j]))
            else:
                pairs.append((subs_i[i], subs_a[j]))
        elif i - prev[0] == 1:
            pairs.append((subs_i[i], _EPS_SUBNETWORK))
        else:
            pairs.append((_EPS_SUBNETWORK, subs_a[j]))
        prev = (i, j)
    return pairs


def _merge_pairs(pairs: list, alpha: float, lam: float) -> ConfusionNetwork:
    return ConfusionNetwork(
        tuple(merge_subnetworks(sub_i, sub_a, alpha, lam) for sub_i, sub_a in pairs)
    )


def combine_cns(
    cn_i: ConfusionNetwork,
    cn_a: ConfusionNetwork,
    alpha: float,
    lam: float,
    path: list,
) -> ConfusionNetwork:
    """Merge two DTW-aligned confusion networks into one column by column:
    ``merge_subnetworks`` of each ``_column_pairs`` pair along ``path``.

    ``path`` must be a DTW path over the two networks, as ``dtw_align``
    returns it: from (0, 0) to (n-1, m-1) in steps of (1, 1), (1, 0) or
    (0, 1); anything else raises ``ValueError``.
    """
    end = (len(cn_i) - 1, len(cn_a) - 1)
    steps = {(i1 - i0, j1 - j0) for (i0, j0), (i1, j1) in zip(path, path[1:])}
    if [tuple(p) for p in path[:1] + path[-1:]] != [(0, 0), end] or (
            not steps <= {(1, 1), (1, 0), (0, 1)}):
        raise ValueError(f"path must run from (0, 0) to {end} in steps of "
                         "(1, 1), (1, 0) or (0, 1)")
    apart = _subnetwork_distances(cn_i.subnetworks, cn_a.subnetworks)[1]
    return _merge_pairs(_column_pairs(cn_i, cn_a, path, apart), alpha, lam)


def _prepare_global(wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig):
    """Convert, DTW-align and pair up the columns once; merge, decode and
    strip ``<eps>`` per alpha."""
    cn_i = cn_from_wg(wg_i, cfg.max_paths)
    cn_a = cn_from_wg(wg_a, cfg.max_paths)
    apart = []
    path, _ = dtw_align(cn_i, cn_a, apart=apart)
    pairs = _column_pairs(cn_i, cn_a, path, apart)

    def decode(alpha: float) -> SymbolSequence:
        merged = _merge_pairs(pairs, alpha, cfg.laplace_lambda)
        return strip_eps(cn_best_path(merged))

    return decode


def merge_aligned_best_paths(
    seq_i: SymbolSequence, seq_a: SymbolSequence, sw: SWParams
) -> SymbolSequence:
    """Merge two score-annotated sequences around their SW local alignment.

    Within the aligned window: agreeing positions keep the shared symbol,
    gaps keep the symbol that is present, and conflicts keep the symbol with
    the larger edge score (the image side wins exact ties).  Material outside
    the window is kept in order, image side first: image prefix, audio
    prefix, the window, image suffix, audio suffix.  An unscored side scores
    1.0 at every position.
    """
    res = smith_waterman(seq_i, seq_a, sw)
    labels = (seq_i.labels, seq_a.labels)
    scores = tuple(s.scores if s.scores is not None else (1.0,) * len(s)
                   for s in (seq_i, seq_a))
    picks, suffixes = [], []  # (side, index): 0 is image, 1 is audio
    for side, indices in enumerate((res.a_indices, res.b_indices)):
        kept = [k for k in indices if k is not None]
        lo, hi = (kept[0], kept[-1] + 1) if kept else (0, 0)
        picks += [(side, k) for k in range(lo)]
        suffixes += [(side, k) for k in range(hi, len(labels[side]))]
    for ia, ja in zip(res.a_indices, res.b_indices):
        image_wins = ja is None or ia is not None and (
            labels[0][ia] == labels[1][ja] or scores[0][ia] >= scores[1][ja])
        picks.append((0, ia) if image_wins else (1, ja))
    picks += suffixes
    return SymbolSequence(tuple(labels[side][k] for side, k in picks),
                          tuple(scores[side][k] for side, k in picks))


def _alpha_free(hyp: SymbolSequence):
    return lambda alpha: hyp


#: Every fusion method as ``prepare(wg_i, wg_a, cfg) -> decode(alpha)``:
#: ``prepare`` does the work shared by all alphas once per lattice pair,
#: ``decode`` returns the fused sequence for one alpha.  Entries look the
#: module's functions up by name when called, never holding the function
#: objects, so a patched or wrapped function is the one that runs.
PREPARE_METHOD = {
    "mbr": lambda wg_i, wg_a, cfg: MbrTables(wg_i, wg_a, cfg.max_paths).decode,
    "lightly_ia": lambda wg_i, wg_a, cfg: _alpha_free(fuse_lightly(wg_i, wg_a)),
    "lightly_ai": lambda wg_i, wg_a, cfg: _alpha_free(fuse_lightly(wg_a, wg_i)),
    "global": _prepare_global,
    "local": lambda wg_i, wg_a, cfg: _alpha_free(merge_aligned_best_paths(
        best_path(wg_i)[0], best_path(wg_a)[0], cfg.sw)),
}

#: The fusion method names, in ``PREPARE_METHOD``'s order.
METHODS = tuple(PREPARE_METHOD)


def run_fusion(
    wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig
) -> SymbolSequence:
    """Fuse with ``cfg.method`` at ``cfg.alpha``; image lattice first."""
    return PREPARE_METHOD[cfg.method](wg_i, wg_a, cfg)(cfg.alpha)
