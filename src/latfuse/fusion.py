"""Late fusion of two word graphs into a single transcription.

Five variants: expected-risk minimization over the pooled path sets (mbr),
lightly-supervised correction in either direction (lightly_ia, lightly_ai),
confusion-network merging after DTW alignment (global), and merging of the
two best paths after Smith-Waterman local alignment (local).

``PREPARE_METHOD`` holds each variant as work done once per lattice pair
plus a decode per alpha; ``run_fusion`` and the scenario grid both use it.

The ``wg_i``/``wg_a`` argument pair is by convention the image-side and
audio-side lattice; ``alpha`` weights the image side, ``1 - alpha`` the
audio side.
"""

from dataclasses import dataclass, field

import numpy as np

from .align import (
    SWParams,
    align_seq_to_lattice,
    completely_different,
    dtw_align,
    edit_distance_matrix,
    smith_waterman,
    subnetwork_distance,
)
from .lattice import (
    EPS,
    ConfusionNetwork,
    SymbolSequence,
    WordGraph,
    _posteriors_from_log,
    best_path,
    cn_best_path,
    cn_from_wg,
    n_best_paths,
    strip_eps,
)

METHODS = ("mbr", "lightly_ia", "lightly_ai", "global", "local")

_EPS_SUBNETWORK = {EPS: 1.0}


@dataclass(frozen=True)
class FusionConfig:
    """Knobs shared by the fusion strategies.

    ``alpha`` must lie strictly inside (0, 1).  ``max_paths`` caps the number
    of lattice paths considered; larger lattices are truncated to their
    n-best with renormalized posteriors.
    """

    alpha: float = 0.5
    method: str = "mbr"
    laplace_lambda: float = 1.0
    sw: SWParams = field(default_factory=SWParams)
    max_paths: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown fusion method {self.method!r}")
        if self.laplace_lambda <= 0:
            raise ValueError("laplace_lambda must be > 0")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")


def lattice_hypotheses(wg: WordGraph, max_paths: int) -> dict:
    """Distinct path label sequences with aggregated posterior probability.

    Uses all complete paths when the lattice holds at most ``max_paths``,
    otherwise the n-best with posteriors renormalized over that subset.
    """
    paths = n_best_paths(wg, max_paths)
    posts = _posteriors_from_log([ls for _, ls in paths])
    grouped = {}
    for (seq, _), p in zip(paths, posts):
        grouped[seq.labels] = grouped.get(seq.labels, 0.0) + p
    return grouped


class MbrTables:
    """Precomputed risk tables for one lattice pair, reusable across alpha."""

    def __init__(self, wg_i: WordGraph, wg_a: WordGraph, max_paths: int = 100):
        hyp_i = lattice_hypotheses(wg_i, max_paths)
        hyp_a = lattice_hypotheses(wg_a, max_paths)
        self.candidates = sorted(set(hyp_i) | set(hyp_a))
        refs_i = sorted(hyp_i)
        refs_a = sorted(hyp_a)
        post_i = np.array([hyp_i[r] for r in refs_i])
        post_a = np.array([hyp_a[r] for r in refs_a])
        self.risk_i = edit_distance_matrix(self.candidates, refs_i) @ post_i
        self.risk_a = edit_distance_matrix(self.candidates, refs_a) @ post_a
        self._cand_post_i = np.array([hyp_i.get(c, 0.0) for c in self.candidates])
        self._cand_post_a = np.array([hyp_a.get(c, 0.0) for c in self.candidates])

    def decode(self, alpha: float) -> SymbolSequence:
        """Candidate with minimum alpha-weighted expected edit distance.

        Risk ties go to the candidate with the higher alpha-weighted
        posterior, then to the lexicographically smallest label sequence.
        """
        risk = alpha * self.risk_i + (1.0 - alpha) * self.risk_a
        wpost = alpha * self._cand_post_i + (1.0 - alpha) * self._cand_post_a
        # lexsort is stable and candidates are sorted, so index order is the
        # lexicographic tie-break
        best = np.lexsort((-wpost, risk))[0]
        return SymbolSequence(self.candidates[best])


def fuse_mbr(
    wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig = FusionConfig()
) -> SymbolSequence:
    """Minimum-expected-risk sequence over the union of both path sets.

    The candidate set is the union of the two lattices' path label
    sequences; the risk of a candidate is its posterior-weighted edit
    distance to each lattice's paths, mixed with weight ``cfg.alpha`` on the
    image side.
    """
    return _prepare_mbr(wg_i, wg_a, cfg)(cfg.alpha)


def _prepare_mbr(wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig):
    return MbrTables(wg_i, wg_a, cfg.max_paths).decode


def mbr_decode(wg: WordGraph, max_paths: int = 100) -> SymbolSequence:
    """Unimodal minimum-risk decode: the set-median path of one lattice."""
    hyp = lattice_hypotheses(wg, max_paths)
    refs = sorted(hyp)
    post = np.array([hyp[r] for r in refs])
    risks = edit_distance_matrix(refs, refs) @ post
    best = min(
        range(len(refs)), key=lambda k: (risks[k], -hyp[refs[k]], refs[k])
    )
    return SymbolSequence(refs[best])


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
    """
    union = sorted(set(sub_i) | set(sub_a))
    denom = 1.0 + lam * len(union)
    col = {}
    for lab in union:
        si = (sub_i.get(lab, 0.0) + lam) / denom
        sa = (sub_a.get(lab, 0.0) + lam) / denom
        col[lab] = si**alpha * sa ** (1.0 - alpha)
    total = sum(col.values())
    for lab in col:
        col[lab] /= total
    return col


def combine_cns(
    cn_i: ConfusionNetwork,
    cn_a: ConfusionNetwork,
    alpha: float,
    lam: float,
    path: list | None = None,
) -> ConfusionNetwork:
    """Merge two DTW-aligned confusion networks into one.

    Walks the warping path (computed here unless supplied): diagonal steps
    merge the matched subnetworks, unless the pair is completely different,
    in which case the image and audio subnetworks are each emitted merged
    with the unit-weight ``<eps>`` subnetwork (image first).  Non-diagonal
    steps leave one subnetwork alone; it merges with the ``<eps>``
    subnetwork on the missing side.
    """
    if path is None:
        path, _ = dtw_align(cn_i, cn_a, subnetwork_distance)
    subs_i = cn_i.subnetworks
    subs_a = cn_a.subnetworks
    columns = []
    prev = None
    for i, j in path:
        matched = prev is None or (i - prev[0], j - prev[1]) == (1, 1)
        if matched:
            if completely_different(subs_i[i], subs_a[j]):
                columns.append(
                    merge_subnetworks(subs_i[i], _EPS_SUBNETWORK, alpha, lam)
                )
                columns.append(
                    merge_subnetworks(_EPS_SUBNETWORK, subs_a[j], alpha, lam)
                )
            else:
                columns.append(merge_subnetworks(subs_i[i], subs_a[j], alpha, lam))
        elif i - prev[0] == 1:
            columns.append(merge_subnetworks(subs_i[i], _EPS_SUBNETWORK, alpha, lam))
        else:
            columns.append(merge_subnetworks(_EPS_SUBNETWORK, subs_a[j], alpha, lam))
        prev = (i, j)
    return ConfusionNetwork(tuple(columns))


def fuse_global(
    wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig = FusionConfig()
) -> SymbolSequence:
    """Confusion-network fusion: convert, align, merge, decode, strip."""
    return _prepare_global(wg_i, wg_a, cfg)(cfg.alpha)


def _prepare_global(wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig):
    """Convert and DTW-align once; merge and decode per alpha."""
    cn_i = cn_from_wg(wg_i, cfg.max_paths)
    cn_a = cn_from_wg(wg_a, cfg.max_paths)
    path, _ = dtw_align(cn_i, cn_a, subnetwork_distance)

    def decode(alpha: float) -> SymbolSequence:
        merged = combine_cns(cn_i, cn_a, alpha, cfg.laplace_lambda, path)
        return strip_eps(cn_best_path(merged))

    return decode


def merge_aligned_best_paths(
    seq_i: SymbolSequence, seq_a: SymbolSequence, sw: SWParams
) -> SymbolSequence:
    """Merge two score-annotated sequences around their SW local alignment.

    Within the aligned window: agreeing positions keep the shared symbol,
    gaps keep the symbol that is present, and conflicts keep the symbol with
    the larger edge score (the image side wins exact ties).  Material outside
    the window is kept in order, image side first.
    """
    res = smith_waterman(seq_i, seq_a, sw)
    a_idx = [k for k in res.a_indices if k is not None]
    b_idx = [k for k in res.b_indices if k is not None]
    a_lo, a_hi = (a_idx[0], a_idx[-1] + 1) if a_idx else (0, 0)
    b_lo, b_hi = (b_idx[0], b_idx[-1] + 1) if b_idx else (0, 0)

    labels = []
    scores = []

    def take(seq, k):
        labels.append(seq.labels[k])
        scores.append(seq.scores[k] if seq.scores is not None else 1.0)

    for k in range(a_lo):
        take(seq_i, k)
    for k in range(b_lo):
        take(seq_a, k)
    for ia, ja in zip(res.a_indices, res.b_indices):
        if ia is None:
            take(seq_a, ja)
        elif ja is None:
            take(seq_i, ia)
        elif seq_i.labels[ia] == seq_a.labels[ja]:
            take(seq_i, ia)
        else:
            si = seq_i.scores[ia] if seq_i.scores is not None else 1.0
            sa = seq_a.scores[ja] if seq_a.scores is not None else 1.0
            if si >= sa:
                take(seq_i, ia)
            else:
                take(seq_a, ja)
    for k in range(a_hi, len(seq_i)):
        take(seq_i, k)
    for k in range(b_hi, len(seq_a)):
        take(seq_a, k)
    return SymbolSequence(tuple(labels), tuple(scores))


def fuse_local(
    wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig = FusionConfig()
) -> SymbolSequence:
    """Best-path fusion by Smith-Waterman local alignment."""
    seq_i, _ = best_path(wg_i)
    seq_a, _ = best_path(wg_a)
    return merge_aligned_best_paths(seq_i, seq_a, cfg.sw)


def _alpha_free(hyp: SymbolSequence):
    return lambda alpha: hyp


#: Every fusion method as ``prepare(wg_i, wg_a, cfg) -> decode(alpha)``:
#: ``prepare`` does the work shared by all alphas once per lattice pair,
#: ``decode`` returns the fused sequence for one alpha.  Entries look the
#: module's functions up by name when called, never holding the function
#: objects, so a patched or wrapped function is the one that runs.
PREPARE_METHOD = {
    "mbr": _prepare_mbr,
    "lightly_ia": lambda wg_i, wg_a, cfg: _alpha_free(fuse_lightly(wg_i, wg_a)),
    "lightly_ai": lambda wg_i, wg_a, cfg: _alpha_free(fuse_lightly(wg_a, wg_i)),
    "global": _prepare_global,
    "local": lambda wg_i, wg_a, cfg: _alpha_free(fuse_local(wg_i, wg_a, cfg)),
}


def run_fusion(
    wg_i: WordGraph, wg_a: WordGraph, cfg: FusionConfig
) -> SymbolSequence:
    """Fuse with ``cfg.method`` at ``cfg.alpha``; image lattice first."""
    return PREPARE_METHOD[cfg.method](wg_i, wg_a, cfg)(cfg.alpha)
