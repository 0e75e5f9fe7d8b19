"""Lattice-level late fusion of image and audio transcription hypotheses.

The package decodes word-graph hypothesis spaces, converts them to confusion
networks, fuses paired lattices with four strategies (minimum expected risk,
lightly-supervised correction, global confusion-network alignment, local
best-path alignment), scores transcriptions with the symbol error rate, and
reproduces a nine-scenario synthetic evaluation grid with paired
significance tests.
"""

from .align import (
    AlignmentResult,
    SWParams,
    align_seq_to_lattice,
    dtw_align,
    edit_distance,
    normalized_char_ed,
    smith_waterman,
    subnetwork_distance,
)
from .ctc import Posteriorgram, collapse_map, greedy_decode, posteriorgram_to_wg
from .errors import FormatError, LatticeError, PathCountExceededError
from .fusion import (
    METHODS,
    FusionConfig,
    MbrTables,
    combine_cns,
    fuse_lightly,
    lattice_hypotheses,
    mbr_decode,
    merge_aligned_best_paths,
    merge_subnetworks,
    run_fusion,
)
from .lattice import (
    BLANK,
    EPS,
    MAX_PATHS,
    ConfusionNetwork,
    Edge,
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
    strip_eps,
    topological_order,
    validate_cn,
    validate_wg,
)
from .metrics import (
    EvalPair,
    WilcoxonResult,
    result_line,
    ser,
    wilcoxon_line,
    wilcoxon_signed_rank,
)
from .simulate import (
    DEFAULT_ALPHA_GRID,
    LEVEL_TARGET_SER,
    LEVELS,
    ScenarioReport,
    ScenarioSpec,
    alpha_grid_from_step,
    calibrate_noise,
    calibrated_rate,
    default_vocabulary,
    generate_wg_pair,
    grid_specs,
    measure_calibrated_level,
    run_scenario,
    run_scenario_grid,
    write_grid_reports,
)

__version__ = "0.1.0"
