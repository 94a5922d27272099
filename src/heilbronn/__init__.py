"""Average-case Heilbronn triangle toolkit.

Exact minimum-area triangle search, grid/pebble arrangements with
big-integer ranking, compression-witness codecs for structured
arrangements, extremal constructions, and a reproducible Monte Carlo
harness for the 1/n^3 scaling law of the expected smallest triangle.
"""

from .coding import (
    ArrangementIndex,
    BitReader,
    BitString,
    DecodeError,
    baseline_length,
    nat_to_string,
    rank_arrangement,
    sd_bar,
    sd_prime,
    string_to_nat,
    unrank_arrangement,
)
from .constructions import (
    OptimizerResult,
    erdos_area_lower_bound,
    erdos_prime,
    optimize_heilbronn,
)
from .geometry import (
    GridArrangement,
    GridPoint,
    PointSet,
    TriangleReport,
    UnitPoint,
    min_area_triangle,
    normalize_area,
    twice_signed_area,
)
from .montecarlo import (
    DegeneracyStats,
    MuEstimate,
    PointSetReport,
    ScalingFit,
    TailEstimate,
    analyze_pointset,
    default_trial_schedule,
    degenerate_structure_stats,
    estimate_mu,
    fit_exponent,
    sample_grid_arrangement,
    sample_unit_square,
    scan_mu,
    tail_probability,
)
from .witnesses import (
    ForbiddingLineSet,
    InterceptWindow,
    SmallTriangleGeometry,
    WitnessReport,
    count_forbidding_lines,
    decode_witness,
    encode_collinear_witness,
    encode_rowline_witness,
    encode_small_triangle_witness,
    encode_theorem2,
    encode_witness,
    excluded_columns,
    find_collinear_triple,
    forbidding_lines,
    intercept_spacings,
    small_triangle_geometry,
    split_row,
    upper_bound_formula,
)

__version__ = "0.1.0"
