"""Conformal mapping of 2D ship sections onto the unit circle.

The package fits the scale factor and odd-power coefficient family that
carries a section contour, given as waterline-down offsets, onto the unit
circle: parsing and validation (:mod:`hullmap.section`), the mapping and its
Lewis-form seed (:mod:`hullmap.mapping`), angle assignment
(:mod:`hullmap.theta`), the coefficient update (:mod:`hullmap.linsys`), the
alternating fit (:mod:`hullmap.fit`), the order search
(:mod:`hullmap.search`), accuracy reporting (:mod:`hullmap.report`), and a
command line front end (:mod:`hullmap.cli`).
"""

from .errors import (
    ConfigurationError,
    DegenerateNormalError,
    DegenerateSectionError,
    DimensionMismatchError,
    FitAbortError,
    HullmapError,
    OffsetsParseError,
    SearchFailedError,
    SectionValidationError,
    SingularSystemError,
)
from .fit import FitConfig, FitResult, compute_error, fit_nonsymmetric, fit_section, fit_symmetric
from .linsys import LinearSystem, assemble_general, assemble_symmetric, lu_solve
from .mapping import (
    LewisGuess,
    MappingCoefficients,
    ScaledCoefficients,
    average_coefficients,
    breadth_and_draft,
    evaluate_boundary,
    evaluate_offset_contour,
    lewis_initial_guess,
)
from .report import AccuracyReport, build_report, nash_sutcliffe
from .search import SearchRecord, SearchReport, min_error_for_order, next_tolerance, search_optimum
from .section import (
    SectionOffsets,
    from_points,
    full_area,
    load_offsets,
    mirror_to_full,
    parse_offsets,
    section_extents,
    serialize_offsets,
    split_areas,
)
from .theta import (
    NormalDirection,
    ThetaAssignment,
    assign_thetas,
    theta_residual,
)

__version__ = "0.1.0"
