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

from .fit import FitConfig, fit_section
from .search import search_optimum

__version__ = "0.1.0"
