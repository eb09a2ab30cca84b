"""Exact combinatorics of extended affine Weyl groups, alcove geometry,
Hecke-algebra modules with canonical bases, and the character-formula
verifications built on them.

The public surface re-exports the main types and entry points; the
submodules stay importable for the full API.
"""

from . import alcoves, characters, hecke, parabolic, periodic, rootdata, weyl
from .alcoves import Alcove
from .hecke import HeckeElem, KLCache, LaurentPoly, PCanonicalTable
from .parabolic import AsphElem, NotInImageError, SphElem
from .periodic import PeriodicElem, PositivityWindowError
from .rootdata import RootDatum, build_root_datum, complexity_bounds
from .weyl import ExtElem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "rootdata",
    "weyl",
    "alcoves",
    "hecke",
    "parabolic",
    "periodic",
    "characters",
    "RootDatum",
    "build_root_datum",
    "complexity_bounds",
    "ExtElem",
    "Alcove",
    "LaurentPoly",
    "HeckeElem",
    "PCanonicalTable",
    "KLCache",
    "AsphElem",
    "SphElem",
    "NotInImageError",
    "PeriodicElem",
    "PositivityWindowError",
]
