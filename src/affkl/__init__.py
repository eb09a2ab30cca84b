"""Exact combinatorics of extended affine Weyl groups, alcove geometry,
Hecke-algebra modules with canonical bases, and the character-formula
verifications built on them.

The public surface re-exports the main types and entry points; the
submodules stay importable for the full API.  ``import affkl`` loads no
layer: each name below is resolved on first use (PEP 562), so a process
compiles only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the layer that defines it; a layer is its own entry (None).
_EXPORTS = {
    "rootdata": None,
    "weyl": None,
    "alcoves": None,
    "hecke": None,
    "parabolic": None,
    "periodic": None,
    "characters": None,
    "RootDatum": "rootdata",
    "build_root_datum": "rootdata",
    "complexity_bounds": "rootdata",
    "ExtElem": "weyl",
    "Alcove": "alcoves",
    "LaurentPoly": "hecke",
    "HeckeElem": "hecke",
    "PCanonicalTable": "hecke",
    "KLCache": "hecke",
    "AsphElem": "parabolic",
    "SphElem": "parabolic",
    "NotInImageError": "parabolic",
    "PeriodicElem": "periodic",
    "PositivityWindowError": "periodic",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    layer = _EXPORTS[name]
    module = importlib.import_module("%s.%s" % (__name__, layer or name))
    value = module if layer is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
