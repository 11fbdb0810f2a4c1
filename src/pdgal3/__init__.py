"""Parameterized differential Galois groups of third-order systems over Q(t)(x).

The public names are imported on first access (PEP 562), each from the one
module that defines it: `from pdgal3 import RatFunc` loads `ratfunc` and
what it needs, not the dispatcher.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names it defines
_EXPORTS = {
    "errors": ("ExpressionParseError", "IncompleteSearchError",
               "NonFuchsianError", "PdgalError", "UnsupportedError"),
    "galois3": ("classify2", "dispatch"),
    "groups": ("CaseReport", "Deferred", "Explicit", "Named", "Pullback",
               "jet", "pullback"),
    "integrability": ("character_lattice", "is_constant", "rank1_group",
                      "telescoper"),
    "modules": ("FlagCertificate", "diag_decompose", "is_invariant",
                "semisimplify"),
    "ratfunc": ("RatFunc",),
    "systems": ("DiffSystem", "direct_sum", "dual", "gauge", "prolong",
                "tensor", "wedge"),
}
#: public name -> the module that defines it
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [
    "Deferred", "DiffSystem", "CaseReport", "Explicit", "ExpressionParseError",
    "FlagCertificate", "IncompleteSearchError", "Named", "NonFuchsianError",
    "PdgalError", "Pullback", "RatFunc", "UnsupportedError",
    "character_lattice", "classify2", "diag_decompose", "direct_sum",
    "dispatch", "dual", "gauge", "is_constant", "is_invariant", "jet",
    "prolong", "pullback", "rank1_group", "semisimplify", "telescoper",
    "tensor", "wedge",
]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
