"""Parameterized differential Galois groups of third-order systems over Q(t)(x)."""

__version__ = "0.1.0"

from .errors import (
    ExpressionParseError,
    IncompleteSearchError,
    NonFuchsianError,
    PdgalError,
    UnsupportedError,
)
from .galois3 import classify2, dispatch
from .groups import CaseReport, Deferred, Explicit, Named, Pullback, jet, pullback
from .integrability import character_lattice, is_constant, rank1_group, telescoper
from .modules import FlagCertificate, diag_decompose, is_invariant, semisimplify
from .ratfunc import RatFunc
from .systems import DiffSystem, direct_sum, dual, gauge, prolong, tensor, wedge

__all__ = [
    "Deferred",
    "DiffSystem",
    "CaseReport",
    "Explicit",
    "ExpressionParseError",
    "FlagCertificate",
    "IncompleteSearchError",
    "Named",
    "NonFuchsianError",
    "PdgalError",
    "Pullback",
    "RatFunc",
    "UnsupportedError",
    "character_lattice",
    "classify2",
    "diag_decompose",
    "direct_sum",
    "dispatch",
    "dual",
    "gauge",
    "is_constant",
    "is_invariant",
    "jet",
    "prolong",
    "pullback",
    "rank1_group",
    "semisimplify",
    "telescoper",
    "tensor",
    "wedge",
]
