"""Outside-in call tracing of the package's layers.

The package binds names with `from .x import y`, so a function object can be
reachable from several modules.  `Tracer.install` replaces the function in
its defining module and in every other `pdgal3` module that holds the same
object, so that each call is counted once whichever name it went through.
Self time is a wrapped span minus the wrapped spans nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: metric prefix -> (module, attribute); "Class.method" wraps a method
TARGETS = {
    "ratfunc.parse": ("ratfunc", "RatFunc.parse"),
    "ratfunc.monic_pair": ("ratfunc", "RatFunc.monic_pair"),
    "ratfunc.residues": ("ratfunc", "residues"),
    "ratfunc.rational_antiderivative": ("ratfunc", "rational_antiderivative"),
    "ratfunc.is_log_derivative": ("ratfunc", "is_log_derivative"),
    "linalg.solve_affine": ("linalg", "solve_affine"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "systems.mat_inv": ("systems", "mat_inv"),
    "systems.gauge": ("systems", "gauge"),
    "systems.dual": ("systems", "dual"),
    "modules.k_solve_right": ("modules", "k_solve_right"),
    "modules.k_nullspace": ("modules", "k_nullspace"),
    "modules.diag_decompose": ("modules", "diag_decompose"),
    "modules.semisimplify": ("modules", "semisimplify"),
    "modules.split_extension": ("modules", "split_extension"),
    "modules.morphisms": ("modules", "morphisms"),
    "solvers.rational_solutions": ("solvers", "rational_solutions"),
    "solvers.hyperexponential_classes": ("solvers", "hyperexponential_classes"),
    "integrability.is_constant": ("integrability", "is_constant"),
    "integrability.telescoper": ("integrability", "telescoper"),
    "integrability.rank1_group": ("integrability", "rank1_group"),
    "integrability.character_lattice": ("integrability", "character_lattice"),
    "groups.Explicit": ("groups", "Explicit.__init__"),
    "groups.pullback": ("groups", "pullback"),
    "groups.member": ("groups", "GroupDescription.member"),
    "galois3.dispatch": ("galois3", "dispatch"),
    "galois3.classify2": ("galois3", "classify2"),
    "series.fundamental_series": ("series", "fundamental_series"),
    "series.delta_series": ("series", "delta_series"),
    "series.satisfies": ("series", "satisfies"),
}

PACKAGE = "pdgal3"


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def patch_everywhere(orig, replacement) -> list:
    """Rebind every module-level name in the package that holds `orig`.

    Returns the patched "module.name" sites."""
    sites = []
    for mod in package_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                sites.append(f"{mod.__name__}.{key}")
    return sites


class Tracer:
    """Per-function call counts and self times, plus the derived counters."""

    def __init__(self):
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.sites = {}
        self._stack = []  # child-time accumulators of the open spans
        self.unknowns = 0
        self.hyper_inputs = set()
        self.split_hits = 0

    def _wrap(self, name, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - child[0]
                if stack:
                    stack[-1][0] += span
            if after is not None:
                after(args, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def _after_solve_affine(self, args, result):
        A = args[0]
        self.unknowns += len(A[0]) if A else 0

    def _after_hyper(self, args, result):
        try:
            self.hyper_inputs.add(args[0])
        except TypeError:
            self.hyper_inputs.add(repr(args[0]))

    def _after_split(self, args, result):
        if result[0] is not None:
            self.split_hits += 1

    def install(self):
        """Wrap every target that exists; a missing one stays at zero."""
        after = {
            "linalg.solve_affine": self._after_solve_affine,
            "solvers.hyperexponential_classes": self._after_hyper,
            "modules.split_extension": self._after_split,
        }
        for name, (modname, attr) in TARGETS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if getattr(fn, "__bench_traced__", False):
                    continue
                w = self._wrap(name, fn, after.get(name))
                setattr(owner, member, classmethod(w) if is_cm else w)
                self.sites[name] = [f"{mod.__name__}.{attr}"]
            else:
                fn = getattr(mod, member, None)
                if fn is None or getattr(fn, "__bench_traced__", False):
                    continue
                self.sites[name] = patch_everywhere(fn, self._wrap(name, fn, after.get(name)))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "unknowns": self.unknowns,
            "hyper_distinct": len(self.hyper_inputs),
            "split_hits": self.split_hits,
        }
