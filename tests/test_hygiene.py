"""Static hygiene of the package source: no dead imports, no dead parameters,
no dead private functions or classes, no broad `except` that swallows, no
handler of IncompleteSearchError outside the dispatcher, no caller of the
class search outside `modules.Analysis`, no elimination (`rref`,
`rref_den`, `nullspace`) outside `linalg`, and no inverse modulo a
polynomial outside the residue routine and the telescoper.  One check runs
a fresh interpreter: the package's public names load on first access.

A plain `ast` scan, scope-blind on purpose: a name counts as used when any
`Name` node of the module (or, for a parameter, of the function) reads it.
"""

import ast
import collections
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdgal3"


@functools.cache
def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _reads(nodes) -> set:
    return {n.id for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(node):
    """(source, bound name) per alias of an import statement."""
    for alias in node.names:
        if isinstance(node, ast.ImportFrom):
            yield (node.level, node.module, alias.name), alias.asname or alias.name
        else:
            yield (0, alias.name, None), alias.asname or alias.name.split(".")[0]


def test_no_unused_or_repeated_imports():
    bad = []
    for mod, tree in _modules().items():
        nodes = list(ast.walk(tree))
        used = _reads(nodes) | _exported(tree)
        top = {src for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for src, _ in _imported(node)}
        outer = set(map(id, tree.body))
        for node in nodes:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for src, name in _imported(node):
                if name not in used:
                    bad.append(f"{mod}:{node.lineno}: {name} is never read")
                elif id(node) not in outer and src in top:
                    bad.append(f"{mod}:{node.lineno}: {name} is imported at "
                               "module level already")
    assert not bad, "\n".join(bad)


def test_no_unused_parameters_of_private_functions():
    bad = []
    for mod, tree in _modules().items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            used = _reads(n for stmt in node.body for n in ast.walk(stmt))
            bad += [f"{mod}.{node.name}: {p.arg}" for p in params
                    if p.arg not in used]
    assert not bad, "\n".join(bad)


def test_no_unread_private_definitions():
    """A private module-level function or class that no module of the
    package reads, outside its own body, is dead code."""
    reads = collections.Counter()
    for tree in _modules().values():
        reads.update(n.id for n in ast.walk(tree)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    bad = []
    for mod, tree in _modules().items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            own = sum(1 for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                      and n.id == node.name)
            if reads[node.name] == own:
                bad.append(f"{mod}.{node.name} is never read")
    assert not bad, "\n".join(bad)


ROOT = SRC.parent.parent


def test_every_definition_is_named_elsewhere():
    """A function, method or class of the package whose name appears in no
    other place of the package, its tests or its benchmark is dead code.
    Dunder methods are called by the language and are exempt."""
    text = "\n".join(p.read_text() for d in ("src", "tests", "bench")
                     for p in sorted((ROOT / d).rglob("*.py")))
    words = collections.Counter(re.findall(r"\w+", text))
    defs = collections.Counter(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    bad = sorted({f"{mod}.{node.name}" for mod, tree in _modules().items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("__")
                  and words[node.name] <= defs[node.name]})
    assert not bad, "\n".join(bad)


def test_benchmark_trace_targets_resolve():
    """Every function that the benchmark's tracer wraps is still defined
    where `bench/layertrace.TARGETS` names it.  The tracer skips a missing
    target and reports zero calls for it."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    bad = []
    for name, (module, attr) in layertrace.TARGETS.items():
        mod = importlib.import_module(f"{layertrace.PACKAGE}.{module}")
        owner, _, member = attr.rpartition(".")
        found = (member in vars(getattr(mod, owner, object))
                 if owner else callable(getattr(mod, member, None)))
        if not found:
            bad.append(f"{name}: {module}.{attr}")
    assert not bad, "\n".join(bad)


#: the code the power-series oracle checks, which it must not import
CHECKED = {"linalg", "solvers", "modules", "integrability", "galois3", "groups"}


def test_series_oracle_stays_independent():
    bad = []
    for node in ast.walk(_modules()["series"]):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for (level, module, name), _ in _imported(node):
            path = (module or "").split(".") + [name]
            if level == 0 and path[0] != "pdgal3":
                continue
            hit = CHECKED & set(path)
            if hit:
                bad.append(f"series:{node.lineno}: imports {sorted(hit)}")
    assert not bad, "\n".join(bad)


#: memoizers that outlive a call: a result they keep is module state
MODULE_CACHES = {"cache", "lru_cache"}


def test_no_module_level_caches_or_globals():
    """Facts are shared through an object made per analysis (an instance's
    `cached_property` is fine), never through `functools.cache`,
    `functools.lru_cache` or a `global` statement."""
    bad = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                bad.append(f"{mod}:{node.lineno}: global {', '.join(node.names)}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and MODULE_CACHES & {a.name for a in node.names}):
                bad.append(f"{mod}:{node.lineno}: imports a functools cache")
            elif (isinstance(node, ast.Attribute) and node.attr in MODULE_CACHES
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                bad.append(f"{mod}:{node.lineno}: functools.{node.attr}")
    assert not bad, "\n".join(bad)


#: handlers that catch more than the package's own errors
BROAD = {"Exception", "BaseException"}


def _package_errors() -> set:
    """PdgalError and every class of errors.py derived from it."""
    names = {"PdgalError"}
    for node in _modules()["errors"].body:
        if (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id in names
                        for b in node.bases)):
            names.add(node.name)
    return names


def _swallowing_handlers(tree, errors) -> list:
    """Line numbers of bare `except:` or `except Exception` handlers whose
    last statement does not raise one of `errors`."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                  else [node.type])
        if not any(c is None or (isinstance(c, ast.Name) and c.id in BROAD)
                   for c in caught):
            continue
        last = node.body[-1]
        exc = getattr(last, "exc", None)
        if isinstance(exc, ast.Call):
            exc = exc.func
        if not (isinstance(last, ast.Raise) and isinstance(exc, ast.Name)
                and exc.id in errors):
            bad.append(node.lineno)
    return bad


def test_broad_excepts_raise_package_errors():
    """A broad handler may only translate into a package error: one that
    returns or carries on would turn a bug into an answer."""
    errors = _package_errors()
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _swallowing_handlers(tree, errors)]
    assert not bad, "\n".join(bad)


def test_broad_except_rule_flags_swallowing():
    errors = _package_errors()
    snippet = """
try:
    f()
except Exception:
    handled = False
try:
    f()
except:
    pass
try:
    f()
except (ValueError, BaseException) as exc:
    raise RuntimeError() from exc
try:
    f()
except Exception as exc:
    raise ExpressionParseError("bad") from exc
try:
    f()
except ValueError:
    handled = False
"""
    assert _swallowing_handlers(ast.parse(snippet), errors) == [4, 8, 12]


def _incomplete_search_handlers(tree) -> list:
    """Line numbers of `except` handlers that name IncompleteSearchError."""

    def name(c):
        return c.id if isinstance(c, ast.Name) else getattr(c, "attr", None)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(name(c) == "IncompleteSearchError"
                    for c in (node.type.elts if isinstance(node.type, ast.Tuple)
                              else [node.type]))]


def test_incomplete_searches_are_caught_only_by_the_dispatcher():
    """A search that finds nothing without proof that nothing exists raises
    IncompleteSearchError, and only galois3 catches it: where the line search
    goes on past an undecided candidate, and where the dispatcher writes the
    undecided report.  A handler anywhere else could read "none found" as
    "none exists"."""
    found = {mod: _incomplete_search_handlers(tree)
             for mod, tree in _modules().items()}
    assert not {mod: lines for mod, lines in found.items()
                if lines and mod != "galois3"}
    assert len(found["galois3"]) <= 2


def test_incomplete_search_rule_flags_handlers():
    snippet = """
def _try_constant(W):
    try:
        return is_constant(W)
    except IncompleteSearchError:
        return None
try:
    f()
except (ValueError, errors.IncompleteSearchError):
    pass
try:
    f()
except PdgalError:
    pass
"""
    assert sorted(_incomplete_search_handlers(ast.parse(snippet))) == [5, 9]


def _class_search_calls(mod, tree) -> list:
    """Line numbers of calls to `hyperexponential_classes`, by name or as an
    attribute, anywhere but in the class `Analysis` of `modules`."""

    def calls(node, inside):
        if isinstance(node, ast.ClassDef) and node.name == "Analysis":
            inside = mod == "modules"
        f = getattr(node, "func", None)
        if (not inside and isinstance(node, ast.Call)
                and getattr(f, "id", getattr(f, "attr", None))
                == "hyperexponential_classes"):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from calls(child, inside)

    return list(calls(tree, False))


def test_class_search_is_read_through_the_analysis():
    """The class search returns its completeness beside its classes, and
    `modules.Analysis.classes` is the one place that reads both: it raises
    where "no class found" is no proof of none.  Any other caller could read
    the classes without their completeness."""
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _class_search_calls(mod, tree)]
    assert not bad, "\n".join(bad)


def test_class_search_rule_flags_calls():
    snippet = """
class Analysis:
    def classes(self, M):
        return solvers.hyperexponential_classes(M)
def _line(M):
    return hyperexponential_classes(M)[0]
class Other:
    def f(self, M, an):
        return an.hyperexponential_classes(M)
"""
    tree = ast.parse(snippet)
    assert _class_search_calls("modules", tree) == [6, 9]
    assert _class_search_calls("galois3", tree) == [4, 6, 9]


#: the elimination methods of sympy's matrices: `linalg` is the package's
#: one exact linear-algebra path, so no other module calls them
ELIMINATIONS = {"rref", "rref_den", "nullspace"}


def _elimination_calls(mod, tree) -> list:
    """Line numbers of calls `X.rref(...)`, `X.rref_den(...)` and
    `X.nullspace(...)` in a module other than `linalg`."""
    if mod == "linalg":
        return []
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ELIMINATIONS]


def test_eliminations_only_in_linalg():
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _elimination_calls(mod, tree)]
    assert not bad, "\n".join(bad)


def test_elimination_rule_flags_calls():
    snippet = """
def f(M, D):
    R, pivots = D.rref()
    return (M.nullspace(), D.rref_den(), rref(M), M.det(),
            linalg.nullspace(M))
"""
    tree = ast.parse(snippet)
    assert _elimination_calls("solvers", tree) == [3, 4, 4, 5]
    assert _elimination_calls("linalg", tree) == []


#: the `(module, function)` where `Poly.invert`, the inverse modulo a
#: polynomial, may be called: `ratfunc.residue_matrix`, the one residue
#: routine (d' modulo f), and `integrability.telescoper`, whose delta-action
#: on K_q = Q(t)[x]/(q) is q_t * q_x^(-1) mod q
INVERT_SCOPES = {("ratfunc", "residue_matrix"),
                 ("integrability", "telescoper")}


def _invert_calls(mod, tree) -> list:
    """Line numbers of calls `X.invert(...)` outside INVERT_SCOPES."""

    def calls(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "invert"
                and (mod, scope) not in INVERT_SCOPES):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from calls(child, scope)

    return list(calls(tree, None))


def test_residues_only_in_the_residue_routine():
    """A residue is d' inverted modulo a pole factor: any other such
    inverse is a second residue routine."""
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _invert_calls(mod, tree)]
    assert not bad, "\n".join(bad)


def test_invert_rule_flags_calls():
    snippet = """
def residue_matrix(N, d, f):
    return in_x(d.diff()).invert(f)
def residue_at(a, f):
    num, den = a.monic_pair()
    return (num * den.diff().invert(f)).rem(f)
class Block:
    def telescoper(self, q):
        return q.diff().invert(q), invert(q)
"""
    tree = ast.parse(snippet)
    assert _invert_calls("ratfunc", tree) == [6, 9]
    assert _invert_calls("solvers", tree) == [3, 6, 9]
    assert _invert_calls("integrability", tree) == [3, 6, 9]


#: sympy's expression normalizers; Q(t) values are domain elements and group
#: equations are jet polynomials, so the package needs none of them
NORMALIZERS = {"sympify", "cancel", "together"}
#: the `(module, Class.method)` where they may be called: only
#: `RatFunc.__init__`, which keeps its `sp.Expr` path for library callers
#: that build elements from sympy expressions.
NORMALIZER_SCOPES = {("ratfunc", "RatFunc.__init__")}


def _normalizer_calls(mod, tree) -> list:
    """Line numbers of calls to a sympy normalizer, as `sp.X(...)` or by an
    imported name, outside NORMALIZER_SCOPES."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "sympy"}
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "sympy"):
            names |= {a.asname or a.name for a in node.names
                      if a.name in NORMALIZERS}

    def calls(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and (mod, scope) not in NORMALIZER_SCOPES:
            f = node.func
            if ((isinstance(f, ast.Name) and f.id in names)
                    or (isinstance(f, ast.Attribute) and f.attr in NORMALIZERS
                        and isinstance(f.value, ast.Name)
                        and f.value.id in modules)):
                yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from calls(child, scope)

    return list(calls(tree, None))


def test_sympy_normalizers_only_in_ratfunc_init():
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _normalizer_calls(mod, tree)]
    assert not bad, "\n".join(bad)


def test_normalizer_rule_flags_calls():
    snippet = """
import sympy as sp
from sympy import cancel as c, together
class RatFunc:
    def __init__(self, v):
        sp.cancel(v)
    def f(self, v):
        return sp.sympify(v)
def g(v):
    return c(together(v)) + v.cancel() + sp.expand(v)
"""
    tree = ast.parse(snippet)
    assert _normalizer_calls("ratfunc", tree) == [8, 10, 10]
    assert _normalizer_calls("groups", tree) == [6, 8, 10, 10]
    assert _normalizer_calls("oreops", tree) == [6, 8, 10, 10]


#: the sympy rewrites that the group layer, which holds its equations as
#: jet polynomials, must not call, under any name
GROUP_FORBIDDEN = NORMALIZERS | {"fraction", "expand", "xreplace", "subs"}


def test_group_layer_calls_no_sympy_rewrite():
    bad = []
    for mod in ("groups", "galois3"):
        for node in ast.walk(_modules()[mod]):
            f = getattr(node, "func", None)
            if (isinstance(node, ast.Call)
                    and getattr(f, "attr", getattr(f, "id", None)) in GROUP_FORBIDDEN):
                bad.append(f"{mod}:{node.lineno}")
    assert not bad, "\n".join(bad)
    assert not [src for node in ast.walk(_modules()["galois3"])
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for (_, src, _), _ in _imported(node)
                if (src or "").split(".")[0] == "sympy"]


#: what the expression parser must not call: the normalizers, and the two
#: ways into FIELD through a sympy expression
PARSER_FORBIDDEN = NORMALIZERS | {"from_sympy", "parse_expr"}


def _parser_calls(tree) -> list:
    """`function:line` of each forbidden call in `RatFunc.parse` and in the
    module functions it reaches by name; a class it builds by name brings in
    all of that class's methods."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    methods = {}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        methods[cls.name] = [f"{cls.name}.{m.name}" for m in cls.body
                             if isinstance(m, ast.FunctionDef)]
        defs |= {f"{cls.name}.{m.name}": m for m in cls.body
                 if isinstance(m, ast.FunctionDef)}
    seen, todo, bad = set(), ["RatFunc.parse"], []
    while todo:
        name = todo.pop()
        if name in methods and name not in seen:
            seen.add(name)
            todo += methods[name]
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in PARSER_FORBIDDEN:
                bad.append(f"{name}:{node.lineno}")
            elif isinstance(f, ast.Name):
                todo.append(f.id)
    return bad


def test_parser_uses_no_sympy_parsing_or_normalizer():
    tree = _modules()["ratfunc"]
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names}
    assert not [m for m in imported if m and m.startswith("sympy.parsing")]
    assert not _parser_calls(tree)


def test_parser_rule_flags_calls():
    snippet = """
class RatFunc:
    def parse(cls, text):
        return cls(_helper(text))
    def __init__(self, v):
        sp.cancel(v)
def _helper(text):
    return FIELD.from_sympy(_deeper(text, _Meter()))
def _deeper(text, meter):
    return sp.together(meter.charge(text))
class _Meter:
    def charge(self, text):
        return sp.cancel(text)
def _unreached(text):
    return sp.sympify(text)
"""
    assert sorted(_parser_calls(ast.parse(snippet))) == ["_Meter.charge:13",
                                                         "_deeper:10",
                                                         "_helper:8"]


def _inverse_gauges(tree) -> list:
    """Line numbers of calls `gauge(..., mat_inv(...))`: a gauge takes the
    basis B of Y = B*Z, so handing it an inverse undoes its own inversion."""

    def name(f):
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name(node.func) == "gauge"
            and any(isinstance(a, ast.Call) and name(a.func) == "mat_inv"
                    for a in node.args[1:])]


def test_no_gauge_by_an_inverse():
    bad = [f"{mod}:{line}" for mod, tree in _modules().items()
           for line in _inverse_gauges(tree)]
    assert not bad, "\n".join(bad)


def test_inverse_gauge_rule_flags_calls():
    snippet = """
def f(M, P):
    T = gauge(M, mat_inv(P))
    U = systems.gauge(M, linalg.mat_inv(P))
    return gauge(M, P), gauge(mat_inv(P), P), mat_inv(gauge(M, P))
"""
    assert _inverse_gauges(ast.parse(snippet)) == [3, 4]


def _package_targets(node, package):
    """The modules of `package` that an import statement names."""
    for (level, module, name), _ in _imported(node):
        parts = (module or "").split(".")
        if level == 0 and parts[0] == "pdgal3":
            parts = parts[1:]
        elif level != 1:
            continue
        target = parts[0] if parts and parts[0] else name
        if target in package:
            yield target


def _local_imports_without_cycle(package) -> list:
    """`module:line` of each function-local import of a package module N
    that could sit at module level: N does not reach the importing module
    through module-level imports, so hoisting it would close no cycle."""
    top = {mod: {n for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for n in _package_targets(node, package)}
           for mod, tree in package.items()}

    def reaches(src, dst):
        seen, todo = set(), [src]
        while todo:
            mod = todo.pop()
            if mod == dst:
                return True
            if mod not in seen:
                seen.add(mod)
                todo += top[mod]
        return False

    bad = []
    for mod, tree in package.items():
        outer = set(map(id, tree.body))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and id(node) not in outer):
                bad += [f"{mod}:{node.lineno}: {n}"
                        for n in _package_targets(node, package)
                        if not reaches(n, mod)]
    return bad


def test_function_local_imports_only_break_cycles():
    """A package module is imported inside a function only where importing
    it at module level would close an import cycle (ratfunc's `linalg`,
    which imports ratfunc)."""
    bad = _local_imports_without_cycle(_modules())
    assert not bad, "\n".join(bad)


def test_local_import_rule_flags_hoistable_imports():
    package = {mod: ast.parse(src) for mod, src in {
        "a": "from . import b\n",
        "b": "from .c import f\ndef g():\n    from .a import h\n",
        "c": "def f():\n    from .b import g\n    from pdgal3.d import k\n"
             "    import sympy\n",
        "d": "def k():\n    from pdgal3 import a\n",
    }.items()}
    assert _local_imports_without_cycle(package) == ["c:3: d", "d:2: a"]


LAZY_NAMES = """
import importlib, sys
from pdgal3 import RatFunc
assert "pdgal3.galois3" not in sys.modules, sorted(sys.modules)
import pdgal3
for name in pdgal3.__all__:
    obj = getattr(pdgal3, name)
    assert obj.__module__.startswith("pdgal3."), name
    assert getattr(importlib.import_module(obj.__module__), name) is obj, name
try:
    pdgal3.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("pdgal3.no_such_name did not raise AttributeError")
"""


def test_public_names_load_on_first_access():
    """`from pdgal3 import RatFunc` does not import the dispatcher; every
    name of `__all__` is the object of the module that defines it; an
    unknown name raises AttributeError."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", LAZY_NAMES], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
