"""Command-line interface: analyze systems, build constructions, run checks.

Files and reports are JSON with the fixed schema tag "pdgal3/1"; matrix
entries are rational-expression strings in t and x.  Exit codes: 0 success,
1 parse error, a certificate that certifies nothing (CertificateError) or a
`check constancy`/`check classify2` search that finds nothing without proof
(IncompleteSearchError; `analyze` reports such a search as undecided), 2
unsupported input (wrong dimension, or an irregular singularity without a
flag certificate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    ExpressionParseError,
    NonFuchsianError,
    PdgalError,
    UnsupportedError,
)
from .galois3 import classify2, dispatch
from .groups import Deferred, Explicit, Named, Pullback, to_string
from .integrability import is_constant, telescoper
from .linalg import column_rank
from .modules import FlagCertificate, is_invariant
from .oreops import OreOp
from .ratfunc import RatFunc
from .systems import (
    DiffSystem,
    direct_sum,
    dual,
    gauge,
    prolong,
    tensor,
    wedge,
)

SCHEMA = "pdgal3/1"


# -- parsing -----------------------------------------------------------------------


def _parse_rows(rows, what):
    """A non-empty rectangular list of rows of expressions, parsed."""
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) and row for row in rows)
            or len({len(row) for row in rows}) != 1):
        raise ExpressionParseError(
            f"{what} must be a non-empty list of rows of equal length")
    return [[RatFunc.parse(str(v)) for v in row] for row in rows]


def _parse_matrix(rows) -> DiffSystem:
    parsed = _parse_rows(rows, "matrix")
    if len(parsed) != len(parsed[0]):
        raise ExpressionParseError("matrix must be square")
    return DiffSystem(parsed)


def _load_subspace_file(path, dim):
    """The n x k column basis of a subspace file, for a system of dim n."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExpressionParseError(f"cannot read subspace file {path!r}: {exc}")
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ExpressionParseError("subspace file needs a 'matrix' field")
    return _parse_subspace(doc["matrix"], dim, "subspace matrix")


def _parse_subspace(rows, dim, what):
    """The n x k column basis given by rows, for a system of dim n."""
    S = _parse_rows(rows, what)
    if len(S) != dim:
        raise ExpressionParseError(
            f"{what} has {len(S)} rows, the system has dimension {dim}")
    if column_rank(S) != len(S[0]):
        raise ExpressionParseError(f"{what} columns must be independent")
    return S


def _load_system_file(path):
    """(DiffSystem, FlagCertificate | None) from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExpressionParseError(f"cannot read system file {path!r}: {exc}")
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ExpressionParseError("system file needs a 'matrix' field")
    M = _parse_matrix(doc["matrix"])
    if "dim" in doc and doc["dim"] != M.dim:
        raise ExpressionParseError("'dim' does not match the matrix size")
    cert = None
    certs = doc.get("certificates") or {}
    if not isinstance(certs, dict):
        raise ExpressionParseError("'certificates' must be an object")
    if "flag" in certs:
        if not isinstance(certs["flag"], list):
            raise ExpressionParseError("'flag' must be a list of subspaces")
        subspaces = tuple(
            tuple(map(tuple, _parse_subspace(S, M.dim, "flag subspace")))
            for S in certs["flag"]
        )
        cert = FlagCertificate(subspaces=subspaces)
    return M, cert


def _system_doc(M: DiffSystem) -> dict:
    return {"schema": SCHEMA, "dim": M.dim, "matrix": M.to_strings()}


# -- report serialization ------------------------------------------------------------


def _data_to_json(v):
    if isinstance(v, OreOp):
        return {"operator": v.to_string()}
    if isinstance(v, RatFunc):
        return v.to_string()
    if isinstance(v, dict):
        return {str(k): _data_to_json(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_data_to_json(u) for u in v]
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


def _group_to_json(g) -> dict:
    if isinstance(g, Explicit):
        return {
            "kind": "explicit",
            "dim": g.dim,
            "equations": [to_string(e) + " = 0" for e in g.equations],
            "flags": list(g.flags),
        }
    if isinstance(g, Named):
        return {
            "kind": "named",
            "dim": g.dim,
            "family": g.family,
            "data": _data_to_json(g.data),
            "flags": list(g.flags),
        }
    if isinstance(g, Pullback):
        return {
            "kind": "pullback",
            "dim": g.dim,
            "ambient": _group_to_json(g.ambient) if g.ambient else None,
            "components": [
                {
                    "representation": {
                        "name": rep.name,
                        "entries": [[to_string(v, rep.denom) for v in row]
                                    for row in rep.entries],
                    },
                    "group": _group_to_json(sub),
                }
                for rep, sub in g.components
            ],
            "flags": list(g.flags),
        }
    if isinstance(g, Deferred):
        return {
            "kind": "deferred",
            "dim": g.dim,
            "reduction": g.reduction,
            "data": _data_to_json(g.data),
            "partial": _group_to_json(g.partial) if g.partial else None,
            "flags": list(g.flags),
        }
    raise TypeError(f"unknown group description {type(g).__name__}")


def _emit(doc, args):
    text = json.dumps(doc, indent=2 if args.pretty else None, sort_keys=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- commands -----------------------------------------------------------------------


def cmd_analyze(args) -> int:
    M, cert = _load_system_file(args.path)
    if M.dim != 3:
        raise UnsupportedError("dim must be 3")
    t0 = time.perf_counter()
    report, group = dispatch(M, cert)
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "case_path": report.case_path,
        "type_tags": list(report.type_tags),
        "group": _group_to_json(group),
        "certificates": _data_to_json(list(report.certificates)),
        "flags": list(report.flags),
        "tau_notes": list(report.tau_notes),
        "timing_seconds": round(time.perf_counter() - t0, 3),
    }
    _emit(doc, args)
    print(
        f"case {report.case_path}; flags: {', '.join(report.flags) or 'none'}",
        file=sys.stderr,
    )
    return 0


_CONSTRUCTIONS = {
    "tensor": (2, tensor),
    "dual": (1, dual),
    "wedge": (1, None),  # handled specially (k argument)
    "prolong": (1, prolong),
    "gauge": (2, None),  # second input is the basis B, Y = B·Z
    "directsum": (2, direct_sum),
}


def cmd_construct(args) -> int:
    arity, fn = _CONSTRUCTIONS[args.op]
    inputs = [_load_system_file(p)[0] for p in args.paths]
    if len(inputs) != arity:
        raise ExpressionParseError(
            f"construct {args.op} needs {arity} input file(s)"
        )
    if args.op == "wedge":
        if not 1 <= args.k <= inputs[0].dim:
            raise ExpressionParseError(
                f"wedge power -k {args.k} is not in 1..{inputs[0].dim}")
        out = wedge(inputs[0], args.k)
    elif args.op == "gauge":
        M, B = inputs
        if B.dim != M.dim or column_rank(B.A) != B.dim:
            raise ExpressionParseError(
                f"gauge basis must be an invertible {M.dim}x{M.dim} matrix")
        out = gauge(M, B.A)
    else:
        out = fn(*inputs)
    _emit(_system_doc(out), args)
    print(f"{args.op}: {out.dim}x{out.dim} system", file=sys.stderr)
    return 0


#: input files each check kind takes
_CHECK_PATHS = {"constancy": 1, "classify2": 1, "invariant": 2, "telescoper": 0}


def cmd_check(args) -> int:
    need = _CHECK_PATHS[args.kind]
    if len(args.paths) != need:
        raise ExpressionParseError(
            f"check {args.kind} needs {need} input file(s)")
    doc = {"schema": SCHEMA, "command": "check", "kind": args.kind}
    t0 = time.perf_counter()
    if args.kind == "constancy":
        M = _load_system_file(args.paths[0])[0]
        w = is_constant(M)
        doc["constant"] = w is not None
        if w is not None:
            doc["witness"] = [[v.to_string() for v in row] for row in w.B]
    elif args.kind == "classify2":
        M, cert = _load_system_file(args.paths[0])
        doc["type"] = classify2(M, cert)
    elif args.kind == "invariant":
        M = _load_system_file(args.paths[0])[0]
        S = _load_subspace_file(args.paths[1], M.dim)
        B = is_invariant(M, S)
        doc["invariant"] = B is not None
        if B is not None:
            doc["restriction"] = [[v.to_string() for v in row] for row in B]
    elif args.kind == "telescoper":
        if args.expr is None:
            raise ExpressionParseError("check telescoper needs --expr")
        f = RatFunc.parse(args.expr)
        op = telescoper(f)
        doc["operator"] = op.to_string()
        doc["order"] = op.order
    doc["timing_seconds"] = round(time.perf_counter() - t0, 3)
    _emit(doc, args)
    print(f"check {args.kind}: done", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdgal3",
        description="Parameterized differential Galois groups of third-order "
        "systems over Q(t)(x).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false",
                     default=False)
    fmt.add_argument("--pretty", dest="pretty", action="store_true")

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="classify and compute the group of a 3-dim system")
    p.add_argument("path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("construct", parents=[common],
                       help="apply a module construction to system files")
    p.add_argument("op", choices=sorted(_CONSTRUCTIONS))
    p.add_argument("paths", nargs="+")
    p.add_argument("-k", type=int, default=2, help="wedge power")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check", parents=[common],
                       help="run a single primitive test")
    p.add_argument("kind", choices=list(_CHECK_PATHS))
    p.add_argument("paths", nargs="*")
    p.add_argument("--expr", default=None,
                   help="expression for kind=telescoper")
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ExpressionParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedError, NonFuchsianError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except PdgalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
