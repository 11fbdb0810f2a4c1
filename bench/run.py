"""Time-to-verdict benchmark for pdgal3.

    python3 bench/run.py --workload certified --seed 1 --seconds 24 --trace 0

Runs one workload's systems one at a time (a closed loop with one client),
each in a forked child of a parent that has already imported the package,
with a per-system time limit.  Every verdict is checked against the answer
known by construction.  Passes over the workload repeat while the run time
allows.  With --trace 1, passes alternate between untraced and traced, and
the traced children wrap each layer's public functions from outside.  The
last line of standard output is one JSON object; see bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import sympy as sp

from workloads import WORKLOADS, terminal_case

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference_digests.json"

#: seconds one system may take before it counts as a time-limit failure
SYSTEM_LIMIT = 60.0
#: no new system starts this long after the run began, so the run ends in time
HARD_STOP = 150.0
#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 3
#: ansatz bound of the constancy search, as criterion 2 uses it
CONSTANCY_BOUND = 2
#: series order of the criterion-1 prolongation identity
SERIES_ORDER = 8
#: report keys covered by the output digest (timing_seconds is left out)
DIGEST_KEYS = ("case_path", "type_tags", "group", "certificates", "flags",
               "tau_notes")
#: flags and case-path markers of an incomplete verdict
UNDECIDED_FLAGS = {"bound-limited", "inconsistent"}

MODULES = ("__init__", "cli", "errors", "galois3", "groups", "integrability",
           "linalg", "modules", "oreops", "ratfunc", "series", "solvers",
           "systems")

SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pdgal3 import RatFunc
for path in sys.argv[2:]:
    with open(path) as fh:
        doc = json.load(fh)
    for rows in [doc["matrix"]] + doc.get("certificates", {}).get("flag", []):
        for row in rows:
            for v in row:
                RatFunc.parse(v)
"""


# -- the child: one system, isolated ---------------------------------------------------


def _capture_dispatch():
    """Record the (report, group) of the outermost dispatch call."""
    from pdgal3 import galois3
    from layertrace import patch_everywhere

    inner = galois3.dispatch
    box, depth = {}, [0]

    def capturing(*args, **kwargs):
        depth[0] += 1
        try:
            out = inner(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            box["out"] = out
        return out

    patch_everywhere(inner, capturing)
    return box


def _all_flags(doc) -> list:
    """Every entry of every "flags" list in a report document."""
    out = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == "flags" and isinstance(v, list):
                out.extend(str(f) for f in v)
            else:
                out.extend(_all_flags(v))
    elif isinstance(doc, list):
        for v in doc:
            out.extend(_all_flags(v))
    return out


def report_digest(doc: dict) -> str:
    body = {k: doc.get(k) for k in DIGEST_KEYS}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _load_system(path):
    from pdgal3 import DiffSystem, RatFunc

    with open(path) as fh:
        doc = json.load(fh)
    return DiffSystem([[RatFunc.parse(v) for v in row] for row in doc["matrix"]])


def _job(system, path, out_path) -> dict:
    """Run one system; the timed span is input file to verdict."""
    res = {}
    if system.kind == "analyze":
        from pdgal3 import cli

        box = _capture_dispatch()
        t0 = time.perf_counter()
        res["rc"] = cli.main(["analyze", str(path), "--out", str(out_path)])
        report, group = box["out"]
        res["members"] = [bool(group.member(M)) for M in system.members]
        res["nonmembers"] = [bool(group.member(M)) for M in system.nonmembers]
        res["elapsed"] = time.perf_counter() - t0
        with open(out_path) as fh:
            doc = json.load(fh)
        res["case_path"] = doc["case_path"]
        res["flags"] = _all_flags(doc)
        res["digest"] = report_digest(doc)
    elif system.kind == "constancy":
        from pdgal3 import is_constant

        t0 = time.perf_counter()
        w = is_constant(_load_system(path), bound=CONSTANCY_BOUND)
        res["constant"] = w is not None
        if w is not None:
            res["witness"] = [[v.to_string() for v in row] for row in w.B]
        res["elapsed"] = time.perf_counter() - t0
    else:
        from pdgal3 import prolong
        from pdgal3.series import (delta_series, fundamental_series,
                                   ordinary_point, satisfies, series_block)

        t0 = time.perf_counter()
        M = _load_system(path)
        Mp = prolong(M)
        x0 = ordinary_point(Mp)
        U = fundamental_series(M, x0, N=SERIES_ORDER)
        block = series_block([[U, delta_series(U)], [None, U]], x0, SERIES_ORDER)
        res["satisfies"] = bool(satisfies(Mp, block))
        res["elapsed"] = time.perf_counter() - t0
    return res


def _child(system, path, out_path, traced) -> dict:
    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        res = _job(system, path, out_path)
    except Exception as exc:
        res = {"error": f"{type(exc).__name__}: {exc}",
               "incomplete": type(exc).__name__ == "IncompleteSearchError",
               "traceback": traceback.format_exc(limit=8)}
    if tracer is not None:
        res["trace"] = tracer.snapshot()
    return res


def run_isolated(system, path, out_path, traced, limit) -> dict:
    """Fork a child for one system; wait at most `limit` seconds."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            data = json.dumps(_child(system, path, out_path, traced)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)
    chunks, deadline, ended = [], time.perf_counter() + limit, False
    try:
        while not ended:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            ready, _, _ = select.select([r], [], [], remaining)
            if ready:
                chunk = os.read(r, 1 << 16)
                chunks.append(chunk)
                ended = not chunk
    finally:
        os.close(r)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    data = b"".join(chunks)
    if not ended:
        res = {"error": f"time limit of {limit:.1f}s hit"}
    elif not data:
        res = {"error": f"child ended with status {status} and no result"}
    else:
        res = json.loads(data)
    res["maxrss_mb"] = usage.ru_maxrss / 1024.0
    return res


# -- checks against the known answers ----------------------------------------------------


def witness_holds(doc, witness) -> bool:
    """∂B − δA = AB − BA, checked with sympy (not ConstancyWitness.verify)."""
    t, x = sp.symbols("t x")

    def matrix(rows):
        return sp.Matrix([[sp.sympify(v.replace("^", "**"), locals={"t": t, "x": x})
                           for v in row] for row in rows])

    A, B = matrix(doc["matrix"]), matrix(witness)
    lhs = B.diff(x) - A.diff(t)
    rhs = A * B - B * A
    return all(sp.cancel(lhs[i] - rhs[i]) == 0 for i in range(len(lhs)))


def verdict(system, res) -> str:
    """'ok', 'undecided' or 'failed: <why>' for one child result."""
    if "error" in res:
        return "undecided" if res.get("incomplete") else "failed: " + res["error"]
    if system.kind == "analyze":
        if res["rc"] != 0:
            return f"failed: exit code {res['rc']}"
        path = res["case_path"]
        if (UNDECIDED_FLAGS & set(res["flags"]) or path == "UNDECIDED"
                or path.endswith("-undecided")):
            return "undecided"
        exp = system.expect
        if "case_path" in exp and path != exp["case_path"]:
            return f"failed: case path {path}, expected {exp['case_path']}"
        if "terminal" in exp and terminal_case(path) != exp["terminal"]:
            return f"failed: terminal case of {path}, expected {exp['terminal']}"
        if not all(res["members"]):
            return "failed: a member matrix is rejected"
        if any(res["nonmembers"]):
            return "failed: a non-member matrix is accepted"
        return "ok"
    if system.kind == "constancy":
        if res["constant"] != system.expect["constant"]:
            return f"failed: constant={res['constant']}"
        if res["constant"] and not witness_holds(system.doc, res["witness"]):
            return "failed: witness identity does not hold"
        return "ok"
    return "ok" if res["satisfies"] else "failed: prolongation identity"


# -- passes and metrics ---------------------------------------------------------------------


def write_inputs(workload, seed, systems) -> list:
    d = WORK / f"{workload}-{seed}"
    d.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, s in enumerate(systems):
        p = d / f"{k:02d}.json"
        p.write_text(s.text())
        paths.append(p)
    return paths


def measure_setup(paths) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)]
                       + [str(p) for p in paths], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(systems, paths, traced, hard_deadline) -> dict:
    results = []
    t0 = time.perf_counter()
    for s, p in zip(systems, paths):
        limit = min(SYSTEM_LIMIT, hard_deadline - time.perf_counter())
        if limit <= 0:
            res = {"error": "run time exhausted before this system started"}
        else:
            res = run_isolated(s, p, p.with_suffix(".out"), traced, limit)
        results.append(res)
    return {"traced": traced, "wall_s": time.perf_counter() - t0,
            "results": results}


def run_passes(systems, paths, seconds, trace) -> list:
    """Untraced passes (alternating with traced ones when tracing) while
    another pass of the last one's length ends the run nearer to `seconds`."""
    start = time.perf_counter()
    hard_deadline = start + HARD_STOP
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(run_pass(systems, paths, traced, hard_deadline))
        elapsed = time.perf_counter() - start
        if len(passes) < (2 if trace else 1):
            continue
        if elapsed + passes[-1]["wall_s"] / 2 > seconds or elapsed > HARD_STOP:
            return passes


def input_key(system) -> str:
    return hashlib.sha256(system.text().encode()).hexdigest()


def per_layer(systems, passes, untraced_wall) -> dict:
    from layertrace import TARGETS

    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    calls = {k: 0 for k in TARGETS}
    self_s = {k: 0.0 for k in TARGETS}
    unknowns = hyper_distinct = split_hits = 0
    for p in traced:
        for res in p["results"]:
            tr = res.get("trace")
            if not tr:
                continue
            for k in TARGETS:
                calls[k] += tr["calls"][k]
                self_s[k] += tr["self_s"][k]
            unknowns += tr["unknowns"]
            hyper_distinct += tr["hyper_distinct"]
            split_hits += tr["split_hits"]
    out = {}
    for k in TARGETS:
        out[f"{k}.calls"] = (calls[k] / n, "count")
        out[f"{k}.self_s"] = (self_s[k] / n, "s")
    hyper = calls["solvers.hyperexponential_classes"]
    split = calls["modules.split_extension"]
    analyzed = sum(s.kind == "analyze" for s in systems)
    out["linalg.solve_affine.unknowns"] = (unknowns / n, "count")
    out["solvers.hyperexponential_classes.distinct_ratio"] = (
        hyper_distinct / hyper if hyper else 1.0, "ratio")
    out["modules.split_extension.hit_ratio"] = (
        split_hits / split if split else 0.0, "ratio")
    out["galois3.dispatch.reentries"] = (
        calls["galois3.dispatch"] / n - analyzed, "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    for m in MODULES:
        f = SRC / "pdgal3" / f"{m}.py"
        lines = len(f.read_text().splitlines()) if f.is_file() else 0
        out[f"src_lines.{m}"] = (lines, "lines")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pdgal3" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pdgal3'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    systems = WORKLOADS[args.workload](args.seed)
    paths = write_inputs(args.workload, args.seed, systems)
    setup = measure_setup(paths)

    import pdgal3  # noqa: F401  (children start from an imported package)
    import pdgal3.cli  # noqa: F401
    import pdgal3.series  # noqa: F401

    passes = run_passes(systems, paths, args.seconds, args.trace)

    # checks run after the timed passes, so the parent stays small while forking
    reference = json.loads(REFERENCE.read_text())
    records = []
    failed_runs = attempted = 0
    mismatched = set()
    for k, s in enumerate(systems):
        outcomes = [verdict(s, p["results"][k]) for p in passes]
        attempted += len(outcomes)
        failed_runs += sum(o.startswith("failed") for o in outcomes)
        digests = {p["results"][k].get("digest") for p in passes} - {None}
        if digests and digests != {reference.get(input_key(s))}:
            mismatched.add(k)
        records.append({
            "name": s.name, "source": s.source, "input": str(paths[k].relative_to(ROOT)),
            "outcomes": outcomes,
            "seconds": [p["results"][k].get("elapsed") for p in passes],
            "case_path": passes[0]["results"][k].get("case_path"),
            "digest": sorted(digests),
            "errors": sorted({p["results"][k]["error"] for p in passes
                              if "error" in p["results"][k]}),
        })
    n = len(systems)
    n_failed = sum(any(o.startswith("failed") for o in r["outcomes"]) for r in records)
    n_undecided = sum("undecided" in r["outcomes"] for r in records)

    plain = [p for p in passes if not p["traced"]]
    times = [res["elapsed"] for p in plain for res in p["results"] if "elapsed" in res]
    wall = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "wall_s": (wall, "s", f"median of {len(plain)} pass(es) over {n} systems"),
        "verdict_p50_s": (statistics.median(times) if times else wall, "s",
                          f"median of {len(times)} verdicts"),
        "fail_ratio": ((n_failed + 1) / (n + 1), "ratio",
                       f"({n_failed} failed + 1) / ({n} systems + 1)"),
        "undecided_ratio": ((n_undecided + 1) / (n + 1), "ratio",
                            f"({n_undecided} undecided + 1) / ({n} systems + 1)"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (max(res["maxrss_mb"] for p in plain for res in p["results"]),
                        "MB", "largest child resident set"),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"{args.workload:12s} {name:16s} {value:12.4f} {unit:6s} {note}")
    for r in records:
        bad = [o for o in r["outcomes"] if o != "ok"]
        if bad:
            print(f"{args.workload:12s} system {r['name']!r}: {bad[0]}")

    layers = {}
    if args.trace:
        layers = per_layer(systems, passes, wall)
        layers["galois3.digest_mismatch"] = (len(mismatched), "count")
        for name, (value, unit) in layers.items():
            print(f"{args.workload:12s} {name:56s} {value:14.6f} {unit}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": u, "note": note}
                       for k, (v, u, note) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "digest_mismatch": sorted(records[k]["name"] for k in mismatched),
        "setup_runs_s": setup,
        "pass_walls_s": [{"traced": p["traced"], "wall_s": p["wall_s"]} for p in passes],
        "systems": records,
    }, indent=1, ensure_ascii=False) + "\n")

    shown = layers if args.trace else {k: (v, u) for k, (v, u, _) in e2e.items()}
    print(json.dumps({
        "correct": failed_runs == 0,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
