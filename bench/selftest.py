"""Self-test of the benchmark's outside-in tracing.

    python3 bench/selftest.py

Checks two things and exits non-zero if either fails:
1. every wrapped function is rebound in every package module that imported
   it, and a call through each importing module is counted exactly once;
2. a traced pass over the `certified` and `uncertified` workloads (seed 1)
   gives the same verdicts and report digests as an untraced pass.
"""

from __future__ import annotations

import sys
import time

import run
from layertrace import TARGETS, Tracer, package_modules
from workloads import WORKLOADS


def check_count_once() -> list:
    import pdgal3.cli  # noqa: F401
    import pdgal3.series  # noqa: F401
    from pdgal3 import linalg, solvers

    originals = {
        "linalg.solve_affine": linalg.solve_affine,
        "solvers.rational_solutions": solvers.rational_solutions,
    }
    tracer = Tracer()
    tracer.install()
    tracer.install()  # a second install must not wrap the wrappers
    problems = []
    for name, (modname, attr) in TARGETS.items():
        if name not in tracer.sites:
            problems.append(f"{name}: not found in pdgal3.{modname}")
    for name, orig in originals.items():
        stale = [f"{m.__name__}.{k}" for m in package_modules()
                 for k, v in vars(m).items() if v is orig]
        if stale:
            problems.append(f"{name}: still unwrapped at {stale}")
        sites = tracer.sites[name]
        if len(sites) < 2:
            problems.append(f"{name}: expected several importers, got {sites}")
        for site in sites:
            modname, _, key = site.rpartition(".")
            fn = getattr(sys.modules[modname], key)
            before = tracer.calls[name]
            if name == "linalg.solve_affine":
                fn([[1]], [1])
            else:
                fn([[0]])
            if tracer.calls[name] - before != 1:
                problems.append(f"{name}: a call through {site} counted "
                                f"{tracer.calls[name] - before} times")
        print(f"count-once {name}: importers {sites}")
    # ratfunc imports solve_affine inside horowitz_reduce, at call time
    from pdgal3.ratfunc import RatFunc, horowitz_reduce

    before = tracer.calls["linalg.solve_affine"]
    horowitz_reduce(RatFunc.parse("1/x^2 + 1/(x-t)^2"))
    if tracer.calls["linalg.solve_affine"] == before:
        problems.append("linalg.solve_affine: call from ratfunc not counted")
    return problems


def check_traced_matches_untraced() -> list:
    problems = []
    for workload in ("certified", "uncertified"):
        systems = WORKLOADS[workload](1)
        paths = run.write_inputs(f"selftest-{workload}", 1, systems)
        deadline = time.perf_counter() + 1e9
        plain = run.run_pass(systems, paths, False, deadline)["results"]
        traced = run.run_pass(systems, paths, True, deadline)["results"]
        for s, a, b in zip(systems, plain, traced):
            va, vb = run.verdict(s, a), run.verdict(s, b)
            same = (va == vb and a.get("digest") == b.get("digest")
                    and a.get("members") == b.get("members")
                    and a.get("nonmembers") == b.get("nonmembers"))
            if not same:
                problems.append(f"{workload} {s.name}: untraced {va} "
                                f"{a.get('digest')}, traced {vb} {b.get('digest')}")
            if "trace" not in b:
                problems.append(f"{workload} {s.name}: traced child sent no trace")
        print(f"traced == untraced on {workload}: {len(systems)} systems compared")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = check_traced_matches_untraced()
    # tracing is installed in this process last, after the forked passes
    problems += check_count_once()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
