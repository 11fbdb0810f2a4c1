"""Write bench/reference_digests.json from the current tree.

    python3 bench/make_reference.py

Runs every system of the `certified` and `uncertified` workloads (the seed
only orders them) through `pdgal3 analyze`, each in its own forked child,
and stores the digest of each report, keyed by the SHA-256 of the input
file.  The benchmark then
counts reports that differ from it as `galois3.digest_mismatch`.  Systems
whose verdict is not "ok" are listed on standard error; their digests are
still written, because the reference records behaviour, not correctness.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import certified, uncertified


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pdgal3.cli  # noqa: F401

    systems = certified(0) + uncertified(0)
    paths = run.write_inputs("reference", 0, systems)
    digests = {}
    for k, (s, p) in enumerate(zip(systems, paths)):
        res = run.run_isolated(s, p, p.with_suffix(".out"), False, run.SYSTEM_LIMIT)
        outcome = run.verdict(s, res)
        if outcome != "ok":
            print(f"{s.name}: {outcome}", file=sys.stderr)
        if "digest" in res:
            digests[run.input_key(s)] = res["digest"]
        print(f"{k + 1}/{len(systems)} {res.get('elapsed', 0):6.2f}s {outcome:10s} "
              f"{s.name} -> {res.get('case_path')}", flush=True)
    run.REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
