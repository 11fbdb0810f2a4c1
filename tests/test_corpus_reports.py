"""The benchmark corpus gives the reports recorded in
bench/reference_digests.json.

Every `certified` and `uncertified` input of seed 1 goes through
`pdgal3 analyze` in this process, and the digest of its report (the report
less `timing_seconds`, as the benchmark computes it) must equal the recorded
one.  The benchmark's own files are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from pdgal3 import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; it imports bench/workloads.py by name."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    mp.undo()


def test_corpus_reports_match_reference_digests(bench_run, tmp_path, capsys):
    from workloads import certified, uncertified

    reference = json.loads((BENCH / "reference_digests.json").read_text())
    systems = certified(1) + uncertified(1)
    assert len(systems) == 20
    bad = []
    for k, system in enumerate(systems):
        path, out = tmp_path / f"{k:02d}.json", tmp_path / f"{k:02d}.out"
        path.write_text(system.text())
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 0, system.name
        digest = bench_run.report_digest(json.loads(out.read_text()))
        if digest != reference[bench_run.input_key(system)]:
            bad.append(system.name)
    capsys.readouterr()
    assert not bad, "reports differ from the reference: " + ", ".join(bad)
