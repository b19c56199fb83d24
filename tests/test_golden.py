"""The benchmark's recorded outputs, regenerated through ``cli.run`` byte for byte."""

import json
import sys
from pathlib import Path

from cybordism.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden"


def test_golden_outputs_are_reproduced(tmp_path, monkeypatch, capsys):
    # the benchmark's own generator writes the smoke KS file the ks jobs
    # read, under tmp_path; nothing is written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ksgen
    import workloads

    path = tmp_path / workloads.SMOKE_KS
    path.parent.mkdir(parents=True)
    ksgen.generate(str(path), workloads.SMOKE_KS_RECORDS, workloads.SMOKE_KS_SEED, fault_scale=10)
    monkeypatch.chdir(tmp_path)
    index = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
    assert len(index) == 13
    for entry in index:
        code = run(entry["argv"])
        expected = (GOLDEN / entry["output"]).read_text(encoding="utf-8")
        assert (code, capsys.readouterr().out) == (entry["exit"], expected), entry["argv"]
