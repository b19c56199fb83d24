"""The benchmark's recorded outputs, regenerated through ``cli.run`` byte for byte."""

import json
import sys
from pathlib import Path

import pytest

from cybordism.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden"
DATA = Path(__file__).resolve().parent / "data"


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


@pytest.mark.parametrize("n", [30, 31])
def test_certificate_jobs_are_byte_identical(n, capsys):
    # the scan workload's certificate sizes, as the sorted-scan route printed them
    expected = (DATA / f"certificate-{n}.out").read_text(encoding="utf-8")
    assert run(["certificate", "--n", str(n)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt, suffix", [("json", "out"), ("csv", "csv")])
def test_alpha_job_is_byte_identical(fmt, suffix, capsys):
    # the ring workload's alpha job, as the per-key orbit memos printed it
    expected = (DATA / f"alpha-12.{suffix}").read_text(encoding="utf-8")
    assert run(["alpha", "--n", "12", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
