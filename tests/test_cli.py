"""Command-line surface: envelopes, formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cybordism
from cybordism import cli, cohomology, toricdata
from cybordism.cli import dumps, run
from cybordism.toricdata import KSRecord

from oracles import as_dict, format_ks, parse_ks_by_lines

DATA = Path(__file__).parent / "data"
SAMPLE = str(DATA / "ks_sample.txt")
MALFORMED = str(DATA / "ks_malformed.txt")
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def invoke(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def envelope(capsys, argv):
    code, out = invoke(capsys, argv)
    return code, json.loads(out)


def test_gn_envelope(capsys):
    code, doc = envelope(capsys, ["gn", "--max", "5"])
    assert code == 0
    assert doc["command"] == "gn"
    assert doc["status"] == "pass"
    rows = doc["results"]["rows"]
    assert [(r["n"], r["g"]) for r in rows] == [(3, 48), (4, 6), (5, 20)]


def test_gn_csv_matches_json(capsys):
    _, doc = envelope(capsys, ["gn", "--max", "8"])
    code, out = invoke(capsys, ["gn", "--max", "8", "--format", "csv"])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out)))
    json_rows = doc["results"]["rows"]
    assert len(parsed) == len(json_rows)
    for csv_row, json_row in zip(parsed, json_rows):
        for key in ("n", "m1", "m2", "g"):
            assert int(csv_row[key]) == json_row[key]


@pytest.mark.parametrize(
    "argv",
    [
        ["gn", "--max", "10"],
        ["alpha", "--n", "5"],
        ["gcd", "--max", "8"],
        ["power-check", "--max", "7"],
        ["chern", "--partition", "1,1,2"],
    ],
)
def test_csv_and_json_agree_on_all_table_subcommands(capsys, argv):
    _, doc = envelope(capsys, argv)
    code, out = invoke(capsys, argv + ["--format", "csv"])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out)))
    json_rows = doc["results"]["rows"]
    assert len(parsed) == len(json_rows)
    for csv_row, json_row in zip(parsed, json_rows):
        assert set(csv_row) == set(json_row)
        for key, value in json_row.items():
            assert csv_row[key] == ("" if value is None else str(value))


@pytest.mark.parametrize(
    "argv, header",
    [
        (["gn", "--max", "12"], "n,m1,m2,g"),
        (["alpha", "--n", "7"], "partition,multinomial,alpha,s_number,match"),
        (["gcd", "--max", "20"], "n,gcd,expected,case,ok"),
        (["power-check", "--max", "12"], "n,prime,kind,witness,witness_valuation,scan_min,ok"),
        (["chern", "--partition", "4"], "index,value"),
    ],
)
def test_csv_header_lines(capsys, argv, header):
    code, out = invoke(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out.split("\n", 1)[0] == header


def test_alpha_envelope(capsys):
    code, doc = envelope(capsys, ["alpha", "--n", "4"])
    assert code == 0
    rows = doc["results"]["rows"]
    assert [r["partition"] for r in rows] == ["2,2", "1,1,2", "1,1,1,1"]
    assert [r["alpha"] for r in rows] == [486, 432, 384]
    assert [r["s_number"] for r in rows] == [-486, -432, -384]
    assert all(r["match"] for r in rows)


def test_certificate_envelope(capsys):
    code, doc = envelope(capsys, ["certificate", "--n", "4"])
    assert code == 0
    results = doc["results"]
    assert results["achieved"] == 6
    assert results["reverified_s_number"] == 6
    assert results["entries"] == [
        {"partition": "2,2", "coefficient": 15},
        {"partition": "1,1,1,1", "coefficient": -19},
    ]


def test_s_number_subcommand(capsys):
    code, doc = envelope(capsys, ["s-number", "--partition", "3"])
    assert code == 0
    assert doc["results"]["s_number"] == -48
    code, doc = envelope(capsys, ["s-number", "--partition", "1,1,3"])
    assert code == 0
    assert doc["results"]["s_number"] == -5120


def test_s_number_past_the_digit_limit_is_printed_exactly(capsys):
    # the degree-d hypersurface in CP^n has s-number d * (n + 1 - d**(n - 1)); here
    # d = n + 1 = 1448, and its 4575 digits pass the 4300 that int -> str allows by default
    code, out = invoke(capsys, ["s-number", "--partition", "1447"])
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["results"]["s_number"] == 1448 * (1448 - 1448**1446)
    finally:
        sys.set_int_max_str_digits(limit)
    # the limit is back for the parser, which reports a 5000-digit chi by it
    code, doc = envelope(capsys, ["ks", "parse", "--input", str(DATA / "ks_long_number.txt")])
    assert (code, doc["results"]["errors"]) == (1, [{"line": 6, "message": "header number has too many digits"}])


def test_no_digit_limit_setting_changes_a_result(tmp_path):
    # int() reads options and KS header numbers under the default limit, whatever
    # PYTHONINTMAXSTRDIGITS says: unset, lifted (0) and lowered (640) give one output
    rows = "1 2 3 4 5\n" * 4
    for digits in (4300, 1000):
        (tmp_path / f"{digits}.txt").write_text(f"4 5 H:{'9' * digits},1 [2]\n{rows}")
    too_long, wide = "header number has too many digits", f"chi = 2 contradicts 2*(h11 - h21) = {2 * (10**1000 - 2)}"
    cases = [
        # 2*(h11 - h21) has 4301 digits, one past the limit
        (["ks", "parse", "--strict", "--input", "4300.txt"], "errors", [{"line": 1, "message": too_long}]),
        (["ks", "parse", "--strict", "--input", "1000.txt"], "errors", [{"line": 1, "message": wide}]),
        (["gcd", "--max", "9" * 1000], "error", f"need --max <= 800 (the gcd budget), got {'9' * 1000}"),
    ]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    for argv, key, value in cases:
        outputs = set()
        for setting in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
            command = [sys.executable, "-m", "cybordism", *argv]
            done = subprocess.run(command, capture_output=True, cwd=tmp_path, env={**env, **setting})
            assert done.stderr == b"", (argv, setting)
            outputs.add((done.returncode, done.stdout))
        assert len(outputs) == 1, argv
        ((code, out),) = outputs
        assert (code, json.loads(out)["results"][key]) == (1, value), argv


def test_run_restores_the_callers_digit_limit(capsys):
    nines = "9" * 1000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # int() at 640 digits would refuse the option, as a usage error
        refused = invoke(capsys, ["gcd", "--max", nines])
        assert sys.get_int_max_str_digits() == 640
        assert invoke(capsys, ["gn", "--max", "3"])[0] == 0
        assert sys.get_int_max_str_digits() == 640
        with pytest.raises(SystemExit):
            run(["gn", "--max", "x"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    code, out = refused
    assert (code, json.loads(out)["results"]) == (1, {"error": f"need --max <= 800 (the gcd budget), got {nines}"})


def test_chern_subcommand(capsys):
    code, doc = envelope(capsys, ["chern", "--partition", "3"])
    assert code == 0
    assert doc["results"]["euler_characteristic"] == 24
    rows = {r["index"]: r["value"] for r in doc["results"]["rows"]}
    assert rows == {"c2": 24, "c1^2": 0}


def test_gcd_subcommand(capsys):
    code, doc = envelope(capsys, ["gcd", "--max", "8"])
    assert code == 0
    rows = doc["results"]["rows"]
    assert [r["n"] for r in rows] == list(range(3, 9))
    assert all(r["ok"] for r in rows)
    assert doc["results"]["case_counts"]["base"] == 1


def test_gcd_jobs_output_identical(capsys):
    # --jobs is accepted and echoed, but every run is serial
    for command in ("gcd", "power-check"):
        _, serial = invoke(capsys, [command, "--max", "12"])
        _, parallel = invoke(capsys, [command, "--max", "12", "--jobs", "2"])
        serial_doc = json.loads(serial)
        parallel_doc = json.loads(parallel)
        assert serial_doc["results"] == parallel_doc["results"], command
        assert parallel_doc["parameters"]["jobs"] == 2, command
    for n_max in ("12", "3"):
        _, serial = invoke(capsys, ["gcd", "--max", n_max])
        code, huge = invoke(capsys, ["gcd", "--max", n_max, "--jobs", "5000"])
        assert code == 0
        assert json.loads(huge)["results"] == json.loads(serial)["results"], n_max
    _, few = invoke(capsys, ["power-check", "--max", "4", "--jobs", "5000"])
    assert json.loads(few)["status"] == "pass"


def probe(code: str, flags: Sequence[str] = ()):
    """Run ``code`` in a fresh interpreter on this checkout; the JSON it prints last.

    ``flags`` are passed to the interpreter before ``-c``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cybordism.'))))"


def test_cli_import_starts_no_process_machinery():
    # the CLI runs every command serially, so importing it must not pull in
    # the process-pool modules (about a third of its start-up time)
    code = (
        "import cybordism.cli, json, sys; "
        "print(json.dumps([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]))"
    )
    assert probe(code) == []


def test_package_import_loads_no_submodule():
    assert probe(f"import cybordism, json, sys; {LOADED}") == []


def test_commands_load_only_the_modules_they_use():
    def loaded(argv):
        code = f"import json, sys\nfrom cybordism import cli\ncli.run({argv!r})\n{LOADED}"
        return [name.removeprefix("cybordism.") for name in probe(code)]

    ring, ks = ["cli", "cohomology", "partitions"], ["cli", "toricdata"]
    expected = {
        "gn": ["cli", "numthy"],
        # generators imports cohomology only to re-verify certificates
        "gcd": ["cli", "generators", "numthy", "partitions"],
        "power-check": ["cli", "numthy", "partitions"],
        "certificate": ["cli", "cohomology", "generators", "numthy", "partitions"],
        # partitions imports numthy only when a function that uses it runs
        "alpha": ring,
        "s-number": ring,
        "chern": ring,
        # toricdata imports partitions only to build polytopes
        "polytope": ["cli", "partitions", "toricdata"],
        "ks-parse": ks,
        "ks-filter": ks,
        "ks-ranges": ks,
    }
    # no command loads the dense model
    assert {_command(argv): loaded(argv) for argv in SMOKE} == expected


# the smallest run of each subcommand, as in the benchmark's smoke jobs
SMOKE = [
    ["gn", "--max", "3"],
    ["gcd", "--max", "6"],
    ["power-check", "--max", "9"],
    ["certificate", "--n", "5"],
    ["alpha", "--n", "5"],
    ["s-number", "--partition", "1,2"],
    ["chern", "--partition", "1,2"],
    ["polytope", "--partition", "1,2"],
    ["ks", "parse", "--input", SAMPLE],
    ["ks", "filter", "--input", SAMPLE, "--target", "1"],
    ["ks", "ranges", "--input", SAMPLE],
]


def smoke_loads(modules: Sequence[str]) -> dict:
    """Which of ``modules`` are loaded after each smoke argv, run in turn in one process; -S
    keeps site, which may import any of them itself, out."""
    code = f"""
import json, sys
from cybordism import cli
loaded = {{}}
for argv in {SMOKE!r}:
    cli.run(argv)
    loaded[" ".join(argv)] = [m for m in {tuple(modules)!r} if m in sys.modules]
print(json.dumps(loaded))
"""
    return probe(code, ["-S"])


def test_no_command_loads_dataclasses_inspect_or_typing():
    # no command needs these three, and together they are a fifth of the start-up imports
    assert smoke_loads(["dataclasses", "inspect", "typing"]) == {" ".join(argv): [] for argv in SMOKE}


def test_no_well_formed_command_loads_argparse():
    # each smoke argv is read from the option declaration alone; argparse, with the gettext
    # and locale it imports, is loaded only for help, usage errors and other spellings
    assert smoke_loads(["argparse", "gettext", "locale"]) == {" ".join(argv): [] for argv in SMOKE}


def test_package_exports_resolve_lazily():
    code = """
import importlib, json, cybordism
def defined_there(name):
    value = getattr(cybordism, name)
    return getattr(importlib.import_module(value.__module__), name) is value
try:
    cybordism.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "misplaced": [name for name in cybordism.__all__ if not defined_there(name)],
    "undir": sorted(set(cybordism.__all__) - set(dir(cybordism))),
    "unknown": unknown,
}))
"""
    assert probe(code) == {"misplaced": [], "undir": [], "unknown": "AttributeError"}


def test_power_check_subcommand(capsys):
    code, doc = envelope(capsys, ["power-check", "--max", "8"])
    assert code == 0
    rows = doc["results"]["rows"]
    spot = next(r for r in rows if r["n"] == 8 and r["prime"] == 2)
    assert spot["witness"] == "4,4" and spot["witness_valuation"] == 1
    assert all(r["ok"] for r in rows)


def test_polytope_subcommand(capsys):
    code, doc = envelope(capsys, ["polytope", "--partition", "2,2"])
    assert code == 0
    results = doc["results"]
    assert results["reflexive"] is True
    assert results["vertex_count"] == 9
    assert results["facet_count"] == 6


def test_every_subcommand_is_deterministic(capsys):
    invocations = [
        ["gn", "--max", "12"],
        ["gn", "--max", "12", "--format", "csv"],
        ["alpha", "--n", "6"],
        ["gcd", "--max", "10"],
        ["certificate", "--n", "5"],
        ["s-number", "--partition", "1,2,2"],
        ["chern", "--partition", "2,2"],
        ["power-check", "--max", "10"],
        ["polytope", "--partition", "1,1,2"],
        ["ks", "parse", "--input", SAMPLE],
        ["ks", "parse", "--input", SAMPLE, "--format", "jsonl"],
        ["ks", "filter", "--input", SAMPLE, "--target", "1"],
        ["ks", "ranges", "--input", SAMPLE],
    ]
    for argv in invocations:
        first_code, first = invoke(capsys, argv)
        second_code, second = invoke(capsys, argv)
        assert first_code == second_code
        assert first == second, argv


def test_ks_parse_envelope(capsys):
    code, doc = envelope(capsys, ["ks", "parse", "--input", SAMPLE])
    assert code == 0
    counts = doc["results"]["counts"]
    assert counts == {"records": 12, "errors": 0, "inconsistent": 0}


def test_ks_parse_malformed_partial(capsys):
    code, doc = envelope(capsys, ["ks", "parse", "--input", MALFORMED])
    assert code == 1
    assert doc["status"] == "partial"
    assert doc["results"]["counts"]["errors"] > 0
    assert doc["results"]["counts"]["inconsistent"] == 1


def test_ks_parse_over_long_header_number_partial(capsys):
    code, doc = envelope(capsys, ["ks", "parse", "--input", str(DATA / "ks_long_number.txt")])
    assert code == 1
    assert doc["status"] == "partial"
    assert doc["results"]["counts"] == {"records": 2, "errors": 1, "inconsistent": 0}
    assert doc["results"]["errors"][0]["line"] == 6


def test_ks_parse_strict_promotes_chi_errors(capsys):
    code, doc = envelope(capsys, ["ks", "parse", "--input", MALFORMED, "--strict"])
    assert code == 1
    assert doc["results"]["counts"]["inconsistent"] == 0
    assert any("chi" in e["message"] for e in doc["results"]["errors"])


def test_ks_filter_targets(capsys):
    code, doc = envelope(capsys, ["ks", "filter", "--input", SAMPLE, "--target", "1"])
    assert code == 0
    assert [r["h11"] for r in doc["results"]["records"]] == [20, 16, 90, 45]
    code, doc = envelope(capsys, ["ks", "filter", "--input", SAMPLE, "--target", "-1"])
    assert code == 0
    assert [r["h11"] for r in doc["results"]["records"]] == [19, 15, 89, 27]


def test_ks_filter_jsonl(capsys):
    code, out = invoke(
        capsys, ["ks", "filter", "--input", SAMPLE, "--target", "1", "--format", "jsonl"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["h11"] for r in lines] == [20, 16, 90, 45]
    assert all(r["consistent"] for r in lines)


def test_ks_parse_jsonl_puts_error_rows_after_the_records(capsys):
    _, doc = envelope(capsys, ["ks", "parse", "--input", MALFORMED])
    code, out = invoke(capsys, ["ks", "parse", "--input", MALFORMED, "--format", "jsonl"])
    assert code == 1
    records, errors = doc["results"]["records"], doc["results"]["errors"]
    # in the file, some errors come before some records
    assert min(e["line"] for e in errors) < max(r["line"] for r in records)
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == records + [{"error": True, **e} for e in errors]


def test_ks_reads_stdin(capsys, monkeypatch):
    _, from_file = envelope(capsys, ["ks", "ranges", "--input", SAMPLE])
    with open(SAMPLE, encoding="utf-8") as handle:
        monkeypatch.setattr(sys, "stdin", handle)
        code, from_stdin = envelope(capsys, ["ks", "ranges", "--input", "-"])
    assert code == 0
    assert from_stdin["results"] == from_file["results"]


@pytest.mark.parametrize(
    "argv",
    [
        ["parse"],
        ["parse", "--format", "jsonl"],
        ["filter", "--target", "1"],
        ["filter", "--target", "-1", "--format", "jsonl"],
        ["ranges"],
    ],
)
def test_ks_with_stdin_closed_fails_in_the_envelope(capsys, monkeypatch, argv):
    # Python started with fd 0 closed has sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    code, doc = envelope(capsys, ["ks", *argv, "--input", "-"])
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["results"] == {"error": "standard input is closed"}


@pytest.mark.skipif(os.name != "posix", reason="closes fd 0 through preexec_fn")
def test_ks_with_fd_0_closed_exits_1_without_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "cybordism", "ks", "parse", "--input", "-"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: os.close(0),
    )
    assert (done.returncode, done.stderr) == (1, b"")
    doc = json.loads(done.stdout)
    assert doc["status"] == "fail" and doc["results"] == {"error": "standard input is closed"}


@st.composite
def ks_records(draw):
    """Records whose rows hold each kind of scalar: ``chi`` None, 0, 1, -1 or large,
    consistent or not, and a large ``h11``; and records with ``h11 = 0``, which are errors."""
    h11 = draw(st.integers(0, 99) | st.just(10**40))
    h21 = draw(st.integers(0, 99) | st.just(h11))
    chi = draw(st.sampled_from([None, 0, 1, -1, -(10**40), "consistent"]))
    chi = 2 * (h11 - h21) if chi == "consistent" else chi
    dim = draw(st.integers(0, 2))
    return KSRecord(dim, 2, h11, h21, chi)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(ks_records(), max_size=7),
    st.sampled_from([1, 2, 3, 4096]),
    st.sampled_from(["", "noise\n", "\n\n\n"]),
    st.booleans(),
)
# a first block without a record (a noise line; an h11 = 0 record) writes no rows
@example([KSRecord(0, 2, 1, 1)], 1, "noise\n", False)
@example([KSRecord(0, 2, 0, 1), KSRecord(0, 2, 1, 1)], 1, "", False)
def test_ks_rows_are_the_reference_encoding(records, block, lead, strict):
    # the rows, error rows and counts of ks parse and ks filter, in both layouts, against
    # json's text for what the line-by-line parser reads, across every run boundary;
    # h11 = 0, and under --strict a contradicting chi, put errors inside runs of records,
    # and noise or blank lines first can leave a run without records
    text = lead + "".join(format_ks(record) + "\n" for record in records)
    items = list(parse_ks_by_lines(text.splitlines(), strict))
    found = [item for item in items if isinstance(item, KSRecord)]
    rows = [{**as_dict(record), "line": record.line} for record in found]
    errors = [{"line": e.line, "message": e.message} for e in items if not isinstance(e, KSRecord)]
    kept = [row for row, r in zip(rows, found) if r.consistent and r.hodge_difference == 1]
    counts = {"errors": len(errors), "inconsistent": sum(not r.consistent for r in found)}
    cases = (
        (["parse"], rows, errors, {**counts, "records": len(rows)}),
        (["filter", "--target", "1"], kept, [], {**counts, "parsed": len(rows), "kept": len(kept)}),
    )
    for argv, expected, expected_errors, expected_counts in cases:
        out = {}
        for fmt in ("json", "jsonl"):
            with mock.patch.object(toricdata, "_BLOCK", block), mock.patch.object(
                sys, "stdin", io.StringIO(text)
            ), contextlib.redirect_stdout(io.StringIO()) as stdout:
                run(["ks", *argv, "--input", "-", "--format", fmt, *["--strict"] * strict])
            out[fmt] = stdout.getvalue()
        error_rows = [{"error": True, **e} for e in expected_errors]
        assert out["jsonl"] == "".join(json.dumps(row, sort_keys=True) + "\n" for row in expected + error_rows)
        doc = json.loads(out["json"])
        assert doc["results"]["records"] == expected  # 1 == True: the line below tells them apart
        assert doc["results"].get("errors", []) == expected_errors
        assert doc["results"]["counts"] == expected_counts
        doc["results"]["records"] = expected
        assert out["json"] == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_ks_parse_jsonl_streams(monkeypatch):
    # each run's rows are written while the input is still being read
    monkeypatch.setattr(toricdata, "_BLOCK", 16)
    sample = (DATA / "ks_sample.txt").read_text().splitlines(keepends=True)
    stdout, written = io.StringIO(), []

    def lines():
        for _ in range(200):
            yield from sample
        written.append(stdout.getvalue())  # what stdout held when the input ran out

    monkeypatch.setattr(sys, "stdin", lines())
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["ks", "parse", "--input", "-", "--format", "jsonl"]) == 0
    rows = stdout.getvalue().splitlines()
    assert len(rows) == 200 * 12
    assert written[0].startswith(rows[0]) and written[0].count("\n") >= 16


def test_ks_jsonl_reader_closing_the_pipe_exits_1_quietly(tmp_path):
    # 24000 rows, far more than a pipe holds, in a file of 3.3 MB, which is parsed in two
    # processes; the command's own group must be empty once it has exited
    path = tmp_path / "ks.txt"
    path.write_text((DATA / "ks_sample.txt").read_text() * 2000)
    assert path.stat().st_size >= toricdata._SPLIT_FLOOR
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "cybordism", "ks", "parse", "--input", str(path), "--format", "jsonl"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    assert json.loads(child.stdout.readline())["line"] == 1
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()
    with pytest.raises(ProcessLookupError):  # no process is left in the group
        os.killpg(child.pid, 0)


def test_ks_jsonl_one_long_write_to_a_closed_pipe_exits_1_quietly(capsys, tmp_path):
    # a block of one-line records is one run, so one write, and its rows are far more
    # than a pipe holds; unbuffered, a raw write stops short with no error once the
    # reader has gone
    path = tmp_path / "ks.txt"
    path.write_text("0 5 H:1,1\n" * 2 * toricdata._BLOCK)
    _, out = invoke(capsys, ["ks", "parse", "--input", str(path), "--format", "jsonl"])
    first_run = out.splitlines(keepends=True)[: toricdata._BLOCK]
    assert len("".join(first_run)) > 64 * 2**10  # what a Linux pipe holds; about 104 KiB here
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "cybordism", "ks", "parse", "--input", str(path), "--format", "jsonl"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"},
    )
    assert json.loads(child.stdout.readline())["line"] == 1
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()


def test_ks_jsonl_mid_file_failure_prints_rows_then_the_envelope(monkeypatch, capsys, tmp_path):
    # declared: the rows written before invalid UTF-8 stay, then the fail envelope
    # follows; rows are written a run at a time and read a block ahead
    monkeypatch.setattr(toricdata, "_BLOCK", 8)
    valid = (DATA / "ks_sample.txt").read_text() * 40
    path = tmp_path / "late.txt"
    path.write_bytes(valid.encode() + b"4 5 H:1,2 \xff\n")
    code, out = invoke(capsys, ["ks", "parse", "--input", str(path), "--format", "jsonl"])
    rows, brace, rest = out.partition("{\n")
    doc = json.loads(brace + rest)
    assert code == 1 and doc["status"] == "fail" and "utf-8" in doc["results"]["error"]
    rows = [json.loads(row) for row in rows.splitlines()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(valid)
    _, whole = envelope(capsys, ["ks", "parse", "--input", str(path)])
    assert 0 < len(rows) < len(whole["results"]["records"])
    assert rows == whole["results"]["records"][: len(rows)]


# ``ru_maxrss`` of a child includes its parent's memory at the fork, so peaks are
# read by a small parent of their own
PEAK_RSS = """
import json, os, subprocess
child = subprocess.Popen({argv!r}, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")
def test_ks_parse_jsonl_memory_stays_flat(tmp_path):
    # five times the records; and one header over 10^5 rows, which end its matrix early,
    # then over 10^6 rows, which fill it: the peak rises by less than 8 MB either time
    sample = (DATA / "ks_sample.txt").read_text()
    long = "1000000 5 H:1,1\n"
    pairs = (
        ((sample * (records // 12), 0) for records in (2 * 10**4, 10**5)),
        ((long + " 1 -2  3 -4  5\n" * rows, code) for rows, code in ((10**5, 1), (10**6, 0))),
    )
    for texts in pairs:
        peaks = []
        for text, expected in texts:
            path = tmp_path / "ks.txt"
            path.write_text(text)
            argv = [sys.executable, "-m", "cybordism", "ks", "parse", "--input", str(path), "--format", "jsonl"]
            code, peak = probe(PEAK_RSS.format(argv=argv))
            assert code == expected
            peaks.append(peak * (1 if sys.platform == "darwin" else 1024))  # bytes on macOS, else KiB
        assert peaks[1] - peaks[0] < 8 * 2**20, peaks


def test_ks_non_utf8_input_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"4 5 M:1 2 N:3 4 H:1,2 \xff\n")
    code, doc = envelope(capsys, ["ks", "parse", "--input", str(path)])
    assert code == 1
    assert doc["status"] == "fail"
    assert "utf-8" in doc["results"]["error"]


def test_ks_ranges_envelope(capsys):
    code, doc = envelope(capsys, ["ks", "ranges", "--input", SAMPLE])
    assert code == 0
    assert doc["results"]["plus"]["h11_min"] == 16
    assert doc["results"]["plus"]["h11_max"] == 90
    assert doc["results"]["minus"]["h11_min"] == 15
    assert doc["results"]["minus"]["h11_max"] == 89
    assert doc["results"]["plus"]["out_of_range"] == []
    assert doc["results"]["minus"]["out_of_range"] == []


def test_domain_error_returns_fail_envelope(capsys):
    code, doc = envelope(capsys, ["certificate", "--n", "2"])
    assert code == 1
    assert doc["status"] == "fail"
    assert "error" in doc["results"]
    # int() would read these as 10 and 3; a partition takes only decimal words
    for text in ("1_0", "+3"):
        code, doc = envelope(capsys, ["s-number", "--partition", text])
        assert (code, doc["status"]) == (1, "fail")
        assert "not a comma-separated integer list" in doc["results"]["error"]


def test_integer_options_take_the_partition_part_words(capsys):
    # int() would run "1_0" as 10 and "+4" as 4: every integer option refuses them
    options = [
        ["gn", "--max"],
        ["alpha", "--n"],
        ["gcd", "--max", "5", "--jobs"],
        ["power-check", "--max"],
        ["certificate", "--n"],
        ["ks", "filter", "--input", str(DATA / "ks_sample.txt"), "--target"],
    ]
    for argv in options:
        for word in ("1_0", "+4", "+1", "4.0", "0x4", "--4", ""):
            with pytest.raises(SystemExit) as exc:
                run([*argv, word])
            assert exc.value.code == 2, (argv, word)
            assert capsys.readouterr().out == ""
    # decimal digits after an optional "-", blanks around them and non-ASCII digits included
    for word, value in (("\u0661", 1), (" 1 ", 1), ("-1", -1)):
        code, doc = envelope(capsys, ["ks", "filter", "--input", str(DATA / "ks_sample.txt"), "--target", word])
        assert (code, doc["parameters"]["target"]) == (0, value)
    code, doc = envelope(capsys, ["gn", "--max", "\u0663"])
    assert (code, doc["parameters"]["max"], len(doc["results"]["rows"])) == (0, 3, 1)


def test_gcd_refuses_like_the_other_per_n_commands(capsys):
    for argv, error in (
        (["gcd", "--max", "801"], "need --max <= 800 (the gcd budget), got 801"),
        (["gcd", "--max", "2"], "need --max >= 3, got 2"),
        (["power-check", "--max", "401"], "need --max <= 400 (the power-check budget), got 401"),
    ):
        code, doc = envelope(capsys, argv)
        assert (code, doc["status"], doc["results"]) == (1, "fail", {"error": error})


def test_over_budget_partition_fails_fast(capsys):
    refused = [
        ["s-number", "--partition", "99999999999999999999"],
        ["chern", "--partition", "99999999999999999999"],
        # within the ring budget, but p(n - 1) Chern numbers are too many
        ["chern", "--partition", "60"],
        ["chern", "--partition", ",".join(["1"] * 13)],
        # the all-ones partition, checked first, is over the ring budget
        ["alpha", "--n", "17"],
        ["alpha", "--n", "40"],
        ["alpha", "--n", "10000000000"],
        # size arguments over their command's budget
        ["gcd", "--max", "100000"],
        ["power-check", "--max", "100000"],
        ["gn", "--max", "10000000000"],
        ["certificate", "--n", "200"],
        ["polytope", "--partition", "400,400"],
        ["polytope", "--partition", "99999999999999999999"],
        # so many parts that the full cost has more than 4300 digits
        ["s-number", "--partition", ",".join(["1"] * 15000)],
        ["chern", "--partition", ",".join(["1"] * 15000)],
        ["polytope", "--partition", ",".join(["1"] * 15000)],
    ]
    for argv in refused:
        code, doc = envelope(capsys, argv)
        assert code == 1
        assert doc["status"] == "fail"
        assert "budget" in doc["results"]["error"]


def test_missing_input_file_fails_cleanly(capsys):
    # jsonl too: the input is opened before any row is written
    for fmt in ("json", "jsonl"):
        code, doc = envelope(capsys, ["ks", "parse", "--input", "no-such-file.txt", "--format", fmt])
        assert code == 1
        assert doc["status"] == "fail"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["certificate", "--n", "4", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["gn", "--max", "5", "--format", "jsonl"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def _command(argv):
    return "-".join(argv[:2]) if argv[0] == "ks" else argv[0]


def _leaf_parsers(parser, prefix=()):
    """``(command name, parser)`` for every subparser that takes no further subcommand."""
    subactions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subactions:
        yield "-".join(prefix), parser
    for action in subactions:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def test_every_command_has_a_handler_and_a_golden():
    # a leaf without a handler would end in a traceback, not an envelope
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 11
    for name, parser in leaves.items():
        assert callable(parser.get_default("handler")), name
    index = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
    assert {_command(e["argv"]) for e in index} == set(leaves)


def _formats(parser):
    return next(action.choices for action in parser._actions if action.dest == "format")


def test_each_leaf_offers_exactly_the_formats_it_prints(capsys):
    leaves = dict(_leaf_parsers(cli.build_parser()))
    offered = {name: _formats(parser) for name, parser in leaves.items()}
    tables = {"gn", "alpha", "gcd", "power-check", "chern"}
    assert {name for name, formats in offered.items() if "csv" in formats} == tables
    assert {name for name, formats in offered.items() if "jsonl" in formats} == {"ks-parse", "ks-filter"}
    assert sum(len(formats) for formats in offered.values()) == 18
    for argv in SMOKE:
        formats = offered[_command(argv)]
        for fmt in ("json", "csv", "jsonl"):
            if fmt not in formats:
                with pytest.raises(SystemExit) as exc:
                    run(argv + ["--format", fmt])
                assert exc.value.code == 2, (argv, fmt)
                assert capsys.readouterr().out == ""
                continue
            code, out = invoke(capsys, argv + ["--format", fmt])
            assert code == 0, (argv, fmt)
            if fmt == "json":
                assert json.loads(out)["status"] == "pass"
            elif fmt == "csv":
                assert list(csv.DictReader(io.StringIO(out)))
            else:
                assert [json.loads(line) for line in out.splitlines()]


@pytest.mark.parametrize(
    "argv",
    [
        ["gn", "--max", "4"],
        ["gn", "--max", "2"],
        ["gcd", "--max", "5", "--jobs", "2"],
        ["certificate", "--n", "4"],
        ["polytope", "--partition", "1,2"],
        ["ks", "filter", "--input", SAMPLE, "--target", "-1"],
        ["ks", "ranges", "--input", "no-such-file.txt"],
    ],
)
def test_parameters_never_hold_the_handler(capsys, argv):
    _, doc = envelope(capsys, argv)
    assert "handler" not in doc["parameters"]
    # they are the command's own options, defaults included, but its --format
    parser = dict(_leaf_parsers(cli.build_parser()))[_command(argv)]
    assert set(doc["parameters"]) == {a.dest for a in parser._actions} - {"help", "format"}


JUNK = ["", "x", "1_0", "+3", "\u0663", "3.0"]


def _int_words(low, high, over):
    """Ints in budget, over it, 30 or 5000 digits long or negative, and junk, as argv words."""
    return st.one_of(
        st.integers(low, high).map(str),
        st.sampled_from([*over, "1" * 30, "9" * 5000]),
        st.integers(-(10**6), -1).map(str),
        st.sampled_from(JUNK),
    )


# each option's words; an in-budget draw stays small, so an example takes milliseconds
OPTION_WORDS = {
    "--max": _int_words(0, 12, ["401", "801", "100001"]),
    "--n": _int_words(0, 8, ["17", "51", "101"]),
    "--jobs": _int_words(1, 4, ["5000"]),
    "--partition": st.one_of(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda ps: ",".join(map(str, ps))),
        _int_words(1, 3, ["99999999999999999999", "400,400"]),
        st.sampled_from(["-1,2", "0,2", " 1 , 2 "]),
    ),
    "--input": st.sampled_from(
        [SAMPLE, MALFORMED, str(DATA / "ks_long_number.txt"), "no-such-file.txt", str(DATA), os.devnull]
    ),
    "--target": st.one_of(st.sampled_from(["1", "-1"]), _int_words(0, 2, ["5000"])),
}
LEAVES = dict(_leaf_parsers(cli.build_parser()))
LEAF_WORDS = {_command(argv): argv[: 2 if argv[0] == "ks" else 1] for argv in SMOKE}


# values that start with "-": argparse reads "-" and "-1" as values, and the others as options
DASH_VALUES = st.sampled_from(["-", "-1", "-1,2", "-.5", "--"])


def spelt(draw, option: str, value: str | None) -> list[str]:
    """``option`` and its value as argv words: mostly in full, the value in the next word, and
    otherwise abbreviated or as ``option=value``, which only argparse reads."""
    how = draw(st.sampled_from(["full"] * 6 + ["abbreviated", "joined"]))
    if how == "abbreviated":
        option = option[: draw(st.integers(2, len(option) - 1))]  # "--" itself included
    if value is None:
        return [option]
    return [f"{option}={value}"] if how == "joined" else [option, value]


@st.composite
def cli_argv(draw):
    """A leaf's words, each of its options mostly present, maybe twice, and maybe a --format and a
    stray word; the spellings and the values that argparse alone reads are drawn too."""
    name = draw(st.sampled_from(sorted(LEAVES)))
    argv = list(LEAF_WORDS[name])
    for action in LEAVES[name]._actions:
        option = action.option_strings[-1] if action.option_strings else None
        if option in ("--help", "--format", None) or draw(st.integers(0, 5)) == 5:
            continue
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 2]))):
            value = None
            if action.nargs != 0:
                value = draw(DASH_VALUES if draw(st.integers(0, 5)) == 5 else OPTION_WORDS[option])
            argv += spelt(draw, option, value)
    fmt = draw(st.sampled_from([None, None, None, "json", "csv", "jsonl", "xml"]))
    if fmt is not None:
        argv += spelt(draw, "--format", fmt)
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["stray", "--bogus", "--n", "--"])))
    return argv, fmt


def outcome(call, argv):
    """``call(argv)``'s result, or its exit code, with what it printed to stdout and stderr;
    stdin is empty, so ``--input -`` reads no records and never waits."""
    out, err = io.StringIO(), io.StringIO()
    empty = mock.patch.object(sys, "stdin", io.StringIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), empty:
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def tree_options(argv):
    """The options the full parser reads from argv, without its command-word dests."""
    args = vars(cli.build_parser().parse_args(argv))
    return {key: value for key, value in args.items() if key not in ("command", "ks_command")}


def read(argv):
    """What parse's reader makes of argv, without argparse: a namespace, or None."""
    for words, handler, formats, options in cli._LEAVES:
        if tuple(argv[: len(words)]) == words:
            return cli._read(argv[len(words) :], handler, cli._arguments(formats, options))
    return None


@settings(max_examples=200, deadline=None)
@given(cli_argv())
# Python 3.11 and 3.12 read an option's value "--" after "=" as an empty list
@example((["alpha", "--n=--"], None))
@example((["ks", "parse", "--input=--", "--strict"], "json"))
def test_any_argv_ends_in_exit_2_or_an_envelope(drawn):
    argv, fmt = drawn
    code, text, err = outcome(run, argv)
    if code == 2:
        assert text == "", argv
        # the usage error is the full parser's, word for word, and the reader hands it on
        assert (code, text, err) == outcome(tree_options, argv), argv
        assert read(argv) is None, argv
        return
    assert vars(cli.parse(argv)) == tree_options(argv), argv
    event("read without argparse" if read(argv) else "read by argparse")
    assert code in (0, 1), argv
    if fmt in ("csv", "jsonl") and not text.startswith("{\n"):
        # an accepted csv or jsonl run prints its rows, not an envelope
        if fmt == "csv":
            assert list(csv.DictReader(io.StringIO(text))), argv
        else:
            assert all(isinstance(json.loads(line), dict) for line in text.splitlines()), argv
        return
    doc = json.loads(text)
    assert set(doc) == {"command", "parameters", "results", "status"}, argv
    assert code == (0 if doc["status"] == "pass" else 1), argv


def _usage_cases():
    """Per leaf: help, a missing option, a bad value or one that starts with "-", an abbreviation,
    an unknown option, a repeated one, ``--opt=value``, a stray word and ``--``; then argv that
    name no leaf."""
    for argv in SMOKE:
        words = argv[: 2 if argv[0] == "ks" else 1]
        yield argv
        yield argv + ["-h"]
        yield words + ["--help"]
        yield words
        yield words + argv[len(words) + 2 :]  # the first option left out
        yield argv + ["--format", "xml"]
        yield argv + ["--format"]
        yield argv + ["--form", "json"]
        yield [word[:4] if word.startswith("--") else word for word in argv]
        yield argv + ["--bogus"]
        yield argv + ["--bogus=1"]
        yield argv + ["extra"]
        yield words + ["extra"] + argv[len(words) :]
        yield argv + ["--"]
        yield argv + ["--", "extra"]
        yield words + ["--"] + argv[len(words) :]
        yield argv + argv[len(words) : len(words) + 2]  # the first option twice
        yield argv + ["--format", "json", "--format", "json"]
        yield argv + ["--format=json"]
        yield words + ["=".join(argv[len(words) : len(words) + 2])] + argv[len(words) + 2 :]
        yield words + [argv[len(words)] + "=--"] + argv[len(words) + 2 :]
        for index, word in enumerate(argv):
            values = ["-", "-1", "-1,2", "-.5", "--"]  # argparse reads the first two as values
            if word in ("--max", "--n", "--jobs", "--target"):
                values += ["x", "5000"]
            if word.startswith("--"):  # every smoke option takes a value
                for value in values:
                    yield argv[: index + 1] + [value] + argv[index + 2 :]
    yield from (
        [], ["-h"], ["--help"], ["ks"], ["ks", "-h"], ["ks", "--help"], ["bogus"], ["ks", "bogus"],
        ["-h", "gn"], ["--", "gn", "--max", "3"], ["GN", "--max", "3"], ["gn=3"], ["ks", "--", "parse"],
        ["ks", "parse"], ["--bogus", "gn", "--max", "3"],
    )


def test_leaf_parser_reads_every_argv_as_the_full_parser_does():
    # run builds only the leaf its argv names; help, usage errors and options stay the tree's
    exits = []
    for argv in _usage_cases():
        expected = outcome(tree_options, argv)
        assert outcome(lambda a: vars(cli.parse(a)), argv) == expected, argv
        if isinstance(expected[0], int):  # an exit: the reader hands it on, run prints what the tree prints
            assert read(argv) is None, argv
            assert outcome(run, argv) == expected, argv
            exits.append(expected[0])
    assert len(exits) > 150 and set(exits) == {0, 2}


def test_closed_stdout_exits_1_without_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # about 1.7 MB of output, far more than a pipe holds
    child = subprocess.Popen(
        [sys.executable, "-m", "cybordism", "gn", "--max", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through a POSIX shell")
def test_stdout_closed_at_start_exits_1_without_a_traceback():
    # with fd 1 closed before exec, Python starts with sys.stdout None
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "cybordism", "gn", "--max", "3"]
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command], capture_output=True, env=env)
    assert (done.returncode, done.stderr) == (1, b"")


FREEZE_COUNT_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["cybordism", *sys.argv[1:]]
runpy.run_module("cybordism", run_name="__main__", alter_sys=True)
"""


def test_main_leaves_the_heap_to_the_os_but_under_dev_mode():
    # a frozen heap is skipped by the exit-time collections; -X dev keeps the full teardown,
    # whose ResourceWarning names a file left open, and a usage error ends as a command does
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def ended(flags, argv):
        command = [sys.executable, *flags, "-c", FREEZE_COUNT_AT_EXIT, *argv]
        done = subprocess.run(command, capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    plain, dev = ended([], ["gn", "--max", "3"]), ended(["-X", "dev"], ["gn", "--max", "3"])
    assert (plain[0], plain[2], dev[0], dev[2]) == (0, "True\n", 0, "False\n")
    assert plain[1] == dev[1] and json.loads(plain[1])["status"] == "pass"
    code, out, err = ended([], ["gn"])
    assert (code, out, err.splitlines()[-1]) == (2, "", "True")


def test_module_entry_point_end_to_end():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "cybordism", "gn", "--max", "4"]
    first = subprocess.run(command, capture_output=True, text=True, env=env)
    second = subprocess.run(command, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["status"] == "pass"

    bad = subprocess.run(
        [sys.executable, "-m", "cybordism", "bogus"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.floats(),
    st.text(),
    st.sampled_from(["\x00\x1f\n\t\"\\", "h\u00e9\u2003\U0001f600", "},\n  {", ""]),
)
FLAT_DICTS = st.dictionaries(st.text(max_size=3), SCALARS, min_size=1, max_size=4)
FLAT_LISTS = st.lists(SCALARS, min_size=1, max_size=4)


def _json_values(children):
    # each dict draws its keys from one type: json cannot sort mixed keys
    keys = st.sampled_from([st.text(max_size=3), st.integers(-5, 5), st.none(), st.booleans()])
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.lists(FLAT_DICTS, max_size=3),
        st.lists(FLAT_LISTS | FLAT_LISTS.map(tuple), max_size=3),
        st.lists(FLAT_LISTS, max_size=3).map(tuple),
        keys.flatmap(lambda k: st.dictionaries(k, children, max_size=4)),
    )


@settings(max_examples=500, deadline=None)
@given(st.recursive(SCALARS, _json_values, max_leaves=20))
def test_dumps_is_json_dumps_with_indent_and_sorted_keys(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_edge_cases():
    cases = [
        {},
        [],
        [[], {}, [{}], [[]]],
        {"a": {}, "b": [], "c": [{}]},
        [{"a": 1}, {}],
        [{"a": 1}, {"b": [1]}],
        {1: [1], 2: {"x": None}, 10: "ten"},
        {None: [{"k": "v"}]},
        {True: [1], False: {}},
        {1.5: [2]},
        [{"s": "},\n    {"}, {"s": "\u0000\x7f\u2028"}],
        [[1, -2], (3,), ["],\n    [", None]],
        [[1], [], [2]],
        [[1, [2]], [3]],
        [[{"a": 1}], [2]],
        [{"a": 1}, [2]],
        {"v": [[-1, -1], [2, -1]], "f": ([1, 0],)},
        ({"t": (1, 2)}, [3, (4,)]),
        -(10**300),
        "\ud800",
    ]
    for value in cases:
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True), value
    for bad in ({(1,): [1]}, {1: [1], "a": [2]}, [object()]):
        with pytest.raises(TypeError):
            dumps(bad)


def test_failure_envelope_is_indented_json(capsys):
    code, out = invoke(capsys, ["ks", "parse", "--input", str(DATA / "no-such-file.txt")])
    assert code == 1
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_ks_filter_and_ranges_count_as_they_stream(capsys):
    code, doc = envelope(capsys, ["ks", "filter", "--input", MALFORMED, "--target", "-1"])
    assert (code, doc["status"]) == (1, "partial")
    assert doc["results"]["counts"] == {"parsed": 2, "errors": 11, "inconsistent": 1, "kept": 1}
    code, doc = envelope(capsys, ["ks", "ranges", "--input", MALFORMED])
    assert (code, doc["status"]) == (1, "fail")
    assert doc["results"]["counts"] == {"parsed": 2, "errors": 11, "inconsistent": 1}


def test_tracer_installs_without_changing_output(capsys):
    # perfbench/tracing.py wraps every public library function and
    # TruncatedPolynomial.__mul__; a refactor that breaks it breaks --trace 1
    spec = importlib.util.spec_from_file_location("tracing", GOLDEN.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    jobs = [["s-number", "--partition", "1,1,1,1"], ["chern", "--partition", "1,1,2"]]
    plain = [invoke(capsys, argv) for argv in jobs]
    originals = dict(vars(cohomology))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(cybordism)
        try:
            assert cohomology.hypersurface_s_number is not originals["hypersurface_s_number"]
            assert [invoke(capsys, argv) for argv in jobs] == plain
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), set(tracer.self_s)))
    assert counts[0] == counts[1]
    calls, layers = counts[0]
    assert calls["cohomology.hypersurface_s_number"] == 1
    assert calls["cohomology.hypersurface_chern_numbers"] == 1
    # the evaluators run in the orbit basis, not on TruncatedPolynomial
    assert calls.get(tracing.RING_MUL, 0) == 0
    assert {"cli", "cohomology", "partitions"} <= layers
    assert dict(vars(cohomology)) == originals
