"""``ks`` commands on a file split between two processes: the output is the serial output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cybordism import cli, toricdata
from cybordism.cli import run
from cybordism.toricdata import KSRecord

DATA = Path(__file__).parent / "data"
SRC = str(Path(cli.__file__).resolve().parents[1])
SPLIT, SERIAL = 0, math.inf  # the size floor that splits every file, and none

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")

ARGVS = (
    ["parse"],
    ["parse", "--strict"],
    ["parse", "--format", "jsonl"],
    ["parse", "--format", "jsonl", "--strict"],
    ["filter", "--target", "1"],
    ["filter", "--target", "-1"],
    ["ranges"],
)


def output(path, argv, floor) -> tuple[int, str]:
    with mock.patch.object(toricdata, "_SPLIT_FLOOR", floor), contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(["ks", *argv, "--input", str(path)])
    return code, out.getvalue()


@contextlib.contextmanager
def forks():
    """The pids of the children forked while the block runs."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", fork):
        yield pids


def assert_split_is_serial(path, argvs=ARGVS, split=True):
    """Every argv prints the same and exits the same with the split on as off; the split is
    used when ``split`` says so, and never otherwise."""
    with forks() as pids:
        for argv in argvs:
            assert output(path, argv, SPLIT) == output(path, argv, SERIAL), argv
    assert len(pids) == (len(argvs) if split else 0)


def where(path) -> tuple[int, int] | None:
    with mock.patch.object(toricdata, "_SPLIT_FLOOR", SPLIT), open(path, encoding="utf-8") as handle:
        return toricdata._split_point(handle, str(path))


# Arabic-Indic digits are decimal to int() and to the parser's \d
NUMBER = st.sampled_from(["0", "1", "2", "17", "٣", "1٢"])


@st.composite
def ks_record(draw) -> list[str]:
    """A header of any field set, with its rows: all good, or drawn from good, short and non-integer
    ones, so a record may end early, be cut short or run into the next header."""
    dim, count = draw(st.sampled_from(["0", "1", "2", "3", "٢"])), draw(st.integers(1, 3))
    fields = draw(st.sampled_from(["", " M:5 3", " N:4 2", " M:5 3 N:4 2"]))
    chi = draw(st.sampled_from(["", " [0]", " [2]", " [-2]", " [-٢]"]))
    header = f"{dim} {count}{fields} H:{draw(NUMBER)},{draw(NUMBER)}{chi}"
    good, short = " ".join(["1", "-1", "٣"][:count]), " ".join(["0"] * (count - 1))
    rows = st.sampled_from([good, good, good, short, "1 x"])
    return [header, *draw(st.just([good] * int(dim)) | st.lists(rows, max_size=int(dim) + 1))]


# records and lines that are not records, mostly records so that most files are split
LINES = st.lists(
    st.one_of(
        ks_record(),
        ks_record(),
        st.sampled_from([[""], ["noise"], ["# Kähler"], ["1 2 ; 3"], ["4 5 M:1 2"], ["1 2"]]),
    ),
    min_size=3,
    max_size=24,
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("split")


@settings(max_examples=60, deadline=None)
@given(LINES, st.booleans(), st.sampled_from([2, 1024]))
# a record cut short by the line the file is split at
@example([["1 1 H:2,1"]] * 3 + [["3 2 H:2,1 [2]", "1 1"]] + [["1 1 H:2,1", "1"]] * 3, True, 1024)
# a header of dim 0 as the split line, and a short record whose rows run up to it
@example([["1 2 H:3,2", "1 1"]] * 4 + [["2 2 H:3,2", "1 1"], ["0 4 H:3,2"], ["1 2 H:3,2", "1 1"]], False, 2)
def test_split_output_is_the_serial_output(work, lines, newline_at_end, block):
    # both halves of every split must give what the serial walk gives, line numbers
    # and the _BAD_ROW of a record cut at the split included
    path = work / "drawn.txt"
    path.write_text("\n".join(sum(lines, [])) + "\n" * newline_at_end, encoding="utf-8")
    split = where(path) is not None
    event("split" if split else "serial")
    with mock.patch.object(toricdata, "_BLOCK", block):
        assert_split_is_serial(path, split=split)


def records(count: int) -> str:
    return "".join(f"2 2 H:{20 + k % 3},20\n 1 0\n0 -1\n" for k in range(count))


def test_a_record_cut_at_the_split_still_names_its_bad_row(tmp_path):
    # the split line is a header, so the record before it is cut there; the parent's serial
    # walk reads past its half and reports that, and the child starts at the header
    half = records(40)
    path = tmp_path / "cut.txt"
    path.write_text(half + "3 2 H:2,1\n1 1" + " " * 400 + "\n" + half, encoding="utf-8")
    head = where(path)[1]
    assert (head, path.read_text().splitlines()[head]) == (40 * 3 + 2, "2 2 H:20,20")
    assert_split_is_serial(path)
    _, out = output(path, ["parse"], SPLIT)
    cut = {"line": head - 1, "message": f"expected a row of 2 integers at line {head + 1}"}
    assert cut in json.loads(out)["results"]["errors"]


@pytest.mark.parametrize(
    "ends, split",
    [("\r\n", False), ("\r", False), ("\n", True)],
    ids=["crlf", "lone-cr", "lf-then-crlf"],
)
def test_a_carriage_return_before_the_split_line_ends_keeps_the_file_serial(tmp_path, ends, split):
    # text mode reads a lone "\r" as a line break, which the byte count of lines
    # would not see; after the split line, the child reads "\r" as the serial walk does
    body = records(40).replace("\n", ends)
    path = tmp_path / "cr.txt"
    path.write_bytes((body + records(40) + records(5).replace("\n", "\r\n")).encode())
    assert (where(path) is not None) == split
    assert_split_is_serial(path, split=split)


def test_a_carriage_return_in_the_split_line_keeps_the_file_serial(tmp_path):
    # as bytes, "3\r3 H:2,2" is the first header past the middle byte; text mode reads "3", the
    # second row of the record before it, and then "3 H:2,2", so no child may start at it
    half = records(3550)
    path = tmp_path / "split-cr.txt"
    path.write_bytes(f"{half}2 1 H:3,2 [2]\n3\r3 H:2,2\n{half}".encode())
    assert len(half) <= path.stat().st_size // 2 < len(half) + len("2 1 H:3,2 [2]\n")
    assert_split_is_serial(path, [["parse", "--format", "jsonl"]], split=False)


@pytest.mark.parametrize("block", [8, 1024, 8192])
@pytest.mark.parametrize("late", [0, 1, 30, 1500])
def test_invalid_utf8_in_the_second_half_fails_as_serially(tmp_path, block, late):
    # the serial walk loses the whole block that holds the bad bytes, split line or not, and
    # text is decoded 8 KiB at a time: near the split, the parent's walk may raise before the
    # child is reaped, and 1500 records past it, the child fails and the parent's walk goes on
    # to raise.  The rows written before and the fail envelope must be the same.
    lines = records(2000).splitlines(keepends=True)
    probe = tmp_path / "probe.txt"
    probe.write_text("".join(lines))
    bad = where(probe)[1] + 3 * late  # before the record that starts 3 * late lines past the split
    path = tmp_path / "late.txt"
    path.write_bytes("".join(lines[:bad]).encode() + b"4 5 H:1,2 \xff\n" + "".join(lines[bad:]).encode())
    with mock.patch.object(toricdata, "_BLOCK", block):
        assert_split_is_serial(path, [["parse", "--format", "jsonl"], ["filter", "--target", "1"]])
        code, out = output(path, ["parse", "--format", "jsonl"], SPLIT)
    assert code == 1 and "utf-8" in out


def test_invalid_utf8_in_the_first_half_fails_as_serially(tmp_path):
    path = tmp_path / "early.txt"
    path.write_bytes(records(5).encode() + b"\xff\n" + records(80).encode())
    with mock.patch.object(toricdata, "_BLOCK", 8):
        assert_split_is_serial(path, [["parse", "--format", "jsonl"], ["ranges"]])


def sample_file(tmp_path, copies: int = 8) -> Path:
    path = tmp_path / "ks.txt"
    path.write_text((DATA / "ks_sample.txt").read_text() * copies)
    return path


@pytest.fixture(scope="module")
def big(work) -> Path:
    """A file large enough to be split at the real size floor."""
    path = sample_file(work, 640)
    assert path.stat().st_size >= toricdata._SPLIT_FLOOR
    return path


def test_a_finished_childs_runs_are_the_ones_used(big, monkeypatch):
    # the parent stops its walk at the split line's block and passes on the child's runs,
    # rather than parsing the second half again
    real_read, real_shipped, read, shipped = toricdata._read, toricdata._shipped, [], []

    def counted(lines):
        block = real_read(lines)
        read.append(len(block))
        return block

    def spied(out):
        for run in real_shipped(out):
            shipped.append(run)
            yield run

    monkeypatch.setattr(toricdata, "_read", counted)  # the child's count stays in the child
    monkeypatch.setattr(toricdata, "_shipped", spied)
    for _ in toricdata.parse_ks_file_runs(str(big)):
        pass
    head = where(big)[1]
    assert any(shipped)
    # the parent reads no further than the block that holds the split line, which ends by line
    # head + _BLOCK; the split record's rows end in that block here
    assert sum(read) <= head + toricdata._BLOCK


def test_no_file_is_left_open(big, tmp_path):
    # under -X dev a file or temporary file that is never closed prints a ResourceWarning
    late = tmp_path / "late.txt"  # the child fails on bytes that are not UTF-8
    late.write_bytes(big.read_bytes() + b"4 5 H:1,2 \xff\n" + records(5).encode())
    env = {**os.environ, "PYTHONPATH": SRC}

    def ks(argv, path=big):
        return [sys.executable, "-X", "dev", "-m", "cybordism", "ks", *argv, "--input", str(path)]

    for argv, path, code in [
        (["parse", "--format", "jsonl"], big, 0),
        (["filter", "--target", "1"], big, 0),
        (["ranges"], big, 0),
        (["parse", "--format", "jsonl"], late, 1),
    ]:
        done = subprocess.run(ks(argv, path), capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (code, b""), (argv, path)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(ks(["parse", "--format", "jsonl"]), env=env, **pipes) as reader:
        assert len(reader.stdout.read(100)) == 100
        reader.stdout.close()  # the reader goes: the command leaves early
        assert reader.stderr.read() == b""


def test_a_second_thread_keeps_the_file_serial(tmp_path):
    # forking a process with threads can leave the child waiting on a lock another thread held
    path, stop = sample_file(tmp_path), threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert_split_is_serial(path, [["parse"], ["ranges"]], split=False)
    finally:
        stop.set()
        thread.join()


def test_stdin_and_other_files_are_read_serially(tmp_path, monkeypatch):
    with forks() as pids, open(sample_file(tmp_path), encoding="utf-8") as handle:
        monkeypatch.setattr(sys, "stdin", handle)
        assert output("-", ["ranges"], SPLIT)[0] == 0
        assert output(os.devnull, ["parse"], SPLIT)[0] == 0  # a character device: nothing to split
    assert pids == []


def test_no_fork_no_temporary_file_or_no_process_leaves_the_file_serial(tmp_path, monkeypatch):
    path = sample_file(tmp_path)
    serial = output(path, ["parse", "--format", "jsonl"], SERIAL)
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert output(path, ["parse", "--format", "jsonl"], SPLIT) == serial
    for failing in ("os.fork", "tempfile.TemporaryFile"):
        with mock.patch(failing, side_effect=OSError(11, "Resource temporarily unavailable")) as fail:
            assert output(path, ["parse", "--format", "jsonl"], SPLIT) == serial
        assert fail.called


def test_a_failed_child_has_the_file_parsed_again_serially(tmp_path):
    path = tmp_path / "ks.txt"
    path.write_text((DATA / "ks_malformed.txt").read_text() * 30 + (DATA / "ks_sample.txt").read_text() * 30)
    real = toricdata._ship

    def ships_then_fails(*args):  # a partial temporary file is not read
        real(*args)
        raise RuntimeError

    for child in (lambda *args: os._exit(1), ships_then_fails):
        with mock.patch.object(toricdata, "_BLOCK", 16), mock.patch.object(toricdata, "_ship", child):
            assert_split_is_serial(path)


def test_leaving_early_kills_and_reaps_the_child(tmp_path):
    path = sample_file(tmp_path, 100)
    with mock.patch.object(toricdata, "_SPLIT_FLOOR", SPLIT), forks() as pids:
        runs = toricdata.parse_ks_file_runs(str(path))
        assert next(runs)
        runs.close()
    [pid] = pids
    with pytest.raises(ChildProcessError):  # reaped already
        os.waitpid(pid, os.WNOHANG)


def test_records_past_the_split_hold_the_printed_fields(tmp_path):
    # a record holds its header's numbers alone, so the child ships each item whole
    path = sample_file(tmp_path, 4)
    with open(path, encoding="utf-8") as handle:
        serial = [item for run in toricdata.parse_ks_runs(handle) for item in run]
    with mock.patch.object(toricdata, "_SPLIT_FLOOR", SPLIT), forks() as pids:
        split = [item for run in toricdata.parse_ks_file_runs(str(path)) for item in run]
    head = where(path)[1]
    assert pids and any(type(item) is KSRecord and item.line > head for item in split)
    assert split == serial
    assert [(type(item), tuple(item)) for item in split] == [(type(item), tuple(item)) for item in serial]


@pytest.mark.parametrize(
    "data",
    [b"4 5 H:1,2 \xff\n", b"4 5 H:1,2\r\n 1 2 3 4 5\r\n", b"1 1 H:2,1\r 1\r1 1 H:1,2 [1]\r0\r"],
    ids=["invalid-utf8", "crlf", "lone-cr"],
)
def test_stdin_is_read_as_a_file_is(tmp_path, data):
    # Python's stdin escapes bad bytes as surrogates under a C or UTF-8 locale, and keeps "\r"
    path = tmp_path / "ks.txt"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C"}
    done = {
        source: subprocess.run(
            [sys.executable, "-m", "cybordism", "ks", "parse", "--input", source],
            input=data,
            capture_output=True,
            env=env,
        )
        for source in (str(path), "-")
    }
    by_file, by_stdin = done.values()
    assert (by_stdin.returncode, by_stdin.stderr) == (by_file.returncode, by_file.stderr) == (1, b"")
    from_file, from_stdin = json.loads(by_file.stdout), json.loads(by_stdin.stdout)
    assert from_stdin["parameters"]["input"] == "-"
    from_stdin["parameters"]["input"] = str(path)
    assert from_stdin == from_file
