"""Command-line front end.

Every subcommand prints one deterministic report envelope (JSON with
sorted keys) so reruns are byte-identical; table-shaped subcommands also
offer ``--format csv`` with the same numeric content.  All numbers are
exact integers.  Exit code 0 means the envelope status is ``pass``;
domain or verification failures exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, partial
from itertools import chain

# Each handler imports the library modules it uses when it runs, so a
# command starts up with only those; here they are imported for type
# checkers alone.  Handlers call module.function, looked up at call time,
# so a rebinding of a module attribute is seen.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import toricdata
    from .partitions import Partition

# Largest accepted --max of the per-n loops.  As commands, gn at 10^5 takes
# 1.0-1.3 s and 66 MB, power-check at 400 0.65-0.83 s and 45 MB (peak RSS;
# three runs each on a 2-core VM, Python 3.11).
GN_MAX = 100_000
POWER_CHECK_MAX = 400

# Each handler returns ``(results, status)`` for :func:`run` to print; status
# is "pass", "fail" or "partial".  The csv of a table command is ``results["rows"]``
# in the key order of its dicts.  ``ks parse`` and ``filter`` return their records
# as an iterator of runs and their status as a callable, asked once run has rendered them.


def _per_n(top: int, budget: int, name: str) -> range:
    """``3 <= n <= top``, refusing a ``top`` below 3 or over the ``name`` budget."""
    if top < 3:
        raise ValueError(f"need --max >= 3, got {top}")
    if top > budget:
        raise ValueError(f"need --max <= {budget} (the {name} budget), got {top}")
    return range(3, top + 1)


def _cmd_gn(args: argparse.Namespace) -> tuple[dict, str]:
    """table of milnor factors and generator s-numbers"""
    from . import numthy

    rows = [
        {
            "n": n,
            "m1": numthy.milnor_factor(n - 1),
            "m2": numthy.milnor_factor(n - 2),
            "g": numthy.su_generator_s_number(n),
        }
        for n in _per_n(args.max, GN_MAX, "gn")
    ]
    return {"rows": rows}, "pass"


def _cmd_alpha(args: argparse.Namespace) -> tuple[dict, str]:
    """s-number magnitudes over the capped partitions of n, both routes"""
    from . import cohomology

    if args.n > cohomology.ALPHA_MAX_N:
        raise ValueError(f"need --n <= {cohomology.ALPHA_MAX_N} (the alpha budget), got {args.n}")
    report = cohomology.verify_alpha(args.n)
    rows = [{**row._asdict(), "partition": row.partition.label} for row in report.rows]
    return {"n": args.n, "rows": rows}, "pass" if report.passed else "fail"


def _cmd_gcd(args: argparse.Namespace) -> tuple[dict, str]:
    """verify the gcd identity with prime-power case attribution"""
    from . import generators

    _per_n(args.max, generators.GCD_MAX_N, "gcd")
    report = generators.verify_gcd_identity(args.max)
    results = {
        "rows": [
            {"n": r.n, "gcd": r.gcd_value, "expected": r.expected, "case": r.case, "ok": r.ok}
            for r in report.rows
        ],
        "case_counts": report.case_counts(),
    }
    return results, "pass" if report.passed else "fail"


def _cmd_certificate(args: argparse.Namespace) -> tuple[dict, str]:
    """integer generator certificate with independent recheck"""
    from . import generators, numthy

    cert = generators.certificate(args.n)
    reverified = generators.reverify_certificate(cert)
    ok = reverified == cert.achieved == numthy.su_generator_s_number(args.n)
    results = {
        "n": cert.n,
        "entries": [
            {"partition": sigma.label, "coefficient": coeff}
            for sigma, coeff in cert.entries
        ],
        "achieved": cert.achieved,
        "reverified_s_number": reverified,
        "integral_combination": True,
        "ok": ok,
    }
    return results, "pass" if ok else "fail"


def _cmd_s_number(args: argparse.Namespace) -> tuple[dict, str]:
    """s-number of one hypersurface via the cohomology route"""
    from . import cohomology, partitions

    sigma = partitions.parse_partition(args.partition)
    value = cohomology.hypersurface_s_number(sigma)
    return {"partition": sigma.label, "s_number": value}, "pass"


def _chern_index_label(omega: Partition) -> str:
    return "*".join(
        f"c{index}" if power == 1 else f"c{index}^{power}"
        for index, power in sorted(Counter(omega).items())
    )


def _cmd_chern(args: argparse.Namespace) -> tuple[dict, str]:
    """all Chern numbers of one hypersurface"""
    from . import cohomology, partitions

    sigma = partitions.parse_partition(args.partition)
    numbers = cohomology.hypersurface_chern_numbers(sigma)
    dimension = sigma.n - 1
    # the table is built in enumerate_partitions(dimension) order
    rows = [
        {"index": _chern_index_label(omega), "value": value} for omega, value in numbers.items()
    ]
    results = {
        "partition": sigma.label,
        "dimension": dimension,
        "rows": rows,
        "euler_characteristic": numbers[partitions.Partition((dimension,))],
    }
    return results, "pass"


def _cmd_power_check(args: argparse.Namespace) -> tuple[dict, str]:
    """multinomial divisibility pattern for 3 <= n <= max"""
    from . import partitions

    reports = [partitions.power_check(n) for n in _per_n(args.max, POWER_CHECK_MAX, "power-check")]
    rows = [
        {"n": report.n, **entry._asdict(), "witness": entry.witness.label}
        for report in reports
        for entry in report.entries
    ]
    return {"rows": rows}, "pass" if all(report.passed for report in reports) else "fail"


def _cmd_polytope(args: argparse.Namespace) -> tuple[dict, str]:
    """product-of-simplices polytope data and reflexivity verdict"""
    from . import partitions, toricdata

    sigma = partitions.parse_partition(args.partition)
    poly = toricdata.partition_polytope(sigma)
    report = toricdata.verify_reflexive(poly)
    results = {
        "partition": sigma.label,
        "dim": poly.dim,
        "vertex_count": report.vertex_count,
        "facet_count": report.facet_count,
        "vertices": poly.vertices,
        "facets": poly.facets,
        "reflexive": report.ok,
        "diagnostics": report.diagnostics,
    }
    return results, "pass" if report.ok else "fail"


def _read_ks(
    args: argparse.Namespace, counts: dict, key: str, errors: list | None = None, usable: bool = False
) -> Iterator[list]:
    """The input's records a run at a time, counted under ``key``; with ``usable`` only the consistent
    ones, the others counted as "inconsistent".  Error items are counted as "errors", their rows put
    in ``errors`` when it is given."""
    from . import toricdata

    record = toricdata.KSRecord
    if args.input != "-":
        runs = toricdata.parse_ks_file_runs(args.input, args.strict)
    elif sys.stdin is None:  # started with fd 0 closed
        raise OSError("standard input is closed")
    else:
        runs = toricdata.parse_ks_runs(_utf8(sys.stdin), args.strict)
    for run in runs:
        records = [item for item in run if type(item) is record]
        counts[key] += len(records)
        counts["errors"] += len(run) - len(records)
        if errors is not None:
            errors += [{"line": e.line, "message": e.message} for e in run if type(e) is not record]
        if usable:
            run, records = records, [r for r in records if r.consistent]
            counts["inconsistent"] += len(run) - len(records)
        yield records


def _utf8(stdin) -> Iterable[str]:
    """Standard input read as a file is: strict UTF-8, universal newlines.  Python's own
    ``sys.stdin`` may escape bad bytes as surrogates and keeps carriage returns.  A stand-in
    without a file descriptor, such as a ``StringIO``, is read as it is."""
    try:
        fd = stdin.fileno()
    except (AttributeError, io.UnsupportedOperation):
        return stdin
    return open(fd, encoding="utf-8", closefd=False)


def _ks_status(counts: dict, key: str) -> str:
    good, bad = counts[key] - counts["inconsistent"], counts["errors"] + counts["inconsistent"]
    return "partial" if bad and good else "fail" if bad else "pass"


def _cmd_ks_parse(args: argparse.Namespace) -> tuple[dict, Callable[[], str]]:
    """parse records, reporting positioned errors"""
    errors, counts = [], {"records": 0, "inconsistent": 0, "errors": 0}
    results = {"records": _read_ks(args, counts, "records", errors), "errors": errors, "counts": counts}
    return results, partial(_ks_status, counts, "records")


def _cmd_ks_filter(args: argparse.Namespace) -> tuple[dict, Callable[[], str]]:
    """keep records with the requested Hodge difference"""
    from . import toricdata

    counts = {"parsed": 0, "inconsistent": 0, "errors": 0, "kept": 0}
    usable = _read_ks(args, counts, "parsed", usable=True)
    kept = ([*toricdata.filter_hodge_difference(run, args.target)] for run in usable)
    records = (run for run in kept for counts["kept"] in [counts["kept"] + len(run)])  # counted as they pass
    results = {"target": args.target, "records": records, "counts": counts}
    return results, partial(_ks_status, counts, "parsed")


def _side_dict(side: toricdata.RangeSide) -> dict:
    flagged = [{"line": line, "h11": h11} for line, h11 in side.out_of_range]
    return {**side._asdict(), "h11_min": side.h11_min, "h11_max": side.h11_max, "out_of_range": flagged}


def _cmd_ks_ranges(args: argparse.Namespace) -> tuple[dict, str]:
    """summarise achieved h11 values for both signs"""
    from . import toricdata

    counts = {"parsed": 0, "inconsistent": 0, "errors": 0}
    report = toricdata.h11_range_report(chain.from_iterable(_read_ks(args, counts, "parsed", usable=True)))
    results = {"plus": _side_dict(report.plus), "minus": _side_dict(report.minus), "counts": counts}
    ok = report.clean and not counts["errors"] and not counts["inconsistent"]
    return results, "pass" if ok else "fail"


def integer(word: str) -> int:
    """An integer option read as a partition part: not "1_0" or "+4", which int() takes."""
    if not word.strip().removeprefix("-").isdecimal():
        raise ValueError(word)
    return int(word)


# Every option of every subcommand, declared once; each leaf names the ones it takes.
_OPTIONS = {
    "--max": {"type": integer, "required": True, "help": "largest n (inclusive)"},
    "--jobs": {"type": integer, "default": 1, "help": "accepted and ignored (runs serially)"},
    "--n": {"type": integer, "required": True},
    "--partition": {"required": True, "help": "comma-separated parts, e.g. 1,1,3"},
    "--input": {"required": True, "help": "input file, or - for stdin"},
    "--strict": {"action": "store_true", "help": "treat chi mismatches as errors"},
    "--target": {"type": integer, "required": True, "choices": [1, -1]},
}


_TABLE, _STREAM, _JSON = ("json", "csv"), ("json", "jsonl"), ("json",)
# Each leaf, declared once: (command words, handler, --format choices, options).
# The handler's docstring is the leaf's help; --format offers only what it prints.
_LEAVES = (
    (("gn",), _cmd_gn, _TABLE, ("--max",)),
    (("alpha",), _cmd_alpha, _TABLE, ("--n",)),
    (("gcd",), _cmd_gcd, _TABLE, ("--max", "--jobs")),
    (("certificate",), _cmd_certificate, _JSON, ("--n",)),
    (("s-number",), _cmd_s_number, _JSON, ("--partition",)),
    (("chern",), _cmd_chern, _TABLE, ("--partition",)),
    (("power-check",), _cmd_power_check, _TABLE, ("--max", "--jobs")),
    (("polytope",), _cmd_polytope, _JSON, ("--partition",)),
    (("ks", "parse"), _cmd_ks_parse, _STREAM, ("--input", "--strict")),
    (("ks", "filter"), _cmd_ks_filter, _STREAM, ("--input", "--strict", "--target")),
    (("ks", "ranges"), _cmd_ks_ranges, _JSON, ("--input", "--strict")),
)
# the help of each command word that groups leaves
_GROUPS = {"ks": "Hodge-number record pipeline"}
PROG = "cybordism"


def _fill(leaf: argparse.ArgumentParser, handler: Callable, formats: tuple[str, ...], options) -> None:
    leaf.set_defaults(handler=handler)
    for option in options:
        leaf.add_argument(option, **_OPTIONS[option])
    leaf.add_argument("--format", choices=formats, default="json", help="output format")


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, as help and usage errors show it."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Exact s-numbers and Chern numbers of Calabi-Yau hypersurfaces in "
            "products of projective spaces, gcd verification and integer "
            "certificates for SU-bordism generators, reflexive-polytope "
            "construction, and Hodge-number record filtering."
        ),
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, handler, formats, options in _LEAVES:
        *group, name = words
        if tuple(group) not in groups:
            sub = groups[()].add_parser(group[0], help=_GROUPS[group[0]])
            groups[tuple(group)] = sub.add_subparsers(dest=f"{group[0]}_command", required=True)
        _fill(groups[tuple(group)].add_parser(name, help=handler.__doc__), handler, formats, options)
    return parser


def parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the leaf that argv names.

    The full tree hands a leaf's parser every word after the leaf's command
    words, so when argv begins with them that parser alone is built, as the
    tree builds it, and its help and usage errors are the tree's.  A word it
    leaves over is an error of the whole tree, as is an argv that names no
    leaf: both go to the full parser, which reports them.
    """
    for words, handler, formats, options in _LEAVES:
        if tuple(argv[: len(words)]) == words:
            leaf = argparse.ArgumentParser(prog=" ".join((PROG, *words)))
            _fill(leaf, handler, formats, options)
            args, extra = leaf.parse_known_args(argv[len(words) :])
            if not extra:
                return args
            break
    return build_parser().parse_args(argv)


def _render_csv(rows: list[dict]) -> str:
    """The rows under a header of their keys; every row has the first one's keys."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buffer.getvalue()


# the exact types the C encoder writes as JSON scalars
_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _encoder(depth: int) -> Callable[[object], str]:
    """C-encoded compact JSON whose items are separated by a line indented to ``depth``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def dumps(obj: object, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``json`` uses its C encoder only without ``indent``.  Here every
    container of scalars, and every list of non-empty such dicts or such
    lists, is C-encoded at once with the line break of its depth between
    items; only the containers around them are walked in Python.
    """
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return _encoder(0)(obj)  # a scalar, "{}" or "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = inner[:-2]
    if _SCALARS.issuperset(map(type, obj.values() if isinstance(obj, dict) else obj)):
        text = _encoder(depth + 1)(obj)
        return "".join((text[0], inner, text[1:-1], outer, text[-1]))
    if isinstance(obj, dict):
        # a one-item dict has the C encoder coerce and quote each key as json does
        body = ("," + inner).join(
            [
                _encoder(0)({key: None})[1:-7] + ": " + dumps(value, depth + 1)
                for key, value in sorted(obj.items())
            ]
        )
        return "".join(("{", inner, body, outer, "}"))
    kinds = {*map(type, obj)}
    dicts = kinds == {dict}
    if (dicts or kinds <= {list, tuple}) and all(obj) and _SCALARS.issuperset(
        map(type, chain.from_iterable(map(dict.values, obj) if dicts else obj))
    ):
        # the list's items and theirs share one separator; no encoded scalar
        # holds a line break, so "},<line>{" or "],<line>[" is always between items
        first, last = "{}" if dicts else "[]"
        deeper = inner + "  "
        body = _encoder(depth + 2)(obj)[2:-2]
        body = body.replace(last + "," + deeper + first, inner + last + "," + inner + first + deeper)
        return "".join(("[", inner, first, deeper, body, inner, last, outer, "]"))
    body = ("," + inner).join([dumps(value, depth + 1) for value in obj])
    return "".join(("[", inner, body, outer, "]"))


def _write_rows(runs: Iterable[list], jsonl: bool, write: Callable, counts: dict) -> None:
    """Each run of ks records as one text through ``write``, and an empty run as none, since
    :func:`run` strips the first text's separator.  A record's row is a jsonl line, or an item of
    results.records (depth 2 in the envelope) led by its separator, as json's text for a row of
    ``"%s"``, keys sorted.  ``chi`` is tested with ``is None`` and ``consistent`` by truth, never
    looked up by value (``1 == True``); records not consistent count as "inconsistent"."""
    row = dict.fromkeys("ambient_dim chi consistent h11 h21 line vertex_count".split(), "%s")
    row = json.dumps(row, sort_keys=True) + "\n" if jsonl else ",\n      " + dumps(row, 3)
    row = row.replace('"%s"', "%s")
    for run in filter(None, runs):
        flags = [r.consistent for r in run]
        counts["inconsistent"] += flags.count(False)
        rows = [
            row % (r[0], "null" if r[4] is None else r[4], "true" if ok else "false", r[2], r[3], r[5], r[1])
            for r, ok in zip(run, flags)
        ]
        write("".join(rows))


def _parameters(args: argparse.Namespace) -> dict:
    skip = {"command", "ks_command", "format", "handler"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; prints the report and returns the exit code."""
    # Options, partitions and KS header numbers are read by int(), which refuses more digits than
    # the limit, so the command runs under the default limit whatever the caller's is.  An exact
    # value may pass it, as the s-number of a single part over 1370 does, so the report is printed
    # with none.  The caller's limit is back when run returns or raises.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        args = parse(argv)
        command = next("-".join(words) for words, handler, *_ in _LEAVES if handler is args.handler)
        rows: list[str] = []  # JSON ks record rows, one text per run
        try:
            results, status = args.handler(args)
            if callable(status):  # ks rows as the records are parsed, then the status
                jsonl = args.format == "jsonl"
                write = sys.stdout.write if jsonl else rows.append
                _write_rows(results["records"], jsonl, write, results["counts"])
                results["records"], status = [], status()
        except (ValueError, OSError) as exc:
            # a refused or failed command reports in the envelope, whatever the format
            results, status, args.format, rows = {"error": str(exc)}, "fail", "json", []
        sys.set_int_max_str_digits(0)
        if args.format == "csv":
            sys.stdout.write(_render_csv(results["rows"]))
        elif args.format == "jsonl":
            encode, errors = json.JSONEncoder(sort_keys=True).encode, results.get("errors", ())
            sys.stdout.write("".join([f"{encode({'error': True, **e})}\n" for e in errors]))
        else:
            envelope = {
                "command": command,
                "parameters": _parameters(args),
                "results": results,
                "status": status,
            }
            head, slot, tail = dumps(envelope).partition('"records": [')
            if rows:  # the rows go in the records list that dumps left empty
                rows[0] = rows[0][1:]  # no separator before the first
                rows.append("\n    ")  # where results.records closes
            sys.stdout.writelines([head, slot, *rows, tail, "\n"])
    finally:
        sys.set_int_max_str_digits(limit)
    return 0 if status == "pass" else 1


def main() -> None:
    # stdout through a BufferedWriter even when Python runs unbuffered (-u): a raw
    # file can take part of a long write to a pipe whose reader has gone and report
    # no error, where a BufferedWriter writes the rest, and that write raises
    stdout = sys.stdout
    if stdout is None:  # started with fd 1 closed: as if the reader had gone at once
        sys.exit(1)
    sys.stdout = open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device so that
        # the flush at exit cannot raise again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
