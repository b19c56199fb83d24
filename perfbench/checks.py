"""Output checks that share no code with the program under test.

Every number is recomputed here from closed forms written with
``math.factorial`` and plain integer loops: s-numbers from
``-n!/prod(d_i!) * prod((d_i + 1)**d_i)`` (see :func:`s_number` for the
term a part of size ``n - 1`` or ``n`` adds), the generator s-number ``g(n)``
from the benchmark's own Milnor factors, polytope data from the product
of standard simplices, Chern numbers from a reference recorded once from
the seed commit, and KS results from the truth planted by ``ksgen``.

:func:`check` returns ``None`` for a correct output and a one-line reason
otherwise.  Result fields the checks do not know are ignored, so a later
version may add fields without failing; every field that exists at the
seed commit is checked.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

CHERN_REFERENCE = Path(__file__).with_name("chern_reference.json")


class Mismatch(Exception):
    pass


def _expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {_short(actual)}, expected {_short(expected)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _fields(actual: dict, expected: dict, what: str) -> None:
    if not isinstance(actual, dict):
        raise Mismatch(f"{what}: not an object")
    for key, value in expected.items():
        if key not in actual:
            raise Mismatch(f"{what}: missing {key!r}")
        _expect(actual[key], value, f"{what}.{key}")


def _rows(actual: list, expected: list[dict], what: str) -> None:
    if not isinstance(actual, list):
        raise Mismatch(f"{what}: not a list")
    _expect(len(actual), len(expected), f"{what} count")
    for i, (got, want) in enumerate(zip(actual, expected)):
        _fields(got, want, f"{what}[{i}]")


# --- number theory, written from scratch ---------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_power(n: int) -> tuple[int, int] | None:
    for p in range(2, n + 1):
        if n % p == 0:
            s = 0
            while n % p == 0:
                n //= p
                s += 1
            return (p, s) if n == 1 else None
    return None


def milnor(i: int) -> int:
    pp = prime_power(i + 1)
    return pp[0] if pp else 1


def g(n: int) -> int:
    if n == 3:
        return 48
    value = milnor(n - 1) * milnor(n - 2)
    return value if n % 2 == 0 else 2 * value


def case_label(n: int) -> str:
    if n == 3:
        return "base"
    power, successor, even = prime_power(n), prime_power(n - 1), n % 2 == 0
    if power and successor:
        return "II" if even else "III"
    if power:
        return "IV" if even else "V"
    if successor:
        return "VI" if even else "VII"
    return "I"


def multinomial(parts) -> int:
    value = math.factorial(sum(parts))
    for d in parts:
        value //= math.factorial(d)
    return value


def weighted_multinomial(parts) -> int:
    value = multinomial(parts)
    for d in parts:
        value *= (d + 1) ** d
    return value


def s_number(parts) -> int:
    """``<s_{n-1}(V) c_1 - c_1^n, [V]>`` for ``V`` the product indexed by ``parts``.

    ``c_1^n`` pairs to the weighted multinomial.  ``s_{n-1}(V) =
    sum (d_i + 1) u_i^{n-1}`` survives only on a factor of dimension
    ``n - 1`` or ``n``: it adds ``2n`` for ``(n-1, 1)`` and ``(n+1)^2``
    for ``(n)``, and nothing when every part is at most ``n - 2``.
    """
    n = sum(parts)
    correction = {(n,): (n + 1) ** 2, (n - 1, 1): 2 * n}.get(tuple(sorted(parts, reverse=True)), 0)
    return correction - weighted_multinomial(parts)


def p_valuation(p: int, a: int) -> int:
    k = 0
    while a % p == 0:
        a //= p
        k += 1
    return k


def partitions(n: int, cap: int):
    """Partitions of ``n`` with parts ``<= cap``, as decreasing tuples."""
    stack = [((), n, min(n, cap))]
    out = []
    while stack:
        prefix, rest, top = stack.pop()
        if rest == 0:
            out.append(prefix)
            continue
        for part in range(1, top + 1):
            stack.append((prefix + (part,), rest - part, min(rest - part, part)))
    return out


def label(parts) -> str:
    return ",".join(str(d) for d in sorted(parts))


def parse_label(text: str) -> tuple[int, ...]:
    parts = tuple(int(tok) for tok in text.split(","))
    if any(d < 1 for d in parts) or text != label(parts):
        raise Mismatch(f"bad partition label {text!r}")
    return parts


def chern_label(omega) -> str:
    bits = []
    for index in sorted(set(omega)):
        power = omega.count(index)
        bits.append(f"c{index}" if power == 1 else f"c{index}^{power}")
    return "*".join(bits)


@lru_cache(maxsize=1)
def chern_reference() -> dict:
    with open(CHERN_REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


# --- per-subcommand checks ------------------------------------------------


def _gn(results: dict, params: dict, truth) -> None:
    rows = [
        {"n": n, "m1": milnor(n - 1), "m2": milnor(n - 2), "g": g(n)}
        for n in range(3, params["max"] + 1)
    ]
    _rows(results.get("rows"), rows, "rows")


def _gcd(results: dict, params: dict, truth) -> None:
    ns = range(3, params["max"] + 1)
    rows = [{"n": n, "gcd": g(n), "expected": g(n), "case": case_label(n), "ok": True} for n in ns]
    _rows(results.get("rows"), rows, "rows")
    counts: dict[str, int] = {}
    for n in ns:
        counts[case_label(n)] = counts.get(case_label(n), 0) + 1
    _expect(results.get("case_counts"), counts, "case_counts")


def _witness(n: int, p: int) -> tuple[str, tuple[int, ...]]:
    power, successor = prime_power(n), prime_power(n - 1)
    if power and power[0] == p:
        return "power", (p ** (power[1] - 1),) * p
    if successor and successor[0] == p:
        return "successor", (p ** (successor[1] - 1),) * p + (1,)
    parts: list[int] = []
    rest, scale = n, 1
    while rest:
        rest, digit = divmod(rest, p)
        parts += [scale] * digit
        scale *= p
    return "coprime", tuple(parts)


def _power_check(results: dict, params: dict, truth) -> None:
    rows = []
    for n in range(3, params["max"] + 1):
        for p in filter(is_prime, range(2, n + 1)):
            kind, witness = _witness(n, p)
            exact_once = kind != "coprime"
            rows.append(
                {
                    "n": n,
                    "prime": p,
                    "kind": kind,
                    "witness": label(witness),
                    "witness_valuation": p_valuation(p, multinomial(witness)),
                    # every capped partition is divisible, the witness once
                    "scan_min": 1 if exact_once else None,
                    "ok": True,
                }
            )
            _expect(rows[-1]["witness_valuation"], int(exact_once), f"v_{p} of witness for n={n}")
    _rows(results.get("rows"), rows, "rows")


def _certificate(results: dict, params: dict, truth) -> None:
    n = params["n"]
    entries = results.get("entries")
    if not isinstance(entries, list) or not entries:
        raise Mismatch("entries: empty or missing")
    total, seen = 0, set()
    for entry in entries:
        parts = parse_label(entry["partition"])
        _expect(sum(parts), n, f"sum of {entry['partition']}")
        if max(parts) > n - 2 or parts in seen or entry["coefficient"] == 0:
            raise Mismatch(f"entry {entry} is not a distinct capped partition with nonzero coefficient")
        seen.add(parts)
        total += entry["coefficient"] * s_number(parts)
    _expect(total, g(n), "sum coeff * s(N_sigma)")
    _fields(
        results,
        {"n": n, "achieved": g(n), "reverified_s_number": g(n), "integral_combination": True, "ok": True},
        "results",
    )


def _alpha(results: dict, params: dict, truth) -> None:
    n = params["n"]
    rows = results.get("rows")
    if not isinstance(rows, list):
        raise Mismatch("rows: not a list")
    expected = {label(parts): parts for parts in partitions(n, n - 2)}
    _expect(sorted(r.get("partition") for r in rows), sorted(expected), "capped partitions")
    for row in rows:
        parts = expected[row["partition"]]
        _fields(
            row,
            {
                "multinomial": multinomial(parts),
                "alpha": weighted_multinomial(parts),
                "s_number": s_number(parts),
                "match": True,
            },
            f"row {row['partition']}",
        )
    _expect(results.get("n"), n, "n")


def _s_number(results: dict, params: dict, truth) -> None:
    parts = parse_label(params["partition"])
    _fields(results, {"partition": label(parts), "s_number": s_number(parts)}, "results")


def _chern(results: dict, params: dict, truth) -> None:
    parts = parse_label(params["partition"])
    dim = sum(parts) - 1
    reference = chern_reference()[label(parts)]
    rows = results.get("rows")
    if not isinstance(rows, list):
        raise Mismatch("rows: not a list")
    expected = {chern_label(omega): omega for omega in partitions(dim, dim)}
    _expect(sorted(r.get("index") for r in rows), sorted(expected), "Chern indices")
    for row in rows:
        index = row["index"]
        want = 0 if 1 in expected[index] else reference[index]
        _expect(row.get("value"), want, f"Chern number {index}")
    euler = reference[chern_label((dim,))]
    _fields(results, {"partition": label(parts), "dimension": dim, "euler_characteristic": euler}, "results")


def simplex_product(parts) -> tuple[list[list[int]], list[list[int]]]:
    vertices: list[list[int]] = [[]]
    facets: list[list[int]] = []
    width = 0
    for d in sorted(parts, reverse=True):
        simplex = [[-1] * d] + [[d if i == j else -1 for i in range(d)] for j in range(d)]
        vertices = [v + w for v in vertices for w in simplex]
        normals = [[1 if i == j else 0 for i in range(d)] for j in range(d)] + [[-1] * d]
        facets = [f + [0] * d for f in facets] + [[0] * width + a for a in normals]
        width += d
    return vertices, facets


def _polytope(results: dict, params: dict, truth) -> None:
    parts = parse_label(params["partition"])
    vertices, facets = simplex_product(parts)
    _expect(len(vertices), math.prod(d + 1 for d in parts), "vertex construction")
    _fields(
        results,
        {
            "partition": label(parts),
            "dim": sum(parts),
            "vertex_count": math.prod(d + 1 for d in parts),
            "facet_count": sum(d + 1 for d in parts),
            "reflexive": True,
            "diagnostics": [],
            "vertices": vertices,
            "facets": facets,
        },
        "results",
    )


def _ks_parse(results: dict, params: dict, truth) -> None:
    _rows(results.get("records"), truth.records, "records")
    _rows(results.get("errors"), truth.errors, "errors")
    inconsistent = sum(1 for r in truth.records if not r["consistent"])
    counts = {"records": len(truth.records), "errors": len(truth.errors), "inconsistent": inconsistent}
    _fields(results.get("counts"), counts, "counts")


def _ks_counts(truth) -> dict:
    return {
        "parsed": len(truth.records),
        "errors": len(truth.errors),
        "inconsistent": len(truth.records) - len(truth.usable()),
    }


def _ks_filter(results: dict, params: dict, truth) -> None:
    kept = truth.kept(params["target"])
    _rows(results.get("records"), kept, "records")
    _fields(results.get("counts"), {**_ks_counts(truth), "kept": len(kept)}, "counts")
    _expect(results.get("target"), params["target"], "target")


def _ks_ranges(results: dict, params: dict, truth) -> None:
    _fields(results.get("plus"), truth.side(1), "plus")
    _fields(results.get("minus"), truth.side(-1), "minus")
    _fields(results.get("counts"), _ks_counts(truth), "counts")


def _ks_status(truth, kind: str) -> str:
    usable = truth.usable()
    bad = len(truth.errors) + len(truth.records) - len(usable)
    if kind == "ks-ranges":
        clean = not truth.side(1)["out_of_range"] and not truth.side(-1)["out_of_range"]
        return "pass" if clean and bad == 0 else "fail"
    good = len(usable)
    if bad == 0:
        return "pass"
    return "partial" if good else "fail"


_CHECKS = {
    "gn": _gn,
    "gcd": _gcd,
    "power-check": _power_check,
    "certificate": _certificate,
    "alpha": _alpha,
    "s-number": _s_number,
    "chern": _chern,
    "polytope": _polytope,
    "ks-parse": _ks_parse,
    "ks-filter": _ks_filter,
    "ks-ranges": _ks_ranges,
}


def parameters(argv: list[str]) -> tuple[str, dict, str]:
    """Command name, the parameters the envelope must echo, and the output format."""
    args = list(argv)
    command = args.pop(0)
    if command == "ks":
        command = f"ks-{args.pop(0)}"
    options = dict(zip(args[::2], args[1::2]))
    fmt = options.pop("--format", "json")
    params: dict = {}
    for key, value in options.items():
        name = key[2:]
        params[name] = value if name in ("partition", "input") else int(value)
    return command, params, fmt


def check(argv: list[str], code: int, text: str, truth=None) -> str | None:
    """``None`` when the job's exit code and output are right, else the reason."""
    command, params, fmt = parameters(argv)
    status = _ks_status(truth, command) if command.startswith("ks-") else "pass"
    try:
        _expect(code, 0 if status == "pass" else 1, "exit code")
        if fmt == "jsonl":
            items = [json.loads(line) for line in text.splitlines()]
            if command == "ks-parse":
                expected = truth.records + [{"error": True, **e} for e in truth.errors]
            else:
                expected = truth.kept(params["target"])
            _rows(items, expected, "jsonl")
            return None
        doc = json.loads(text)
        _fields(doc, {"command": command, "status": status}, "envelope")
        _fields(doc.get("parameters"), params, "parameters")
        results = doc.get("results")
        if not isinstance(results, dict):
            raise Mismatch("results: not an object")
        _CHECKS[command](results, params, truth)
    except Mismatch as exc:
        return f"{' '.join(argv)}: {exc}"
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"{' '.join(argv)}: unreadable output ({type(exc).__name__}: {exc})"
    return None
