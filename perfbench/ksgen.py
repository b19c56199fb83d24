"""Seeded synthetic Kreuzer-Skarke-style record file with planted truth.

The generator writes header-plus-matrix records in the format
``cybordism ks`` reads, and plants three kinds of faults whose exact
effect on the parser is known in advance:

* ``noise``: a line of words, reported as one unrecognized line;
* ``missing_h``: a header without its ``H:`` field, reported once for the
  header and once per matrix row that follows it (stray rows);
* ``h11_zero``: a well-formed record with ``h11 = 0``, reported once.

It also plants records whose ``chi`` contradicts ``2*(h11 - h21)``
(parsed, but flagged inconsistent) and records with Hodge difference
+1/-1 whose ``h11`` lies outside the known range for that sign.

:class:`KSTruth` holds what the parser must report: every record with its
header line and every error with its line and message.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Copied from the published ranges the program checks against; the
# benchmark keeps its own copy so a changed constant shows as a failure.
H11_RANGE = {1: (16, 90), -1: (15, 89)}

AMBIENT_DIM = 4
# per-record probabilities of each planted fault, before ``fault_scale``
RATES = {"noise": 0.004, "missing_h": 0.004, "h11_zero": 0.003, "chi": 0.02, "out_of_range": 0.02}
STRAY_ROW = "stray matrix row (no preceding valid header)"
MISSING_H = "missing H:<h11>,<h21> field"


@dataclass
class KSTruth:
    records: list[dict] = field(default_factory=list)  # as_dict() fields plus "line"
    errors: list[dict] = field(default_factory=list)  # {"line", "message"}
    planted: dict = field(default_factory=dict)

    def usable(self) -> list[dict]:
        return [r for r in self.records if r["consistent"]]

    def kept(self, target: int) -> list[dict]:
        return [r for r in self.usable() if r["h11"] - r["h21"] == target]

    def side(self, target: int) -> dict:
        low, high = H11_RANGE[target]
        kept = self.kept(target)
        return {
            "target": target,
            "bounds": [low, high],
            "h11_values": sorted({r["h11"] for r in kept}),
            "h11_min": min((r["h11"] for r in kept), default=None),
            "h11_max": max((r["h11"] for r in kept), default=None),
            "out_of_range": [
                {"line": r["line"], "h11": r["h11"]}
                for r in kept
                if not low <= r["h11"] <= high
            ],
        }


def _matrix(rng: random.Random, count: int) -> list[str]:
    return [
        " ".join(f"{rng.randint(-3, 3):3d}" for _ in range(count))
        for _ in range(AMBIENT_DIM)
    ]


def _hodge(rng: random.Random, rates: dict) -> tuple[int, int]:
    roll = rng.random()
    if roll < 0.6:
        diff = 1 if roll < 0.3 else -1
        low, high = H11_RANGE[diff]
        if rng.random() < rates["out_of_range"]:
            h11 = rng.choice([rng.randint(1, low - 1), rng.randint(high + 1, 150)])
        else:
            h11 = rng.randint(low, high)
        return h11, h11 - diff
    h11 = rng.randint(1, 150)
    return h11, rng.randint(1, 150)


def generate(path: str, records: int, seed: int, fault_scale: float = 1.0) -> KSTruth:
    """Write ``records`` header blocks (plus planted faults) to ``path``.

    The planted counts go to ``path + ".truth.json"``.
    """
    rng = random.Random(seed)
    rates = {name: rate * fault_scale for name, rate in RATES.items()}
    truth = KSTruth()
    planted = {"records": 0, "inconsistent": 0, "noise": 0, "missing_h": 0, "h11_zero": 0}
    lines: list[str] = []

    def here() -> int:
        return len(lines) + 1

    for _ in range(records):
        fault = rng.random()
        if fault < rates["noise"]:
            truth.errors.append({"line": here(), "message": "unrecognized line: 'this line is noise'"})
            lines.append("this line is noise")
            planted["noise"] += 1
        elif fault < rates["noise"] + rates["missing_h"]:
            count = rng.randint(5, 9)
            truth.errors.append({"line": here(), "message": MISSING_H})
            lines.append(f"{AMBIENT_DIM} {count} M:{rng.randint(10, 200)} {count} [-2]")
            for row in _matrix(rng, count):
                truth.errors.append({"line": here(), "message": STRAY_ROW})
                lines.append(row)
            planted["missing_h"] += 1
            continue
        count = rng.randint(5, 9)
        if rng.random() < rates["h11_zero"]:
            h11, h21 = 0, rng.randint(1, 50)
        else:
            h11, h21 = _hodge(rng, rates)
        chi = 2 * (h11 - h21)
        style = rng.random()
        if style < rates["chi"]:
            chi += rng.choice([-4, -2, 2, 4])
        header = f"{AMBIENT_DIM} {count}"
        if style < 0.9:
            header += f" M:{rng.randint(10, 200)} {count} N:{rng.randint(5, 40)} {count}"
        header += f" H:{h11},{h21}"
        has_chi = style < 0.8
        if has_chi:
            header += f" [{chi}]"
        line = here()
        lines.append(header)
        lines.extend(_matrix(rng, count))
        if h11 == 0:
            truth.errors.append({"line": line, "message": f"h11 must be >= 1, got {h11}"})
            planted["h11_zero"] += 1
            continue
        consistent = not has_chi or chi == 2 * (h11 - h21)
        truth.records.append(
            {
                "ambient_dim": AMBIENT_DIM,
                "vertex_count": count,
                "h11": h11,
                "h21": h21,
                "chi": chi if has_chi else None,
                "consistent": consistent,
                "line": line,
            }
        )
        planted["records"] += 1
        planted["inconsistent"] += not consistent
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    planted["errors"] = len(truth.errors)
    for target, name in ((1, "plus"), (-1, "minus")):
        planted[f"kept_{name}"] = len(truth.kept(target))
        planted[f"out_of_range_{name}"] = len(truth.side(target)["out_of_range"])
    truth.planted = planted
    with open(path + ".truth.json", "w", encoding="utf-8") as handle:
        json.dump(planted, handle, indent=2, sort_keys=True)
    return truth
