"""Seeded job lists for the three workloads.

A job is one ``cybordism`` argv.  Each workload is a list of jobs that
stress chosen layers (see README.md for why each exists), plus one small
"smoke" job for every subcommand the workload does not otherwise run, so
that every end-to-end metric has a nonzero value on every workload.

The seed changes which inputs run but not how much work they are, so
that the spread between seeds measures the program rather than the
draw:

* ``scan`` runs every size in each window: ``gcd``, ``power-check`` and
  ``certificate`` take a single size and their cost grows 20-30 % per
  step, so a seed-chosen size would dominate the spread.
* ``ring`` picks its few-distinct-parts partitions from pools of equal
  shape and near-equal ring size (the same number per class for every
  seed); its many-equal-parts partitions are fixed.
* ``toric`` runs on a KS file generated from the seed.

Every seed shuffles the order of the jobs within a pass.
"""

from __future__ import annotations

import random

KS_RECORDS = 20_000
SMOKE_KS_RECORDS = 40
SMOKE_KS = "perfbench/.work/ks-smoke.txt"
SMOKE_KS_SEED = 0

# subcommand -> end-to-end metric summing its jobs' wall time
METRIC = {
    "gcd": "gcd_s",
    "power-check": "power_check_s",
    "certificate": "certificate_s",
    "alpha": "alpha_s",
    "s-number": "s_number_s",
    "chern": "chern_s",
    "ks-parse": "ks_parse_s",
    "ks-filter": "ks_filter_s",
    "ks-ranges": "ks_ranges_s",
    "polytope": "polytope_s",
}

SETUP_JOB = ("gn", "--max", "3")

# a smoke job is ~0.1 s of interpreter start-up; running each twice a pass
# steadies the metrics that consist of nothing else on a workload
SMOKE_REPEATS = 2

SMOKE = {
    "gcd": ("gcd", "--max", "6", "--jobs", "1"),
    "power-check": ("power-check", "--max", "9", "--jobs", "1"),
    "certificate": ("certificate", "--n", "5"),
    "alpha": ("alpha", "--n", "5"),
    "s-number": ("s-number", "--partition", "1,2"),
    "chern": ("chern", "--partition", "1,2"),
    "polytope": ("polytope", "--partition", "1,2"),
    "ks-parse": ("ks", "parse", "--input", SMOKE_KS),
    "ks-filter": ("ks", "filter", "--input", SMOKE_KS, "--target", "1"),
    "ks-ranges": ("ks", "ranges", "--input", SMOKE_KS),
}

SCAN_WINDOWS = {"gcd": (32, 33), "power-check": (40, 41), "certificate": (30, 31)}

# many equal parts: (1,)*k has 2**k monomials
RING_EQUAL = {"s-number": ((1,) * 12, (1,) * 13, (2,) * 6), "chern": ((1,) * 8, (1,) * 9)}
# few distinct parts: each slot is a pool of the same shape and a ring
# size within 12 % of each other; the seed picks one per slot
RING_DISTINCT_POOLS = (
    ((7, 6, 5), (8, 6, 4), (9, 5, 4)),
    ((10, 10), (11, 9), (12, 8)),
    ((20,),),
)

POLYTOPES = ((2,) * 6, (2,) * 7, (1,) * 10)

WORKLOADS = ("scan", "ring", "toric")


def kind(argv) -> str:
    return f"ks-{argv[1]}" if argv[0] == "ks" else argv[0]


def _label(parts) -> str:
    return ",".join(str(d) for d in sorted(parts))


def ks_path(seed: int) -> str:
    return f"perfbench/.work/ks-{seed}.txt"


def jobs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv list of one pass, in the order the seed draws."""
    rng = random.Random(f"{workload}:{seed}")
    main: list[tuple[str, ...]] = []
    if workload == "scan":
        main.append(("gn", "--max", "60"))
        for size in SCAN_WINDOWS["gcd"]:
            main.append(("gcd", "--max", str(size), "--jobs", "1"))
        for size in SCAN_WINDOWS["power-check"]:
            main.append(("power-check", "--max", str(size), "--jobs", "1"))
        for size in SCAN_WINDOWS["certificate"]:
            main.append(("certificate", "--n", str(size)))
    elif workload == "ring":
        main.append(("alpha", "--n", "12"))
        picks = [rng.choice(pool) for pool in RING_DISTINCT_POOLS]
        for command in ("s-number", "chern"):
            for parts in RING_EQUAL[command] + tuple(picks):
                main.append((command, "--partition", _label(parts)))
    elif workload == "toric":
        path = ks_path(seed)
        main += [
            ("ks", "parse", "--input", path),
            ("ks", "parse", "--input", path, "--format", "jsonl"),
            ("ks", "filter", "--input", path, "--target", "1"),
            ("ks", "filter", "--input", path, "--target", "-1"),
            ("ks", "ranges", "--input", path),
        ]
        main += [("polytope", "--partition", _label(parts)) for parts in POLYTOPES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    covered = {kind(argv) for argv in main}
    main += [argv for name, argv in SMOKE.items() if name not in covered] * SMOKE_REPEATS
    rng.shuffle(main)
    return main
