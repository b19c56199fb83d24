"""Self-test of the output checks: one changed digit must fail a job.

The ``golden/`` directory holds small outputs recorded once from the
seed commit, one per subcommand and output format.  Each must pass its
check as recorded, and must fail it after any single digit is changed.
The benchmark runs this before measuring and reports itself incorrect
when a mutation goes unnoticed.

    python3 perfbench/selftest.py            # run the self-test
    python3 perfbench/selftest.py --record   # re-record golden/ (needs src/)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import ksgen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

GOLDEN_JOBS = [
    ("gn", "--max", "5"),
    *workloads.SMOKE.values(),
    ("ks", "parse", "--input", workloads.SMOKE_KS, "--format", "jsonl"),
    ("ks", "filter", "--input", workloads.SMOKE_KS, "--target", "-1", "--format", "jsonl"),
]


def smoke_truth() -> ksgen.KSTruth:
    """Write the small KS file the smoke and golden jobs read."""
    path = ROOT / workloads.SMOKE_KS
    path.parent.mkdir(parents=True, exist_ok=True)
    return ksgen.generate(str(path), workloads.SMOKE_KS_RECORDS, workloads.SMOKE_KS_SEED, fault_scale=10)


def _mutate(text: str, index: int) -> str:
    return text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1 :]


def mutations(truth: ksgen.KSTruth) -> list[str]:
    """Problems found: golden outputs that fail, or mutations that pass."""
    with open(GOLDEN / "index.json", encoding="utf-8") as handle:
        index = json.load(handle)
    problems = []
    for entry in index:
        argv, code = entry["argv"], entry["exit"]
        text = (GOLDEN / entry["output"]).read_text(encoding="utf-8")
        reason = checks.check(argv, code, text, truth)
        if reason is not None:
            problems.append(f"golden output rejected: {reason}")
            continue
        for i, char in enumerate(text):
            if char.isdigit() and checks.check(argv, code, _mutate(text, i), truth) is None:
                problems.append(f"{' '.join(argv)}: digit change at offset {i} not detected")
    return problems


def record() -> None:
    smoke_truth()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    index = []
    for i, argv in enumerate(GOLDEN_JOBS):
        done = subprocess.run(
            [sys.executable, "-m", "cybordism", *argv], capture_output=True, text=True, cwd=ROOT, env=env
        )
        name = f"{i:02d}-{workloads.kind(argv)}.out"
        (GOLDEN / name).write_text(done.stdout, encoding="utf-8")
        index.append({"argv": list(argv), "exit": done.returncode, "output": name})
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    if "--record" in sys.argv[1:]:
        record()
        return 0
    problems = mutations(smoke_truth())
    for problem in problems:
        print(problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
