"""Self-test of the harness: a failing pass is counted, not fatal.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It builds the ``ingest`` inputs for seed 0 and judges three cases with
the worker's pass code and the checks ``run.py`` applies: the intact
inputs, which must pass; the intact outputs against a reference with one
value moved by 1e-6 relative, which the check must catch; and a
malformed OHLCV row, which must count as exactly one failed operation
(the CLI returns 1 without raising) while the harness keeps going.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from worker import run_pass  # noqa: E402


def one_pass(cli, spec: dict, expected: dict) -> tuple[list[bool], list[str]]:
    """Run a pass and judge it as ``run.py`` judges a run's passes."""
    _, digest, failures, _ = run_pass(cli, spec["calls"])
    return reference.judge("ingest", expected, Path("out"), [digest], [failures])


def main() -> int:
    import lrdkit.cli as cli

    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = wl.make_inputs("ingest", 0, work)
    expected = reference.compute("ingest", work, spec)
    os.chdir(work)

    verdicts, _ = one_pass(cli, spec, expected)
    clean = verdicts == [True]

    perturbed = json.loads(json.dumps(expected))
    perturbed["chain"]["values"][7] *= 1.0 + 1e-6
    verdicts, problems = reference.judge("ingest", perturbed, Path("out"), ["x"], [[]])
    drift_caught = verdicts == [False] and problems[0].startswith("chain values")

    source = Path(spec["calls"][0][1])
    lines = source.read_text(encoding="utf-8").splitlines()
    lines[100] = lines[100].split(",", 1)[0] + ",not-a-price,1,1,1,1"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdicts, problems = one_pass(cli, spec, expected)
    calls_failed = [p for p in problems if p.startswith("call ")]
    malformed_counted = verdicts == [False] and len(calls_failed) == 1 and "exited 1" in calls_failed[0]

    print(f"intact pass accepted: {clean}")
    print(f"1e-6 drift from the reference caught: {drift_caught}")
    print(f"malformed CSV counted as one failed pass: {malformed_counted} ({calls_failed[:1]})")
    return 0 if clean and malformed_counted and drift_caught else 1


if __name__ == "__main__":
    sys.exit(main())
