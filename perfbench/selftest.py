"""Short self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` for one round of instances in
both modes and checks that each run prints every metric the file names,
with its unit, passes, and runs every one of the workload's checks. Last,
it feeds each check a corrupted answer and requires the check to fail.
Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402,F401  (pins BLAS threads before numpy loads)
from workloads import WORKLOADS, Checks  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print("FAIL:", what, flush=True)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names")
    return spec


def check_run(spec: dict, workload: str, traced: int) -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(traced)],
        capture_output=True, text=True, timeout=170,
    )
    what = f"{workload} --trace {traced}"
    expect(out.returncode == 0, f"{what}: exit code {out.returncode}: {out.stderr[-500:]}")
    if out.returncode:
        return
    lines = out.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["run_info"]
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{what}: not correct")
    named = spec["per_layer"] if traced else spec["end_to_end"]
    emitted = result["metrics"]
    expect(sorted(emitted) == sorted(m["name"] for m in named), f"{what}: metric names")
    for m in named:
        value = emitted.get(m["name"], {})
        expect(value.get("unit") == m["unit"], f"{what}: unit of {m['name']}")
        expect(isinstance(value.get("value"), (int, float)) and math.isfinite(value["value"]),
               f"{what}: value of {m['name']}")
    for name in WORKLOADS[workload].check_names:
        expect(info["checks"].get(name, [0])[0] > 0, f"{what}: check {name} never ran")


def corrupt(answer):
    if isinstance(answer, tuple):          # (value, converged)
        return answer[0] * (1 + 1e-3), False
    if isinstance(answer, list):           # free energies per strip width
        return [f * 1.05 for f in answer]
    return answer * (1 + 1e-3)


def check_checks_bite() -> None:
    for name, cls in WORKLOADS.items():
        w = cls(7)
        for k in (-1, 2) if name == "gauge-sweep" else (-1,):
            inst = w.generate(k)
            answer = w.solve(inst)
            good, bad = Checks(), Checks()
            expect(w.verify(inst, answer, good)[0], f"{name}: check fails on a true answer")
            expect(not w.verify(inst, corrupt(answer), bad)[0], f"{name}: check passes a corrupted answer")


def main() -> int:
    spec = check_spec()
    for workload in WORKLOADS:
        for traced in (0, 1):
            check_run(spec, workload, traced)
    check_checks_bite()
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
