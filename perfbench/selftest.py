"""Self-test of the benchmark: every workload at minimal length.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs `run.py` untraced and traced for
SECONDS with seed SEED, prints every metric with its unit, and checks that
the result line has the contract's keys, that every metric BENCHMARK.json
names is present with its unit, that no op failed and every output was
correct, and that the output digest is the same in both runs (one seed
repeats across processes; run.py itself checks within the traced run that
tracing changes no output).  It also checks that BENCHMARK.json lists the
metrics run.py and layertrace.py define.  Exit code 0 means all checks passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 1
SEED = 1


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[-1] for l in lines if l.startswith("# digest:"))
    return json.loads(lines[-1]), digest


def check_declarations(spec: dict) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layertrace import PER_LAYER
    from run import END_TO_END

    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != END_TO_END:
        problems.append(f"end_to_end {declared} != run.py {END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != PER_LAYER:
        problems.append("per_layer differs from layertrace.PER_LAYER")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declarations(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, digest = run(workload, trace)
            digests.append(digest)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} -> {got}")
                else:
                    print(f"{workload:16s} {m['name']:34s} {got['value']:>16.6g} {m['unit']}")
        if len(set(digests)) != 1:
            problems.append(f"{workload}: digests differ between runs {digests}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
