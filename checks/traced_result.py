"""Check the output of one ``perfbench/run.py --trace 1`` run.

    python3 perfbench/run.py --workload photo_batch --seed 0 --seconds 5 --trace 1 > out.txt
    python3 checks/traced_result.py out.txt

run.py exits 0 even when a traced layer is missing or when its last line
is not a result, so this reads what it printed.  It exits 1 if any line
starts with ``missing:``, if the last line is not a JSON result with
``correct: true`` and no failed input, or if that result lacks one of the
per-layer metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DECLARED = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def problems(lines: list[str]) -> list[str]:
    found = [line for line in lines if line.startswith("missing:")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return found + ["the last line is not a JSON result"]
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return found + ["the last line is not a JSON result"]
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct: {result.get('correct')}, failed: {result.get('failed')}")
    names = [m["name"] for m in json.loads(DECLARED.read_text())["per_layer"]]
    found += [f"no per-layer metric {name}" for name in names if name not in result["metrics"]]
    return found


def main(argv: list[str]) -> int:
    lines = Path(argv[0]).read_text().splitlines()
    found = problems(lines)
    for line in found:
        print(line)
    if not found:
        print(f"a full traced result: {len(json.loads(lines[-1])['metrics'])} metrics")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
