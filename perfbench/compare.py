"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` each hold result lines (the last stdout line of
``run.py``), one per run of the same workload.  A metric is flagged when
the median of ``NEW`` is worse than the median of ``BASE`` by more than
the metric's bound.  Exits 1 when any metric is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

#: metric -> (better, bound)
Bounds = Mapping[str, Tuple[str, float]]


def load_bounds(root: Path) -> Dict[str, Tuple[str, float]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def change(base: float, new: float, better: str) -> float:
    """Relative change, positive when ``new`` is worse."""
    relative = (new - base) / base
    return relative if better == "lower" else -relative


def regressions(base: Mapping[str, float], new: Mapping[str, float],
                bounds: Bounds) -> Dict[str, float]:
    """``metric -> relative worsening`` for each metric beyond its bound."""
    flagged = {}
    for name, (better, bound) in bounds.items():
        if name in base and name in new:
            worse = change(base[name], new[name], better)
            if worse > bound:
                flagged[name] = worse
    return flagged


def medians(results: Iterable[Mapping]) -> Dict[str, float]:
    """Per-metric median over result documents."""
    values: Dict[str, list] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(samples) for name, samples in values.items()}


def _read(path: str):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def main(argv=None) -> int:
    base_path, new_path = (argv if argv is not None else sys.argv[1:])
    bounds = load_bounds(Path(__file__).resolve().parent.parent)
    base, new = medians(_read(base_path)), medians(_read(new_path))
    flagged = regressions(base, new, bounds)
    for name, (better, bound) in bounds.items():
        if name in base and name in new:
            mark = "REGRESSION" if name in flagged else "ok"
            print(f"{name:14s} {base[name]:12.4f} -> {new[name]:12.4f} "
                  f"({change(base[name], new[name], better):+.3f} worse, "
                  f"bound {bound}) {mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
