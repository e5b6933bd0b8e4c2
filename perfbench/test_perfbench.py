"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q        (about seven minutes)

* An injected 2x slowdown of one layer's public function is flagged, by
  the same bounds the benchmark gate uses, on the workload where that
  layer does most of its work, and not on one where it does little.
* Work counts repeat exactly across processes for the same seed.
* Outside a checkout the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cases, compare, harness, tracing  # noqa: E402

#: Recorded passes per measurement, after the unrecorded first one.
PASSES = {"derive-run": 6, "verify-exact": 1, "verify-bounded": 1}

#: layer -> (workload where it does most of its work, one where it does little)
SENSITIVITY = {
    "build_lts": ("verify-bounded", "derive-run"),
    "weak_bisimilar": ("verify-exact", "verify-bounded"),
    "weak_trace_equivalent": ("verify-bounded", "derive-run"),
    "Deriver.derive": ("derive-run", "verify-bounded"),
}


#: Plain and slowed measurements alternate, and each side reports its
#: median, so that drift in machine speed does not decide the outcome.
PAIRS = 3


def _measure(workload, layer=None):
    with tracing.slowdown(layer) if layer else contextlib.nullcontext():
        result = harness.run_workload(workload, 1, ROOT, 0, passes=PASSES[workload])
    assert result.correct, result.problems
    return {"metrics": {name: {"value": value}
                        for name, (value, _) in result.end_to_end().items()}}


class TestSensitivity(unittest.TestCase):
    def _flagged(self, layer, workload):
        plain, slowed = [], []
        for pair in range(PAIRS):
            for slow in ((False, True) if pair % 2 == 0 else (True, False)):
                if slow:
                    slowed.append(_measure(workload, layer))
                else:
                    plain.append(_measure(workload))
        return compare.regressions(compare.medians(plain), compare.medians(slowed),
                                   compare.load_bounds(ROOT))

    def test_slowdown_is_caught_where_the_layer_works(self):
        for layer, (heavy, light) in SENSITIVITY.items():
            with self.subTest(layer=layer, workload=heavy):
                self.assertTrue(self._flagged(layer, heavy))
            with self.subTest(layer=layer, workload=light):
                self.assertEqual(self._flagged(layer, light), {})


def _run(cwd, *arguments):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class TestRunner(unittest.TestCase):
    def test_work_counts_repeat_across_processes(self):
        arguments = ("--workload", "derive-run", "--seed", "3", "--seconds", "1",
                     "--trace", "1")
        documents = []
        for _ in range(2):
            completed = _run(ROOT, *arguments)
            self.assertEqual(completed.returncode, 0, completed.stderr)
            documents.append(json.loads(completed.stdout.splitlines()[-1]))
        counts = [
            {name: metric["value"] for name, metric in document["metrics"].items()
             if metric["unit"] == "count"}
            for document in documents
        ]
        self.assertTrue(all(document["correct"] for document in documents))
        self.assertGreater(counts[0]["runtime.executor.steps"], 0)
        self.assertEqual(counts[0], counts[1])

    def test_fails_without_a_checkout(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = _run(bare, "--workload", "derive-run", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"metrics"', completed.stdout)


class TestInputs(unittest.TestCase):
    def test_renaming_keeps_places_and_keywords(self):
        text = "SPEC A WHERE PROC A = a1; A >> b2; exit [] i; stop END ENDSPEC"
        self.assertEqual(
            cases.rename_events(text, "qz"),
            "SPEC A WHERE PROC A = qza1; A >> qzb2; exit [] i; stop END ENDSPEC",
        )


if __name__ == "__main__":
    unittest.main()
