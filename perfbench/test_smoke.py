"""Smoke test: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Checks the report's schema against BENCHMARK.json, the operation counts
and the output checks; never a time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, info["op_errors"])
        self.assertTrue(result["correct"], info["check_errors"])
        self.assertEqual(info["check_errors"], [])
        self.assertGreater(info["lines_checked"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            self.assertEqual(info["missing_hooks"], [])
        elif workload != "exact-large":
            self.assertGreater(info["recoverable_checked"], 0)

    def test_workloads(self) -> None:
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_without_the_program_it_fails_without_a_result(self) -> None:
        bare = HERE / "_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run("--workload", "fuzzy", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Hooks(unittest.TestCase):
    def test_install_counts_and_uninstall_restores(self) -> None:
        import hooks

        sys.path.insert(0, str(ROOT / "src"))
        import termcoder.matcher

        original = termcoder.matcher.levenshtein_distance
        tracer = hooks.Tracer(max_dist=1)
        tracer.install()
        try:
            self.assertIsNot(termcoder.matcher.levenshtein_distance, original)
            termcoder.matcher.levenshtein_distance("abcde", "abcdf")
            termcoder.matcher.levenshtein_distance("abcde", "vwxyz")
        finally:
            tracer.uninstall()
        self.assertIs(termcoder.matcher.levenshtein_distance, original)
        metrics = hooks.layer_metrics(tracer.dump())
        self.assertEqual(metrics["matcher.levenshtein_calls"][0], 2)
        self.assertEqual(metrics["matcher.levenshtein_hit_ratio"][0], 0.5)

    def test_missing_target_is_reported_not_fatal(self) -> None:
        import hooks

        tracer = hooks.Tracer(max_dist=1)
        tracer.hook("termcoder.matcher.no_such_function", "x")
        tracer.hook("termcoder.no_such_module.f", "y")
        self.assertEqual(tracer.missing, ["termcoder.matcher.no_such_function", "termcoder.no_such_module.f"])


class CheckerCatchesFaults(unittest.TestCase):
    """The output checks must reject wrong annotations, not pass everything."""

    def setUp(self) -> None:
        import gen
        import ref

        g = gen.Gen(5, "fuzzy")
        terms = g.make_terms(gen.broad_paths(g, 80, 20, 40), 50)
        table = gen.short_forms(g, terms, 6, 1)
        lines = gen.make_lines(g, terms, table, 20, gen.NOISE_MIX["fuzzy"], 2, 8, 1)
        self.corpus = gen.Corpus(terms, table, lines, 1)
        self.ref = ref
        self.line = next(l for l in lines if any(p.recoverable and p.noise == "none" for p in l.planted))
        p = next(p for p in self.line.planted if p.recoverable and p.noise == "none")
        start, end = self.line.offsets[p.first][0], self.line.offsets[p.last][1]
        self.good = (start, end, p.term.tokens, p.term.label, p.term.code, ("perfect",) * len(p.term.tokens))
        self.others = [q for q in self.line.planted if q is not p]

    def errors(self, anns) -> list[str]:
        checker = self.ref.Checker(self.corpus, exact_windows=False)
        checker.check(self.line, anns)
        return [e for e in checker.errors if "not found" not in e or self.good[3] in e]

    def test_correct_annotation_passes(self) -> None:
        self.assertEqual(self.errors([self.good]), [])

    def test_faults_are_reported(self) -> None:
        start, end, toks, label, code, techs = self.good
        other = next(t for t in self.corpus.terms if t.code != code)
        for bad in (
            [(start, end, toks, label, other.code, techs)],  # wrong code for the label
            [(start + 1, end, toks, label, code, techs)],  # span off the token boundary
            [(start, end, toks, label, code, ("levenshtein",) * len(toks))],  # impossible technique trail
            [],  # a recoverable term is missed
        ):
            with self.subTest(bad=bad):
                self.assertNotEqual(self.errors(bad), [])

    def test_window_reference(self) -> None:
        paths = {("a", "b"): "AB", ("a",): "A", ("b", "c", "d"): "BCD"}
        got = self.ref.window_matches(paths, ["a", "b", "c", "d", "a", "x"], 3)
        self.assertEqual(got, [(0, 1, "AB"), (4, 4, "A")])

    def test_edit_distance(self) -> None:
        self.assertEqual(self.ref.edit_distance("kitten", "sitting"), 3)
        self.assertEqual(self.ref.edit_distance("", "abc"), 3)


if __name__ == "__main__":
    unittest.main()
