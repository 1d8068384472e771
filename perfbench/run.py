#!/usr/bin/env python3
"""termcoder benchmark: seeded synthetic corpora, checked outputs, host-normalised timings.

    python3 perfbench/run.py --workload fuzzy --seed 1 --seconds 12 --trace 0

Workloads (see README.md): fuzzy, exact-large, fork-heavy, cli-batch.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a separate, fixed-size traced run reports the per-layer metrics
and the tracing overhead. Earlier stdout lines carry information that is
never gated (raw wall-clock figures, sample counts, an annotation hash).
Exit code 0 on a finished run, whatever the checks found; non-zero without
a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import hooks
import ref
from hostclock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SLICE_S = 0.05  # timed work between two reference samples
REF_SAMPLES = 10  # reference samples taken after each set-up
# Median wall time of control.py on the host the README's figures come
# from; it fixes the nominal speed of batch_s on cli-batch.
NOMINAL_CONTROL_S = 0.9


@dataclass(frozen=True)
class Spec:
    max_dist: int
    dictionary: tuple  # ("broad", terms, heads, modifiers) or ("deep", terms, families, depth)
    short_forms: tuple[int, int]  # (short forms, expansions per form)
    mix: str  # noise deck in gen.NOISE_MIX
    lines: int
    terms_per_line: int
    line_tokens: int  # lines are padded with filler to this many tokens
    batch_lines: int  # lines per batch for batch_s on library workloads
    setups: int
    trace_lines: int
    cli: bool = False


WORKLOADS = {
    "full": {
        "fuzzy": Spec(1, ("broad", 2000, 400, 600), (60, 1), "fuzzy", 130, 2, 10, 10, 9, 24),
        "exact-large": Spec(0, ("broad", 60000, 12000, 5000), (300, 1), "exact", 6000, 3, 14, 500, 3, 2000),
        "fork-heavy": Spec(1, ("deep", 300, 2, 8), (30, 3), "fork", 200, 2, 18, 20, 25, 30),
        "cli-batch": Spec(1, ("broad", 100, 25, 60), (20, 1), "fuzzy", 150, 2, 10, 0, 11, 150, cli=True),
    },
    "tiny": {
        "fuzzy": Spec(1, ("broad", 120, 30, 60), (8, 1), "fuzzy", 12, 2, 8, 4, 2, 4),
        "exact-large": Spec(0, ("broad", 600, 150, 100), (8, 1), "exact", 40, 3, 12, 10, 2, 10),
        "fork-heavy": Spec(1, ("deep", 30, 2, 7), (4, 2), "fork", 12, 2, 16, 4, 2, 4),
        "cli-batch": Spec(1, ("broad", 60, 20, 40), (6, 1), "fuzzy", 20, 2, 8, 0, 2, 10, cli=True),
    },
}


def load_program():
    if not (SRC / "termcoder" / "__init__.py").is_file():
        raise SystemExit(f"error: termcoder sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import termcoder

    return termcoder


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    corpus: object  # gen.Corpus
    train: Path
    abbreviations: Path
    lines_csv: Path


def make_inputs(name: str, spec: Spec, seed: int, work: Path) -> Inputs:
    g = gen.Gen(seed, name)
    kind, *shape = spec.dictionary
    paths = gen.broad_paths(g, *shape) if kind == "broad" else gen.deep_paths(g, *shape)
    terms = g.make_terms(paths, len(paths) * 2 // 3)
    table = gen.short_forms(g, terms, *spec.short_forms)
    lines = gen.make_lines(
        g, terms, table, spec.lines, gen.NOISE_MIX[spec.mix], spec.terms_per_line, spec.line_tokens, spec.max_dist
    )
    corpus = gen.Corpus(terms, table, lines, spec.max_dist)
    inputs = Inputs(corpus, work / "train.csv", work / "abbreviations.txt", work / "lines.csv")
    gen.write_dictionary_corpus(g, terms, inputs.train)
    gen.write_abbreviations(table, inputs.abbreviations)
    gen.write_lines_corpus(lines, inputs.lines_csv)
    return inputs


# -- helpers -----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def as_rows(anns):
    """Program annotations as plain tuples for the checker."""
    return [
        (a.start_char, a.end_char, tuple(a.matched_tokens), a.term_label, a.code, tuple(t.label for t in a.techniques))
        for a in anns
    ]


def digest(rows_by_line) -> str:
    h = hashlib.sha256()
    for rows in rows_by_line:
        h.update(repr(rows).encode())
    return h.hexdigest()[:16]


class Ops:
    """Counts operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs), True
        except Exception as exc:  # a failing operation is counted, and the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None, False


# -- library workloads -------------------------------------------------------


def setup_library(tc, inputs: Inputs):
    trie, _ = tc.assemble_dictionary(tc.DictionarySpec(corpus_sources=(inputs.train,)))
    return trie, tc.load_abbreviations(inputs.abbreviations)


def set_up(tc, inputs: Inputs, ops: Ops):
    """(trie, abbreviations); a run cannot go on without them."""
    built, ok = ops.run("setup", setup_library, tc, inputs)
    if not ok:
        raise SystemExit(f"error: dictionary setup failed: {ops.errors[-1]}")
    return built


def check_library(checker, corpus, results) -> set:
    pred = set()
    for line, anns in zip(corpus.lines, results):
        if anns is None:
            continue
        rows = as_rows(anns)
        checker.check(line, rows)
        pred.update((line.doc_id, line.line_id, r[4]) for r in rows)
    return pred


def run_library(tc, spec: Spec, inputs: Inputs, seconds: float, ops: Ops):
    corpus = inputs.corpus
    lines = corpus.lines
    clock = Clock()
    setups_raw: list[float] = []
    setups: list[float] = []
    trie = abbrevs = None
    for _ in range(spec.setups):
        trie = abbrevs = None
        gc.collect()
        t0 = time.perf_counter()
        trie, abbrevs = set_up(tc, inputs, ops)
        setups_raw.append(time.perf_counter() - t0)
        setups.append(clock.rescale_one(setups_raw[-1], REF_SAMPLES))

    def annotate(line):
        return tc.annotate_line(line.raw, trie, None, abbrevs, spec.max_dist)

    n = len(lines)
    results: list = [None] * n
    latencies: list[float] = []
    timed_raw = 0.0
    tokens_timed = 0
    drift = 0
    i = 0
    gc.collect()
    while timed_raw < seconds:
        raw = []
        slice_end = time.perf_counter() + SLICE_S
        while time.perf_counter() < slice_end:
            line = lines[i % n]
            t0 = time.perf_counter()
            anns, ok = ops.run(f"annotate {line.doc_id}/{line.line_id}", annotate, line)
            raw.append(time.perf_counter() - t0)
            tokens_timed += len(line.tokens)
            if i < n:
                results[i] = anns
            elif ok and anns != results[i % n]:
                drift += 1
            i += 1
        timed_raw += sum(raw)
        latencies += clock.rescale(raw)
    for j in range(i, n):  # lines the timed phase did not reach are still checked
        results[j], _ = ops.run("annotate", annotate, lines[j])

    checker = ref.Checker(corpus, exact_windows=spec.max_dist == 0)
    pred = check_library(checker, corpus, results)
    if drift:
        checker.fail(lines[0], f"{drift} repeated calls returned different annotations")
    gold = set().union(*(line.gold for line in lines))
    batches = [sum(latencies[k : k + spec.batch_lines]) for k in range(0, len(latencies) - spec.batch_lines + 1, spec.batch_lines)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tok_per_s": (tokens_timed / sum(latencies), "tokens/s"),
        "line_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "line_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "batch_s": (statistics.median(batches) if batches else sum(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "f_measure": (ref.micro_f(gold, pred), "ratio"),
    }
    info = {
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "tok_per_s": tokens_timed / timed_raw,
            "timed_s": timed_raw,
        },
        "samples": {"setups": len(setups_raw), "lines": len(latencies), "batches": len(batches)},
        "lines": n,
        "tokens": sum(len(line.tokens) for line in lines),
        "gold_tuples": len(gold),
        "recoverable_checked": checker.recoverable_checked,
        "annotation_hash": digest(as_rows(r or []) for r in results),
    }
    return metrics, info, checker


def trace_library(tc, spec: Spec, inputs: Inputs, ops: Ops):
    corpus = inputs.corpus
    lines = corpus.lines[: spec.trace_lines]

    def once():
        t0 = time.perf_counter()
        trie, abbrevs = set_up(tc, inputs, ops)
        out = [ops.run("annotate", tc.annotate_line, l.raw, trie, None, abbrevs, spec.max_dist)[0] for l in lines]
        return time.perf_counter() - t0, out

    # Untraced, traced, untraced: the untraced time is the mean of the two
    # passes around the traced one, so a steady drift of the host does not
    # read as tracing overhead.
    before_s, plain = once()
    tracer = hooks.Tracer(spec.max_dist)
    tracer.install()
    try:
        traced_s, traced = once()
    finally:
        tracer.uninstall()
    after_s, _ = once()
    checker = ref.Checker(corpus, exact_windows=spec.max_dist == 0)
    check_library(checker, corpus, traced)
    if traced != plain:
        checker.fail(lines[0], "traced and untraced annotations differ")
    return tracer.dump(), (before_s + after_s) / 2, traced_s, checker


# -- the command line workload -----------------------------------------------


@dataclass
class Command:
    wall_s: float  # from exec to exit
    rss_mb: float  # peak resident memory of the command's process
    trace: dict | None


class Commands:
    """Runs termcoder commands in their own processes, from the work directory.

    Untraced, a command is ``python -m termcoder.cli``; traced, ``child.py``
    runs the same entry point with the hooks installed.
    """

    def __init__(self, work: Path, max_dist: int):
        self.work = work
        self.max_dist = max_dist
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def __call__(self, *args: str, trace: bool = False) -> Command:
        """Runs ``termcoder *args``; raises when it exits non-zero."""
        dump = self.work / "trace.json"
        if trace:
            argv = [sys.executable, str(HERE / "child.py"), str(dump), str(self.max_dist), *args]
        else:
            argv = [sys.executable, "-m", "termcoder.cli", *args]
        wall, usage = self.spawn(f"termcoder {args[0]}", argv)
        return Command(wall, usage.ru_maxrss / 1024, json.loads(dump.read_text("utf-8")) if trace else None)

    def control(self) -> float:
        """Wall time of one control command (``control.py``)."""
        return self.spawn("control", [sys.executable, str(HERE / "control.py")])[0]

    def spawn(self, what: str, argv: list[str]):
        """(wall seconds, resource usage) of *argv*; raises when it exits non-zero."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{what} exited {proc.returncode}: {out.strip()[-300:]}")
        return wall, usage


def read_predictions(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter=";"))


def check_cli(checker, corpus, pred_rows: list[dict], report: dict | None) -> set:
    """Checks an annotation CSV and an eval report against the generator."""
    by_line: dict[tuple[str, str], list] = {}
    for row in pred_rows:
        by_line.setdefault((row["doc_id"], row["line_id"]), []).append(row)
    pred = set()
    for line in corpus.lines:
        rows = by_line.pop((line.doc_id, line.line_id), [])
        anns = []
        for row in rows:
            start, end = int(row["start_char"]), int(row["end_char"])
            if row["matched_text"] != line.raw[start:end]:
                checker.fail(line, f"matched_text {row['matched_text']!r} is not raw[{start}:{end}]")
            inside = tuple(t for t, (s, e) in zip(line.tokens, line.offsets) if s >= start and e <= end)
            techs = tuple(row["techniques"].split(",")) if row["techniques"] else ()
            anns.append((start, end, inside, row["term_label"], row["code"], techs))
            pred.add((line.doc_id, line.line_id, row["code"]))
        checker.check(line, anns)
    if by_line:
        checker.fail(corpus.lines[0], f"annotations for unknown lines {sorted(by_line)[:3]}")
    gold = set().union(*(line.gold for line in corpus.lines))
    if report is not None:
        tp = len(gold & pred)
        want = {"tp": tp, "fp": len(pred) - tp, "fn": len(gold) - tp, "f_measure": ref.micro_f(gold, pred)}
        got = {k: report.get(k) for k in want}
        if any(got[k] is None or abs(got[k] - want[k]) > 1e-9 for k in want):
            checker.fail(corpus.lines[0], f"eval report {got} differs from the reference {want}")
    return pred


def cli_args(inputs: Inputs, output: str = "pred.csv") -> tuple[list[str], list[str]]:
    """The annotate and eval command lines, at the command defaults."""
    annotate = ["annotate", "--corpus", inputs.train.name, "--abbreviations", inputs.abbreviations.name]
    annotate += ["--input", inputs.lines_csv.name, "--output", output]
    evaluate = ["eval", "--gold", inputs.lines_csv.name, "--pred", output, "--output", "report.json"]
    return annotate, evaluate


def read_report(work: Path) -> dict | None:
    path = work / "report.json"
    return json.loads(path.read_text("utf-8")) if path.exists() else None


def run_cli(tc, spec: Spec, inputs: Inputs, seconds: float, ops: Ops):
    corpus = inputs.corpus
    work = inputs.train.parent
    command = Commands(work, spec.max_dist)
    annotate_args, eval_args = cli_args(inputs)
    # The build commands and the library passes are rescaled by reference
    # samples taken in this process (samples taken inside a command's own
    # process tracked it poorly); the annotate commands by control commands.
    clock = Clock()
    setups: list[Command] = []
    setups_s: list[float] = []  # rescaled as in run_library
    for _ in range(spec.setups):
        build, ok = ops.run("build", command, "build", "--corpus", inputs.train.name)
        if ok:
            setups.append(build)
            setups_s.append(clock.rescale_one(build.wall_s, REF_SAMPLES))
    checker = ref.Checker(corpus, exact_windows=False)
    batches: list[Command] = []
    controls: list[float] = []
    first_pred = None
    pred = set()
    while sum(b.wall_s for b in batches) < seconds:
        # Each annotate command has a control command beside it, in the
        # order ABBA, so that a steady drift of the host weighs on both.
        if len(batches) % 2:
            controls.append(command.control())
        batch, _ = ops.run("annotate", command, *annotate_args)
        if batch is None:
            break
        batches.append(batch)
        if len(batches) % 2:
            controls.append(command.control())
        text = (work / "pred.csv").read_bytes()
        if first_pred is None:
            first_pred = text
            _, ok = ops.run("eval", command, *eval_args)
            pred = check_cli(checker, corpus, read_predictions(work / "pred.csv"), read_report(work) if ok else None)
        elif text != first_pred:
            checker.fail(corpus.lines[0], "a repeated annotate command wrote a different CSV")
    if not batches:
        raise SystemExit(f"error: termcoder annotate failed: {ops.errors[-1]}")

    # Throughput and per-line latency at the command defaults, through the
    # library on the same inputs, in whole passes for a third of the run.
    # Each line's latency is its median over the passes, so a slice that
    # the host slowed down weighs on no line.
    trie, abbrevs = set_up(tc, inputs, ops)
    latencies: list[float] = []
    timed_raw = 0.0
    while timed_raw < seconds / 3:
        raw: list[float] = []
        for line in corpus.lines:
            t0 = time.perf_counter()
            ops.run("annotate", tc.annotate_line, line.raw, trie, None, abbrevs, spec.max_dist)
            raw.append(time.perf_counter() - t0)
            if sum(raw) >= SLICE_S:
                timed_raw += sum(raw)
                latencies += clock.rescale(raw)
                raw = []
        timed_raw += sum(raw)
        latencies += clock.rescale(raw) if raw else []

    n = len(corpus.lines)
    per_line = [statistics.median(latencies[j::n]) for j in range(n)]
    tokens = sum(len(line.tokens) for line in corpus.lines)
    gold = set().union(*(line.gold for line in corpus.lines))
    metrics = {
        "setup_s": (statistics.median(setups_s), "s"),
        "tok_per_s": (tokens / sum(per_line), "tokens/s"),
        "line_p50_ms": (statistics.median(per_line) * 1e3, "ms"),
        "line_p90_ms": (percentile(per_line, 90) * 1e3, "ms"),
        # Wall time over the controls' wall time: the pool's threads hand
        # the interpreter lock across the host's vCPUs, and neither the
        # fastest command nor the median, rescaled by the reference loop,
        # held still under contention from other tenants. The controls
        # share the command's shape and suffer alike; a gain from parallel
        # workers still shows, as the controls' work is fixed.
        "batch_s": (sum(b.wall_s for b in batches) / sum(controls[: len(batches)]) * NOMINAL_CONTROL_S, "s"),
        "peak_rss_mb": (statistics.median(b.rss_mb for b in batches), "MB"),
        "f_measure": (ref.micro_f(gold, pred), "ratio"),
    }
    info = {
        "raw": {
            "setup_s": statistics.median(c.wall_s for c in setups),
            "batch_s_median": statistics.median(b.wall_s for b in batches),
            "batch_s_min": min(b.wall_s for b in batches),
            "control_s_median": statistics.median(controls),
        },
        "samples": {"setups": len(setups), "commands": len(batches), "controls": len(controls), "lines": len(latencies), "passes": len(latencies) // n},
        "cpu_count": os.cpu_count(),
        "lines": len(corpus.lines),
        "tokens": tokens,
        "gold_tuples": len(gold),
        "recoverable_checked": checker.recoverable_checked,
        "annotation_hash": hashlib.sha256(first_pred or b"").hexdigest()[:16],
    }
    return metrics, info, checker


def trace_cli(tc, spec: Spec, inputs: Inputs, ops: Ops):
    corpus = inputs.corpus
    work = inputs.train.parent
    command = Commands(work, spec.max_dist)
    plain_args, _ = cli_args(inputs, "plain.csv")
    annotate_args, eval_args = cli_args(inputs)
    # Untraced, traced, untraced, as in trace_library.
    plain = [ops.run("annotate", command, *plain_args)[0]]
    traced, _ = ops.run("annotate traced", command, *annotate_args, trace=True)
    plain.append(ops.run("annotate", command, *plain_args)[0])
    evaluated, ok = ops.run("eval traced", command, *eval_args, trace=True)
    checker = ref.Checker(corpus, exact_windows=False)
    check_cli(checker, corpus, read_predictions(work / "pred.csv"), read_report(work) if ok else None)
    if (work / "plain.csv").read_bytes() != (work / "pred.csv").read_bytes():
        checker.fail(corpus.lines[0], "traced and untraced annotation CSVs differ")
    dumps = [c.trace for c in (traced, evaluated) if c is not None]
    plain_s = statistics.mean(c.wall_s for c in plain) if all(plain) else 0.0
    return hooks.merge(dumps), plain_s, traced.wall_s if traced else 0.0, checker


# -- main --------------------------------------------------------------------


def emit(correct: bool, ops: Ops, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(WORKLOADS), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    tc = load_program()
    spec = WORKLOADS[args.scale][args.workload]
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(args.workload, spec, args.seed, work)
        ops = Ops()
        if args.trace:
            tracing = trace_cli if spec.cli else trace_library
            dump, plain_s, traced_s, checker = tracing(tc, spec, inputs, ops)
            metrics = hooks.layer_metrics(dump)
            metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
            metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
            metrics["trace.hooks_missing"] = (len(dump["missing"]), "count")
            info = {"untraced_s": plain_s, "traced_s": traced_s, "missing_hooks": dump["missing"]}
        else:
            running = run_cli if spec.cli else run_library
            metrics, info, checker = running(tc, spec, inputs, args.seconds, ops)
        info.update(workload=args.workload, seed=args.seed, scale=args.scale, lines_checked=checker.lines_checked)
        info["check_errors"] = checker.errors
        info["op_errors"] = ops.errors
        print(json.dumps({"info": info}))
        emit(not checker.errors, ops, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
