"""Per-layer tracing for the traced run.

Each wrapper is installed where the caller looks the name up (for example
``termcoder.annotator.match_token`` is the name ``annotate_line`` resolves,
not ``termcoder.matcher.match_token``). Only the traced run installs them;
untraced runs patch nothing. A target that no longer exists is reported as
missing and skipped.

Spans are aggregated in memory per thread (calls, inclusive time, self
time = inclusive time minus the time of child spans), plus counters.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter

TECHNIQUES = ("perfect", "abbreviation", "levenshtein", "bigram-levenshtein")


def _resolve(path: str):
    """The object a dotted path names: a module, or a class inside one."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self, max_dist: int):
        self.max_dist = max_dist
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {"stack": [], "spans": {}, "counts": Counter(), "peaks": Counter()}
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, name: str, fn, after=None, cpu: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = table["stack"]
            stack.append(0.0)
            if cpu:
                c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = table["spans"].setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if cpu:  # busy CPU time of the thread, and the wall window of all calls
                    table["counts"][name + ".cpu_s"] += time.thread_time() - c0
                    peaks = table["peaks"]
                    peaks[name + ".neg_first"] = max(peaks.get(name + ".neg_first", -t0), -t0)
                    peaks[name + ".last"] = max(peaks.get(name + ".last", t1), t1)
            if after is not None:
                after(table, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def hook(self, target: str, name: str, after=None, cpu: bool = False) -> None:
        owner_path, _, attr = target.rpartition(".")
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(target)
            return
        setattr(owner, attr, self.wrap(name, original, after, cpu))
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        for target, name, after, cpu in _hook_table(self):
            self.hook(target, name, after, cpu)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def dump(self) -> dict:
        """Merged tallies of every thread, as plain JSON data."""
        tables = [{"spans": t["spans"], "counts": t["counts"], "peaks": t["peaks"], "missing": []} for t in self._tables]
        return merge(tables) | {"missing": list(self.missing)}


def merge(dumps: list[dict]) -> dict:
    """Sums spans and counts and keeps the largest peaks of several tallies."""
    spans: dict[str, list] = {}
    counts: Counter = Counter()
    peaks: dict = {}
    missing: set[str] = set()
    for d in dumps:
        for name, rec in d["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        counts.update(d["counts"])
        for key, value in d["peaks"].items():
            peaks[key] = max(peaks.get(key, value), value)
        missing.update(d["missing"])
    return {"spans": spans, "counts": dict(counts), "peaks": peaks, "missing": sorted(missing)}


# -- what each hook counts -----------------------------------------------------


def trie_shape(trie) -> dict[str, int]:
    """Node count, root fan-out and root child->grandchild pairs of a built trie."""
    root = getattr(trie, "root", None)
    children = getattr(root, "children", None)
    if not isinstance(children, dict):
        return {}
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children.values())
    pairs = sum(len(child.children) for child in children.values())
    return {"trie.nodes": nodes, "trie.root_children": len(children), "trie.root_bigram_pairs": pairs}


def _hook_table(tracer: Tracer):
    max_dist = tracer.max_dist

    def chars(table, args, kwargs, result):
        table["counts"]["normalize.chars"] += len(args[0] if args else kwargs["raw"])

    def shape(table, args, kwargs, result):
        trie = result[0] if isinstance(result, tuple) else result
        for key, value in trie_shape(trie).items():
            table["peaks"][key] = max(table["peaks"][key], value)

    def pool(table, args, kwargs, result):
        table["counts"]["annotator.states_forked"] += len(result)
        table["peaks"]["annotator.pool_peak"] = max(table["peaks"]["annotator.pool_peak"], len(result))

    def matches(table, args, kwargs, result):
        counts = table["counts"]
        node = args[1] if len(args) > 1 else kwargs.get("node")
        if getattr(node, "token", "") is None:
            counts["matcher.root_calls"] += 1
        for m in result:
            counts["matcher.matches." + m.technique.label] += 1

    def lev(table, args, kwargs, result):
        if result <= max_dist:
            table["counts"]["matcher.levenshtein_hits"] += 1

    def contains(table, args, kwargs, result):
        if not result:
            table["counts"]["matcher.bigram_contains_rejects"] += 1

    def annotations(table, args, kwargs, result):
        for ann in result:
            for tech in ann.techniques:
                table["counts"]["annotator.annotations." + tech.label] += 1

    def pool_size(table, args, kwargs, result):
        workers = kwargs.get("max_workers", args[0] if args else None)
        table["peaks"]["cli.workers"] = max(table["peaks"]["cli.workers"], workers or 0)

    return [
        ("termcoder.assemble_dictionary", "coder.assemble", shape, False),
        ("termcoder.cli.assemble_dictionary", "coder.assemble", shape, False),
        ("termcoder.coder.parse_aligned_causes", "corpus.read", None, False),
        ("termcoder.cli.parse_aligned_causes", "corpus.read", None, False),
        ("termcoder.cli.read_annotation_rows", "corpus.read", None, False),
        ("termcoder.cli.write_annotations", "corpus.write", None, False),
        ("termcoder.cli.evaluate", "corpus.eval", None, False),
        ("termcoder.cli.gold_code_tuples", "corpus.eval", None, False),
        ("termcoder.cli.predicted_code_tuples", "corpus.eval", None, False),
        ("termcoder.coder.tally_terms", "coder.tally", None, False),
        ("termcoder.coder.resolve_code", "coder.resolve", None, False),
        ("termcoder.coder.tokenize", "normalize.label_tokenize", chars, False),
        ("termcoder.matcher.tokenize", "normalize.label_tokenize", chars, False),
        ("termcoder.annotator.tokenize", "normalize.line_tokenize", chars, False),
        ("termcoder.trie.DictionaryTrie.insert_term", "trie.insert", None, False),
        ("termcoder.trie.DictionaryTrie.freeze", "trie.freeze", None, False),
        ("termcoder.matcher.build_bigram_index", "matcher.bigram_index_build", None, False),
        ("termcoder.annotator.advance_states", "annotator.advance", pool, False),
        ("termcoder.annotator.match_token", "matcher.match_token", matches, False),
        ("termcoder.matcher.levenshtein_distance", "matcher.levenshtein", lev, False),
        ("termcoder.matcher.BigramIndex.contains", "matcher.bigram_contains", contains, False),
        ("termcoder.annotator.select_longest", "annotator.select_longest", None, False),
        ("termcoder.annotate_line", "annotator.annotate_line", annotations, False),
        ("termcoder.cli.annotate_line", "cli.line", annotations, True),
        ("termcoder.cli.cmd_annotate", "cli.annotate", None, False),
        ("termcoder.cli.ThreadPoolExecutor", "cli.pool", pool_size, False),
    ]


def layer_metrics(d: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) from merged tallies."""
    spans, counts, peaks = d["spans"], d["counts"], d["peaks"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    tok_s = total("normalize.line_tokenize") + total("normalize.label_tokenize")
    lev_calls = calls("matcher.levenshtein")
    busy = counts.get("cli.line.cpu_s", 0.0)
    window = peaks.get("cli.line.last", 0.0) + peaks.get("cli.line.neg_first", 0.0)
    m = {
        "normalize.line_tokenize_s": (total("normalize.line_tokenize"), "s"),
        "normalize.label_tokenize_s": (total("normalize.label_tokenize"), "s"),
        "normalize.chars_per_s": (counts.get("normalize.chars", 0) / tok_s if tok_s else 0.0, "chars/s"),
        "corpus.read_s": (total("corpus.read"), "s"),
        "corpus.write_s": (total("corpus.write"), "s"),
        "corpus.eval_s": (total("corpus.eval"), "s"),
        "coder.tally_s": (total("coder.tally"), "s"),
        "coder.resolve_s": (total("coder.resolve"), "s"),
        "coder.assemble_self_s": (self_s("coder.assemble"), "s"),
        "trie.insert_s": (total("trie.insert"), "s"),
        "trie.freeze_s": (total("trie.freeze"), "s"),
        "trie.nodes": (peaks.get("trie.nodes", 0), "count"),
        "trie.root_children": (peaks.get("trie.root_children", 0), "count"),
        "trie.root_bigram_pairs": (peaks.get("trie.root_bigram_pairs", 0), "count"),
        "matcher.match_token_calls": (calls("matcher.match_token"), "count"),
        "matcher.root_calls": (counts.get("matcher.root_calls", 0), "count"),
        "matcher.match_token_s": (total("matcher.match_token"), "s"),
        "matcher.levenshtein_calls": (lev_calls, "count"),
        "matcher.levenshtein_s": (total("matcher.levenshtein"), "s"),
        "matcher.levenshtein_hit_ratio": (
            counts.get("matcher.levenshtein_hits", 0) / lev_calls if lev_calls else 0.0,
            "ratio",
        ),
        "matcher.bigram_contains_calls": (calls("matcher.bigram_contains"), "count"),
        "matcher.bigram_contains_rejects": (counts.get("matcher.bigram_contains_rejects", 0), "count"),
        "matcher.bigram_index_build_s": (total("matcher.bigram_index_build"), "s"),
    }
    for tech in TECHNIQUES:
        m[f"matcher.matches.{tech}"] = (counts.get(f"matcher.matches.{tech}", 0), "count")
    m.update(
        {
            "annotator.advance_calls": (calls("annotator.advance"), "count"),
            "annotator.advance_self_s": (self_s("annotator.advance"), "s"),
            "annotator.states_forked": (counts.get("annotator.states_forked", 0), "count"),
            "annotator.pool_peak": (peaks.get("annotator.pool_peak", 0), "count"),
            "annotator.select_longest_s": (total("annotator.select_longest"), "s"),
        }
    )
    for tech in TECHNIQUES:
        m[f"annotator.annotations.{tech}"] = (counts.get(f"annotator.annotations.{tech}", 0), "count")
    m.update(
        {
            "cli.annotate_s": (total("cli.annotate"), "s"),
            "cli.workers": (peaks.get("cli.workers", 1 if calls("cli.line") else 0), "count"),
            "cli.line_busy_s": (busy, "s"),
            "cli.concurrency": (busy / window if window > 0 else 0.0, "ratio"),
        }
    )
    return m
