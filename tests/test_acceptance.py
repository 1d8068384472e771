"""Acceptance suite: one test per shipped guarantee, with stated tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure) so the suite doubles as a checklist.
"""

import json
import random
import time
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import (
    AbbreviationTable,
    DictionaryTrie,
    MatchTechnique,
    annotate_line,
    evaluate,
)
from termcoder.cli import main
from termcoder.coder import resolve_code, tally_terms
from termcoder.matcher import levenshtein_distance
from termcoder.normalize import default_stopwords, normalize_text
from termcoder.trie import Term

from helpers import (
    NO_STOPWORDS,
    build_trie,
    composed_trie,
    edit_distance_reference,
    heart_trie,
    leftmost_longest_windows,
    lookup_path,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}")
        raise
    print(f"[acceptance] PASS {name}")


def test_criterion_1_abbrev_typo_perfect_golden_line():
    with criterion("1 abbreviation+typo+perfect resolves to the single longest term"):
        trie = heart_trie()
        abbrevs = AbbreviationTable.build({"ins": "insuffisance"})
        started = time.perf_counter()
        anns = annotate_line(
            "INS CARDIAQU AIGUE DETRESSE RESPIRATOIRE", trie, abbrevs=abbrevs, max_dist=1
        )
        elapsed = time.perf_counter() - started
        assert len(anns) == 1
        ann = anns[0]
        assert ann.term_label == "insuffisance cardiaque aigue"
        assert ann.code == "I509"
        assert ann.techniques == (
            MatchTechnique.ABBREVIATION,
            MatchTechnique.LEVENSHTEIN,
            MatchTechnique.PERFECT,
        )
        assert elapsed < 1.0


def test_criterion_2_composed_word_longest_golden_line():
    with criterion("2 composed word resolves to the longest dictionary path"):
        anns = annotate_line("MENINGOENCEPHALITE VIRALE", composed_trie(), max_dist=1)
        assert len(anns) == 1
        assert anns[0].term_label == "meningo encephalite virale"


def test_criterion_3_most_frequent_code_wins():
    with criterion("3 ambiguous term resolves to its most frequent code"):
        rows = (
            [("avc", "F179")] * 1
            + [("avc", "I64")] * 260
            + [("avc", "I640")] * 1635
            + [("avc", "T821")] * 1
            + [("avc", "Z915")] * 1
            + [("avc", "I489")] * 1
        )
        table = tally_terms(rows)
        assert table.counts[("avc",)]["I640"] == 1635
        assert resolve_code(table, ("avc",)) == "I640"


def test_criterion_4_metric_identity():
    with criterion("4 engineered P=0.794/R=0.779 fixture yields F=0.786 (+/-0.001)"):
        tp, fp, fn = 1000, 259, 284
        shared = {("d", str(i), "C") for i in range(tp)}
        gold = shared | {("g", str(i), "C") for i in range(fn)}
        predicted = shared | {("p", str(i), "C") for i in range(fp)}
        report = evaluate(gold, predicted)
        assert round(report.precision, 3) == 0.794
        assert round(report.recall, 3) == 0.779
        assert abs(report.f_measure - 0.786) <= 0.001


def test_criterion_5_edit_distance_matches_reference():
    with criterion("5 edit distance matches brute-force reference on 10,000 pairs"):
        rng = random.Random(53)
        alphabet = "abcdef"
        started = time.perf_counter()
        for _ in range(10_000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            d = levenshtein_distance(a, b)
            assert d == edit_distance_reference(a, b)
            assert d == levenshtein_distance(b, a)
            assert (d == 0) == (a == b)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0


def test_criterion_6_annotator_matches_window_reference():
    with criterion("6 annotator equals the leftmost-longest window reference"):
        rng = random.Random(101)
        pool = ["pa", "qo", "ru", "sy", "tu", "vu", "wi", "xa"]
        started = time.perf_counter()
        sequences_checked = 0
        for _ in range(200):
            paths = set()
            target = rng.randint(1, 20)
            while len(paths) < target:
                paths.add(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            trie = DictionaryTrie()
            for i, path in enumerate(sorted(paths)):
                trie.insert_term(path, Term(" ".join(path), f"C{i:03d}"))
            trie.freeze()
            for _ in range(5):
                tokens = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
                got = annotate_line(" ".join(tokens), trie, NO_STOPWORDS, max_dist=0)
                expected = leftmost_longest_windows(paths, tokens)
                assert [
                    (a.start_token, a.end_token, a.matched_tokens) for a in got
                ] == expected
                for ann, (_, _, window) in zip(got, expected):
                    assert ann.term_label == " ".join(window)
                sequences_checked += 1
        elapsed = time.perf_counter() - started
        assert sequences_checked == 1000
        assert elapsed < 30.0


def _make_noise_fixture(rng):
    """Random dictionary plus an abbreviation per token, all well separated."""
    pool = []
    while len(pool) < 40:
        cand = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(6, 9)))
        if all(levenshtein_distance(cand, tok) >= 3 for tok in pool):
            pool.append(cand)
    shorts = {}
    used = set(pool) | set(default_stopwords())  # a stopword short form would vanish
    for tok in pool:
        while True:
            short = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
            if short not in used:
                break
        used.add(short)
        shorts[tok] = short
    terms = {}
    while len(terms) < 30:
        path = tuple(rng.sample(pool, rng.randint(1, 3)))
        if path not in terms:
            terms[path] = f"C{len(terms):03d}"
    return pool, shorts, terms


def _perturb(rng, tokens, shorts):
    tokens = list(tokens)
    merge_at = None
    if len(tokens) >= 2 and rng.random() < 0.10:
        merge_at = rng.randrange(len(tokens) - 1)
    out = []
    skip = False
    for i, tok in enumerate(tokens):
        if skip:
            skip = False
            continue
        if merge_at == i:
            out.append(tok + tokens[i + 1])  # composed word: the space is dropped
            skip = True
            continue
        roll = rng.random()
        if roll < 0.10:
            out.append(shorts[tok])
        elif roll < 0.40 and len(tok) >= 5:
            kind = rng.choice("ids")
            at = rng.randrange(len(tok))
            letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
            if kind == "i":
                tok = tok[:at] + letter + tok[at:]
            elif kind == "d":
                tok = tok[:at] + tok[at + 1 :]
            else:
                tok = tok[:at] + letter + tok[at + 1 :]
            out.append(tok)
        else:
            out.append(tok)
    return out


def test_criterion_7_synthetic_end_to_end(tmp_path):
    with criterion("7 synthetic pipeline: precision 1.0 and recall >= 0.95"):
        rng = random.Random(20240811)
        _, shorts, terms = _make_noise_fixture(rng)
        started = time.perf_counter()

        train = tmp_path / "train.csv"
        lines = ["DocID;LineID;RawText;StandardText;ICD10"]
        for i, (path, code) in enumerate(sorted(terms.items())):
            label = " ".join(path)
            lines.append(f"t{i};1;{label.upper()};{label};{code}")
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")

        abbrev_file = tmp_path / "abbrev.txt"
        abbrev_file.write_text(
            "\n".join(f"{short}={tok}" for tok, short in sorted(shorts.items())) + "\n",
            encoding="utf-8",
        )

        term_list = sorted(terms.items())
        test_file = tmp_path / "test.csv"
        rows = ["DocID;LineID;RawText;StandardText;ICD10"]
        gold = set()
        for i in range(50):
            path, code = term_list[rng.randrange(len(term_list))]
            noisy = _perturb(rng, path, shorts)
            raw = " ".join(noisy).upper()
            rows.append(f"d{i:02d};1;{raw};{' '.join(path)};{code}")
            gold.add((f"d{i:02d}", "1", code))
        test_file.write_text("\n".join(rows) + "\n", encoding="utf-8")

        pred_file = tmp_path / "pred.csv"
        report_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "annotate",
                    "--corpus",
                    str(train),
                    "--input",
                    str(test_file),
                    "--output",
                    str(pred_file),
                    "--abbreviations",
                    str(abbrev_file),
                    "--max-dist",
                    "1",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    "--gold",
                    str(test_file),
                    "--pred",
                    str(pred_file),
                    "--output",
                    str(report_file),
                ]
            )
            == 0
        )
        report = json.loads(report_file.read_text(encoding="utf-8"))
        elapsed = time.perf_counter() - started
        assert report["precision"] == 1.0
        assert report["recall"] >= 0.95
        assert elapsed < 5.0


# --- criterion 8: invariant suites, >= 1000 cases each -----------------------

big = settings(max_examples=1000, deadline=None)

token = st.text(alphabet="abcdef", min_size=1, max_size=5)
paths = st.lists(token, min_size=1, max_size=4).map(tuple)
codes = st.text(alphabet="ABC0123456789", min_size=1, max_size=4)

annotation_pool = st.sampled_from(["alpha", "bravo", "carta", "delta", "ekova", "fanta"])
annotation_paths = st.lists(annotation_pool, min_size=1, max_size=3).map(tuple)


@st.composite
def noisy_token(draw):
    tok = draw(annotation_pool)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tok) - 1))
        c = draw(st.sampled_from("abcdefgh"))
        tok = tok[:i] + c + tok[i + 1 :]
    return tok


@big
@given(st.text(max_size=60))
def test_criterion_8a_normalization_idempotent(raw):
    once = normalize_text(raw)
    assert normalize_text(once) == once


@big
@given(st.dictionaries(paths, codes, max_size=20))
def test_criterion_8b_trie_round_trip(entries):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(path, Term(" ".join(path), code))
    trie.freeze()
    assert trie.term_count == len(entries)
    for path, code in entries.items():
        node = lookup_path(trie, path)
        assert node is not None
        assert node.terminal == Term(" ".join(path), code)


@big
@given(
    st.dictionaries(annotation_paths, st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=12),
    st.lists(noisy_token(), max_size=8),
)
def test_criterion_8c_annotations_nonoverlapping_and_deterministic(entries, tokens):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(path, Term(" ".join(path), code))
    trie.freeze()
    raw = " ".join(tokens)
    first = annotate_line(raw, trie, NO_STOPWORDS, max_dist=1)
    assert annotate_line(raw, trie, NO_STOPWORDS, max_dist=1) == first
    previous_end = -1
    for ann in first:
        assert ann.start_token > previous_end
        previous_end = ann.end_token


@big
@given(
    st.dictionaries(
        st.text(alphabet="ABCD012", min_size=1, max_size=4),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=8,
    )
)
def test_criterion_8d_resolved_code_is_argmax(counts):
    table = tally_terms([("fievre", code) for code, n in sorted(counts.items()) for _ in range(n)])
    resolved = resolve_code(table, ("fievre",))
    top = max(counts.values())
    assert counts[resolved] == top
    assert resolved == min(code for code, n in counts.items() if n == top)


def test_criterion_8_summary():
    with criterion("8 invariant suites (normalize/trie/annotator/coder) at 1000 cases"):
        pass  # the four property tests above fail loudly on their own
