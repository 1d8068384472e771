"""Seeded synthetic corpora for the benchmark.

Everything here is computed apart from termcoder: the dictionary is a list
of generated terms, lines are assembled piece by piece so that every
token's normalized form and raw-character span is known by construction,
and the gold codes come from the planted terms.

Dictionary tokens use the letters a-p and filler tokens the letters q-z,
so a filler token is at edit distance >= 4 from every dictionary token and
matches nothing; a planted term is therefore isolated by its filler.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

import ref

FUZZY_MIN_LEN = 5  # termcoder's default --fuzzy-min-len, which every workload uses
DICT_LETTERS = "abcdefghijklmnop"
FILLER_LETTERS = "qrstuvwxyz"
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "termcoder" / "data"


def reserved_words() -> frozenset[str]:
    """Stopwords and built-in short forms shipped with the program (its data files)."""
    words = set()
    for line in (DATA_DIR / "stopwords_fr.txt").read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            words.update(line.lower().split())
    for line in (DATA_DIR / "abbreviations_fr.txt").read_text("utf-8").splitlines():
        if "=" in line and not line.startswith("#"):
            words.add(line.split("=", 1)[0].strip().lower())
    return frozenset(words)


@dataclass(frozen=True)
class GenTerm:
    tokens: tuple[str, ...]
    label: str
    code: str


@dataclass
class Planted:
    term: GenTerm
    first: int  # index of the first input token of the planted span
    last: int  # index of its last input token
    noise: str
    recoverable: bool


@dataclass
class Line:
    doc_id: str
    line_id: str
    raw: str
    tokens: list[str] = field(default_factory=list)
    offsets: list[tuple[int, int]] = field(default_factory=list)
    planted: list[Planted] = field(default_factory=list)

    @property
    def gold(self) -> set[tuple[str, str, str]]:
        return {(self.doc_id, self.line_id, p.term.code) for p in self.planted}


@dataclass
class Corpus:
    terms: list[GenTerm]
    abbreviations: dict[str, list[tuple[str, ...]]]
    lines: list[Line]
    max_dist: int

    @property
    def code_of_label(self) -> dict[str, str]:
        return {t.label: t.code for t in self.terms}


class Gen:
    def __init__(self, seed: int, salt: str):
        # The shape of a workload (word lengths, which words form which term,
        # which terms and noise kinds fill which line) comes from a fixed
        # stream; the seed picks every letter, typo position and spelling.
        # The work per run then stays alike across seeds while the inputs differ.
        self.shape = random.Random(f"{salt}:shape")
        self.rng = random.Random(f"{salt}:{seed}")
        self.reserved = reserved_words()
        self.used: set[str] = set()
        self._decks: dict[tuple, list] = {}

    def deal(self, cards: tuple):
        """Draws from a shuffled deck of *cards*, refilled when empty, so
        every workload gets exact shares of each card."""
        deck = self._decks.setdefault(cards, [])
        if not deck:
            deck.extend(cards)
            self.shape.shuffle(deck)
        return deck.pop()

    def word(self, letters: str, lo: int, hi: int) -> str:
        rng = self.rng
        n = self.deal(tuple(range(lo, hi + 1)))
        while True:
            w = "".join(rng.choice(letters) for _ in range(n))
            if w not in self.used and w not in self.reserved:
                self.used.add(w)
                return w

    def words(self, n: int, lo: int = 4, hi: int = 12, letters: str = DICT_LETTERS) -> list[str]:
        return [self.word(letters, lo, hi) for _ in range(n)]

    def render(self, token: str) -> str:
        """Raw spelling of a normalized token: same length, case and accents vary."""
        r = self.rng.random()
        raw = token.upper() if r < 0.1 else token.capitalize() if r < 0.25 else token
        if self.rng.random() < 0.15 and "e" in token:
            i = token.index("e")
            raw = raw[:i] + ("É" if raw[i] == "E" else "é") + raw[i + 1 :]
        return raw

    def label(self, tokens: tuple[str, ...]) -> str:
        words = list(tokens)
        if len(words) > 1 and self.rng.random() < 0.2:
            words.insert(1, "de")  # a stopword inside the label
        text = " ".join(words)
        return text.capitalize() if self.rng.random() < 0.5 else text

    def make_terms(self, paths: list[tuple[str, ...]], n_codes: int) -> list[GenTerm]:
        codes = [f"{chr(65 + i % 26)}{i // 26:04d}" for i in range(max(1, n_codes))]
        return [GenTerm(p, self.label(p), self.rng.choice(codes)) for p in paths]

    def edit(self, token: str, kind: str) -> str:
        rng = self.rng
        i = rng.randrange(len(token))
        other = rng.choice([c for c in DICT_LETTERS if c != token[i]])
        if kind == "sub":
            return token[:i] + other + token[i + 1 :]
        if kind == "ins":
            return token[:i] + other + token[i:]
        return token[:i] + token[i + 1 :]


# -- dictionaries ------------------------------------------------------------


def broad_paths(g: Gen, n_terms: int, n_heads: int, n_mods: int) -> list[tuple[str, ...]]:
    """Terms of 1-4 tokens: a head token (root child) plus shared modifiers."""
    heads = g.words(n_heads)
    mods = g.words(n_mods)
    paths = dict.fromkeys((h,) for h in heads[: n_heads // 2])
    while len(paths) < n_terms:
        k = g.deal((1, 2, 2, 3, 3, 4))
        paths[(g.shape.choice(heads),) + tuple(g.shape.choice(mods) for _ in range(k))] = None
    return list(paths)


def deep_paths(g: Gen, n_terms: int, n_families: int, depth: int) -> list[tuple[str, ...]]:
    """Deep terms (6 to *depth* tokens) over families of tokens one edit apart.

    Each family is a base token, a one-substitution variant and a
    one-insertion variant, so every sibling set holds near-duplicates. Every
    level draws from the same families, so any token can also start a fresh
    root attempt, and the top levels are dense, so terms share long prefixes.
    """
    families = []
    for _ in range(n_families):
        base = g.word(DICT_LETTERS, 7, 7)
        while True:
            sub, ins = g.edit(base, "sub"), g.edit(base, "ins")
            fresh = not ({sub, ins} & (g.used | g.reserved))
            if fresh and ref.edit_distance(sub, ins) == 2:
                break
        g.used.update((sub, ins))
        families.append([base, sub, ins])
    tokens = [t for family in families for t in family]
    paths: dict[tuple[str, ...], None] = {}
    while len(paths) < n_terms:
        path = tuple(g.shape.choice(tokens) for _ in range(g.deal(tuple(range(6, depth + 1)))))
        paths[path] = None
        if len(path) > 6 and g.shape.random() < 0.5:
            paths[path[:6]] = None  # a prefix that is a term of its own
    return list(paths)


def short_forms(g: Gen, terms: list[GenTerm], n: int, per_form: int) -> dict[str, list[tuple[str, ...]]]:
    """Short forms (2-3 letters) expanding to prefixes of multi-token terms."""
    prefixes = list(dict.fromkeys(t.tokens[:k] for t in terms if len(t.tokens) > 1 for k in (1, 2) if k < len(t.tokens)))
    table: dict[str, list[tuple[str, ...]]] = {}
    while len(table) < min(n, len(prefixes) // max(1, per_form)):
        short = g.word(DICT_LETTERS, 2, 3)
        table[short] = g.shape.sample(prefixes, per_form)
    return table


# -- lines -------------------------------------------------------------------

NOISE_MIX = {
    # Shares of noise kinds. The method can recover none, typo, join and
    # abbrev at max_dist 1; typo2, short-typo, split and most repeats it
    # cannot, which keeps F below 1. At max_dist 0 no typo is recoverable.
    "fuzzy": ["none"] * 6 + ["typo"] * 6 + ["join"] * 3 + ["abbrev"] * 3 + ["typo2", "short-typo", "split"],
    "fork": ["none"] * 5 + ["typo"] * 4 + ["join"] * 2 + ["abbrev"] * 3 + ["repeat"] * 2 + ["typo2", "split"],
    "exact": ["none"] * 5 + ["typo"],
}


class LineBuilder:
    def __init__(self, g: Gen, doc_id: str, line_id: str):
        self.g = g
        self.line = Line(doc_id, line_id, "")
        self.parts: list[str] = []
        self.pos = 0

    def _raw(self, text: str) -> None:
        self.parts.append(text)
        self.pos += len(text)

    def sep(self, inside: bool = False) -> None:
        choices = (" ", " ", " de ") if inside else (" ", " ", ", ", " - ", " la ", " et ")
        self._raw(self.g.rng.choice(choices))

    def token(self, norm: str) -> None:
        raw = self.g.render(norm)
        self.line.tokens.append(norm)
        self.line.offsets.append((self.pos, self.pos + len(raw)))
        self._raw(raw)

    def tokens(self, norms: list[str]) -> tuple[int, int]:
        first = len(self.line.tokens)
        for i, t in enumerate(norms):
            if i:
                self.sep(inside=True)
            self.token(t)
        return first, len(self.line.tokens) - 1

    def done(self) -> Line:
        self.line.raw = "".join(self.parts)
        return self.line


def noisy_tokens(g: Gen, term: GenTerm, noise: str, shorts_by_prefix: dict, min_len: int) -> list[str] | None:
    """The input tokens for *term* under *noise*, or None when it does not apply."""
    toks = list(term.tokens)
    rng, shape = g.rng, g.shape
    if noise == "none":
        return toks
    if noise in ("typo", "typo2"):
        long = [i for i, t in enumerate(toks) if len(t) >= min_len + 1]
        if not long:
            return None
        i = shape.choice(long)
        if noise == "typo":
            toks[i] = g.edit(toks[i], g.deal(("sub", "ins", "del")))
        else:
            a, b = rng.sample(range(len(toks[i])), 2)
            t = list(toks[i])
            for k in (a, b):
                t[k] = rng.choice([c for c in DICT_LETTERS if c != t[k]])
            toks[i] = "".join(t)
        return toks
    if noise == "short-typo":
        short = [i for i, t in enumerate(toks) if len(t) < min_len]
        if not short:
            return None
        i = shape.choice(short)
        toks[i] = g.edit(toks[i], "sub")
        return toks
    if noise == "join":
        if len(toks) < 2:
            return None
        i = shape.randrange(len(toks) - 1)
        return toks[:i] + [toks[i] + toks[i + 1]] + toks[i + 2 :]
    if noise == "split":
        long = [i for i, t in enumerate(toks) if len(t) >= 8]
        if not long:
            return None
        i = shape.choice(long)
        cut = shape.randint(4, len(toks[i]) - 4)
        return toks[:i] + [toks[i][:cut], toks[i][cut:]] + toks[i + 1 :]
    if noise == "abbrev":
        for k in (2, 1):
            shorts = shorts_by_prefix.get(tuple(toks[:k]))
            if shorts:
                return [shape.choice(shorts)] + toks[k:]
        return None
    if noise == "repeat":
        i = shape.randrange(len(toks))
        return toks[: i + 1] + toks[i:]
    raise ValueError(noise)


def make_lines(
    g: Gen,
    terms: list[GenTerm],
    abbreviations: dict[str, list[tuple[str, ...]]],
    n_lines: int,
    mix: list[str],
    terms_per_line: int,
    line_tokens: int,
    max_dist: int,
    min_len: int = FUZZY_MIN_LEN,
    filler_pool: int = 400,
) -> list[Line]:
    """Lines of planted (possibly noisy) terms, each after one filler word.

    Lines are padded with filler to *line_tokens* tokens. Noise kinds and
    term lengths are dealt from decks, so every seed gets the same mix.
    """
    fillers = g.words(filler_pool, 4, 9, FILLER_LETTERS)
    shorts_by_prefix: dict[tuple[str, ...], list[str]] = {}
    for short, exps in sorted(abbreviations.items()):
        for exp in exps:
            shorts_by_prefix.setdefault(exp, []).append(short)
    by_len: dict[int, list[GenTerm]] = {}
    for term in terms:
        by_len.setdefault(len(term.tokens), []).append(term)
    length_cards = tuple(n for n in sorted(by_len) for _ in range(max(1, round(20 * len(by_len[n]) / len(terms)))))
    reftrie = ref.RefTrie(terms, abbreviations, max_dist, min_len)
    lines = []
    for n in range(n_lines):
        b = LineBuilder(g, f"D{n // 4:05d}", str(n % 4 + 1))
        planted = []
        for _ in range(terms_per_line):
            if b.parts:
                b.sep()
            b.token(g.shape.choice(fillers))
            noise = g.deal(tuple(mix))
            toks = None
            while toks is None:
                term = g.shape.choice(by_len[g.deal(length_cards)])
                toks = noisy_tokens(g, term, noise, shorts_by_prefix, min_len)
            b.sep()
            first, last = b.tokens(toks)
            recoverable = reftrie.best_from(toks) == (len(toks) - 1, term)
            planted.append(Planted(term, first, last, noise, recoverable))
        while len(b.line.tokens) < line_tokens:
            b.sep()
            b.token(g.shape.choice(fillers))
        line = b.done()
        line.planted = planted
        lines.append(line)
    return lines


# -- files -------------------------------------------------------------------

CORPUS_HEADER = ("DocID", "LineID", "RawText", "StandardText", "ICD10")


def write_dictionary_corpus(g: Gen, terms: list[GenTerm], path: Path) -> None:
    """Training corpus: each term with its code; some also with a rival code.

    A term given a rival gets its own code twice, so the rival (one row)
    never wins and the resolved code is the generator's code. Some
    zero-code rows are legal and skipped.
    """
    rng = g.shape
    codes = sorted({t.code for t in terms})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=";")
        w.writerow(CORPUS_HEADER)
        for i, t in enumerate(terms):
            raw = " ".join(g.render(tok) for tok in t.tokens)
            w.writerow((f"T{i}", "1", raw, t.label, t.code))
            if rng.random() < 0.1:
                w.writerow((f"T{i}", "2", raw, t.label, t.code))
                w.writerow((f"T{i}", "3", raw, t.label, rng.choice(codes)))
            if rng.random() < 0.02:
                w.writerow((f"T{i}", "4", raw, "", ""))


def write_lines_corpus(lines: list[Line], path: Path) -> None:
    """The corpus to annotate: the raw line repeats once per gold code."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=";")
        w.writerow(CORPUS_HEADER)
        for line in lines:
            planted = line.planted or [None]
            for p in planted:
                w.writerow(
                    (line.doc_id, line.line_id, line.raw, p.term.label if p else "", p.term.code if p else "")
                )


def write_abbreviations(table: dict[str, list[tuple[str, ...]]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for short, exps in sorted(table.items()):
            for exp in exps:
                fh.write(f"{short}={' '.join(exp)}\n")
