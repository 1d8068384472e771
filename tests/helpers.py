"""Shared fixtures and reference implementations for the test suite."""

import unicodedata
from functools import lru_cache
from typing import Iterator

from termcoder import BuildReport, DictionaryTrie, MatchTechnique, NormalizationConfig
from termcoder.matcher import match_token
from termcoder.normalize import tokenize
from termcoder.trie import Term, TrieNode

# Synthetic dictionaries use short tokens; keep stopword removal out of the way.
NO_STOPWORDS = NormalizationConfig(stopwords=frozenset())

HEART_TERMS = {
    "insuffisance cardiaque": "I50",
    "insuffisance cardiaque aigue": "I509",
    "insuffisance cardiaque congestive": "I500",
    "insuffisance respiratoire": "J969",
    "insuffisance respiratoire aigue": "J960",
}

COMPOSED_TERMS = {
    "meningoencephalite": "G049",
    "meningo encephalite virale": "A861",
}


def build_trie(entries: dict[str, str]) -> DictionaryTrie:
    """Build a frozen trie from {space-joined tokens: code}."""
    trie = DictionaryTrie()
    for label, code in entries.items():
        trie.insert_term(tuple(label.split()), Term(label, code))
    return trie.freeze()


def lookup_path(trie: DictionaryTrie, tokens) -> TrieNode | None:
    """Walk a token sequence from the root; None if the path breaks off."""
    node = trie.root
    for token in tokens:
        node = node.children.get(token)
        if node is None:
            return None
    return node


def iter_terms(trie: DictionaryTrie) -> Iterator[tuple[tuple[str, ...], Term]]:
    """(token path, term record) for every term in *trie*, by a walk from the root."""
    stack = [((), trie.root)]
    while stack:
        path, node = stack.pop()
        if node.terminal is not None:
            yield path, node.terminal
        stack.extend((path + (token,), child) for token, child in node.children.items())


def iter_nodes(trie: DictionaryTrie) -> Iterator[TrieNode]:
    """Every node of *trie*, root first, by a depth-first walk."""
    stack = [trie.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def heart_trie() -> DictionaryTrie:
    return build_trie(HEART_TERMS)


def composed_trie() -> DictionaryTrie:
    return build_trie(COMPOSED_TERMS)


@lru_cache(maxsize=256)  # keeps the characters around a probe; a sweep of every code point stays small
def _reference_fragment(ch):
    return "".join(
        c if c.isspace() or c.isalnum() else " "
        for c in unicodedata.normalize("NFD", ch.lower())
        if unicodedata.category(c) != "Mn"
    )


def reference_tokenize(raw, stopwords=frozenset()):
    """Character-by-character tokenizer oracle, as (tokens, offsets).

    Each character is lowercased and decomposed, its combining marks drop,
    and what is left must be alphanumeric to extend a token: a character
    that leaves nothing (a bare combining mark) starts no token but stays
    in the span of the one it follows, and any other character ends the
    token. Offsets are [start, end) character indexes into *raw*. Every
    line is read one character at a time, with ``unicodedata`` directly and
    none of the library's caches, translate table or run split.
    """
    tokens, offsets, parts = [], [], []
    start = end = 0
    for i, ch in enumerate(raw + " "):  # the trailing space ends the last token
        frag = _reference_fragment(ch)
        if not frag:
            end = i + 1  # a bare mark after a letter stays in its span; none starts one
            continue
        if frag.isalnum():
            if not parts:
                start = i
            parts.append(frag)
            end = i + 1
        elif parts:
            token = "".join(parts)
            if token not in stopwords:
                tokens.append(token)
                offsets.append((start, end))
            parts = []
    return tuple(tokens), tuple(offsets)


def leftmost_longest_windows(term_paths, tokens):
    """Reference matcher: exact token-window membership, greedy leftmost-longest.

    Returns (start_token, end_token, window) triples. Independent of the trie
    engine on purpose; used to cross-check annotate_line.
    """
    paths = set(term_paths)
    hits = []
    n = len(tokens)
    longest = max((len(p) for p in paths), default=0)
    i = 0
    while i < n:
        for length in range(min(longest, n - i), 0, -1):
            window = tuple(tokens[i : i + length])
            if window in paths:
                hits.append((i, i + length - 1, window))
                i += length
                break
        else:
            i += 1
    return hits


def edit_distance_reference(a: str, b: str) -> int:
    """Textbook full-matrix edit distance, kept independent of the library."""
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[-1][-1]


def reference_match_token(input_token, trie, path, abbrevs, max_dist, fuzzy_min_len):
    """Brute-force match_token from the node at *path*, as the set of every
    (technique, target path) candidate.

    Plain dict walks over children and grandchildren with the reference
    edit distance and no length filters. A target that two techniques
    reach is listed under both: nothing here keeps the strongest one. The
    differential test compares the library against it.
    """
    node = trie.root
    for token in path:
        node = node.children[token]
    found = []
    if input_token in node.children:
        found.append((MatchTechnique.PERFECT, path + (input_token,)))
    for expansion in abbrevs.entries.get(input_token, ()):
        target = node
        for token in expansion:
            target = target.children.get(token)
            if target is None:
                break
        else:
            found.append((MatchTechnique.ABBREVIATION, path + expansion))
    if max_dist > 0:
        for first, child in node.children.items():
            if (
                len(input_token) >= fuzzy_min_len
                and 0 < edit_distance_reference(input_token, first) <= max_dist  # 0 is the perfect child
            ):
                found.append((MatchTechnique.LEVENSHTEIN, path + (first,)))
            for second in child.children:
                if edit_distance_reference(input_token, first + second) <= max_dist:
                    found.append((MatchTechnique.BIGRAM_LEVENSHTEIN, path + (first, second)))
    return set(found)


def reference_annotate(tokens, trie, abbrevs, max_dist, fuzzy_min_len):
    """Brute-force greedy leftmost-longest annotation, as
    (start_token, end_token, label, code, technique sum) tuples.

    From each start it walks every path of ``reference_match_token`` steps
    depth first and keeps the smallest (-end, technique sum, label, code)
    over the term nodes passed; that term is committed and the scan skips
    past it, or moves one token on when there is none. No state pool, no
    select_longest: the differential test compares annotate_line against it.
    """
    found = []
    start = 0
    while start < len(tokens):
        best = None
        stack = [(start, (), 0)]  # next token, trie path so far, technique sum
        while stack:
            index, path, cost = stack.pop()
            if index == len(tokens):
                continue
            steps = reference_match_token(tokens[index], trie, path, abbrevs, max_dist, fuzzy_min_len)
            for technique, target in steps:
                total = cost + technique
                term = lookup_path(trie, target).terminal
                if term is not None:
                    key = (-index, total, term.label, term.code)
                    if best is None or key < best:
                        best = key
                stack.append((index + 1, target, total))
        if best is None:
            start += 1
            continue
        neg_end, total, label, code = best
        found.append((start, -neg_end, label, code, total))
        start = -neg_end + 1
    return found


def annotate_keeping_twins(tokens, trie, abbrevs, max_dist, fuzzy_min_len):
    """Greedy leftmost-longest annotation whose pool keeps every fork, as
    (start_token, end_token, label, code, techniques) tuples.

    The pool is a list of (node, trail) pairs. Each step forks every pair
    once per ``match_token`` candidate, and a node reached along two trails
    stays in the list twice. Each step picks the pair on a term node with
    the smallest (technique sum, label, code), the first in list order of
    equal keys: the rule of ``select_longest``. The last step with such a
    pair is committed. The pool-bound tests compare annotate_line against
    it, trails included.
    """
    found = []
    start = 0
    while start < len(tokens):
        pool, best = [(trie.root, ())], None
        for index in range(start, len(tokens)):
            pool = [
                (target, trail + (technique,))
                for node, trail in pool
                for technique, target in match_token(
                    tokens[index], node, abbrevs, max_dist, fuzzy_min_len=fuzzy_min_len
                )
            ]
            hit = min(
                (pair for pair in pool if pair[0].terminal is not None),
                key=lambda pair: (sum(pair[1]), pair[0].terminal.label, pair[0].terminal.code),
                default=None,
            )
            if hit is not None:
                best = (index, hit)
        if best is None:
            start += 1
            continue
        end, (node, trail) = best
        found.append((start, end, node.terminal.label, node.terminal.code, trail))
        start = end + 1
    return found


def reference_dictionary(corpus_pairs, list_pairs, cfg):
    """Brute-force dictionary build over raw (label, code) pairs, as
    ({token path: (label, code)}, BuildReport).

    A pair with an empty label or code, or whose label has no tokens, is a
    skipped row. Each source keeps the first raw label of a path and every
    code it saw there; the path's code is its most frequent one, ties going
    to the smallest, and a path the corpus produced takes the corpus code
    and label. A conflict is a path that saw more than one distinct code
    over both sources. The differential test compares assemble_dictionary
    against it.
    """
    skipped = 0
    corpus, term_list = {}, {}  # token path: (first raw label, every code seen)
    for pairs, source in ((corpus_pairs, corpus), (list_pairs, term_list)):
        for label, code in pairs:
            path = tokenize(label, cfg).tokens
            if not label or not code or not path:
                skipped += 1
                continue
            source.setdefault(path, (label, []))[1].append(code)
    terms = {}
    conflicts = 0
    for path in set(corpus) | set(term_list):
        label, seen = corpus[path] if path in corpus else term_list[path]
        best = max(sorted(set(seen)), key=seen.count)  # max keeps the first, smallest, of a tie
        terms[path] = (label, best)
        both = corpus.get(path, ("", []))[1] + term_list.get(path, ("", []))[1]
        conflicts += len(set(both)) > 1
    codes_used = {code for _, code in terms.values()}
    return terms, BuildReport(len(terms), len(codes_used), conflicts, skipped)
