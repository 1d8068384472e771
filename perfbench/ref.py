"""Reference computations made apart from termcoder, and the output checks.

The benchmark never trusts the program to judge itself: edit distance,
the technique rules, leftmost-longest windows and micro P/R/F are all
recomputed here from the generator's own tokens and terms.
"""

from __future__ import annotations

PERFECT, ABBREVIATION, LEVENSHTEIN, BIGRAM = 0, 1, 2, 3


def edit_distance(a: str, b: str) -> int:
    """Textbook single-character edit distance."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class Node:
    __slots__ = ("children", "term", "_by_len", "_pairs_by_len")

    def __init__(self):
        self.children: dict[str, Node] = {}
        self.term = None
        self._by_len = None
        self._pairs_by_len = None

    def by_len(self):
        if self._by_len is None:
            self._by_len = {}
            for tok, child in self.children.items():
                self._by_len.setdefault(len(tok), []).append((tok, child))
        return self._by_len

    def pairs_by_len(self):
        if self._pairs_by_len is None:
            self._pairs_by_len = {}
            for tok, child in self.children.items():
                for tok2, grand in child.children.items():
                    joined = tok + tok2
                    self._pairs_by_len.setdefault(len(joined), []).append((joined, grand))
        return self._pairs_by_len


class RefTrie:
    """The generator's terms as nested token maps, with the paper's four techniques."""

    def __init__(self, terms, abbreviations, max_dist: int, min_len: int):
        self.root = Node()
        for term in terms:
            node = self.root
            for tok in term.tokens:
                node = node.children.setdefault(tok, Node())
            node.term = term
        self.abbreviations = abbreviations
        self.max_dist = max_dist
        self.min_len = min_len

    def matches(self, token: str, node: Node) -> dict[int, tuple[int, Node]]:
        """Every node *token* can reach from *node*, under its strongest technique."""
        found: dict[int, tuple[int, Node]] = {}

        def offer(tech: int, target: Node) -> None:
            if id(target) not in found or tech < found[id(target)][0]:
                found[id(target)] = (tech, target)

        if token in node.children:
            offer(PERFECT, node.children[token])
        for exp in self.abbreviations.get(token, ()):
            target = node
            for tok in exp:
                target = target.children.get(tok)
                if target is None:
                    break
            else:
                offer(ABBREVIATION, target)
        d = self.max_dist
        if d > 0:
            n = len(token)
            if n >= self.min_len:
                by_len = node.by_len()
                for length in range(n - d, n + d + 1):
                    for tok, child in by_len.get(length, ()):
                        if tok != token and edit_distance(token, tok) <= d:
                            offer(LEVENSHTEIN, child)
            pairs = node.pairs_by_len()
            for length in range(n - d, n + d + 1):
                for joined, grand in pairs.get(length, ()):
                    if edit_distance(token, joined) <= d:
                        offer(BIGRAM, grand)
        return found

    def best_from(self, tokens: list[str]):
        """(end index, term) of the unique best hit of a walk starting at tokens[0].

        Hits rank by end index, then by the smallest technique sum. Returns
        None when there is no hit or when two terms tie on both keys (the
        label tie-break then decides, and the case is not used as a check).
        """
        states = {id(self.root): (self.root, 0)}
        hits = []
        for j, tok in enumerate(tokens):
            nxt: dict[int, tuple[Node, int]] = {}
            for node, s in states.values():
                for tech, target in self.matches(tok, node).values():
                    key = id(target)
                    if key not in nxt or s + tech < nxt[key][1]:
                        nxt[key] = (target, s + tech)
            if not nxt:
                break
            hits.extend((j, s, t.term) for t, s in nxt.values() if t.term is not None)
            states = nxt
        if not hits:
            return None
        best = max(hits, key=lambda h: (h[0], -h[1]))
        tied = {h[2] for h in hits if h[0] == best[0] and h[1] == best[1]}
        return (best[0], best[2]) if len(tied) == 1 else None


def window_matches(paths: dict[tuple[str, ...], object], tokens: list[str], longest: int):
    """Brute-force greedy leftmost-longest exact windows: (first, last, term)."""
    out = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(longest, n - i), 0, -1):
            term = paths.get(tuple(tokens[i : i + length]))
            if term is not None:
                out.append((i, i + length - 1, term))
                i += length
                break
        else:
            i += 1
    return out


def micro_f(gold: set, pred: set) -> float:
    tp = len(gold & pred)
    if not gold and not pred:
        return 1.0
    if tp == 0:
        return 0.0
    p, r = tp / len(pred), tp / len(gold)
    return 2 * p * r / (p + r)


class Checker:
    """Checks each annotated line against the generator; collects failures."""

    def __init__(self, corpus, exact_windows: bool):
        self.corpus = corpus
        self.code_of_label = corpus.code_of_label
        self.tokens_of_label = {t.label: t.tokens for t in corpus.terms}
        self.exact_windows = exact_windows
        if exact_windows:
            self.paths = {t.tokens: t for t in corpus.terms}
            self.longest = max(len(t.tokens) for t in corpus.terms)
        self.errors: list[str] = []
        self.recoverable_checked = 0
        self.lines_checked = 0

    def fail(self, line, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{line.doc_id}/{line.line_id}: {msg}")

    def check(self, line, anns) -> None:
        """*anns*: (start_char, end_char, matched_tokens, label, code, technique labels)."""
        self.lines_checked += 1
        starts = {s: i for i, (s, _) in enumerate(line.offsets)}
        ends = {e: i for i, (_, e) in enumerate(line.offsets)}
        prev_end = -1
        spans = []
        for start, end, matched, label, code, techs in anns:
            if start < prev_end or start >= end:
                self.fail(line, f"span {start}-{end} out of order or overlapping")
            prev_end = end
            first, last = starts.get(start), ends.get(end)
            if first is None or last is None or tuple(line.tokens[first : last + 1]) != tuple(matched):
                self.fail(line, f"span {start}-{end} does not map back to tokens {matched}")
                continue
            if self.code_of_label.get(label) != code:
                self.fail(line, f"code {code} is not the generator's code for {label!r}")
                continue
            if not self._steps_ok(list(matched), techs, self.tokens_of_label[label]):
                self.fail(line, f"technique steps {techs} do not explain {matched} -> {label!r}")
            spans.append((first, last, code))
        if self.exact_windows:
            want = [(f, l, t.code) for f, l, t in window_matches(self.paths, line.tokens, self.longest)]
            if spans != want:
                self.fail(line, f"annotations {spans} differ from the window reference {want}")
        else:
            found = set(spans)
            for p in line.planted:
                if p.recoverable:
                    self.recoverable_checked += 1
                    if (p.first, p.last, p.term.code) not in found:
                        self.fail(line, f"recoverable {p.noise} term {p.term.label!r} not found")

    def _steps_ok(self, matched: list[str], techs, dict_tokens, i: int = 0, pos: int = 0) -> bool:
        """Replays a technique trail over the term's tokens with this module's rules."""
        if len(techs) != len(matched):
            return False
        if i == len(matched):
            return pos == len(dict_tokens)
        tok, tech, d = matched[i], techs[i], self.corpus.max_dist
        rest = dict_tokens[pos:]
        if tech == "perfect":
            steps = [1] if rest[:1] == (tok,) else []
        elif tech == "levenshtein":
            steps = [1] if rest and 0 < edit_distance(tok, rest[0]) <= d else []
        elif tech == "bigram-levenshtein":
            steps = [2] if len(rest) > 1 and edit_distance(tok, rest[0] + rest[1]) <= d else []
        elif tech == "abbreviation":
            steps = [len(e) for e in self.corpus.abbreviations.get(tok, ()) if rest[: len(e)] == e]
        else:
            steps = []
        return any(self._steps_ok(matched, techs, dict_tokens, i + 1, pos + n) for n in steps)
