"""Per-token matching techniques against the dictionary trie.

Every technique is evaluated against the children of the *current* trie
node (what could legally come next), never against the whole vocabulary:
perfect equality, abbreviation expansion, bounded edit distance, and
composed words (one input token vs. the concatenation of two consecutive
dictionary tokens).

Both distance-based techniques come from one descent over the sorted
child tokens, read as a character trie (Shang & Merrett 1996; Mihov &
Schulz 2004). The edit-distance row against the input token, within the
*max_dist* band around the diagonal (Ukkonen 1985), is the state of a
Levenshtein automaton (Schulz & Mihov 2002): each character read is one
lookup in a transition table that depends on *max_dist* alone and is
filled as states are reached. Tokens sharing a prefix share its state, a
dead state drops every token under it, and once no band cell is below
*max_dist* the descent bisects straight to the runs of the few characters
that can keep the state alive. Each surviving child's state is carried
on into its grandchildren the same way, when one of them is short enough
to fit within *max_dist*. ``levenshtein_distance`` is kept
as the standalone distance between two strings; matching does not call it.

``advance_states`` steps a whole state pool by one input token, in one
frame: it reads the token once and forks each pool entry once per
candidate from the entry's node, in this order: the perfect child,
abbreviation targets in table order, Levenshtein children in sorted
order, then composed pairs in (child, grandchild) order.
"""

from __future__ import annotations

import enum
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from operator import itemgetter
from os import PathLike
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .normalize import NormalizationConfig, _read_word_list, label_tokens, normalize_text
from .trie import TrieNode

DEFAULT_MAX_DISTANCE = 1
DEFAULT_FUZZY_MIN_LENGTH = 5


class MatchTechnique(enum.IntEnum):
    """How an input token advanced the trie; lower value = stronger evidence."""

    PERFECT = 0
    ABBREVIATION = 1
    LEVENSHTEIN = 2
    BIGRAM_LEVENSHTEIN = 3

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


class AbbreviationTable(NamedTuple):
    """Maps a normalized short form to one or more token-sequence expansions.

    The default table is empty and read-only, so no two tables share a
    mapping that one of them could write to.
    """

    entries: Mapping[str, tuple[tuple[str, ...], ...]] = MappingProxyType({})

    @classmethod
    def build(
        cls,
        mapping: dict[str, str | Iterable[str]],
        cfg: NormalizationConfig | None = None,
    ) -> "AbbreviationTable":
        """Build from ``{short form: expansion or [expansions, ...]}``.

        Both sides are normalized with *cfg*; an entry expanding to itself
        is dropped (it would be a no-op masquerading as a technique). A short
        form that is not one token, or is a stopword, raises ``ValueError``:
        no input token could ever match it.
        """
        cfg = cfg or NormalizationConfig()
        entries: dict[str, list[tuple[str, ...]]] = {}
        for key, value in mapping.items():
            short = normalize_text(key).strip()
            if short.split() != [short]:  # tokenize splits on every kind of space
                raise ValueError(f"abbreviation {key!r} must normalize to a single token")
            if short in cfg.stopwords:
                raise ValueError(f"abbreviation {key!r} is a stopword")
            raw_expansions = [value] if isinstance(value, str) else list(value)
            for raw in raw_expansions:
                expansion = label_tokens(raw, cfg)
                if not expansion or expansion == (short,):
                    continue
                bucket = entries.setdefault(short, [])
                if expansion not in bucket:
                    bucket.append(expansion)
        return cls({key: tuple(exps) for key, exps in entries.items()})


EMPTY_ABBREVIATIONS = AbbreviationTable()


def load_abbreviations(
    path: str | PathLike[str] | None = None, cfg: NormalizationConfig | None = None
) -> AbbreviationTable:
    """Read ``short=expansion words`` lines (None: the built-in nine); ``#`` comments ignored.

    A line without a short form or an expansion raises ``ValueError``
    naming ``path:lineno``.
    """
    mapping: dict[str, list[str]] = {}
    for where, line in _read_word_list(path, "abbreviations_fr.txt"):
        short, sep, expansion = line.partition("=")
        if not sep or not short.strip() or not expansion.strip():
            raise ValueError(f"{where}: expected 'short=expansion words'")
        mapping.setdefault(short.strip(), []).append(expansion.strip())
    return AbbreviationTable.build(mapping, cfg)


def levenshtein_distance(a: str, b: str) -> int:
    """Exact single-character edit distance (insertions, deletions, substitutions)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        append = current.append
        for j, cb in enumerate(b, 1):
            append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


class _Automaton:
    """The banded edit-distance row of one *max_dist* k, as a lazily filled
    deterministic automaton (Ukkonen 1985; Schulz & Mihov 2002).

    After *d* characters, a state is the band of 2k+1 cells around the
    diagonal: cell ``t`` is the distance between the word prefix of length
    ``d - k + t`` and what was read, capped at k+1, which stands for every
    value above k. A cell before the word's start or past its end holds
    k+1. State 0 is the dead band, every cell at k+1: nothing read after it
    can come back within k.

    The next state depends on the state and on two bits per new cell,
    packed in a key: bit ``2t`` is set when the word character on the
    cell's diagonal equals the character read, bit ``2t + 1`` when the cell
    lies within the word (a cell past its end is forced to k+1). ``read``
    sets both bits for every word position once per word, so that shifting
    a character's mask by twice the depth lines them up with the band. The
    table depends on k alone, never on the tokens, and holds at most
    (k+2)^(2k+1) states. Threads may share it: ``advance`` fills a missing
    transition under a lock and publishes it after the state it leads to.
    """

    def __init__(self, max_dist: int) -> None:
        self.max_dist = k = max_dist
        self.full = (1 << 2 * (2 * k + 1)) - 1  # the key bits of one band
        self.bands: list[tuple[int, ...]] = []
        self.least: list[int] = []  # the smallest cell
        self.at_k: list[tuple[int, ...]] = []  # the offsets of the cells at exactly k
        self.accept: list[int] = []  # bit t: cell t is at most k
        self.delta: list[dict[int, int]] = []  # key -> next state
        self._ids: dict[tuple[int, ...], int] = {}
        self._starts: dict[int, int] = {}
        # (word, what read returns) for the last word read, swapped as one
        # tuple: a thread sees the old entry or the new one, never a mix.
        self._last: tuple = (None, None)
        self._lock = threading.Lock()
        self._intern((k + 1,) * (2 * k + 1))

    def read(self, word: str) -> tuple[dict[str, int], int, int]:
        """Key masks of *word*'s characters, the mask of any other
        character, and the start state.

        Word position ``q`` owns bits ``2(q + k)`` (the character is
        ``word[q]``) and ``2(q + k) + 1`` (the position is in the word).
        The result for the last word read is kept: every state of one pool
        step reads the same token, and reading it again builds nothing.
        Callers must not change the masks.
        """
        last_word, setup = self._last
        if last_word == word:
            return setup
        k = self.max_dist
        n = len(word)
        other = ((1 << 2 * (n + k)) - 1) // 3 << 1  # the in-word bit of positions -k .. n-1
        masks: dict[str, int] = {}
        bit = 1 << 2 * k
        for ch in word:
            masks[ch] = masks.get(ch, other) | bit
            bit <<= 2
        length = min(n, k)  # the band at depth 0 depends on the word's length up to k
        start = self._starts.get(length)
        if start is None:
            with self._lock:
                band = tuple(j if 0 <= j <= length else k + 1 for j in range(-k, k + 1))
                start = self._starts[length] = self._intern(band)
        setup = masks, other, start
        self._last = word, setup
        return setup

    def advance(self, state: int, key: int) -> int:
        """The state after *state* reads a character with *key*."""
        try:
            return self.delta[state][key]
        except KeyError:
            pass
        with self._lock:
            following = self.delta[state]
            nxt = following.get(key)
            if nxt is None:
                nxt = following[key] = self._intern(self._next_band(self.bands[state], key))
            return nxt

    def _next_band(self, band: tuple[int, ...], key: int) -> tuple[int, ...]:
        over = self.max_dist + 1
        last = len(band) - 1
        new = []
        left = over
        for t, diag in enumerate(band):
            if key >> 2 * t + 1 & 1:
                cost = diag if key >> 2 * t & 1 else diag + 1
                up = band[t + 1] + 1 if t < last else over
                left = min(cost, up, left + 1, over)
            else:
                left = over
            new.append(left)
        return tuple(new)

    def _intern(self, band: tuple[int, ...]) -> int:
        state = self._ids.get(band)
        if state is None:
            k = self.max_dist
            self.bands.append(band)
            self.least.append(min(band))
            self.at_k.append(tuple(t for t, d in enumerate(band) if d == k))
            self.accept.append(sum(1 << t for t, d in enumerate(band) if d <= k))
            self.delta.append({})
            state = self._ids[band] = len(self.bands) - 1
        return state


# One automaton per max_dist, made on first use and never emptied: each is
# bounded by its max_dist, and what it holds cannot change a result.
_AUTOMATA: dict[int, _Automaton] = {}


def _automaton(max_dist: int) -> _Automaton:
    auto = _AUTOMATA.get(max_dist)
    if auto is None:
        auto = _AUTOMATA.setdefault(max_dist, _Automaton(max_dist))
    return auto


# A run of sibling tokens up to this size whose state has a cell below
# max_dist is scanned one token at a time: on so few tokens, the
# bookkeeping of a split costs more than the steps it saves.
_LEAF_SIZE = 64

# The sort key of a run split or jumped at prefix length p, made once per p
# (deeper prefixes, rarer, build their own).
_KEYS = tuple(map(itemgetter, range(32)))


def _walk(
    auto: _Automaton,
    word: str,
    masks: dict[str, int],
    other: int,
    tokens: tuple[str, ...],
    state: int,
    depth: int,
    lengths: range,
) -> list[tuple[str, int]]:
    """``(token, state)``, in token order, for each sorted token with a length
    in *lengths* whose state, continued from *state* at *depth*, is alive.

    A run of tokens with a common prefix steps through the prefix once, and
    a dead prefix drops the run. A run of at most ``_LEAF_SIZE`` tokens whose
    state has a cell below max_dist is scanned flat, one character step per
    token character; this is checked first, since most runs are small. Once
    no band cell is below max_dist, a character keeps the state alive only
    if it is the word character on the diagonal of a cell at max_dist, so
    bisect jumps to those characters' runs, in a run of any size. Any other
    run is split on its next character. The jump characters of a (state,
    depth) are worked out once per walk, in a table made at the first jump.

    ``advance_states`` holds a second copy of the flat loop, for a node's
    child tokens at depth 0, where the start state always has a cell below
    max_dist: it scans a node of at most ``_LEAF_SIZE`` children in its own
    loop and calls this walk only for wider nodes and for grandchildren.
    Both copies must step alike.
    """
    k = auto.max_dist
    full, delta, least, advance = auto.full, auto.delta, auto.least, auto.advance
    found: list[tuple[str, int]] = []
    stack = [(0, len(tokens), 0, state)]
    push = stack.append
    allowed: dict[tuple[int, int], list[str]] | None = None  # (state, depth) -> sorted jump characters
    while stack:
        lo, hi, p, state = stack.pop()  # tokens[lo:hi] share a p-character prefix, which leads to *state*
        i = depth + p
        shift = 2 * i
        if least[state] < k:
            if hi - lo <= _LEAF_SIZE:
                for token in tokens[lo:hi]:
                    if len(token) in lengths:
                        s, sh = state, shift
                        for ch in token[p:]:  # advance() inlined: a table hit costs no call
                            bits = masks.get(ch, other) >> sh & full
                            try:
                                s = delta[s][bits]
                            except KeyError:
                                s = advance(s, bits)
                            if not s:
                                break
                            sh += 2
                        else:
                            found.append((token, s))
                continue
            chars = None
        else:  # jump to the word characters on the diagonals of the cells at k
            if allowed is None:
                allowed = {}
            chars = allowed.get((state, i))
            if chars is None:
                n = len(word)
                chars = sorted({word[q] for t in auto.at_k[state] if 0 <= (q := i - k + t) < n})
                allowed[state, i] = chars
        if len(tokens[lo]) == p:  # the prefix itself sorts before its extensions
            if p in lengths:
                found.append((tokens[lo], state))
            lo += 1
        try:
            key = _KEYS[p]
        except IndexError:
            key = itemgetter(p)
        # Runs are pushed last first, so that they pop in token order.
        if chars is None:  # split on every next character
            while lo < hi:
                ch = tokens[hi - 1][p]
                begin = bisect_left(tokens, ch, lo, hi, key=key)
                s = advance(state, masks.get(ch, other) >> shift & full)
                if s:
                    push((begin, hi, p + 1, s))
                hi = begin
        else:
            for ch in reversed(chars):
                end = bisect_right(tokens, ch, lo, hi, key=key)
                begin = bisect_left(tokens, ch, lo, end, key=key)
                if begin < end:
                    s = advance(state, masks.get(ch, other) >> shift & full)
                    if s:
                        push((begin, end, p + 1, s))
                hi = begin
    return found


_PERFECT, _ABBREVIATION, _LEVENSHTEIN, _BIGRAM_LEVENSHTEIN = MatchTechnique


def advance_states(
    pool: dict[TrieNode, tuple[MatchTechnique, ...]],
    input_token: str,
    *,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> dict[TrieNode, tuple[MatchTechnique, ...]]:
    """The pool after *input_token*: each node reached, mapped to its trail.

    Each entry of *pool* forks once per candidate from its node, strongest
    technique first: the perfect child; each abbreviation expansion walked
    by perfect steps, in table order; each child within *max_dist* edits,
    in sorted order (not the perfect child, nor for an input shorter than
    *fuzzy_min_len*); then each child + grandchild pair within *max_dist*
    of the input (composed words, at any input length), in (child,
    grandchild) order. *max_dist* 0 turns both fuzzy techniques off. An
    entry with no match dies; one on a leaf dies at once. Nodes keep the
    order in which they were first reached, and *pool* is left unchanged.
    Its nodes must belong to a frozen trie: their ``sorted_tokens`` fix
    the fuzzy order.

    Two trails may reach one node: from two entries, or from one entry whose
    abbreviation target is also a fuzzy target. Of these twins, only the
    first with the smallest technique sum is kept; a cheaper twin moves the
    node to its own place. Twins on one node have the same continuations,
    so each continuation of a dropped twin has a continuation of the kept
    one beside it, with a sum no larger and on the same term. When the sums
    are equal, the kept one comes first in every later pool.
    ``select_longest`` would never pick the dropped one, so the result does
    not change. A twin from the entry that made an earlier one comes later
    in technique order, so its sum is larger and it is always dropped.
    Every technique descends at least one trie level, so after the j-th
    token of a start the pool holds at most one entry per node of depth j
    or more, instead of doubling with each ambiguous short form.

    The whole step runs in this one frame: the token's short forms, its
    automaton masks and its length window are looked up once per step, not
    once per entry. An entry's child tokens are scanned here, one character
    step per token character, when there are at most ``_LEAF_SIZE`` of
    them: at depth 0 the start state always has a cell below *max_dist*,
    so ``_walk`` would scan them flat too. Wider nodes, and every walk over
    a surviving child's grandchildren, go through ``_walk``.
    """
    successors: dict[TrieNode, tuple[MatchTechnique, ...]] = {}
    expansions = abbrevs.entries.get(input_token, ())
    if max_dist > 0:
        auto = _automaton(max_dist)
        masks, other, start = auto.read(input_token)
        full, delta, accept, advance = auto.full, auto.delta, auto.accept, auto.advance
        n = len(input_token)
        reach = n + max_dist  # a state at depth D accepts when cell n - D + max_dist is at most max_dist
        lengths = range(reach + 1)  # a longer child is too long, and so is every child + grandchild
        typo = n >= fuzzy_min_len
    # Each candidate forks in the order above: a node's first fork holds its
    # place, and a cheaper twin takes the node to its own.
    for node, trail in pool.items():
        children = node.children
        if not children:  # a leaf: no technique can step below it
            continue
        child = children.get(input_token)
        if child is not None:
            fork = trail + (_PERFECT,)
            if successors.setdefault(child, fork) is not fork:
                _keep_cheaper(successors, child, fork)
        for expansion in expansions:
            target: TrieNode | None = node
            for token in expansion:
                target = target.children.get(token)
                if target is None:
                    break
            else:
                fork = trail + (_ABBREVIATION,)
                if successors.setdefault(target, fork) is not fork:
                    _keep_cheaper(successors, target, fork)
        if max_dist > 0:
            tokens = node.sorted_tokens
            if len(tokens) > _LEAF_SIZE:
                firsts = _walk(auto, input_token, masks, other, tokens, start, 0, lengths)
            else:  # _walk's flat scan, from the start state at depth 0
                firsts = []
                for first in tokens:
                    if len(first) <= reach:
                        state, shift = start, 0
                        for ch in first:  # advance() inlined: a table hit costs no call
                            bits = masks.get(ch, other) >> shift & full
                            try:
                                state = delta[state][bits]
                            except KeyError:
                                state = advance(state, bits)
                            if not state:
                                break
                            shift += 2
                        else:
                            firsts.append((first, state))
            composed: list[TrieNode] = []
            for first, state in firsts:
                mid = children[first]
                d = len(first)
                if typo and accept[state] >> reach - d & 1 and first != input_token:
                    fork = trail + (_LEVENSHTEIN,)
                    if successors.setdefault(mid, fork) is not fork:
                        _keep_cheaper(successors, mid, fork)
                grand = mid.sorted_tokens
                room = reach - d
                # Outside this window of lengths, cell n is out of the band: a child
                # whose grandchildren are all too long starts no walk.
                if grand and min(map(len, grand)) <= room:
                    window = range(n - max_dist - d, room + 1)
                    for second, last in _walk(auto, input_token, masks, other, grand, state, d, window):
                        if accept[last] >> room - len(second) & 1:
                            composed.append(mid.children[second])
            for target in composed:
                fork = trail + (_BIGRAM_LEVENSHTEIN,)
                if successors.setdefault(target, fork) is not fork:
                    _keep_cheaper(successors, target, fork)
    return successors


def _keep_cheaper(
    successors: dict[TrieNode, tuple[MatchTechnique, ...]],
    target: TrieNode,
    fork: tuple[MatchTechnique, ...],
) -> None:
    """The twin rule of ``advance_states``, for a *target* reached before:
    *fork* replaces its trail only if its sum is smaller, and then the node
    moves to the end, the place of the cheaper twin."""
    if sum(fork) < sum(successors[target]):
        del successors[target]
        successors[target] = fork
