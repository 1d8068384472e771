import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import normalize
from termcoder.normalize import (
    NormalizationConfig,
    default_stopwords,
    label_tokens,
    load_stopwords,
    normalize_text,
    tokenize,
)

from helpers import reference_tokenize


def reference_normalize(raw: str) -> str:
    """Character-by-character oracle: lowercase, NFD minus marks, œ and æ
    spelled out, punct -> space."""
    out = []
    for ch in unicodedata.normalize("NFD", raw.lower()):
        if unicodedata.category(ch) == "Mn":
            continue
        out.append({"œ": "oe", "æ": "ae"}.get(ch, ch) if ch.isspace() or ch.isalnum() else " ")
    return "".join(out)


class TestNormalizeText:
    def test_lowercases(self):
        assert normalize_text("SYNDROME DE GLISEMENT") == "syndrome de glisement"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_punctuation_becomes_spaces_and_accents_drop(self):
        assert normalize_text("Insuffisance,cardiaque. aiguë") == "insuffisance cardiaque  aigue"

    @pytest.mark.parametrize(
        "raw",
        [
            "Œdème aigu du poumon",
            "AVC massif; décès",
            "l'artère pulmonaire",
            "grabatisation 2 mois",
            "Hémorragie - digestive (haute)",
        ],
    )
    def test_matches_character_oracle(self, raw):
        assert normalize_text(raw) == reference_normalize(raw)

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    @given(st.text(alphabet="abcdefghié èàçùâ-XYZ", max_size=40))
    def test_case_insensitive(self, raw):
        assert normalize_text(raw.upper()) == normalize_text(raw)

    @pytest.mark.parametrize(
        "raw, folded", [("Œdème", "oedeme"), ("cœur", "coeur"), ("CÆCUM", "caecum"), ("ǽ", "ae")]
    )
    def test_ligatures_are_spelled_out(self, raw, folded):
        assert normalize_text(raw) == folded
        got = tokenize(raw, NormalizationConfig(stopwords=frozenset()))
        assert got.tokens == (folded,)
        assert got.offsets == ((0, len(raw)),)

    @pytest.mark.parametrize("raw", ["\ufb01evre", "\uff21\uff22"])
    def test_compatibility_forms_are_kept(self, raw):
        # Only canonical decomposition applies: "ﬁ" and full-width letters
        # are letters of their own, not "fi" or "AB" (no NFKD).
        assert normalize_text(raw) == raw.lower()

    def test_combining_marks_do_not_change_result(self):
        plain = "aigue"
        marked = "aigué"  # trailing combining acute
        assert normalize_text(marked) == normalize_text(plain)

    def test_apostrophes_and_hyphens_split(self):
        assert normalize_text("l'insuffisance broncho-pulmonaire") == (
            "l insuffisance broncho pulmonaire"
        )


class TestTokenize:
    def test_plain_sequence(self):
        got = tokenize("insuffisance cardiaque aigue detresse respiratoire")
        assert got.tokens == (
            "insuffisance",
            "cardiaque",
            "aigue",
            "detresse",
            "respiratoire",
        )

    def test_stopword_only_input(self):
        cfg = NormalizationConfig(stopwords=frozenset({"de", "avec"}))
        assert tokenize("de avec", cfg).tokens == ()

    def test_offsets_into_original(self):
        got = tokenize("AVC massif")
        assert got.tokens == ("avc", "massif")
        assert got.offsets == ((0, 3), (4, 10))

    def test_stopwords_removed_with_offsets(self):
        got = tokenize("SYNDROME DE GLISEMENT")
        assert got.tokens == ("syndrome", "glisement")
        assert got.offsets == ((0, 8), (12, 21))

    def test_digits_kept(self):
        got = tokenize("grabatisation 2 mois")
        assert got.tokens == ("grabatisation", "2", "mois")

    def test_underscore_and_symbols_split_tokens(self):
        got = tokenize("avc_massif² x·y ①", NormalizationConfig(stopwords=frozenset()))
        assert got.tokens == ("avc", "massif²", "x", "y", "①")

    @given(st.text(max_size=60))
    def test_offsets_are_valid_and_consistent(self, raw):
        got = tokenize(raw)
        previous_end = 0
        for token, (start, end) in zip(got.tokens, got.offsets):
            assert 0 <= start < end <= len(raw)
            assert start >= previous_end
            previous_end = end
            assert normalize_text(raw[start:end]) == token

    @given(st.lists(st.text(alphabet="bcdfgh", min_size=1, max_size=6), min_size=1, max_size=6))
    def test_round_trip_on_clean_text(self, words):
        cfg = NormalizationConfig(stopwords=frozenset())
        text = " ".join(words)
        assert " ".join(tokenize(text, cfg).tokens) == normalize_text(text)


class TestTokenizePaths:
    """``tokenize`` splits the translated text into runs and spells from the
    raw text only a run that holds a bare mark or a many-letter character;
    the tokens and spans must be what the reference loop gives."""

    def test_every_code_point_embedded_equals_reference(self, monkeypatch):
        cfg = NormalizationConfig(stopwords=frozenset())
        spelled = []
        spell = normalize._spell
        monkeypatch.setattr(
            normalize, "_spell", lambda raw, start, end: spelled.append(raw[2]) or spell(raw, start, end)
        )
        wrong = []
        unsplit = []
        for code in range(sys.maxunicode + 1):
            raw = "ab" + chr(code) + "cd"
            got = tokenize(raw, cfg)
            if (got.tokens, got.offsets) != reference_tokenize(raw):
                wrong.append(hex(code))
            if normalize_text(raw).split() != list(got.tokens):  # what stopwords and short forms match
                unsplit.append(hex(code))
        assert wrong == []
        assert unsplit == []
        # Only a bare mark and a Hangul syllable (two jamo) make a run that is spelled.
        assert {"\u0301", "\uac00"} <= set(spelled)
        assert not {"a", "\u00e9", "\u0130", "\u00a0", "\x00"} & set(spelled)

    def test_only_runs_holding_a_bare_mark_are_spelled(self, monkeypatch):
        spelled = []
        spell = normalize._spell
        monkeypatch.setattr(
            normalize, "_spell", lambda raw, start, end: spelled.append(raw[start:end]) or spell(raw, start, end)
        )
        raw = unicodedata.normalize("NFD", "fièvre aigue")
        assert tokenize(raw).tokens == ("fievre", "aigue")
        assert spelled == [raw[:7]]
        # A spelled run is checked against the stopwords again: "dé" spells "de".
        spelled.clear()
        raw = unicodedata.normalize("NFD", "fièvre dé aigue")
        assert tokenize(raw).tokens == ("fievre", "aigue")
        assert spelled == [raw[:7], raw[8:11]]

    def test_trailing_marks_stay_in_the_span(self):
        raw = unicodedata.normalize("NFD", "fièvre aiguë fébrilité")
        got = tokenize(raw)
        assert got.tokens == ("fievre", "aigue", "febrilite")
        spans = [unicodedata.normalize("NFC", raw[start:end]) for start, end in got.offsets]
        assert spans == ["fièvre", "aiguë", "fébrilité"]

    @pytest.mark.parametrize(
        "raw, offsets", [("a \u0301b", ((0, 1), (3, 4))), ("a -\u0301b\u0301", ((0, 1), (4, 6)))]
    )
    def test_a_mark_after_a_space_stays_out_of_the_span(self, raw, offsets):
        got = tokenize(raw, NormalizationConfig(stopwords=frozenset()))
        assert got.tokens == ("a", "b")
        assert got.offsets == offsets

    @pytest.mark.parametrize("raw", ["\u0301", "\u0301\u0301", "\uac00\uac00", "\ufb01x", "\u0130\u00df"])
    def test_alone_and_doubled(self, raw):
        cfg = NormalizationConfig(stopwords=frozenset())
        got = tokenize(raw, cfg)
        assert (got.tokens, got.offsets) == reference_tokenize(raw)

    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(),
                st.sampled_from(
                    ["\u0301", "\u0130", "\u00df", "\ufb01", "\u00a0", "\u00e9", "\u00cb", "\uac00", "d", "l", "e", " "]
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_mixed_text_equals_reference(self, raw):
        cfg = NormalizationConfig()  # "d", "l" and "de" are default stopwords
        for text in (raw, unicodedata.normalize("NFD", raw)):  # decomposed: marks stand alone
            got = tokenize(text, cfg)
            assert (got.tokens, got.offsets) == reference_tokenize(text, cfg.stopwords)

    def test_translate_table_stays_bounded(self):
        raw = "".join(map(chr, range(0x4E00, 0x4E00 + 100_000)))  # CJK and on: 100k distinct
        got = tokenize(raw, NormalizationConfig(stopwords=frozenset()))
        assert len(normalize._FRAGMENTS) <= normalize._TABLE_SIZE
        assert (got.tokens, got.offsets) == reference_tokenize(raw)
        # The table still serves lines after it was emptied.
        assert tokenize("AVC massif").offsets == ((0, 3), (4, 10))


class TestLabelTokens:
    """``label_tokens`` gives ``tokenize(...).tokens`` without the offsets, by a
    whitespace split or, on a line that holds a bare mark or a many-letter
    character, by ``tokenize`` itself."""

    CONFIGS = (NormalizationConfig(), NormalizationConfig(stopwords=frozenset()))

    def check(self, raw):
        for cfg in self.CONFIGS:
            got = label_tokens(raw, cfg)
            assert got == tokenize(raw, cfg).tokens
            assert got == reference_tokenize(raw, cfg.stopwords)[0]

    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(),
                st.sampled_from(
                    ["\u0301", "\u0130", "\u00df", "\ufb01", "\u00a0", "\u00e9", "\u00cb", "\uac00", "d", "l", "e", " "]
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_mixed_text_equals_tokenize_and_reference(self, raw):
        for form in ("NFC", "NFD"):  # decomposed: marks stand alone and are spelled
            self.check(unicodedata.normalize(form, raw))

    @pytest.mark.parametrize("raw", ["\u0301", "\u0301\u0301", "\uac00\uac00", "\ufb01x", "\u0130\u00df"])
    def test_alone_and_doubled(self, raw):
        self.check(raw)

    def test_every_whitespace_character_splits_as_tokenize(self):
        spaces = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]
        assert len(spaces) > 20
        for space in spaces:
            self.check("ab" + space + "cd de" + space)

    def test_default_config(self):
        assert label_tokens("SYNDROME DE GLISEMENT") == ("syndrome", "glisement")


class TestStopwords:
    def test_default_list_has_25_entries(self):
        assert len(default_stopwords()) == 25

    def test_default_entries_are_their_own_normalization(self):
        for word in default_stopwords():
            assert normalize_text(word) == word

    def test_is_stopword(self):
        stopwords = NormalizationConfig().stopwords
        assert "de" in stopwords
        assert "" not in stopwords
        assert "cardiaque" not in stopwords

    def test_load_stopwords_without_path_reads_built_in_list(self):
        assert load_stopwords() == default_stopwords()

    def test_load_stopwords_normalizes_and_skips_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nDès\n\npour\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"des", "pour"})

    def test_byte_order_mark_does_not_hide_first_comment(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("\ufeff# French stopwords\nde\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"de"})
