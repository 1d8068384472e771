import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termcoder.normalize import (
    NormalizationConfig,
    default_stopwords,
    load_stopwords,
    normalize_text,
    tokenize,
)


def reference_normalize(raw: str) -> str:
    """Character-by-character oracle: lowercase, NFD minus marks, punct -> space."""
    out = []
    for ch in unicodedata.normalize("NFD", raw.lower()):
        if unicodedata.category(ch) == "Mn":
            continue
        out.append(ch if ch.isspace() or ch.isalnum() else " ")
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
