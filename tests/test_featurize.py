import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlselect.dataset import FeatureDictionary
from rlselect.featurize import (
    ALPHABET,
    DEFAULT_OPCODE_MAP,
    NGramVocabulary,
    OpcodeAlphabetMap,
    VocabularyError,
    build_vocabulary,
    extract_ngrams,
    map_dalvik_to_letters,
    vectorize_declared,
    vectorize_ngrams,
)


class TestOpcodeMapping:
    @pytest.mark.parametrize(
        "mnemonic,letter",
        [
            ("invoke-direct", "V"),
            ("invoke-virtual/range", "V"),
            ("return-void", "R"),
            ("return", "R"),
            ("goto/16", "G"),
            ("goto", "G"),
            ("if-eq", "I"),
            ("if-lez", "I"),
            ("aget-object", "T"),
            ("iget", "T"),
            ("sget-boolean", "T"),
            ("aput", "P"),
            ("iput-wide", "P"),
            ("sput", "P"),
            ("move", "M"),
            ("move/16", "M"),
            ("move-result", "M"),
        ],
    )
    def test_table_rows(self, mnemonic, letter):
        assert map_dalvik_to_letters([mnemonic]) == letter

    def test_stream_preserves_order(self):
        assert map_dalvik_to_letters(["return-void", "goto/16"]) == "RG"

    def test_unmatched_mnemonics_dropped(self):
        assert map_dalvik_to_letters(["nop"]) == ""
        assert map_dalvik_to_letters(["const/4", "move", "new-instance"]) == "M"

    def test_exact_rule_beats_prefix(self):
        custom = OpcodeAlphabetMap((("move", "M"), ("move-result", "R")))
        assert custom.letter_for("move-result") == "R"
        assert custom.letter_for("move-wide") == "M"

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_longest_pattern_wins_earliest_rule_on_ties(self, data):
        # a two-character alphabet makes shared prefixes, duplicates and exact matches common
        text = st.text("ab", min_size=1, max_size=4)
        rules = data.draw(st.lists(st.tuples(text, st.sampled_from(ALPHABET)), min_size=1, max_size=8))
        mnemonic = data.draw(st.one_of(st.sampled_from([p for p, _ in rules]), st.text("ab", max_size=6)))
        matches = [(-len(p), i, letter) for i, (p, letter) in enumerate(rules) if mnemonic.startswith(p)]
        expected = min(matches)[2] if matches else None
        assert OpcodeAlphabetMap(tuple(rules)).letter_for(mnemonic) == expected

    def test_concatenation_homomorphic(self):
        a = ["move", "nop", "if-eq"]
        b = ["invoke-static", "aput"]
        f = map_dalvik_to_letters
        assert f(a + b) == f(a) + f(b)

    def test_output_no_longer_than_input(self):
        stream = ["move", "nop", "const/4", "goto", "return"]
        assert len(map_dalvik_to_letters(stream)) <= len(stream)

    def test_full_alphabet_table(self):
        table = {
            "M": ["move", "move/from16", "move/16", "move-wide", "move-wide/from16",
                  "move-result", "move-wide/16", "move-object", "move-object/from16",
                  "move-object/16"],
            "R": ["return-void", "return", "return-wide", "return-object"],
            "G": ["goto", "goto/16", "goto/32"],
            "I": ["if-eq", "if-ne", "if-lt", "if-ge", "if-gt", "if-le",
                  "if-eqz", "if-nez", "if-ltz", "if-gez", "if-gtz", "if-lez"],
            "T": ["aget", "aget-wide", "aget-object", "aget-boolean", "aget-byte",
                  "aget-char", "aget-short", "iget", "iget-wide", "iget-object",
                  "iget-boolean", "iget-byte", "iget-char", "sget", "sget-wide"],
            "P": ["aput", "aput-wide", "aput-object", "aput-boolean", "aput-byte",
                  "aput-char", "aput-short", "iput", "iput-wide", "iput-object",
                  "iput-boolean", "iput-byte", "iput-char", "sput", "sput-object"],
            "V": ["invoke-virtual", "invoke-super", "invoke-direct", "invoke-static",
                  "invoke-interface", "invoke-virtual/range", "invoke-super/range",
                  "invoke-direct/range"],
        }
        for letter, mnemonics in table.items():
            for m in mnemonics:
                assert DEFAULT_OPCODE_MAP.letter_for(m) == letter, m


class TestExtractNgrams:
    def test_sliding_window(self):
        assert extract_ngrams("MMRV", 2) == {"MM": 1, "MR": 1, "RV": 1}

    def test_short_input_empty(self):
        assert extract_ngrams("V", 2) == {}

    def test_unigrams_count_multiplicity(self):
        assert extract_ngrams("MMM", 1) == {"M": 3}

    def test_bad_n(self):
        with pytest.raises(ValueError):
            extract_ngrams("MM", 0)


class TestBuildVocabulary:
    def test_top_one_by_frequency(self):
        # MM appears twice across the corpora; every other bigram once
        vocab = build_vocabulary(["MMRV", "MMI"], n=2, k=1)
        assert vocab.grams == ("MM",)

    def test_frequency_then_lexicographic(self):
        # MRMR bigrams: MR x2, RM x1
        vocab = build_vocabulary(["MRMR"], n=2, k=2)
        assert vocab.grams == ("MR", "RM")

    def test_tie_broken_lexicographically(self):
        vocab = build_vocabulary(["VG"], n=1, k=2)
        assert vocab.grams == ("G", "V")

    def test_shortfall_raises(self):
        with pytest.raises(VocabularyError, match="1 distinct"):
            build_vocabulary(["MMM"], n=2, k=5)

    def test_corpus_order_invariant(self):
        corpora = ["MMRV", "IGT", "VVM"]
        a = build_vocabulary(corpora, 2, 4)
        b = build_vocabulary(list(reversed(corpora)), 2, 4)
        assert a.grams == b.grams


class TestVectorizeNgrams:
    def test_presence_bits(self):
        vocab = NGramVocabulary(2, ("MM", "RV"))
        assert vectorize_ngrams("MMRV", vocab).tolist() == [1, 1]

    def test_absent_grams(self):
        vocab = NGramVocabulary(2, ("MM", "RV"))
        assert vectorize_ngrams("IG", vocab).tolist() == [0, 0]

    def test_presence_not_count(self):
        vocab = NGramVocabulary(2, ("MM",))
        assert vectorize_ngrams("MMMM", vocab).tolist() == [1]

    def test_monotone_under_append(self):
        vocab = build_vocabulary(["MRGIV"], n=2, k=4)
        base = "MRG"
        v1 = vectorize_ngrams(base, vocab)
        v2 = vectorize_ngrams(base + "IVM", vocab)
        assert np.all(v2 >= v1)


class TestVectorizeDeclared:
    def _dictionary(self):
        return FeatureDictionary(
            ("android.permission.SEND_SMS", "android.permission.INTERNET", "android.intent.action.MAIN"),
            ("permission", "permission", "intent"),
        )

    def test_empty_names(self):
        bits, unknown = vectorize_declared([], self._dictionary(), "permission")
        assert bits.tolist() == [0, 0]
        assert unknown == 0

    def test_all_present(self):
        names = ["android.permission.INTERNET", "android.permission.SEND_SMS"]
        bits, unknown = vectorize_declared(names, self._dictionary(), "permission")
        assert bits.tolist() == [1, 1]
        assert unknown == 0

    def test_unknown_name_counted_not_set(self):
        bits, unknown = vectorize_declared(["android.permission.CAMERA"], self._dictionary(), "permission")
        assert bits.tolist() == [0, 0]
        assert unknown == 1

    def test_category_isolation(self):
        bits, unknown = vectorize_declared(["android.intent.action.MAIN"], self._dictionary(), "intent")
        assert bits.tolist() == [1]
        assert unknown == 0
