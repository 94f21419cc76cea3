import codecs
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from rlselect import featurize
from rlselect.dataset import FeatureDictionary, SampleMatrix, load_csv, save_csv
from rlselect.featurize import (
    ALPHABET,
    DEFAULT_OPCODE_MAP,
    MAX_NGRAM_N,
    NGramVocabulary,
    OpcodeAlphabetMap,
    VocabularyError,
    build_vocabulary,
    cmd_featurize,
    extract_ngrams,
    map_dalvik_to_letters,
    vectorize_declared,
    vectorize_ngrams,
)

PINNED_CORPUS = Path(__file__).parent / "pinned" / "corpus"
SRC = Path(__file__).resolve().parents[1] / "src"


# String-slice reference implementations: the definitions the int64-code
# functions of the module must reproduce.


def ref_extract_ngrams(letters: str, n: int) -> Counter:
    return Counter(letters[i : i + n] for i in range(len(letters) - n + 1))


def ref_build_vocabulary(corpora, n: int, k: int) -> tuple[str, ...]:
    totals: Counter = Counter()
    for letters in corpora:
        totals.update(ref_extract_ngrams(letters, n))
    if len(totals) < k:
        raise VocabularyError(f"only {len(totals)} distinct {n}-grams available, need k={k}")
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return tuple(g for g, _ in ranked[:k])


def ref_vectorize_ngrams(letters: str, grams, n: int) -> list[int]:
    present = ref_extract_ngrams(letters, n)
    return [1 if g in present else 0 for g in grams]


# Letter strings over the alphabet; drawing from a prefix of it makes repeats
# and frequency ties common.
letter_strings = st.integers(1, len(ALPHABET)).flatmap(
    lambda width: st.text(ALPHABET[:width], max_size=40)
)
ngram_n = st.integers(1, MAX_NGRAM_N)


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


class TestMemoizedMapping:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_memo_equals_letter_for(self, data):
        text = st.text("ab-", min_size=1, max_size=4)
        rules = data.draw(st.lists(st.tuples(text, st.sampled_from(ALPHABET)), min_size=1, max_size=8))
        alphabet_map = OpcodeAlphabetMap(tuple(rules))
        # a mnemonic's surrounding whitespace is ignored, also inside a list
        padding = st.text(" \t\xa0\u2003", max_size=2)
        padded = st.builds("{}{}{}".format, padding, st.text("ab-", max_size=6), padding)
        mnemonics = data.draw(st.lists(padded, max_size=30))
        expected = "".join(alphabet_map.letter_for(m.strip()) or "" for m in mnemonics)
        assert map_dalvik_to_letters(mnemonics, alphabet_map) == expected
        # a second pass answers from the memo
        assert map_dalvik_to_letters(mnemonics, alphabet_map) == expected

    def test_maps_with_different_rules_do_not_share_results(self):
        first = OpcodeAlphabetMap((("move", "M"),))
        second = OpcodeAlphabetMap((("move", "R"), ("goto", "G")))
        stream = ["move", "goto", "nop", "move"]
        for _ in range(2):
            assert map_dalvik_to_letters(stream, first) == "MM"
            assert map_dalvik_to_letters(stream, second) == "RGR"
            assert map_dalvik_to_letters(stream) == "MGM"

    def test_memo_does_not_change_equality_or_hash(self):
        used = OpcodeAlphabetMap((("move", "M"),))
        map_dalvik_to_letters(["move", "nop"], used)
        fresh = OpcodeAlphabetMap((("move", "M"),))
        assert used == fresh
        assert hash(used) == hash(fresh)

    def test_blank_mnemonic_maps_to_nothing(self):
        assert map_dalvik_to_letters(["", "move", ""]) == "M"


class TestWindowCounts:
    @pytest.mark.parametrize("n", range(1, 8))  # n <= 6 counts in place, n = 7 sorts its windows
    def test_counts_equal_the_concatenated_bincount(self, n):
        rng = np.random.default_rng(n)
        corpora = ["".join(rng.choice(list(ALPHABET), size=int(size))) for size in rng.integers(0, 400, size=12)]
        counts = np.bincount(np.concatenate([featurize._gram_codes(letters, n) for letters in corpora]))
        codes = np.flatnonzero(counts)
        got_codes, got_counts = featurize._window_counts(corpora, n)
        assert np.array_equal(got_codes, codes) and np.array_equal(got_counts, counts[codes])

    def test_dense_count_holds_one_sample_of_windows(self):
        # 40 samples of 20k letters: their windows together take 6.1 MiB as int64, the 7**6 counts 0.9 MiB;
        # two letters make 64 distinct grams, so the codes and counts returned are small
        rng = np.random.default_rng(0)
        corpora = ["".join(rng.choice(list("MR"), size=20_000)) for _ in range(40)]
        assert traced(lambda: featurize._window_counts(corpora, 6))[2] < 2 * 2**20


class TestNgramCodesEqualStringReference:
    @settings(max_examples=400, deadline=None)
    @given(letter_strings, ngram_n)
    def test_extract_ngrams(self, letters, n):
        # same grams, counts and insertion (first-occurrence) order
        assert list(extract_ngrams(letters, n).items()) == list(ref_extract_ngrams(letters, n).items())

    @settings(max_examples=400, deadline=None)
    @given(st.lists(letter_strings, max_size=6), ngram_n, st.integers(1, 12))
    def test_build_vocabulary(self, corpora, n, k):
        try:
            expected = ref_build_vocabulary(corpora, n, k)
        except VocabularyError as exc:
            with pytest.raises(VocabularyError) as got:
                build_vocabulary(corpora, n, k)
            assert str(got.value) == str(exc)
            return
        vocab = build_vocabulary(corpora, n, k)
        assert vocab.grams == expected
        assert vocab.n == n

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.lists(letter_strings, max_size=4), letter_strings, ngram_n)
    def test_vectorize_ngrams(self, data, corpora, sample, n):
        # the sample's own grams join the pool so hits are common; rank order is arbitrary
        pool = sorted({g for s in corpora + [sample] for g in ref_extract_ngrams(s, n)})
        grams = data.draw(st.permutations(pool))
        grams = grams[: data.draw(st.integers(0, len(grams)))]
        vocab = NGramVocabulary(n, tuple(grams))
        assert vectorize_ngrams(sample, vocab).tolist() == ref_vectorize_ngrams(sample, vocab.grams, n)

    def test_dense_rank_table_up_to_n6(self):
        # test_vectorize_ngrams draws n from 1..22, so it checks the table and the sorted lookup
        assert NGramVocabulary(6, ("M" * 6,))._rank_of.size == 7**6
        assert NGramVocabulary(7, ("M" * 7,))._rank_of is None

    def test_string_shorter_than_n(self):
        vocab = NGramVocabulary(3, ("MMR",))
        assert extract_ngrams("MM", 3) == {}
        assert vectorize_ngrams("MM", vocab).tolist() == [0]
        assert vectorize_ngrams("", vocab).tolist() == [0]

    def test_longest_n_is_exact(self):
        # the largest gram (all V) has the largest code, 7**22 - 1, which fits in int64
        top = "V" * MAX_NGRAM_N
        letters = top + "G" * MAX_NGRAM_N
        assert extract_ngrams(letters, MAX_NGRAM_N) == ref_extract_ngrams(letters, MAX_NGRAM_N)
        vocab = build_vocabulary([letters], MAX_NGRAM_N, MAX_NGRAM_N + 1)
        assert vocab.grams[0] == "G" * MAX_NGRAM_N
        assert vocab.grams[-1] == top
        assert vectorize_ngrams(top, vocab).tolist() == [0] * MAX_NGRAM_N + [1]

    def test_letters_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="letters must be drawn"):
            extract_ngrams("MMX", 2)
        with pytest.raises(ValueError):
            build_vocabulary(["MM\x00M"], 2, 1)


class TestNgramLimit:
    def test_extract_ngrams_names_n(self):
        with pytest.raises(ValueError, match="23"):
            extract_ngrams("M" * 30, MAX_NGRAM_N + 1)

    def test_build_vocabulary_names_n(self):
        with pytest.raises(ValueError, match="23"):
            build_vocabulary(["M" * 30], MAX_NGRAM_N + 1, 1)

    def test_vocabulary_names_n(self):
        with pytest.raises(ValueError, match="23"):
            NGramVocabulary(MAX_NGRAM_N + 1, ("M" * (MAX_NGRAM_N + 1),))

    def test_cmd_featurize_rejects_before_reading_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="23"):
            cmd_featurize(tmp_path / "missing", MAX_NGRAM_N + 1, 4, tmp_path / "f.csv")
        assert not (tmp_path / "f.csv").exists()


class TestCmdFeaturizeCallPattern:
    """The per-layer spans of the benchmark wrap these module globals; cmd_featurize must call them."""

    def test_per_sample_calls_through_module_globals(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(featurize, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(featurize, name, wrapper)

        for name in ("map_dalvik_to_letters", "build_vocabulary", "vectorize_ngrams"):
            counted(name)
        matrix = cmd_featurize(PINNED_CORPUS, 2, 8, tmp_path / "f.csv")
        samples = len(list(PINNED_CORPUS.glob("*/*.opcodes")))
        assert matrix.n_samples == samples
        assert calls == {"map_dalvik_to_letters": samples, "build_vocabulary": 1, "vectorize_ngrams": samples}
        assert load_csv(tmp_path / "f.csv").dictionary == matrix.dictionary


# Lines of the random corpora: mnemonics and declared names padded with
# whitespace, blank lines, and every kind of line break str.splitlines knows.
_PADDING = st.text(" \t\xa0\u2003", max_size=2)
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"])
_MNEMONICS = (
    "move", "move-result", "return-void", "goto", "if-eqz", "iget", "aput", "invoke-virtual", "nop", "const/4", "",
)
_DECLARED = ("android.permission.SEND_SMS", "android.permission.INTERNET", "com.ex.permission.X Y",
             "android.intent.action.MAIN", "android.intent.action.BOOT_COMPLETED", "")


def _lines(words):
    """Text of padded ``words``, each but the last followed by a random line break.

    An empty last word ends the text with a break.
    """
    line = st.builds("{}{}{}".format, _PADDING, st.sampled_from(words), _PADDING)
    return st.builds(str.__add__, st.lists(st.builds(str.__add__, line, _BREAKS), max_size=30).map("".join), line)


_SAMPLE = st.tuples(_lines(_MNEMONICS), _lines(_DECLARED))


def reference_matrix(samples, n: int, k: int) -> SampleMatrix:
    """The matrix of ``samples`` ((label, opcode text, names text), in file order) by the string references."""
    letters = ["".join(DEFAULT_OPCODE_MAP.letter_for(line.strip()) or "" for line in opcodes.splitlines())
               for _, opcodes, _ in samples]
    declared = [{line.strip() for line in names.splitlines()} - {""} for _, _, names in samples]
    grams = ref_build_vocabulary([s for s, (label, _, _) in zip(letters, samples) if label == 1], n, k)
    perms = sorted({d for ds in declared for d in ds if ".intent." not in d})
    intents = sorted({d for ds in declared for d in ds if ".intent." in d})
    rows = [[int(d in ds) for d in perms + intents] + ref_vectorize_ngrams(s, grams, n)
            for s, ds in zip(letters, declared)]
    categories = ("permission",) * len(perms) + ("intent",) * len(intents) + ("ngram",) * len(grams)
    X = np.array(rows, dtype=np.uint8).reshape(len(samples), -1)
    return SampleMatrix(FeatureDictionary(tuple(perms + intents) + grams, categories), X, [s[0] for s in samples])


class TestCmdFeaturizeEqualsStringReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_SAMPLE, min_size=1, max_size=3), st.lists(_SAMPLE, max_size=3),
           st.integers(1, 3), st.integers(1, 4))
    def test_csv_bytes(self, malware, benign, n, k):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            samples = []
            for label_dir, label, drawn in (("benign", 0, benign), ("malware", 1, malware)):
                (root / label_dir).mkdir()
                for i, (opcodes, names) in enumerate(drawn):  # stems sort as the drawn order
                    stem = root / label_dir / f"s{i}"
                    stem.with_suffix(".opcodes").write_bytes(opcodes.encode("utf-8"))
                    stem.with_suffix(".names").write_bytes(names.encode("utf-8"))
                    samples.append((label, opcodes, names))
            try:
                expected = reference_matrix(samples, n, k)
            except VocabularyError as exc:
                with pytest.raises(ValueError) as got:
                    cmd_featurize(root, n, k, root / "f.csv")
                assert str(got.value) == f"{root}/malware: {exc}"
                return
            save_csv(expected, root / "expected.csv")
            cmd_featurize(root, n, k, root / "f.csv")
            assert (root / "f.csv").read_bytes() == (root / "expected.csv").read_bytes()


_FEATURIZE_AND_LOAD = """
import locale, sys
from rlselect.dataset import load_csv
from rlselect.featurize import cmd_featurize
matrix = cmd_featurize(sys.argv[1], 2, 3, sys.argv[2])
assert load_csv(sys.argv[2]).dictionary == matrix.dictionary
print(locale.getpreferredencoding(False))
"""


class TestUtf8Files:
    """Inputs and the CSV are UTF-8 whatever the locale's encoding."""

    NAME = "com.ex\u00e4mple.permission.X"

    def featurize(self, corpus, out, **env):
        """Featurize ``corpus`` to ``out`` and load it back in a fresh process; its locale encoding and the CSV bytes."""
        result = subprocess.run(
            [sys.executable, "-c", _FEATURIZE_AND_LOAD, str(corpus), str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC), **env), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip(), out.read_bytes()

    @pytest.mark.parametrize("marked", [".opcodes", ".names"])
    def test_byte_order_mark_is_not_read_as_data(self, tmp_path, marked):
        # two mnemonics a file, so a lost first mnemonic loses the file's one bigram;
        # a BOM read as data would also make a second SEND_SMS permission
        matrices = []
        for name, bom in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            for label, stem, opcodes in (("malware", "m0", "move\ngoto\n"), ("malware", "m1", "goto\nreturn\n"),
                                         ("benign", "b0", "return\nmove\n")):
                sample = tmp_path / name / label / stem
                sample.parent.mkdir(parents=True, exist_ok=True)
                texts = {".opcodes": opcodes, ".names": "android.permission.SEND_SMS\nandroid.intent.action.MAIN\n"}
                for suffix, text in texts.items():
                    sample.with_suffix(suffix).write_bytes((bom if suffix == marked else b"") + text.encode("utf-8"))
            matrices.append(cmd_featurize(tmp_path / name, 2, 2, tmp_path / f"{name}.csv"))
        plain, marked = matrices
        assert marked.dictionary == plain.dictionary
        assert np.array_equal(marked.X, plain.X) and np.array_equal(marked.y, plain.y)
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_featurize_and_load_under_an_ascii_locale(self, tmp_path):
        corpus = tmp_path / "corpus"
        for label, stem in (("malware", "m0"), ("malware", "m1"), ("benign", "b0")):
            (corpus / label).mkdir(parents=True, exist_ok=True)
            (corpus / label / f"{stem}.opcodes").write_text("move\ninvoke-direct\nreturn\nmove\ngoto\n", encoding="utf-8")
            (corpus / label / f"{stem}.names").write_text(f"{self.NAME}\nandroid.intent.action.MAIN\n", encoding="utf-8")
        encoding, written = self.featurize(
            corpus, tmp_path / "c.csv", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C"
        )
        if codecs.lookup(encoding).name == "utf-8":
            pytest.skip("the C locale is UTF-8 here")
        _, utf8_written = self.featurize(corpus, tmp_path / "utf8.csv", PYTHONUTF8="1")
        assert written == utf8_written
        assert f"perm:{self.NAME}".encode("utf-8") in written
