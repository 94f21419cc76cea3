"""Static-analysis featurization: opcode letters, n-gram vocabularies, declared-name vectors.

The pipeline starts from already-disassembled text: one mnemonic per line for
the opcode stream, one permission/intent string per line for the declared
names. Dalvik mnemonics are first collapsed to a 7-letter alphabet, the letter
stream is cut into n-grams, and a sample is vectorized by gram presence
against a top-k vocabulary built from the malware corpus only.

Each opcode map memoizes the letter of every distinct raw line it has seen
and strips a line only on its first sight, so a corpus costs one strip and
one rule scan per distinct line, not per line; surrounding whitespace never
reaches the rules.
N-grams are counted as int64 codes: a letter is its digit 0-6 in sorted
letter order (``GIMPRTV``) and a window is its base-7 value, so numeric code
order is lexicographic gram order. The codes are exact up to
``MAX_NGRAM_N`` = 22 (7**22 < 2**63 < 7**23); a larger n is rejected. The
output is the same as counting string slices.

For n <= 6 the whole code space (7**n <= ``_DENSE_CODES`` = 2**17 codes) is
held densely. ``build_vocabulary`` adds each sample's windows into one count
per code, so it never holds the windows of the whole corpus at once. A
vocabulary keeps a dense int32 table of each code's rank, -1 outside the
vocabulary, so a sample's ranks are one gather; the bound keeps that table at
most 512 KiB, since 7**7 codes would take 3.3 MB and 7**22 could not be held
at all. For larger n the counts come from ``np.unique`` and the ranks from a
binary search of the vocabulary's sorted codes.

``cmd_featurize`` is the driver: it reads a directory of disassembled
samples and writes the matrix CSV, with permission columns first, then
intents, then n-grams. It reads and maps each sample once, sets the
declared bits of every sample in one assignment through a name-to-column
map, and takes each sample's n-gram bits from ``vectorize_ngrams``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, _count
from .dataset import FeatureDictionary, SampleMatrix, save_csv

ALPHABET = "MRGITPV"
MAX_NGRAM_N = 22  # the largest n whose base-7 window codes fit in int64
_DENSE_CODES = 1 << 17  # the largest code space held as a dense rank table: 7**n for n <= 6

# byte -> digit of its letter in sorted order; 255 marks a byte outside the alphabet
_SORTED_LETTERS = "".join(sorted(ALPHABET))
_DIGIT_OF = bytes(
    _SORTED_LETTERS.index(chr(b)) if chr(b) in ALPHABET else 255 for b in range(256)
)
_LETTER_OF = np.frombuffer(_SORTED_LETTERS.encode("ascii"), dtype=np.uint8)
_POWERS = 7 ** np.arange(MAX_NGRAM_N - 1, -1, -1, dtype=np.int64)


class VocabularyError(ValueError):
    """Not enough distinct n-grams to build the requested vocabulary."""


class _LetterMemo(dict):
    """raw line -> letter of its stripped mnemonic, or "" for none; filled on first lookup."""

    def __init__(self, alphabet_map: "OpcodeAlphabetMap"):
        super().__init__()
        self.alphabet_map = alphabet_map

    def __missing__(self, line: str) -> str:
        letter = self[line] = self.alphabet_map.letter_for(line.strip()) or ""
        return letter


@dataclass(frozen=True)
class OpcodeAlphabetMap:
    """Ordered (pattern, letter) rules mapping Dalvik mnemonics to alphabet letters.

    A rule matches a mnemonic that starts with its pattern. The longest matching
    pattern wins, and the earliest rule breaks ties. Mnemonics no rule matches
    are dropped.
    """

    rules: tuple[tuple[str, str], ...]
    # per-instance memo of letter_for, so maps with different rules never share results
    _memo: _LetterMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for pattern, letter in self.rules:
            if letter not in ALPHABET:
                raise ValueError(f"letter {letter!r} not in alphabet {ALPHABET}")
            if not pattern:
                raise ValueError("empty rule pattern")
        object.__setattr__(self, "_memo", _LetterMemo(self))

    def letter_for(self, mnemonic: str) -> str | None:
        best = None
        best_len = -1
        for pattern, letter in self.rules:
            if mnemonic.startswith(pattern) and len(pattern) > best_len:
                best, best_len = letter, len(pattern)
        return best

    @classmethod
    def default(cls) -> "OpcodeAlphabetMap":
        return cls(_DEFAULT_RULES)


# Prefix families: moves, returns, gotos, conditionals, array/instance/static
# loads and stores, invokes. Anything else (nop, const, new-instance, ...) is dropped.
_DEFAULT_RULES = (
    ("move", "M"),
    ("return", "R"),
    ("goto", "G"),
    ("if-", "I"),
    ("aget", "T"),
    ("iget", "T"),
    ("sget", "T"),
    ("aput", "P"),
    ("iput", "P"),
    ("sput", "P"),
    ("invoke-", "V"),
)

DEFAULT_OPCODE_MAP = OpcodeAlphabetMap.default()


def map_dalvik_to_letters(mnemonics, alphabet_map: OpcodeAlphabetMap = DEFAULT_OPCODE_MAP) -> str:
    """Collapse a mnemonic stream to its letter string, skipping unmatched mnemonics.

    Surrounding whitespace of a mnemonic is ignored, so a blank line maps to no letter.
    """
    return "".join(map(alphabet_map._memo.__getitem__, mnemonics))


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_NGRAM_N:
        raise ValueError(f"n must be in 1..{MAX_NGRAM_N}, got {n}")


def _gram_codes(letters: str, n: int) -> np.ndarray:
    """The int64 code of every length-n window of ``letters``, in window order."""
    digits = np.frombuffer(letters.encode("ascii").translate(_DIGIT_OF), dtype=np.uint8)
    if digits.size and digits.max() == 255:
        raise ValueError(f"letters must be drawn from {ALPHABET}")
    count = digits.size - n + 1
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    codes = digits[:count].astype(np.int64)
    for j in range(1, n):
        codes *= 7
        codes += digits[j : j + count]
    return codes


def _decode(codes: np.ndarray, n: int) -> list[str]:
    """The length-n gram of each code."""
    text = _LETTER_OF[codes[:, None] // _POWERS[-n:] % 7].tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def extract_ngrams(letters: str, n: int) -> Counter:
    """All contiguous length-n substrings with multiplicity; empty if the input is shorter than n."""
    _check_n(n)
    codes, first, counts = np.unique(_gram_codes(letters, n), return_index=True, return_counts=True)
    order = np.argsort(first)  # grams in order of first occurrence, as counting slices inserts them
    return Counter(dict(zip(_decode(codes[order], n), counts[order].tolist())))


@dataclass(frozen=True)
class NGramVocabulary:
    """The k most frequent n-grams of the (malware) corpus, in rank order."""

    n: int
    grams: tuple[str, ...]
    # the lookup of vectorize_ngrams: the rank of every code (-1 outside the vocabulary) when
    # the code space is at most _DENSE_CODES, else the gram codes in ascending order and their ranks
    _rank_of: np.ndarray | None = field(init=False, repr=False, compare=False)
    _sorted_codes: np.ndarray | None = field(init=False, repr=False, compare=False)
    _ranks: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_n(self.n)
        if len(set(self.grams)) != len(self.grams):
            raise ValueError("vocabulary grams must be unique")
        for g in self.grams:
            if len(g) != self.n or any(ch not in ALPHABET for ch in g):
                raise ValueError(f"gram {g!r} is not a length-{self.n} string over {ALPHABET}")
        codes = _gram_codes("".join(self.grams), self.n)[:: self.n]
        rank_of = sorted_codes = ranks = None
        if 7**self.n <= _DENSE_CODES:
            rank_of = np.full(7**self.n, -1, dtype=np.int32)
            rank_of[codes] = np.arange(codes.size, dtype=np.int32)
        else:
            ranks = np.argsort(codes)
            sorted_codes = codes[ranks]
        object.__setattr__(self, "_rank_of", rank_of)
        object.__setattr__(self, "_sorted_codes", sorted_codes)
        object.__setattr__(self, "_ranks", ranks)

    @property
    def k(self) -> int:
        return len(self.grams)


def _window_counts(corpora, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every n-gram code that occurs in the corpora, ascending, and the number of its windows."""
    if 7**n <= _DENSE_CODES:  # the code space is small enough to count every code in place
        counts = np.zeros(7**n, dtype=np.int64)
        for letters in corpora:  # one sample's windows at a time
            np.add.at(counts, _gram_codes(letters, n), 1)
        codes = np.flatnonzero(counts)
        return codes, counts[codes]
    # the leading empty array keeps an empty corpus list valid for concatenate
    windows = np.concatenate([np.zeros(0, np.int64)] + [_gram_codes(letters, n) for letters in corpora])
    return np.unique(windows, return_counts=True)


def build_vocabulary(corpora, n: int, k: int) -> NGramVocabulary:
    """Top-k n-grams aggregated over the corpora; frequency ties break lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_n(n)
    codes, counts = _window_counts(corpora, n)
    if codes.size < k:
        raise VocabularyError(
            f"only {codes.size} distinct {n}-grams available, need k={k}"
        )
    # codes ascend in gram order, so a stable sort by count breaks ties lexicographically
    top = codes[np.argsort(-counts, kind="stable")[:k]]
    return NGramVocabulary(n, tuple(_decode(top, n)))


def vectorize_ngrams(letters: str, vocab: NGramVocabulary) -> np.ndarray:
    """Presence bit per vocabulary gram (containment, not count)."""
    codes = _gram_codes(letters, vocab.n)
    bits = np.zeros(vocab.k, dtype=np.uint8)
    if vocab._rank_of is not None:
        ranks = vocab._rank_of[codes]
        bits[ranks[ranks >= 0]] = 1
        return bits
    table = vocab._sorted_codes
    slots = np.searchsorted(table, codes)
    inside = slots < table.size
    slots = slots[inside]
    hits = slots[table[slots] == codes[inside]]
    bits[vocab._ranks[hits]] = 1
    return bits


def vectorize_declared(names, dictionary: FeatureDictionary, category: str) -> tuple[np.ndarray, int]:
    """Presence bits over the dictionary's entries of one category.

    Returns (bits, unknown_count): names without a dictionary entry in this
    category are ignored but counted.
    """
    slots = dictionary.category_slots(category)
    bits = np.zeros(len(slots), dtype=np.uint8)
    unknown = 0
    for name in names:
        slot = slots.get(name)
        if slot is None:
            unknown += 1
        else:
            bits[slot] = 1
    return bits, unknown


def cmd_featurize(inputs_dir, ngram_n: int, ngram_k: int, out_csv) -> SampleMatrix:
    """Run the featurization pipeline over a directory of disassembled samples.

    Layout: ``<inputs_dir>/malware/*.opcodes`` and ``<inputs_dir>/benign/*.opcodes``,
    each with a sibling ``<sample>.names`` file. Opcode files hold one Dalvik
    mnemonic per line; names files hold one declared permission or intent
    string per line (intents are recognized by an ``.intent.`` substring).
    The n-gram vocabulary is built from the malware samples only. Both kinds
    of file are UTF-8; a byte-order mark at the start of one is skipped.
    ``ngram_n`` (1..``MAX_NGRAM_N``) and ``ngram_k`` (>= 1) are checked before any
    file is read, as a ``ConfigError`` led by the parameter's name.
    """
    _count("ngram_n", ngram_n, 1)
    if ngram_n > MAX_NGRAM_N:
        raise ConfigError(f"ngram_n: must be <= {MAX_NGRAM_N}, got {ngram_n!r}")
    _count("ngram_k", ngram_k, 1)
    root = Path(inputs_dir)
    samples: list[tuple[int, Path, Path]] = []  # (label, opcodes, names)
    for label_dir, label in (("benign", 0), ("malware", 1)):
        d = root / label_dir
        if not d.is_dir():
            raise FileNotFoundError(f"missing input directory {d}")
        for opc in sorted(d.glob("*.opcodes"), key=lambda path: path.name):
            names_file = opc.with_suffix(".names")
            if not names_file.exists():
                raise FileNotFoundError(f"{opc} has no matching names file {names_file}")
            samples.append((label, opc, names_file))
    if not samples:
        raise FileNotFoundError(f"no samples under {root} (expected *.opcodes files)")

    # per sample, in sample order: a malware and a benign file may share a stem
    letters = []
    declared = []
    for _, opc, names_file in samples:
        # the memo strips a line on its first sight only
        letters.append(map_dalvik_to_letters(opc.read_text(encoding="utf-8-sig").splitlines(), DEFAULT_OPCODE_MAP))
        lines = names_file.read_text(encoding="utf-8-sig").splitlines()
        declared.append([name for name in map(str.strip, lines) if name])

    malware_letters = [s for s, (label, _, _) in zip(letters, samples) if label == 1]
    if not malware_letters:
        raise FileNotFoundError(f"no malware samples under {root}/malware")
    try:
        vocab = build_vocabulary(malware_letters, ngram_n, ngram_k)
    except ValueError as exc:
        raise ValueError(f"{root}/malware: {exc}") from exc

    def is_intent(declared_name: str) -> bool:
        return ".intent." in declared_name

    perm_names = sorted({n for ns in declared for n in ns if not is_intent(n)})
    intent_names = sorted({n for ns in declared for n in ns if is_intent(n)})

    names = tuple(perm_names) + tuple(intent_names) + tuple(vocab.grams)
    categories = (
        ("permission",) * len(perm_names)
        + ("intent",) * len(intent_names)
        + ("ngram",) * len(vocab.grams)
    )
    dictionary = FeatureDictionary(names, categories)

    # every declared name has a column: permissions first, then intents
    perm_slots = dictionary.category_slots("permission")
    column_of = dict(perm_slots)
    column_of.update((name, len(perm_slots) + slot) for name, slot in dictionary.category_slots("intent").items())
    rows = np.zeros((len(samples), len(names)), dtype=np.uint8)
    rows[
        np.repeat(np.arange(len(samples)), [len(ns) for ns in declared]),
        [column_of[name] for ns in declared for name in ns],
    ] = 1
    for row, sample_letters in zip(rows[:, len(column_of):], letters):
        row[:] = vectorize_ngrams(sample_letters, vocab)
    labels = np.array([label for label, _, _ in samples], dtype=np.uint8)

    matrix = SampleMatrix(dictionary, rows, labels)
    out_path = Path(out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(matrix, out_path)
    return matrix
