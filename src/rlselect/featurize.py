"""Static-analysis featurization: opcode letters, n-gram vocabularies, declared-name vectors.

The pipeline starts from already-disassembled text: one mnemonic per line for
the opcode stream, one permission/intent string per line for the declared
names. Dalvik mnemonics are first collapsed to a 7-letter alphabet, the letter
stream is cut into n-grams, and a sample is vectorized by gram presence
against a top-k vocabulary built from the malware corpus only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureDictionary

ALPHABET = "MRGITPV"


class VocabularyError(ValueError):
    """Not enough distinct n-grams to build the requested vocabulary."""


@dataclass(frozen=True)
class OpcodeAlphabetMap:
    """Ordered (pattern, letter) rules mapping Dalvik mnemonics to alphabet letters.

    A rule matches a mnemonic either exactly or as a prefix; exact matches win,
    then the longest matching prefix. Mnemonics no rule matches are dropped.
    """

    rules: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for pattern, letter in self.rules:
            if letter not in ALPHABET:
                raise ValueError(f"letter {letter!r} not in alphabet {ALPHABET}")
            if not pattern:
                raise ValueError("empty rule pattern")

    def letter_for(self, mnemonic: str) -> str | None:
        best = None
        best_len = -1
        for pattern, letter in self.rules:
            if mnemonic == pattern:
                return letter
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
    """Collapse a mnemonic stream to its letter string, skipping unmatched mnemonics."""
    out = []
    for m in mnemonics:
        letter = alphabet_map.letter_for(m)
        if letter is not None:
            out.append(letter)
    return "".join(out)


def extract_ngrams(letters: str, n: int) -> Counter:
    """All contiguous length-n substrings with multiplicity; empty if the input is shorter than n."""
    if n <= 0:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(letters[i : i + n] for i in range(len(letters) - n + 1))


@dataclass(frozen=True)
class NGramVocabulary:
    """The k most frequent n-grams of the (malware) corpus, in rank order."""

    n: int
    grams: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(set(self.grams)) != len(self.grams):
            raise ValueError("vocabulary grams must be unique")
        for g in self.grams:
            if len(g) != self.n or any(ch not in ALPHABET for ch in g):
                raise ValueError(f"gram {g!r} is not a length-{self.n} string over {ALPHABET}")

    @property
    def k(self) -> int:
        return len(self.grams)


def build_vocabulary(corpora, n: int, k: int) -> NGramVocabulary:
    """Top-k n-grams aggregated over the corpora; frequency ties break lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    totals: Counter = Counter()
    for letters in corpora:
        totals.update(extract_ngrams(letters, n))
    if len(totals) < k:
        raise VocabularyError(
            f"only {len(totals)} distinct {n}-grams available, need k={k}"
        )
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return NGramVocabulary(n, tuple(g for g, _ in ranked[:k]))


def vectorize_ngrams(letters: str, vocab: NGramVocabulary) -> np.ndarray:
    """Presence bit per vocabulary gram (containment, not count)."""
    present = extract_ngrams(letters, vocab.n)
    return np.array([1 if g in present else 0 for g in vocab.grams], dtype=np.uint8)


def vectorize_declared(names, dictionary: FeatureDictionary, category: str) -> tuple[np.ndarray, int]:
    """Presence bits over the dictionary's entries of one category.

    Returns (bits, unknown_count): names without a dictionary entry in this
    category are ignored but counted.
    """
    positions = dictionary.category_indices(category)
    lookup = {dictionary.names[i]: slot for slot, i in enumerate(positions)}
    bits = np.zeros(len(positions), dtype=np.uint8)
    unknown = 0
    for name in names:
        slot = lookup.get(name)
        if slot is None:
            unknown += 1
        else:
            bits[slot] = 1
    return bits, unknown
