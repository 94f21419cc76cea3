"""Static-analysis featurization: opcode letters, n-gram vocabularies, declared-name vectors.

The pipeline starts from already-disassembled text: one mnemonic per line for
the opcode stream, one permission/intent string per line for the declared
names. Dalvik mnemonics are first collapsed to a 7-letter alphabet, the letter
stream is cut into n-grams, and a sample is vectorized by gram presence
against a top-k vocabulary built from the malware corpus only.

``cmd_featurize`` is the driver: it reads a directory of disassembled
samples and writes the matrix CSV, with permission columns first, then
intents, then n-grams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import FeatureDictionary, SampleMatrix, save_csv

ALPHABET = "MRGITPV"


class VocabularyError(ValueError):
    """Not enough distinct n-grams to build the requested vocabulary."""


@dataclass(frozen=True)
class OpcodeAlphabetMap:
    """Ordered (pattern, letter) rules mapping Dalvik mnemonics to alphabet letters.

    A rule matches a mnemonic that starts with its pattern. The longest matching
    pattern wins, and the earliest rule breaks ties. Mnemonics no rule matches
    are dropped.
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


def cmd_featurize(inputs_dir, ngram_n: int, ngram_k: int, out_csv) -> SampleMatrix:
    """Run the featurization pipeline over a directory of disassembled samples.

    Layout: ``<inputs_dir>/malware/*.opcodes`` and ``<inputs_dir>/benign/*.opcodes``,
    each with a sibling ``<sample>.names`` file. Opcode files hold one Dalvik
    mnemonic per line; names files hold one declared permission or intent
    string per line (intents are recognized by an ``.intent.`` substring).
    The n-gram vocabulary is built from the malware samples only.
    """
    root = Path(inputs_dir)
    samples: list[tuple[int, Path, Path]] = []  # (label, opcodes, names)
    for label_dir, label in (("benign", 0), ("malware", 1)):
        d = root / label_dir
        if not d.is_dir():
            raise FileNotFoundError(f"missing input directory {d}")
        for opc in sorted(d.glob("*.opcodes")):
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
        mnemonics = [ln.strip() for ln in opc.read_text().splitlines() if ln.strip()]
        letters.append(map_dalvik_to_letters(mnemonics, DEFAULT_OPCODE_MAP))
        declared.append([ln.strip() for ln in names_file.read_text().splitlines() if ln.strip()])

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

    rows = np.zeros((len(samples), len(names)), dtype=np.uint8)
    labels = np.zeros(len(samples), dtype=np.uint8)
    for i, (label, _, _) in enumerate(samples):
        perm_bits, _ = vectorize_declared(declared[i], dictionary, "permission")
        intent_bits, _ = vectorize_declared(declared[i], dictionary, "intent")
        gram_bits = vectorize_ngrams(letters[i], vocab)
        rows[i] = np.concatenate([perm_bits, intent_bits, gram_bits])
        labels[i] = label

    matrix = SampleMatrix(dictionary, rows, labels)
    out_path = Path(out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(matrix, out_path)
    return matrix
