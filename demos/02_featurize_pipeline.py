"""Featurize disassembled samples: opcode letters, n-gram vocabulary, binary vectors.

Works from plain text (one Dalvik mnemonic per line, one declared name per
line); no decompiler is involved. The n-gram vocabulary comes from the
malware samples only, then every sample is vectorized by gram presence.
"""

import tempfile
from pathlib import Path

from rlselect import build_vocabulary, extract_ngrams, map_dalvik_to_letters, vectorize_ngrams
from rlselect.featurize import cmd_featurize

stream = ["invoke-direct", "move-result", "if-eqz", "const/4", "goto/16", "return-void"]
letters = map_dalvik_to_letters(stream)
print(f"mnemonics {stream}")
print(f"letters   {letters!r}   (const/4 has no letter and is dropped)")

print(f"bigrams of {letters!r}: {dict(extract_ngrams(letters, 2))}")

malware_streams = ["VMIGR", "VMVMR", "MIGRV"]
vocab = build_vocabulary(malware_streams, n=2, k=4)
print(f"top-4 bigram vocabulary from malware corpus: {vocab.grams}")
print(f"sample 'VMIG' vectorized: {vectorize_ngrams('VMIG', vocab).tolist()}")

# the same pipeline end to end, from files to a matrix CSV
with tempfile.TemporaryDirectory() as td:
    root = Path(td)
    for family, label_dir in (("mal", "malware"), ("ben", "benign")):
        d = root / "in" / label_dir
        d.mkdir(parents=True)
        for i in range(2):
            (d / f"{family}{i}.opcodes").write_text(
                "\n".join(["invoke-direct", "move", "move", "if-eq", "return-void"][: 3 + i])
            )
            (d / f"{family}{i}.names").write_text(
                "android.permission.SEND_SMS\nandroid.intent.action.MAIN\n"
            )
    matrix = cmd_featurize(root / "in", ngram_n=2, ngram_k=2, out_csv=root / "features.csv")
    print(f"featurized matrix: {matrix.n_samples} samples x {matrix.n_features} features")
    print(f"columns: {matrix.dictionary.names}")
    print((root / "features.csv").read_text())
