"""Seeded generation of every input the benchmark hands to the program.

The program never sees a seed of ours: it gets CSV files, run-config JSON
files and a directory of disassembled samples, all written here from the
workload seed. The same seed writes the same bytes.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --------------------------------------------------------------- matrices


def planted_matrix(rng: np.random.Generator, n_samples: int, q: np.ndarray):
    """Labels and a 0/1 matrix whose column j copies the label with probability q[j].

    q[j] = 0.5 makes column j a fair coin independent of the label.
    """
    y = rng.integers(0, 2, size=n_samples, dtype=np.uint8)
    agree = rng.random((n_samples, q.size)) < q
    X = np.where(agree, y[:, None], 1 - y[:, None]).astype(np.uint8)
    return X, y


def write_matrix_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """CSV in the program's matrix format: f000..fNNN header plus a trailing label."""
    width = max(3, len(str(X.shape[1] - 1)))
    header = ",".join([f"f{j:0{width}d}" for j in range(X.shape[1])] + ["label"])
    cells = np.concatenate([X, y[:, None]], axis=1).astype(np.uint8) + ord("0")
    buf = np.full((cells.shape[0], 2 * cells.shape[1]), ord(","), dtype=np.uint8)
    buf[:, 0::2] = cells
    buf[:, -1] = ord("\n")
    path.write_bytes(header.encode() + b"\n" + buf.tobytes())


@dataclass(frozen=True)
class SelectInputs:
    csv_path: Path
    config_paths: tuple[Path, ...]


def write_select_inputs(work: Path, seed: int, shape: dict, rounds: int) -> SelectInputs:
    """One planted CSV and ``rounds`` run configs that differ only in their root seed."""
    rng = np.random.default_rng([seed, 1])
    n_features = shape["n_features"]
    q = np.full(n_features, 0.5)
    planted = rng.choice(n_features, size=len(shape["planted_q"]), replace=False)
    q[planted] = shape["planted_q"]
    X, y = planted_matrix(rng, shape["n_samples"], q)
    csv_path = work / "matrix.csv"
    write_matrix_csv(csv_path, X, y)

    run_seeds = rng.integers(0, 2**31 - 1, size=rounds)
    config_paths = []
    for i, run_seed in enumerate(run_seeds):
        config = {
            "dataset": {"csv": str(csv_path)},
            "classifier": {"name": "dt"},
            "network": shape["network"],
            "agent": shape["agent"],
            "replay_capacity": 20_000,
            "optimizer": {"base_rate": 0.1, "total_steps": None, "clip_norm": 5.0},
            "seed": int(run_seed),
            "out_dir": str(work / f"out{i}"),
        }
        path = work / f"config{i}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        config_paths.append(path)
    return SelectInputs(csv_path, tuple(config_paths))


# ----------------------------------------------------------------- corpus

# Mnemonic families per alphabet letter, and mnemonics no rule of the
# program's default opcode map matches (they must be dropped on featurize).
FAMILIES = {
    "M": ("move", "move-result", "move-result-object", "move-object/from16", "move-exception"),
    "R": ("return", "return-void", "return-object", "return-wide"),
    "G": ("goto", "goto/16", "goto/32"),
    "I": ("if-eqz", "if-nez", "if-lt", "if-ge", "if-eq", "if-ne"),
    "T": ("aget", "aget-object", "iget", "iget-object", "iget-boolean", "sget", "sget-object"),
    "P": ("aput", "aput-object", "iput", "iput-object", "iput-boolean", "sput", "sput-object"),
    "V": ("invoke-virtual", "invoke-direct", "invoke-static", "invoke-interface", "invoke-super"),
}
UNMAPPED = (
    "nop", "const/4", "const-string", "new-instance", "new-array", "check-cast",
    "instance-of", "array-length", "add-int/lit8", "mul-int", "throw", "monitor-enter",
    "cmp-long", "int-to-long", "packed-switch", "fill-array-data",
)
LETTERS = "MRGITPV"
CORPUS_MODEL_SEED = 20220306

PERMISSIONS = (
    "ACCESS_COARSE_LOCATION", "ACCESS_FINE_LOCATION", "ACCESS_NETWORK_STATE", "ACCESS_WIFI_STATE",
    "BLUETOOTH", "CALL_PHONE", "CAMERA", "CHANGE_WIFI_STATE", "DISABLE_KEYGUARD", "GET_ACCOUNTS",
    "GET_TASKS", "INSTALL_PACKAGES", "INTERNET", "KILL_BACKGROUND_PROCESSES", "MOUNT_UNMOUNT_FILESYSTEMS",
    "PROCESS_OUTGOING_CALLS", "READ_CALENDAR", "READ_CALL_LOG", "READ_CONTACTS", "READ_EXTERNAL_STORAGE",
    "READ_PHONE_STATE", "READ_SMS", "RECEIVE_BOOT_COMPLETED", "RECEIVE_MMS", "RECEIVE_SMS", "RECORD_AUDIO",
    "RESTART_PACKAGES", "SEND_SMS", "SET_WALLPAPER", "SYSTEM_ALERT_WINDOW", "VIBRATE", "WAKE_LOCK",
    "WRITE_APN_SETTINGS", "WRITE_CONTACTS", "WRITE_EXTERNAL_STORAGE", "WRITE_SETTINGS", "WRITE_SMS",
    "CHANGE_NETWORK_STATE", "DELETE_PACKAGES", "READ_LOGS",
)
INTENTS = (
    "ACTION_POWER_CONNECTED", "BATTERY_CHANGED", "BATTERY_LOW", "BOOT_COMPLETED", "CALL",
    "MAIN", "NEW_OUTGOING_CALL", "PACKAGE_ADDED", "PACKAGE_REMOVED", "PHONE_STATE",
    "SCREEN_OFF", "USER_PRESENT",
)


@dataclass(frozen=True)
class Corpus:
    root: Path
    labels: np.ndarray  # per sample, in the program's sample order (benign then malware, by file name)
    letters: tuple[str, ...]  # the letter string each opcode stream must collapse to
    declared: tuple[frozenset, ...]  # declared permission and intent names per sample
    ngram_n: int
    ngram_k: int


def _markov_letters(rng, transition: np.ndarray, length: int) -> str:
    cum = [list(row) for row in np.cumsum(transition, axis=1)]
    last = len(LETTERS) - 1
    state = int(rng.integers(0, len(LETTERS)))
    out = []
    for u in rng.random(length).tolist():
        state = min(bisect.bisect_right(cum[state], u), last)
        out.append(LETTERS[state])
    return "".join(out)


def _mnemonics(rng, letters: str, unmapped_rate: float) -> list[str]:
    """One random family member per letter, each preceded by a geometric run of unmapped mnemonics."""
    n = len(letters)
    extra = (rng.geometric(1.0 - unmapped_rate, size=n) - 1).tolist()
    pick = rng.integers(0, 1 << 30, size=n + int(sum(extra))).tolist()
    stream, j = [], 0
    for letter, runs in zip(letters, extra):
        for _ in range(runs):
            stream.append(UNMAPPED[pick[j] % len(UNMAPPED)])
            j += 1
        family = FAMILIES[letter]
        stream.append(family[pick[j] % len(family)])
        j += 1
    return stream


def write_corpus(work: Path, seed: int, shape: dict) -> Corpus:
    """Disassembly corpus: ``benign/`` and ``malware/`` with ``*.opcodes`` and ``*.names`` per sample.

    Opcode letters follow a Markov chain per class (the malware chain is the
    benign one mixed with a second random chain), each letter is written as a
    random mnemonic of its family, and unmapped mnemonics are sprinkled in.
    Each permission and intent is declared with a per-name rate; a few planted
    names have a higher rate in malware.
    """
    # The class model is the same for every seed; the seed draws the samples.
    model = np.random.default_rng(CORPUS_MODEL_SEED)
    k = len(LETTERS)
    benign_chain = model.dirichlet(np.ones(k), size=k)
    other_chain = model.dirichlet(np.ones(k), size=k)
    mix = shape["chain_mix"]
    malware_chain = (1.0 - mix) * benign_chain + mix * other_chain

    names = tuple(f"android.permission.{p}" for p in PERMISSIONS) + tuple(
        f"android.intent.action.{a}" for a in INTENTS
    )
    base_rate = model.uniform(0.05, 0.45, size=len(names))
    lift = np.zeros(len(names))
    lift[model.choice(len(names), size=shape["planted_names"], replace=False)] = shape["name_lift"]

    rng = np.random.default_rng([seed, 2])
    root = work / "corpus"
    labels, letters, declared = [], [], []
    for label, label_dir in ((0, "benign"), (1, "malware")):
        d = root / label_dir
        d.mkdir(parents=True)
        chain = malware_chain if label else benign_chain
        for i in range(shape["n_per_class"]):
            length = int(rng.integers(shape["min_letters"], shape["max_letters"] + 1))
            text = _markov_letters(rng, chain, length)
            stream = _mnemonics(rng, text, shape["unmapped_rate"])
            rate = base_rate + (lift if label else 0.0)
            chosen = frozenset(n for n, r in zip(names, rng.random(len(names)) < rate) if r)
            stem = f"{label_dir[0]}{i:05d}"
            (d / f"{stem}.opcodes").write_text("\n".join(stream) + "\n")
            (d / f"{stem}.names").write_text("".join(f"{n}\n" for n in sorted(chosen)))
            labels.append(label)
            letters.append(text)
            declared.append(chosen)
    return Corpus(
        root, np.array(labels, dtype=np.uint8), tuple(letters), tuple(declared),
        shape["ngram_n"], shape["ngram_k"],
    )
