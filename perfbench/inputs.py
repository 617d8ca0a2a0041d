"""Seeded benchmark inputs: the workloads, their lexicons, HMM config and
observation sequences, and the files the CLI reads.

Everything here is generated by the benchmark's own code from the seed, not
by flcva.synth or flcva.hmm.sample_observations, so a change to those modules
cannot change a workload.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass

ALPHABET = "abcdefghij"
SELF_LOOP_PROB = 0.5
EMISSION_PEAK = 0.9
MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    The lexicon is the cross product of `prefixes` and `suffixes` distinct
    random 4-letter words.  The observation file holds `sequences`
    sequences of exactly `seq_frames` frames each; its first
    `nbest_sequences` are the n-best sample.  A decoder's cost per frame
    depends on how far into its sequence the frame lies, so fixing the
    sequence length keeps per-call costs from varying with the seed.

    The sequences are also split into part files for the timed CLI calls:
    `part_sequences` per 1-best part, one per n-best part.  Short calls give
    a run many samples of equal work.
    """

    name: str
    prefixes: int
    suffixes: int
    states_per_letter: int
    seq_frames: int
    sequences: int
    nbest_sequences: int
    part_sequences: int


# Part sizes make a 1-best CLI call on a part take about 40 ms on the seed
# program, so every variant gets many timed calls in a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("suffix10k", 120, 90, 1, seq_frames=16, sequences=60, nbest_sequences=4,
                 part_sequences=15),
        Workload("suffix100k", 400, 250, 3, seq_frames=40, sequences=6, nbest_sequences=2,
                 part_sequences=1),
    )
}


def _pool(rng: random.Random, count: int, length: int) -> list[str]:
    """count distinct words of the given length over ALPHABET."""
    k = len(ALPHABET)
    out = []
    for code in rng.sample(range(k**length), count):
        letters = []
        for _ in range(length):
            code, digit = divmod(code, k)
            letters.append(ALPHABET[digit])
        out.append("".join(letters))
    return out


def make_lexicon(workload: Workload, rng: random.Random) -> list[str]:
    """Sorted prefix-by-suffix cross product of the workload's pools."""
    prefixes = _pool(rng, workload.prefixes, 4)
    suffixes = _pool(rng, workload.suffixes, 4)
    return sorted(p + s for p in prefixes for s in suffixes)


def sample_observations(rng: random.Random, word: str, states_per_letter: int) -> list[str]:
    """Walk the word's left-to-right letter chain: in each state emit a symbol
    (the letter itself with EMISSION_PEAK, else a uniform other symbol), then
    self-loop with SELF_LOOP_PROB or move on."""
    out = []
    for letter in word:
        others = [s for s in ALPHABET if s != letter]
        for _ in range(states_per_letter):
            while True:
                out.append(letter if rng.random() < EMISSION_PEAK else rng.choice(others))
                if rng.random() >= SELF_LOOP_PROB:
                    break
    return out


def sample_sequences(rng, words, states_per_letter, frames, count) -> list:
    """count (observations, word) pairs of exactly `frames` frames each,
    from uniformly drawn words short enough to fit."""
    out = []
    for _ in range(MAX_DRAWS):
        if len(out) == count:
            return out
        word = rng.choice(words)
        if states_per_letter * len(word) > frames:
            continue
        obs = sample_observations(rng, word, states_per_letter)
        if len(obs) == frames:
            out.append((obs, word))
    raise ValueError(f"no {count} sequences of {frames} frames in {MAX_DRAWS} draws")


def canonical_order(words) -> list[str]:
    """Words in path-index order: letter by letter ascending, a word after
    every word it is a proper prefix of."""
    end = sys.maxunicode + 1
    return sorted(words, key=lambda w: tuple(map(ord, w)) + (end,))


@dataclass
class Inputs:
    workload: Workload
    words: list          # sorted lexicon
    sequences: list      # (observations, truth word); n-best sample first
    nbest_count: int     # sequences in the n-best sample
    paths: dict          # role -> file path
    parts: list          # (path, first sequence, count) of each 1-best part
    nbest_parts: list    # the same for each n-best part

    @property
    def frames(self) -> int:
        return sum(len(obs) for obs, _ in self.sequences)

    @property
    def nbest_frames(self) -> int:
        return sum(len(obs) for obs, _ in self.sequences[: self.nbest_count])

    def describe(self) -> dict:
        hashes = {}
        files = dict(self.paths)
        files.update((os.path.basename(p), p) for p, _, _ in self.parts + self.nbest_parts)
        for role, path in sorted(files.items()):
            with open(path, "rb") as fh:
                hashes[role] = hashlib.sha256(fh.read()).hexdigest()
        return {
            "W": len(self.words),
            "states_per_letter": self.workload.states_per_letter,
            "sequences": len(self.sequences),
            "frames": self.frames,
            "nbest_sequences": self.nbest_count,
            "nbest_frames": self.nbest_frames,
            "part_sequences": self.workload.part_sequences,
            "sha256": hashes,
        }


def _obs_text(entries) -> str:
    lines = []
    for obs, word in entries:
        lines.append(f"# truth {word}")
        lines.append(" ".join(obs))
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Make the workload's inputs from the seed and write them under workdir."""
    rng = random.Random(f"{workload.name}:{seed}")
    words = make_lexicon(workload, rng)
    spl = workload.states_per_letter
    sequences = sample_sequences(rng, words, spl, workload.seq_frames, workload.sequences)
    nbest_count = workload.nbest_sequences

    paths = {
        "wordlist": os.path.join(workdir, "words.txt"),
        "config": os.path.join(workdir, "hmm.cfg"),
        "obs": os.path.join(workdir, "obs.txt"),
    }
    texts = {
        "wordlist": "\n".join(words) + "\n",
        "config": (
            f"states_per_letter={spl}\nself_loop_prob={SELF_LOOP_PROB}\n"
            f"emission_peak={EMISSION_PEAK}\nalphabet={ALPHABET}\n"
        ),
        "obs": _obs_text(sequences),
    }
    step = workload.part_sequences
    if len(sequences) % step:
        raise ValueError(f"{workload.name}: parts of {step} do not divide {len(sequences)} sequences")
    parts = [
        (os.path.join(workdir, f"obs_part{i // step}.txt"), i, step)
        for i in range(0, len(sequences), step)
    ]
    nbest_parts = [(os.path.join(workdir, f"obs_nbest_part{i}.txt"), i, 1) for i in range(nbest_count)]
    files = {paths[role]: text for role, text in texts.items()}
    for path, first, count in parts + nbest_parts:
        files[path] = _obs_text(sequences[first : first + count])
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return Inputs(workload, words, sequences, nbest_count, paths, parts, nbest_parts)
