"""Trie-vs-DAWG benchmark harness.

Builds both structures from the same word list, decodes the same generated
observation set with each, and reports wall clock plus the machine-
independent ops counter so the speedup direction is checkable anywhere.
The decoders are the CLI's (decode.VARIANTS), so a row's ops are those of
`flcva decode` on the same files.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .automaton import Lexicon, build_dawg, build_trie
from .decode import VARIANTS
from .hmm import HmmConfig, make_letter_hmms, sample_observations
from .lexhmm import expand
from .pph import annotate_increments, compute_suff

CSV_HEADER = "structure,variant,N,p,T_total,sequences,wall_ms,ops,token_slots"

_VARIANTS = ("flipflop", "inplace")


@dataclass
class BenchRow:
    structure: str
    variant: str
    n_states: int
    mean_preds: float
    t_total: int
    sequences: int
    wall_ms: float
    ops: int
    token_slots: int

    def csv(self) -> str:
        return (
            f"{self.structure},{self.variant},{self.n_states},"
            f"{self.mean_preds:.6g},{self.t_total},{self.sequences},"
            f"{self.wall_ms:.3f},{self.ops},{self.token_slots}"
        )


def generate_sequences(
    lexicon: Lexicon, config: HmmConfig, count: int, seed: int
) -> list[tuple[list[str], str]]:
    """count (observation, truth word) pairs from uniformly chosen words."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = rng.choice(lexicon.words)
        out.append((sample_observations(word, config, rng.randrange(2**31)), word))
    return out


def run_bench(
    lexicon: Lexicon, config: HmmConfig, sequences: int, seed: int
) -> list[BenchRow]:
    trie, dawg = build_trie(lexicon), build_dawg(lexicon)
    letter_hmms = make_letter_hmms(dawg.letters, config)
    obs_set = generate_sequences(lexicon, config, sequences, seed)
    t_total = sum(len(obs) for obs, _ in obs_set)

    rows: list[BenchRow] = []
    for name, auto in (("trie", trie), ("dawg", dawg)):
        increments = annotate_increments(auto, compute_suff(auto))
        lexhmm = expand(auto, increments, letter_hmms, config)
        mean_preds = lexhmm.n_arcs / lexhmm.n_states
        for variant in _VARIANTS:
            fn = VARIANTS[variant]
            ops = 0
            token_slots = 0
            start = time.perf_counter()
            for obs, _ in obs_set:
                result = fn(lexhmm, obs)
                ops += result.ops
                token_slots = max(token_slots, result.token_slots)
            wall_ms = (time.perf_counter() - start) * 1000.0
            rows.append(
                BenchRow(
                    structure=name,
                    variant=variant,
                    n_states=lexhmm.n_states,
                    mean_preds=mean_preds,
                    t_total=t_total,
                    sequences=sequences,
                    wall_ms=wall_ms,
                    ops=ops,
                    token_slots=token_slots,
                )
            )
    return rows
