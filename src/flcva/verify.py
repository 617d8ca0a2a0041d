"""Randomized equivalence suite: path-index bijection, 1-best decoder
agreement, and n-best agreement against the exhaustive oracle.

Used by the `verify` CLI subcommand and by the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automaton import Lexicon, build_dawg
from .bench import generate_sequences
from .decode import nbest_improved, nbest_naive, viterbi_flipflop, viterbi_inplace, viterbi_tabular
from .hmm import HmmConfig, make_letter_hmms
from .lexhmm import expand
from .oracle import enumerate_paths_dfs, nbest_exhaustive
from .pph import annotate_increments, compute_suff, decode_pph, encode_word


@dataclass
class VerifyReport:
    passed: bool
    instances: int
    checks: int
    failure: str | None = None
    warning: str | None = None


def _check_bijection(auto, suff, increments) -> str | None:
    words = enumerate_paths_dfs(auto)
    seen = set()
    for rank, word in enumerate(words):
        value = encode_word(auto, increments, word)
        if value != rank:
            return f"encode({word!r})={value}, DFS rank {rank}"
        if decode_pph(auto, suff, value) != word:
            return f"decode({value}) != {word!r}"
        seen.add(value)
    if seen != set(range(auto.word_count)):
        return f"path indices {sorted(seen)} != 0..{auto.word_count - 1}"
    return None


def run_verify(lexicon: Lexicon, config: HmmConfig, instances: int, seed: int) -> VerifyReport:
    auto = build_dawg(lexicon)
    suff = compute_suff(auto)
    increments = annotate_increments(auto, suff)

    checks = 0
    failure = _check_bijection(auto, suff, increments)
    checks += 1
    if failure:
        return VerifyReport(False, 0, checks, failure=f"bijection: {failure}")

    letter_hmms = make_letter_hmms(auto.letters, config)
    lexhmm = expand(auto, increments, letter_hmms, config)
    # apart from generate_sequences' Random(seed), or a word would fix its n
    rng = random.Random(f"nbest:{seed}")
    for inst, (obs, word) in enumerate(generate_sequences(lexicon, config, instances, seed)):
        replay = f"instance {inst}: word={word!r} obs={' '.join(obs)}"

        tab = viterbi_tabular(lexhmm, obs)
        flip = viterbi_flipflop(lexhmm, obs)
        inpl = viterbi_inplace(lexhmm, obs)
        checks += 1
        if not (tab.ranking == flip.ranking == inpl.ranking):
            return VerifyReport(
                False, inst, checks,
                failure=f"1-best mismatch: tabular={tab.ranking} flipflop={flip.ranking} "
                        f"inplace={inpl.ranking} ({replay})",
            )
        if tab.ranking:
            word_out, pph_out, _ = tab.ranking[0]
            checks += 1
            if decode_pph(auto, suff, pph_out) != word_out:
                return VerifyReport(
                    False, inst, checks,
                    failure=f"token path index {pph_out} does not decode to "
                            f"{word_out!r} ({replay})",
                )

        n = rng.randint(1, 5)
        naive = nbest_naive(lexhmm, obs, n)
        improved = nbest_improved(lexhmm, obs, n)
        exact = nbest_exhaustive(lexicon, letter_hmms, config, obs, n)
        checks += 1
        if not (naive.ranking == improved.ranking == exact):
            return VerifyReport(
                False, inst, checks,
                failure=f"{n}-best mismatch: naive={naive.ranking} "
                        f"improved={improved.ranking} oracle={exact} ({replay})",
            )
        checks += 1
        if improved.merges > naive.merges:
            return VerifyReport(
                False, inst, checks,
                failure=f"improved merges {improved.merges} > naive {naive.merges} "
                        f"({replay})",
            )
        checks += 1
        if improved.ops > naive.ops:
            return VerifyReport(
                False, inst, checks,
                failure=f"improved ops {improved.ops} > naive {naive.ops} ({replay})",
            )

    warning = "no randomized instances were run" if instances == 0 else None
    return VerifyReport(True, instances, checks, warning=warning)
