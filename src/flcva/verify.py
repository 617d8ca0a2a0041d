"""Randomized equivalence suite: path-index bijection, 1-best decoder
agreement (the CLI's windowed variants against the full-relaxation
tabular decoder), and n-best agreement against the exhaustive oracle.

Used by the `verify` CLI subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automaton import Lexicon, build_dawg
from .bench import generate_sequences
from .decode import VARIANTS, nbest_improved, nbest_naive, viterbi_tabular
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

    checks = 1
    failure = _check_bijection(auto, suff, increments)
    if failure:
        return VerifyReport(False, 0, checks, failure=f"bijection: {failure}")

    letter_hmms = make_letter_hmms(auto.letters, config)
    lexhmm = expand(auto, increments, letter_hmms, config)
    # apart from generate_sequences' Random(seed), or a word would fix its n
    rng = random.Random(f"nbest:{seed}")
    for inst, (obs, word) in enumerate(generate_sequences(lexicon, config, instances, seed)):
        replay = f"instance {inst}: word={word!r} obs={' '.join(obs)}"
        # The reference relaxes every state: a window bug shared by every
        # variant still shows.
        best = viterbi_tabular(lexhmm, obs).ranking
        rankings = {name: fn(lexhmm, obs).ranking for name, fn in VARIANTS.items()}
        listed = " ".join(f"{name}={ranking}" for name, ranking in rankings.items())
        # (passed, failure message), checked in this order
        results = [(all(r == best for r in rankings.values()),
                    f"1-best mismatch: {listed} full-relaxation tabular={best} ({replay})")]
        if best:
            word_out, pph_out, _ = best[0]
            results.append((decode_pph(auto, suff, pph_out) == word_out,
                            f"token path index {pph_out} does not decode to "
                            f"{word_out!r} ({replay})"))
        n = rng.randint(1, 5)
        naive = nbest_naive(lexhmm, obs, n)
        improved = nbest_improved(lexhmm, obs, n)
        exact = nbest_exhaustive(lexicon, letter_hmms, config, obs, n)
        results += [
            (naive.ranking == improved.ranking == exact,
             f"{n}-best mismatch: naive={naive.ranking} "
             f"improved={improved.ranking} oracle={exact} ({replay})"),
            (improved.merges <= naive.merges,
             f"improved merges {improved.merges} > naive {naive.merges} ({replay})"),
            (improved.ops <= naive.ops,
             f"improved ops {improved.ops} > naive {naive.ops} ({replay})"),
        ]
        for passed, failure in results:
            checks += 1
            if not passed:
                return VerifyReport(False, inst, checks, failure=failure)

    warning = "no randomized instances were run" if instances == 0 else None
    return VerifyReport(True, instances, checks, warning=warning)
