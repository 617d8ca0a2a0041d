"""Lexically-constrained Viterbi decoding over DAWG lexicon automata with
minimal-perfect-hash path histories."""

from .automaton import (
    AutomatonError,
    Lexicon,
    NodeAutomaton,
    build_dawg,
    build_trie,
    minimize,
    parse_automaton,
    read_wordlist,
    serialize_automaton,
    topological_index,
)
from .decode import (
    DecodeError,
    DecodeResult,
    format_result,
    nbest_improved,
    nbest_naive,
    viterbi_flipflop,
    viterbi_inplace,
    viterbi_tabular,
)
from .hmm import (
    NEG_INF,
    HmmConfig,
    HmmConfigError,
    LetterHMM,
    make_letter_hmm,
    make_letter_hmms,
    sample_observations,
)
from .lexhmm import (
    START,
    ExpansionError,
    LexiconHMM,
    expand,
    word_linear_hmm,
)
from .oracle import enumerate_paths_dfs, nbest_exhaustive, score_word
from .pph import PphError, annotate_increments, compute_suff, decode_pph, encode_path, encode_word

__all__ = [name for name in dir() if not name.startswith("_")]
