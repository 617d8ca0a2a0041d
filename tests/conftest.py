import math

import pytest

from flcva import (
    HmmConfig,
    Lexicon,
    annotate_increments,
    build_dawg,
    build_trie,
    compute_suff,
    expand,
    make_letter_hmms,
)
from flcva.hmm import LOG_QUANTUM, NEG_INF

TOY_WORDS = ["ab", "ba", "bb", "bc", "bcd", "c"]
TOY_PPH = {"ab": 0, "ba": 1, "bb": 2, "bcd": 3, "bc": 4, "c": 5}

# ROOT -a-> 1 -> SINK, plus letter node 2 with no arc in or out.
ISOLATED_NODE_FILE = """flcva-automaton-v1
NODES 4 ARCS 2 WORDS 1
node 0 ROOT 0 1
node 1 a 1 1
node 2 b 2 0
node 3 SINK 3 1
arc 0 1 0
arc 1 3 0
"""


@pytest.fixture
def toy_lexicon():
    return Lexicon.from_words(TOY_WORDS)


@pytest.fixture
def toy_trie(toy_lexicon):
    return build_trie(toy_lexicon)


@pytest.fixture
def toy_dawg(toy_lexicon):
    return build_dawg(toy_lexicon)


@pytest.fixture
def toy_annotated(toy_dawg):
    suff = compute_suff(toy_dawg)
    return toy_dawg, suff, annotate_increments(toy_dawg, suff)


def unpack(lexhmm, packed):
    """(log score, pph) of a packed lexicon-HMM value; math.inf is (-inf, 0)."""
    if packed == math.inf:
        return NEG_INF, 0
    bits = lexhmm.pph_bits
    return -(packed >> bits) * LOG_QUANTUM, packed & ((1 << bits) - 1)


def unpacked_preds(lexhmm):
    """lexhmm.preds as (source, log transition, pph increment) triples."""
    return [[(i, *unpack(lexhmm, w)) for i, w in preds] for preds in lexhmm.preds]


def onehot_config(states=1, self_loop=0.5, alphabet="abcd"):
    return HmmConfig(
        alphabet=tuple(alphabet),
        states_per_letter=states,
        self_loop_prob=self_loop,
        emission_peak=1.0,
    )


def uniform_config(states=1, self_loop=0.5, alphabet="abcd"):
    # emission_peak = 1/|alphabet| makes every emission entry exactly equal
    # (0.75/3 == 0.25 in binary), so score ties are exact.
    return HmmConfig(
        alphabet=tuple(alphabet),
        states_per_letter=states,
        self_loop_prob=self_loop,
        emission_peak=1.0 / len(alphabet),
    )


@pytest.fixture
def toy_lexhmm_onehot(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config()
    hmms = make_letter_hmms("abcd", cfg)
    return expand(dawg, inc, hmms, cfg), cfg, hmms


@pytest.fixture
def toy_lexhmm_uniform(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = uniform_config()
    hmms = make_letter_hmms("abcd", cfg)
    return expand(dawg, inc, hmms, cfg), cfg, hmms
