"""Per-letter HMM templates and synthetic observation generation.

Letter models are left-to-right (self-loop + forward-by-one) with discrete
emissions over a symbol alphabet: a configurable peak mass on the letter's
own symbol, the remainder spread uniformly over the other symbols.  A model
holds each score as an integer cost, its negated natural log in grid units;
zero probability costs math.inf.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NEG_INF = float("-inf")

# A score is held as its cost: -log p rounded to a whole number of grid
# units.  The decoders add those integers, not floats: every sum is exact, and
# two paths with equal true scores compare equal at every merge point, so the
# smallest-path-index tie-break fires identically in all decoder variants and
# in the brute-force reference, regardless of the order in which the terms
# were added.  A decoded score (grid_score) is exact in double precision while
# its unit count stays below 2**53, far beyond any realistic path length.
LOG_QUANTUM = 2.0 ** -32


def grid_cost(p: float):
    """The cost -log p in whole grid units, as an int; p = 0 costs math.inf,
    which every int sum or comparison leaves dead."""
    return round(-math.log(p) / LOG_QUANTUM) if p > 0.0 else math.inf


def grid_score(cost: int) -> float:
    """The log score of a cost, 0.0 - x, so never -0.0; math.inf gives -inf."""
    return 0.0 - cost * LOG_QUANTUM


class HmmConfigError(ValueError):
    """Invalid HMM configuration."""


@dataclass(frozen=True)
class HmmConfig:
    alphabet: tuple[str, ...]
    states_per_letter: int = 3
    self_loop_prob: float = 0.5
    emission_peak: float = 0.9

    def __post_init__(self):
        if not self.alphabet:
            raise HmmConfigError("observation alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise HmmConfigError("observation alphabet has duplicate symbols")
        for sym in self.alphabet:
            # observation files are whitespace-delimited and mark comments with #
            if sym.split() != [sym] or sym.startswith("#"):
                raise HmmConfigError(
                    f"observation symbol {sym!r} is empty, has whitespace or starts with #"
                )
        if self.states_per_letter < 1:
            raise HmmConfigError("states_per_letter must be >= 1")
        if not 0.0 <= self.self_loop_prob < 1.0:
            raise HmmConfigError("self_loop_prob must be in [0, 1)")
        if not 0.0 < self.emission_peak <= 1.0:
            raise HmmConfigError("emission_peak must be in (0, 1]")
        if len(self.alphabet) == 1 and self.emission_peak != 1.0:
            raise HmmConfigError("single-symbol alphabet requires emission_peak=1")


@dataclass(frozen=True)
class LetterHMM:
    """Left-to-right letter model with its scores as grid costs."""

    self_cost: int
    forward_cost: int
    emission_costs: tuple[tuple[int, ...], ...]  # one row per state

    @property
    def n_states(self) -> int:
        return len(self.emission_costs)


def make_letter_hmm(letter: str, config: HmmConfig) -> LetterHMM:
    """Deterministic letter-model construction from the config."""
    if letter not in config.alphabet:
        raise HmmConfigError(
            f"letter {letter!r} has no corresponding observation symbol"
        )
    k = len(config.alphabet)
    off = (1.0 - config.emission_peak) / (k - 1) if k > 1 else 0.0
    row = tuple(
        grid_cost(config.emission_peak if sym == letter else off)
        for sym in config.alphabet
    )
    return LetterHMM(
        self_cost=grid_cost(config.self_loop_prob),
        forward_cost=grid_cost(1.0 - config.self_loop_prob),
        emission_costs=tuple(row for _ in range(config.states_per_letter)),
    )


def make_letter_hmms(letters, config: HmmConfig) -> dict[str, LetterHMM]:
    return {ch: make_letter_hmm(ch, config) for ch in sorted(set(letters))}


def sample_observations(word: str, config: HmmConfig, seed: int) -> list[str]:
    """Sample one observation sequence by walking the word's letter chain.

    In each state: emit a symbol, then self-loop with self_loop_prob or move
    forward.  Deterministic for a given seed; length >= S * len(word).
    """
    rng = random.Random(seed)
    others = None
    if config.emission_peak < 1.0:
        others = {
            ch: [sym for sym in config.alphabet if sym != ch] for ch in set(word)
        }

    def emit(letter: str) -> str:
        if others is None:
            return letter
        if rng.random() < config.emission_peak:
            return letter
        return rng.choice(others[letter])

    out: list[str] = []
    for letter in word:
        if letter not in config.alphabet:
            raise HmmConfigError(
                f"letter {letter!r} has no corresponding observation symbol"
            )
        for _ in range(config.states_per_letter):
            out.append(emit(letter))
            while rng.random() < config.self_loop_prob:
                out.append(emit(letter))
    return out


# --- config and observation file formats ---------------------------------

_CONFIG_KEYS = ("states_per_letter", "self_loop_prob", "emission_peak", "alphabet")


def parse_config(text: str) -> HmmConfig:
    """key=value lines; alphabet is the concatenation of its symbols."""
    values: dict[str, str] = {}
    for raw in text.split("\n"):  # str.splitlines also breaks at a form feed
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise HmmConfigError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise HmmConfigError(f"unknown config key: {key!r}")
        if key in values:
            raise HmmConfigError(f"config key {key!r} is given twice")
        values[key] = val.strip()
    if "alphabet" not in values:
        raise HmmConfigError("config is missing the alphabet")
    kwargs: dict = {"alphabet": tuple(values["alphabet"])}
    for key, kind in (("states_per_letter", int), ("self_loop_prob", float),
                      ("emission_peak", float)):
        if key in values:
            try:
                kwargs[key] = kind(values[key])
            except ValueError:
                raise HmmConfigError(f"bad {key} value: {values[key]!r}") from None
    return HmmConfig(**kwargs)


def format_config(config: HmmConfig) -> str:
    return (
        f"states_per_letter={config.states_per_letter}\n"
        f"self_loop_prob={config.self_loop_prob}\n"
        f"emission_peak={config.emission_peak}\n"
        f"alphabet={''.join(config.alphabet)}\n"
    )


def read_observations(text: str) -> list[tuple[list[str], str | None]]:
    """Parse an observation file into (symbols, truth-word-or-None) pairs.

    A `# truth <word>` comment line applies to the next sequence line.
    """
    out: list[tuple[list[str], str | None]] = []
    truth: str | None = None
    for raw in text.split("\n"):  # str.splitlines also breaks at a form feed
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "truth":
                truth = parts[1]
            continue
        out.append((line.split(), truth))
        truth = None
    return out


def format_observations(entries) -> str:
    """Inverse of read_observations; entries are (symbols, truth) pairs."""
    lines: list[str] = []
    for symbols, truth in entries:
        if not symbols:  # a blank line is skipped, and its truth would move on
            raise ValueError("an observation sequence must not be empty")
        if truth is not None:
            lines.append(f"# truth {truth}")
        lines.append(" ".join(symbols))
    return "\n".join(lines) + ("\n" if lines else "")
