import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcva import (
    HmmConfig,
    HmmConfigError,
    make_letter_hmm,
    sample_observations,
)
from flcva.hmm import (
    LOG_QUANTUM,
    format_config,
    format_observations,
    grid_cost,
    grid_score,
    parse_config,
    read_observations,
)

AB = ("a", "b")


def test_single_state_transitions():
    cfg = HmmConfig(alphabet=AB, states_per_letter=1, self_loop_prob=0.5)
    hmm = make_letter_hmm("a", cfg)
    assert hmm.n_states == 1
    log_self, log_forward = grid_score(hmm.self_cost), grid_score(hmm.forward_cost)
    assert log_self == -0.6931471806019545
    assert log_forward == log_self
    assert abs(log_self - math.log(0.5)) <= LOG_QUANTUM / 2
    assert math.exp(log_self) + math.exp(log_forward) == pytest.approx(1.0)


def test_one_hot_emissions():
    cfg = HmmConfig(alphabet=AB, states_per_letter=1, emission_peak=1.0)
    hmm = make_letter_hmm("a", cfg)
    assert grid_score(hmm.emission_costs[0][cfg.alphabet.index("a")]) == 0.0
    assert hmm.emission_costs[0][cfg.alphabet.index("b")] == math.inf


def test_off_letter_emission_value():
    cfg = HmmConfig(alphabet=tuple("abcd"), states_per_letter=1, emission_peak=0.8)
    hmm = make_letter_hmm("a", cfg)
    assert grid_score(hmm.emission_costs[0][cfg.alphabet.index("b")]) == -2.7080502011813223


@pytest.mark.parametrize("peak", [0.25, 0.5, 0.9, 1.0])
def test_emission_rows_normalized(peak):
    cfg = HmmConfig(alphabet=tuple("abcd"), states_per_letter=2, emission_peak=peak)
    hmm = make_letter_hmm("c", cfg)
    for row in hmm.emission_costs:
        total = sum(math.exp(grid_score(c)) for c in row if c != math.inf)
        # normalization holds up to the log-grid rounding of each entry
        assert total == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 700 * 2**32))
def test_grid_cost_is_the_exact_negated_unit_count(units):
    # a probability on the grid, exp(-units * LOG_QUANTUM), costs exactly units
    cost = grid_cost(math.exp(-units * LOG_QUANTUM))
    assert cost == units
    assert type(cost) is int
    assert grid_score(cost) == -units * LOG_QUANTUM
    assert grid_cost(1.0) == 0
    assert math.copysign(1.0, grid_score(0)) == 1.0  # 0.0, never -0.0


@given(st.floats(0.0, 1.0, exclude_min=True))
def test_grid_cost_of_impossible_and_off_grid_scores(p):
    assert grid_cost(0.0) is math.inf
    assert grid_score(grid_cost(0.0)) == -math.inf
    # an off-grid probability costs the nearest whole unit count of -log p
    cost = grid_cost(p)
    assert type(cost) is int
    assert abs(grid_score(cost) - math.log(p)) <= LOG_QUANTUM / 2


def test_letter_outside_alphabet_rejected():
    cfg = HmmConfig(alphabet=AB)
    with pytest.raises(HmmConfigError):
        make_letter_hmm("z", cfg)


def test_config_validation():
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=())
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=AB, states_per_letter=0)
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=AB, self_loop_prob=1.0)
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=AB, emission_peak=0.0)
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=("a",), emission_peak=0.5)
    with pytest.raises(HmmConfigError):
        HmmConfig(alphabet=("a", "a"))


def test_sampling_degenerate_walk_spells_word():
    cfg = HmmConfig(
        alphabet=tuple("abcd"), states_per_letter=1, self_loop_prob=0.0,
        emission_peak=1.0,
    )
    assert sample_observations("bcd", cfg, seed=123) == ["b", "c", "d"]


def test_sampling_deterministic():
    cfg = HmmConfig(alphabet=tuple("abcd"), states_per_letter=2,
                    self_loop_prob=0.4, emission_peak=0.8)
    a = sample_observations("bcd", cfg, seed=7)
    b = sample_observations("bcd", cfg, seed=7)
    assert a == b
    assert len(a) >= 2 * 3


def test_sampling_length_is_geometric():
    cfg = HmmConfig(alphabet=AB, states_per_letter=1, self_loop_prob=0.5,
                    emission_peak=1.0)
    lengths = [len(sample_observations("a", cfg, seed=s)) for s in range(1000)]
    # length ~ geometric with mean 2 and variance 2
    mean = statistics.fmean(lengths)
    sigma_of_mean = math.sqrt(2.0 / 1000)
    assert abs(mean - 2.0) <= 3 * sigma_of_mean


def test_config_file_round_trip():
    cfg = HmmConfig(alphabet=tuple("abcd"), states_per_letter=2,
                    self_loop_prob=0.4, emission_peak=0.8)
    assert parse_config(format_config(cfg)) == cfg


def test_config_parse_errors():
    with pytest.raises(HmmConfigError):
        parse_config("alphabet=ab\nbogus_key=1\n")
    with pytest.raises(HmmConfigError):
        parse_config("states_per_letter=3\n")  # missing alphabet
    with pytest.raises(HmmConfigError):
        parse_config("alphabet=ab\nno equals sign here".replace("=", "", 1))
    with pytest.raises(HmmConfigError, match="'alphabet' is given twice"):
        parse_config("alphabet=abcd\nstates_per_letter=1\nalphabet=ab\n")


def test_observation_line_ends_only_at_newline():
    # str.splitlines split this line at the form feed into two sequences
    assert read_observations("a\x0cb c\n") == [(["a", "b", "c"], None)]
    assert read_observations("# truth ab\u2028\na b\r\n") == [(["a", "b"], "ab")]


def test_observation_file_round_trip():
    entries = [(["a", "b", "b"], "ab"), (["c"], None)]
    text = format_observations(entries)
    assert read_observations(text) == entries
    assert "# truth ab" in text
    assert format_observations([]) == ""
    with pytest.raises(ValueError):
        format_observations([([], "ab"), (["c"], None)])


CONFIG_LINES = format_config(
    HmmConfig(alphabet=tuple("abcd"), states_per_letter=2, self_loop_prob=0.4,
              emission_peak=0.8)
).splitlines()


@st.composite
def _mutated_config(draw):
    """The config file with one line deleted, duplicated or swapped with
    another, one value replaced, or one character inserted."""
    lines = list(CONFIG_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "value", "insert"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "value":
        key = lines[i].partition("=")[0]
        lines[i] = key + "=" + draw(st.one_of(
            st.text(max_size=6),
            st.sampled_from(["0", "1", "-1", "0.5", "1e-400", "nan", "inf", "a b", "ab#", "aa"]),
        ))
    else:
        k = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:k] + draw(st.characters()) + lines[i][k:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_mutated_config())
def test_mutated_config_is_rejected_or_round_trips(text):
    try:
        cfg = parse_config(text)
    except HmmConfigError:
        return
    assert parse_config(format_config(cfg)) == cfg
    assert all(sym.split() == [sym] for sym in cfg.alphabet)


# Observation symbols as a config accepts them: no whitespace (the file is
# whitespace-delimited) and no leading # (it marks comment lines).
_TOKEN = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=3
)
_SYMBOL = _TOKEN.filter(lambda s: not s.startswith("#"))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.lists(_SYMBOL, min_size=1, max_size=6), st.none() | _TOKEN), max_size=5
))
def test_observation_file_round_trip_property(entries):
    assert read_observations(format_observations(entries)) == entries
