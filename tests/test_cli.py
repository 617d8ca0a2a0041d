import argparse
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcva import cli
from flcva.automaton import (
    Lexicon, build_dawg, build_trie, minimize, read_wordlist, serialize_automaton,
)
from flcva.bench import generate_sequences
from flcva.cli import main
from flcva.decode import LANE_MIN, NBEST_VARIANTS, VARIANTS, DecodeResult, decode_lanes, format_result
from flcva.hmm import HmmConfig, format_config, format_observations, make_letter_hmms, parse_config
from flcva.oracle import nbest_exhaustive
from flcva.pph import annotate_increments, compute_suff
from flcva.synth import synthetic_lexicon

from conftest import ISOLATED_NODE_FILE, TOY_WORDS, uniform_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def toy_paths(tmp_path):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("\n".join(TOY_WORDS) + "\n")
    config = tmp_path / "hmm.cfg"
    config.write_text(
        format_config(
            HmmConfig(alphabet=tuple("abcd"), states_per_letter=1,
                      self_loop_prob=0.5, emission_peak=1.0)
        )
    )
    return wordlist, config, tmp_path


def _automaton_file(auto) -> str:
    suff = compute_suff(auto)
    return serialize_automaton(auto, suff, annotate_increments(auto, suff))


def test_build_trie_prints_stats(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    out = tmp / "trie.auto"
    assert main(["build", str(wordlist), str(out), "--trie"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("N=10 ")
    assert "W=6" in line


def test_main_can_be_called_again_in_one_process(toy_paths, capsys, monkeypatch):
    # One parser serves every call: a decode after a usage error or an input
    # error prints the bytes it printed the first time, and so do the errors.
    wordlist, config, tmp = toy_paths
    auto, obs = tmp / "dawg.auto", tmp / "obs.txt"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    obs.write_text("b c d\nc\nx y\n")
    capsys.readouterr()
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    decode = ["decode", str(auto), str(config), str(obs)]
    errors = [decode + ["--variant", "bogus"], decode + ["--nbest", "2"]]
    calls = [call for v in [*VARIANTS, *NBEST_VARIANTS]
             for call in (decode + ["--variant", v, "--nbest", "1" if v in VARIANTS else "2"], *errors)]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        return code, capsys.readouterr()

    first = {}
    for argv in calls * 2:
        got = run(argv)
        assert first.setdefault(tuple(argv), got) == got
        assert got[0] == (2 if argv in errors else 0)
    assert "usage: flcva decode" in first[tuple(errors[0])][1].err
    assert first[tuple(errors[1])][1].err.startswith("error: --nbest 2 needs an n-best variant")
    assert built.count("flcva") == 1


def test_build_dawg_prints_stats(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    out = tmp / "dawg.auto"
    assert main(["build", str(wordlist), str(out), "--dawg"]) == 0
    assert capsys.readouterr().out.startswith("N=9 arcs=13 W=6")


def test_build_dawg_does_not_build_the_trie(toy_paths, monkeypatch):
    wordlist, _config, tmp = toy_paths
    expected = _automaton_file(minimize(build_trie(Lexicon.from_words(TOY_WORDS))))

    def no_trie(_lexicon):
        raise AssertionError("build --dawg built the trie")

    monkeypatch.setattr("flcva.cli.build_trie", no_trie)
    out = tmp / "dawg.auto"
    assert main(["build", str(wordlist), str(out), "--dawg"]) == 0
    assert out.read_text() == expected


def test_build_is_deterministic(toy_paths):
    # the sorted list built twice, and the list shuffled with duplicates,
    # blank lines, CRLF line ends and a UTF-8 BOM, write the same file
    wordlist, _config, tmp = toy_paths
    messy = tmp / "messy.txt"
    lines = ["bc", "", "ab", "c", "bcd", "ab", "  ", "ba", "c", "bb", "bcd"]
    messy.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
    for mode in ("--trie", "--dawg"):
        built = []
        for i, words in enumerate((wordlist, wordlist, messy)):
            out = tmp / f"{i}{mode}.auto"
            assert main(["build", str(words), str(out), mode]) == 0
            built.append(out.read_bytes())
        assert built[0] == built[1] == built[2], mode


def test_build_streams_a_sorted_list(tmp_path, monkeypatch):
    # 10,800 words in 97,200 bytes, more than one read of the file
    lex = synthetic_lexicon(120, 90)
    text = "\n".join(lex) + "\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text)
    # a byte-order mark is not part of the first word, CRLF ends a line
    marked.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())

    def no_sort(_path):
        raise AssertionError("build sorted a sorted word list")

    monkeypatch.setattr("flcva.cli._load_lexicon", no_sort)
    for mode, build in (("--dawg", build_dawg), ("--trie", build_trie)):
        expected = _automaton_file(build(lex))
        for words in (plain, marked):
            out = tmp_path / f"{words.stem}{mode}.auto"
            assert main(["build", str(words), str(out), mode]) == 0
            assert out.read_text() == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="ab\u00e9", min_size=1, max_size=5), min_size=1, max_size=30),
    st.sampled_from(["sorted", "sorted-unique", "shuffled"]),
    st.lists(st.sampled_from(["", "  ", "\t"]), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.randoms(),
)
def test_build_file_is_the_library_build_property(words, order, blanks, newline, rnd):
    # sorted and duplicate-free lists are streamed; the rest take the sort
    if order == "sorted":
        words.sort()
    elif order == "sorted-unique":
        words = sorted(set(words))
    else:
        rnd.shuffle(words)
    lines = [f" {w}" if rnd.random() < 0.2 else w for w in words]
    for blank in blanks:
        lines.insert(rnd.randrange(len(lines) + 1), blank)
    text = newline.join(lines) + rnd.choice(["", newline])
    # open() ends a line at LF, CRLF and a lone CR alike
    lex = read_wordlist(text.replace("\r\n", "\n").replace("\r", "\n"))
    with tempfile.TemporaryDirectory() as tmp:
        wordlist, out = Path(tmp, "words.txt"), Path(tmp, "x.auto")
        wordlist.write_bytes(text.encode())
        for mode, build in (("--dawg", build_dawg), ("--trie", build_trie)):
            assert main(["build", str(wordlist), str(out), mode]) == 0
            assert out.read_text() == _automaton_file(build(lex))


def test_build_missing_file_exits_2(toy_paths, capsys):
    _wordlist, _config, tmp = toy_paths
    assert main(["build", str(tmp / "nope.txt"), str(tmp / "o"), "--trie"]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_empty_wordlist_exits_2(toy_paths, capsys):
    _wordlist, _config, tmp = toy_paths
    empty = tmp / "empty.txt"
    for text in ("\n\n", "\n  \n\t\r\n"):
        empty.write_bytes(text.encode())
        assert main(["build", str(empty), str(tmp / "o"), "--trie"]) == 2
        assert capsys.readouterr().err == f"error: word list {empty} is empty\n"


def test_decode_onehot_bcd(toy_paths, capsys):
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    main(["build", str(wordlist), str(auto), "--dawg"])
    capsys.readouterr()
    obs = tmp / "obs.txt"
    obs.write_text("b c d\n")
    assert main(["decode", str(auto), str(config), str(obs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = f"1 bcd 3 {-1.386294361203909:.12g}"
    assert lines[0] == expected
    assert lines[1].startswith("# ops=")


GOLDEN_DECODE = {
    # 1-best ops count the time window's predecessor visits, 29 a frame
    # under full relaxation: sum over j of |preds_j| * max(0, T - d_j - e_j).
    ("--variant", "inplace"): """\
1 bcd 3 -3.92342438456
# ops=87 merges=0 token_slots=14 emission_adds=0
1 ab 0 -2.49672460835
# ops=33 merges=0 token_slots=14 emission_adds=0
# ops=0 merges=0 token_slots=14 emission_adds=0
""",
    ("--variant", "nbest-naive", "--nbest", "all"): """\
1 bcd 3 -3.92342438456
2 bc 4 -9.50984040322
3 ba 1 -13.4016607013
4 bb 2 -13.4016607013
5 c 5 -15.0962564219
6 ab 0 -17.2934809993
# ops=72 merges=72 token_slots=23 emission_adds=72
1 ab 0 -2.49672460835
2 bb 2 -6.3885449064
3 ba 1 -10.2803652044
4 bc 4 -10.2803652044
5 c 5 -11.9749609251
# ops=20 merges=20 token_slots=11 emission_adds=20
# ops=0 merges=0 token_slots=0 emission_adds=0
""",
    # The rank rows are those of a run without the completion bound; the
    # trailers count the work left after its cuts, and no merge of a state
    # whose every token the bound would cut.
    ("--variant", "nbest-naive", "--nbest", "2"): """\
1 bcd 3 -3.92342438456
2 bc 4 -9.50984040322
# ops=20 merges=20 token_slots=5 emission_adds=20
1 ab 0 -2.49672460835
2 bb 2 -6.3885449064
# ops=9 merges=9 token_slots=4 emission_adds=9
# ops=0 merges=0 token_slots=0 emission_adds=0
""",
}


@pytest.mark.parametrize("options", GOLDEN_DECODE, ids=["inplace", "nbest-naive-all", "nbest-naive-2"])
def test_decode_output_is_golden(toy_paths, capsys, options):
    # self-loops and off-peak emissions give every row its own score bits;
    # the last sequence is too short for any word
    wordlist, _config, tmp = toy_paths
    config = tmp / "golden.cfg"
    config.write_text(format_config(HmmConfig(
        alphabet=tuple("abcd"), states_per_letter=2, self_loop_prob=0.3, emission_peak=0.7)))
    auto, obs = tmp / "dawg.auto", tmp / "obs.txt"
    main(["build", str(wordlist), str(auto), "--dawg"])
    obs.write_text("b b c c d d\na a b b\nc\n")
    capsys.readouterr()
    assert main(["decode", str(auto), str(config), str(obs), *options]) == 0
    assert capsys.readouterr().out == GOLDEN_DECODE[options]


def test_decode_variants_identical_rankings(toy_paths, capsys):
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    main(["build", str(wordlist), str(auto), "--dawg"])
    obs = tmp / "obs.txt"
    obs.write_text("b c d\nc\n")
    outputs = {}
    for variant in ("tabular", "flipflop", "inplace",
                    "nbest-naive", "nbest-improved"):
        capsys.readouterr()
        main(["decode", str(auto), str(config), str(obs), "--variant", variant])
        lines = [
            ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")
        ]
        outputs[variant] = lines
    assert len(set(map(tuple, outputs.values()))) == 1


@pytest.mark.parametrize("variant", ["nbest-naive", "nbest-improved"])
def test_decode_nbest_all_ranks_every_word(toy_paths, capsys, variant):
    wordlist, _config, tmp = toy_paths
    cfg = uniform_config()
    config = tmp / "uniform.cfg"
    config.write_text(format_config(cfg))
    auto, obs = tmp / "dawg.auto", tmp / "obs.txt"
    main(["build", str(wordlist), str(auto), "--dawg"])
    obs.write_text("a a a\n")
    capsys.readouterr()

    def decode(v):
        """The rank rows and the trailer's counters of one decode run."""
        assert main(["decode", str(auto), str(config), str(obs),
                     "--variant", v, "--nbest", "all"]) == 0
        *rows, trailer = capsys.readouterr().out.splitlines()
        return rows, dict(field.split("=") for field in trailer.removeprefix("# ").split())

    rows = decode(variant)[0]
    lex = Lexicon.from_words(TOY_WORDS)
    exact = nbest_exhaustive(lex, make_letter_hmms("abcd", cfg), cfg, ["a"] * 3, lex.word_count)
    assert len(exact) == lex.word_count
    assert rows == format_result(DecodeResult(ranking=exact)).splitlines()[:-1]
    naive, improved = (decode(v)[1] for v in ("nbest-naive", "nbest-improved"))
    assert int(improved["merges"]) <= int(naive["merges"])
    assert int(improved["ops"]) <= int(naive["ops"])


def test_decode_empty_obs(toy_paths, capsys):
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    main(["build", str(wordlist), str(auto), "--dawg"])
    capsys.readouterr()
    obs = tmp / "obs.txt"
    obs.write_text("")
    assert main(["decode", str(auto), str(config), str(obs)]) == 0
    assert capsys.readouterr().out == ""


def test_decode_bad_symbol_continues(toy_paths, capsys):
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    main(["build", str(wordlist), str(auto), "--dawg"])
    capsys.readouterr()
    obs = tmp / "obs.txt"
    obs.write_text("x y\nb c d\n")
    for variant in ([], ["--variant", "nbest-improved", "--nbest", "2"]):
        assert main(["decode", str(auto), str(config), str(obs), *variant]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# error:")
        assert "1 bcd 3" in out


def test_gen_deterministic_and_truth_lines(toy_paths):
    wordlist, config, tmp = toy_paths
    a, b = tmp / "a.obs", tmp / "b.obs"
    assert main(["gen", str(wordlist), str(config), str(a),
                 "--count", "5", "--seed", "42"]) == 0
    assert main(["gen", str(wordlist), str(config), str(b),
                 "--count", "5", "--seed", "42"]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("# truth ")) == 5


def test_gen_zero_count(toy_paths):
    wordlist, config, tmp = toy_paths
    out = tmp / "empty.obs"
    assert main(["gen", str(wordlist), str(config), str(out), "--count", "0"]) == 0
    assert out.read_text() == ""


def test_gen_degenerate_spells_truth(toy_paths, tmp_path):
    wordlist, _config, tmp = toy_paths
    config = tmp_path / "det.cfg"
    config.write_text(
        format_config(
            HmmConfig(alphabet=tuple("abcd"), states_per_letter=1,
                      self_loop_prob=0.0, emission_peak=1.0)
        )
    )
    out = tmp / "det.obs"
    main(["gen", str(wordlist), str(config), str(out), "--count", "8"])
    from flcva.hmm import read_observations

    for symbols, truth in read_observations(out.read_text()):
        assert "".join(symbols) == truth


def test_verify_passes(toy_paths, capsys):
    wordlist, config, _tmp = toy_paths
    assert main(["verify", str(wordlist), str(config),
                 "--instances", "10", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_bench_csv(toy_paths, capsys):
    wordlist, config, _tmp = toy_paths
    assert main(["bench", str(wordlist), str(config),
                 "--sequences", "3", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "structure,variant,N,p,T_total,sequences,wall_ms,ops,token_slots"
    assert len(lines) == 5
    rows = [ln.split(",") for ln in lines[1:]]
    by_key = {(r[0], r[1]): r for r in rows}
    assert set(by_key) == {
        ("trie", "flipflop"), ("trie", "inplace"),
        ("dawg", "flipflop"), ("dawg", "inplace"),
    }
    # flipflop and inplace agree on ops; token slots differ by 2x
    for structure in ("trie", "dawg"):
        flip = by_key[(structure, "flipflop")]
        inpl = by_key[(structure, "inplace")]
        assert flip[7] == inpl[7]
        assert int(flip[8]) == 2 * int(inpl[8])


def test_bench_synthetic_lexicon(tmp_path, capsys):
    # the synthetic lexicon is benchmarked as a word list; its letters are a-j
    wordlist = tmp_path / "synth.txt"
    wordlist.write_text("\n".join(synthetic_lexicon(5, 4, prefix_len=2, suffix_len=2).words))
    config = tmp_path / "synth.cfg"
    config.write_text(
        format_config(
            HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=1,
                      self_loop_prob=0.3, emission_peak=0.9)
        )
    )
    assert main(["bench", str(wordlist), str(config), "--sequences", "2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    trie_ops = int(lines[1].split(",")[7])
    dawg_ops = int(lines[3].split(",")[7])
    assert dawg_ops < trie_ops


def test_bench_without_wordlist_or_synthetic_exits_2(toy_paths, capsys):
    # bench has no synthetic-lexicon mode: a missing word list is a usage error
    _wordlist, config, _tmp = toy_paths
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(config), "--sequences", "1"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def _summed_ops(decode_output: str) -> int:
    return sum(int(line.split("ops=")[1].split()[0])
               for line in decode_output.splitlines() if line.startswith("# ops="))


def test_bench_is_the_file_pipeline(toy_paths, capsys):
    # each row's ops are those of build, gen and decode run on the same files
    wordlist, config, tmp = toy_paths
    assert main(["bench", str(wordlist), str(config), "--sequences", "4", "--seed", "5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    bench_ops = {(r[0], r[1]): int(r[7]) for r in rows}
    obs = tmp / "gen.obs"
    assert main(["gen", str(wordlist), str(config), str(obs), "--count", "4", "--seed", "5"]) == 0
    pipeline_ops = {}
    for structure in ("trie", "dawg"):
        auto = tmp / f"{structure}.auto"
        assert main(["build", str(wordlist), str(auto), f"--{structure}"]) == 0
        for variant in ("flipflop", "inplace"):
            capsys.readouterr()
            assert main(["decode", str(auto), str(config), str(obs), "--variant", variant]) == 0
            pipeline_ops[(structure, variant)] = _summed_ops(capsys.readouterr().out)
    assert bench_ops == pipeline_ops
    # Sequences of 4, 5, 1 and 7 frames, each relaxing its time window:
    # sum over j of |preds_j| * max(0, T - d_j - e_j), 48 + 64 + 2 + 96 in
    # the trie (16 predecessor entries) and 45 + 60 + 2 + 90 in the DAWG (15).
    assert pipeline_ops == {("trie", "flipflop"): 210, ("trie", "inplace"): 210,
                            ("dawg", "flipflop"): 197, ("dawg", "inplace"): 197}


def test_gen_writes_generate_sequences(toy_paths):
    wordlist, config, tmp = toy_paths
    out = tmp / "gen.obs"
    assert main(["gen", str(wordlist), str(config), str(out),
                 "--count", "7", "--seed", "3"]) == 0
    sequences = generate_sequences(
        Lexicon.from_words(TOY_WORDS), parse_config(config.read_text()), 7, 3
    )
    assert out.read_text() == format_observations(sequences)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "words.txt").write_text("\n".join(TOY_WORDS) + "\n")
    (tmp_path / "hmm.cfg").write_text(
        format_config(
            HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=1,
                      self_loop_prob=0.3, emission_peak=0.9)
        )
    )
    readme = (ROOT / "README.md").read_text()
    lines = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    monkeypatch.chdir(tmp_path)
    assert any(line.startswith("flcva bench ") for line in lines)
    for line in lines:
        argv = shlex.split(line, comments=True)
        out = None
        if ">" in argv:
            argv, out = argv[:argv.index(">")], argv[argv.index(">") + 1]
        if argv[0] == "flcva":
            capsys.readouterr()
            assert main(argv[1:]) == 0, line
            stdout = capsys.readouterr().out
        else:
            assert argv[0] == "python3", line
            stdout = subprocess.run(
                [sys.executable, *argv[1:]], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            ).stdout
        if out is not None:
            (tmp_path / out).write_text(stdout)
    assert len((tmp_path / "synth.txt").read_text().split()) == 120 * 90


def _decode_edited(toy_paths, target, old, new):
    """Build the toy DAWG, replace old by new in the automaton or config
    file, and decode `c c c` with it."""
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    path = auto if target == "auto" else config
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    obs = tmp / "obs.txt"
    obs.write_text("c c c\n")
    return main(["decode", str(auto), str(config), str(obs)])


def _assert_one_error_line(capsys) -> str:
    """Assert stderr is one error line; return what went to stdout."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return captured.out


@pytest.mark.parametrize("target, old, new", [
    # "c" has path index 5: a smaller stored increment used to decode `c c c`
    # as "bc" with exit code 0, a larger one to raise an uncaught PphError
    ("auto", "arc 0 1 5", "arc 0 1 4"),
    ("auto", "arc 0 1 5", "arc 0 1 9"),
    ("auto", "NODES 9", "NODES x"),
    ("auto", "ARCS 13", "ARCS 1.5"),
    ("auto", "WORDS 6", "WORDS six"),
    ("auto", "WORDS 6", "WORDS 7"),
    ("auto", "node 6 a", "node six a"),
    ("auto", "node 6 a", "node 9 a"),
    ("auto", "node 6 a", "node 7 a"),
    ("auto", "node 0 ROOT", "node 0 SINK"),
    ("auto", "arc 7 8 0", "arc 7 12 0"),
    ("auto", "arc 7 8 0", "arc 7 0 0"),
    ("auto", "arc 7 8 0", "arc 7 7 0"),
    ("auto", "arc 7 8 0", "arc 8 7 0"),
    ("auto", "arc 6 7 0", "arc 0 8 0"),
    ("auto", "arc 6 7 0", "arc 6 7"),
    # with increments matching the swapped order this loaded, and `b b`
    # decoded to "bb" with path index 1 instead of its rank 2
    ("auto", "arc 2 5 0\narc 2 7 1", "arc 2 7 0\narc 2 5 1"),
    # the loader read only the fields it checked: each of these loaded
    ("auto", "arc 7 8 0", "arc 7 8 0\nhello world"),
    ("auto", "node 5 a 5 1\nnode 6 a 6 1", "node 6 a 6 1\nnode 5 a 5 1"),
    ("auto", "node 6 a", "node 6  a"),
    ("cfg", "states_per_letter=1", "states_per_letter=x"),
    ("cfg", "self_loop_prob=0.5", "self_loop_prob=half"),
    # the later value silently won
    ("cfg", "emission_peak=1.0", "emission_peak=1.0\nemission_peak=0.5"),
    # observation files are whitespace-delimited and mark comments with #:
    # `gen` wrote sequences that read back shorter, or as comments
    ("cfg", "alphabet=abcd", "alphabet=a bcd"),
    ("cfg", "alphabet=abcd", "alphabet=abcd#"),
])
def test_bad_input_exits_2_with_one_error_line(toy_paths, capsys, target, old, new):
    assert _decode_edited(toy_paths, target, old, new) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["decode", "{auto}", "{config}", "{obs}", "--variant", "nbest-naive", "--nbest", "0"],
    ["decode", "{auto}", "{config}", "{obs}", "--variant", "nbest-improved", "--nbest", "-2"],
    ["decode", "{auto}", "{config}", "{obs}", "--variant", "inplace", "--nbest", "3"],
    ["decode", "{auto}", "{config}", "{obs}", "--variant", "tabular", "--nbest", "2"],
    ["decode", "{auto}", "{config}", "{obs}", "--nbest", "0"],
    ["gen", "{wordlist}", "{config}", "{out}", "--count", "-3"],
    ["verify", "{wordlist}", "{config}", "--instances", "-3"],
    ["bench", "{wordlist}", "{config}", "--sequences", "-2"],
    # ids argv8-argv13 were cases of bench options that no longer exist
    pytest.param(["decode", "{auto}", "{config}", "{obs}", "--variant", "flipflop",
                  "--nbest", "all"], id="argv14"),
])
def test_option_that_cannot_work_exits_2(toy_paths, capsys, argv):
    wordlist, config, tmp = toy_paths
    auto, obs, out = tmp / "dawg.auto", tmp / "obs.txt", tmp / "gen.obs"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    obs.write_text("b c d\n")
    capsys.readouterr()
    paths = dict(auto=auto, config=config, obs=obs, wordlist=wordlist, out=out)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert _assert_one_error_line(capsys) == ""  # nothing decoded
    assert not out.exists()


def test_build_to_missing_directory_exits_2(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    out = tmp / "nonexistent" / "x.auto"
    assert main(["build", str(wordlist), str(out), "--dawg"]) == 2
    _assert_one_error_line(capsys)


def test_node_off_every_word_path_exits_2(toy_paths, capsys):
    # node 2 lies on no word path; loaded, its decode state would be relaxed
    # every frame for nothing
    _wordlist, config, tmp = toy_paths
    auto, obs = tmp / "isolated.auto", tmp / "obs.txt"
    auto.write_text(ISOLATED_NODE_FILE)
    obs.write_text("a a\n")
    assert main(["decode", str(auto), str(config), str(obs)]) == 2
    assert _assert_one_error_line(capsys) == ""


def test_word_with_whitespace_exits_2(toy_paths, capsys):
    # the automaton file is whitespace-delimited, so "a b" cannot be stored;
    # str.splitlines broke "ab\fcd" into the words "ab" and "cd".  The
    # error names the word whether the list is sorted, and so streamed, or not.
    wordlist, _config, tmp = toy_paths
    out = tmp / "x.auto"
    for text, word in (("ab\na b\nc\n", "a b"), ("a b\nab\nc\n", "a b"),
                       ("ab\x0ccd\nba\n", "ab\x0ccd")):
        wordlist.write_text(text)
        assert main(["build", str(wordlist), str(out), "--dawg"]) == 2
        assert capsys.readouterr().err == f"error: word {word!r} contains whitespace\n"
        assert not out.exists()


def test_undecodable_word_list_exits_2(toy_paths, capsys):
    # past the first chunk the file object decodes too, the error gives the
    # bad byte's offset in the file, not in its chunk; every command that
    # reads a word list reads it the same way
    wordlist, config, tmp = toy_paths
    commands = (["build", wordlist, tmp / "x.auto", "--dawg"], ["gen", wordlist, config, tmp / "obs.txt"],
                ["verify", wordlist, config], ["bench", wordlist, config])
    for text in ("ab\n", "\n".join(synthetic_lexicon(120, 90)) + "\n"):
        wordlist.write_bytes(text.encode() + b"\xff\n")
        for argv in commands:
            assert main(list(map(str, argv))) == 2
            assert capsys.readouterr() == ("", (
                f"error: cannot read {wordlist}: 'utf-8' codec can't decode byte 0xff "
                f"in position {len(text)}: invalid start byte\n"))
    assert not (tmp / "x.auto").exists() and not (tmp / "obs.txt").exists()


def test_byte_order_mark_is_not_read_as_text(toy_paths, capsys):
    # a UTF-8 BOM used to become part of the first word, so `build` stored
    # the word "\ufeffab", and of the first observation symbol
    wordlist, config, tmp = toy_paths
    obs = tmp / "obs.txt"
    obs.write_text("a b\nc c c\n")
    outputs = []
    for bom in ("", "\ufeff"):
        run = tmp / f"bom{len(bom)}"
        run.mkdir()
        words, cfg, seqs = (run / path.name for path in (wordlist, config, obs))
        for path, copy in ((wordlist, words), (config, cfg), (obs, seqs)):
            copy.write_text(bom + path.read_text(), encoding="utf-8")
        auto = run / "dawg.auto"
        assert main(["build", str(words), str(auto), "--dawg"]) == 0
        built = auto.read_bytes()
        auto.write_bytes(bom.encode() + built)
        decode = ["decode", str(auto), str(cfg), str(seqs)]
        assert main(decode) == 0
        assert main([*decode, "--variant", "nbest-improved", "--nbest", "all"]) == 0
        outputs.append((built, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert "error" not in outputs[0][1].out


def test_deep_word_builds_and_decodes(tmp_path, capsys):
    # 2,000 letters: deeper than the default recursion limit
    word = "abcd" * 500
    wordlist = tmp_path / "words.txt"
    wordlist.write_text(f"{word}\nd{word[1:]}\nab\n")
    config = tmp_path / "hmm.cfg"
    config.write_text(format_config(
        HmmConfig(alphabet=tuple("abcd"), states_per_letter=1,
                  self_loop_prob=0.5, emission_peak=1.0)
    ))
    obs = tmp_path / "obs.txt"
    obs.write_text(" ".join(word) + "\n")
    auto = tmp_path / "dawg.auto"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    assert capsys.readouterr().out.startswith("N=2004 ")
    assert main(["decode", str(auto), str(config), str(obs)]) == 0
    # "ab" is a proper prefix of word, so it comes after it in path order
    assert capsys.readouterr().out.startswith(f"1 {word} 0 ")


# The LANE_MIN + 2 valid 3-frame sequences form a lane chunk for the 1-best
# variants; an unknown symbol ("x y", "b q", "b z d") comes before, inside
# and after it.
FILE_OBS = "b c d\nx y\na b\nb q\nc\nb b c\n" + "b c d\n" * (LANE_MIN - 1) + "b z d\nb c d\n"
FILE_OPTIONS = [
    *(["--variant", v] for v in VARIANTS),
    *(["--variant", v, "--nbest", n] for v in NBEST_VARIANTS for n in ("1", "2", "all")),
]


@pytest.mark.parametrize("options", FILE_OPTIONS, ids=" ".join)
def test_decode_output_is_each_sequence_decoded_alone(toy_paths, capsys, monkeypatch, options):
    wordlist, _config, tmp = toy_paths
    config, auto, obs = tmp / "golden.cfg", tmp / "dawg.auto", tmp / "obs.txt"
    config.write_text(format_config(HmmConfig(
        alphabet=tuple("abcd"), states_per_letter=2, self_loop_prob=0.3, emission_peak=0.7)))
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    calls, lanes = [], decode_lanes
    monkeypatch.setattr("flcva.decode.decode_lanes",
                        lambda lexhmm, group, arrays: calls.append(len(group)) or lanes(lexhmm, group, arrays))

    def decode(text):
        obs.write_text(text)
        capsys.readouterr()
        assert main(["decode", str(auto), str(config), str(obs), *options]) == 0
        return capsys.readouterr().out

    together = decode(FILE_OBS)
    assert together.count("# error:") == 3
    assert calls == ([LANE_MIN + 2] if options[1] in VARIANTS else [])
    assert together == "".join(decode(f"{line}\n") for line in FILE_OBS.splitlines())


@pytest.mark.parametrize("variant", [*VARIANTS, *NBEST_VARIANTS])
def test_decode_never_forks(toy_paths, capsys, monkeypatch, variant):
    # One process decodes every file, however many sequences it holds.
    wordlist, config, tmp = toy_paths
    auto, obs = tmp / "dawg.auto", tmp / "long.txt"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    assert main(["gen", str(wordlist), str(config), str(obs), "--count", "3000"]) == 0
    capsys.readouterr()

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["decode", str(auto), str(config), str(obs), "--variant", variant]) == 0
    assert capsys.readouterr().out.count("# ops=") == 3000


def _flcva(argv: list, **kwargs) -> subprocess.Popen:
    """`flcva <argv>` started in a new interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen([sys.executable, "-m", "flcva", *map(str, argv)], env=env, **kwargs)


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("pin", [None, _one_cpu], ids=["every-cpu", "one-cpu"])
def test_closed_stdout_exits_141_without_a_traceback(toy_paths, pin):
    wordlist, _config, tmp = toy_paths
    config, auto, obs = tmp / "soft.cfg", tmp / "dawg.auto", tmp / "long.txt"
    config.write_text(format_config(HmmConfig(
        alphabet=tuple("abcd"), states_per_letter=1, self_loop_prob=0.5, emission_peak=0.7)))
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    # about 500 kB of rankings, far past what a pipe holds once its reader leaves
    assert main(["gen", str(wordlist), str(config), str(obs), "--count", "3000"]) == 0
    argv = ["decode", auto, config, obs, "--variant", "nbest-naive", "--nbest", "all"]
    proc = _flcva(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=pin)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err


def _address_space_100_mb() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))


@pytest.mark.parametrize("before", ["", "b c d\n"], ids=["alone", "after-a-sequence"])
def test_out_of_memory_exits_2_with_one_error_line(toy_paths, before):
    wordlist, config, tmp = toy_paths
    auto, obs, frames = tmp / "dawg.auto", tmp / "obs.txt", 500_000
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    # about 5 x 10^6 token slots, past 100 MB within a second
    obs.write_text(before + " ".join("b" * frames) + "\n")
    argv = ["decode", auto, config, obs, "--variant", "tabular"]
    proc = _flcva(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_address_space_100_mb)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert re.fullmatch(
        rf"error: out of memory decoding a {frames}-frame sequence with --variant tabular: "
        rf"tabular holds N x T = \d+ x {frames} token slots\n", err.decode())
    assert out.count(b"# ops=") == len(before.splitlines())


def test_out_of_memory_reading_the_input_exits_2_with_one_error_line(toy_paths):
    wordlist, config, tmp = toy_paths
    auto, obs = tmp / "dawg.auto", tmp / "obs.txt"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    # a 16 MB file whose symbols alone pass 100 MB once split
    obs.write_text(" ".join("b" * 8_000_000) + "\n")
    proc = _flcva(["decode", auto, config, obs], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  preexec_fn=_address_space_100_mb)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (2, b"", b"error: out of memory in decode: the input is too large\n")
