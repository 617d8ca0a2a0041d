import math

import pytest

from flcva.automaton import Lexicon, build_trie, minimize, serialize_automaton
from flcva.bench import generate_sequences
from flcva.cli import main
from flcva.decode import DecodeResult, format_result
from flcva.hmm import (
    HmmConfig, format_config, format_observations, make_letter_hmms, parse_config,
    quantize_log,
)
from flcva.oracle import nbest_exhaustive
from flcva.pph import annotate_increments, compute_suff

from conftest import ISOLATED_NODE_FILE, TOY_WORDS, uniform_config


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


def test_build_trie_prints_stats(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    out = tmp / "trie.auto"
    assert main(["build", str(wordlist), str(out), "--trie"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("N=10 ")
    assert "W=6" in line


def test_build_dawg_prints_stats(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    out = tmp / "dawg.auto"
    assert main(["build", str(wordlist), str(out), "--dawg"]) == 0
    assert capsys.readouterr().out.startswith("N=9 arcs=13 W=6")


def test_build_dawg_does_not_build_the_trie(toy_paths, monkeypatch):
    wordlist, _config, tmp = toy_paths
    lex = Lexicon.from_words(TOY_WORDS)
    dawg = minimize(build_trie(lex))
    suff = compute_suff(dawg)
    expected = serialize_automaton(dawg, suff, annotate_increments(dawg, suff))

    def no_trie(_lexicon):
        raise AssertionError("build --dawg built the trie")

    monkeypatch.setattr("flcva.cli.build_trie", no_trie)
    out = tmp / "dawg.auto"
    assert main(["build", str(wordlist), str(out), "--dawg"]) == 0
    assert out.read_text() == expected


def test_build_is_deterministic(toy_paths):
    wordlist, _config, tmp = toy_paths
    a, b = tmp / "a.auto", tmp / "b.auto"
    main(["build", str(wordlist), str(a), "--dawg"])
    main(["build", str(wordlist), str(b), "--dawg"])
    assert a.read_bytes() == b.read_bytes()


def test_build_missing_file_exits_2(toy_paths, capsys):
    _wordlist, _config, tmp = toy_paths
    assert main(["build", str(tmp / "nope.txt"), str(tmp / "o"), "--trie"]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_empty_wordlist_exits_2(toy_paths, capsys):
    _wordlist, _config, tmp = toy_paths
    empty = tmp / "empty.txt"
    empty.write_text("\n\n")
    assert main(["build", str(empty), str(tmp / "o"), "--trie"]) == 2


def test_decode_onehot_bcd(toy_paths, capsys):
    wordlist, config, tmp = toy_paths
    auto = tmp / "dawg.auto"
    main(["build", str(wordlist), str(auto), "--dawg"])
    capsys.readouterr()
    obs = tmp / "obs.txt"
    obs.write_text("b c d\n")
    assert main(["decode", str(auto), str(config), str(obs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = f"1 bcd 3 {2 * quantize_log(math.log(0.5)):.12g}"
    assert lines[0] == expected
    assert lines[1].startswith("# ops=")


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
    assert main(["decode", str(auto), str(config), str(obs)]) == 0
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
    # the synthetic generator draws from letters a-j
    config = tmp_path / "synth.cfg"
    config.write_text(
        format_config(
            HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=1,
                      self_loop_prob=0.3, emission_peak=0.9)
        )
    )
    assert main(["bench", str(config), "--sequences", "2", "--seed", "0",
                 "--synthetic-prefixes", "5", "--synthetic-suffixes", "4",
                 "--prefix-len", "2", "--suffix-len", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    trie_ops = int(lines[1].split(",")[7])
    dawg_ops = int(lines[3].split(",")[7])
    assert dawg_ops < trie_ops


def test_bench_without_wordlist_or_synthetic_exits_2(toy_paths, capsys):
    _wordlist, config, _tmp = toy_paths
    assert main(["bench", str(config), "--sequences", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_writes_generate_sequences(toy_paths):
    wordlist, config, tmp = toy_paths
    out = tmp / "gen.obs"
    assert main(["gen", str(wordlist), str(config), str(out),
                 "--count", "7", "--seed", "3"]) == 0
    sequences = generate_sequences(
        Lexicon.from_words(TOY_WORDS), parse_config(config.read_text()), 7, 3
    )
    assert out.read_text() == format_observations(sequences)


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
    ["bench", "{config}", "--synthetic-prefixes", "5", "--synthetic-suffixes", "5",
     "--prefix-len", "0"],
    ["bench", "{config}", "--synthetic-prefixes", "5", "--synthetic-suffixes", "5",
     "--suffix-len", "-1"],
    ["bench", "{config}", "--synthetic-prefixes", "-5", "--synthetic-suffixes", "5"],
    ["bench", "{config}", "--synthetic-prefixes", "5"],
    # the word list was ignored and the synthetic lexicon benchmarked
    ["bench", "{wordlist}", "{synth_config}", "--synthetic-prefixes", "3",
     "--synthetic-suffixes", "3", "--prefix-len", "2", "--suffix-len", "2"],
    # 200 distinct 2-letter prefixes do not exist over 10 letters
    ["bench", "{config}", "--synthetic-prefixes", "200", "--synthetic-suffixes", "5",
     "--prefix-len", "2"],
    ["decode", "{auto}", "{config}", "{obs}", "--variant", "flipflop", "--nbest", "all"],
])
def test_option_that_cannot_work_exits_2(toy_paths, capsys, argv):
    wordlist, config, tmp = toy_paths
    auto, obs, out = tmp / "dawg.auto", tmp / "obs.txt", tmp / "gen.obs"
    assert main(["build", str(wordlist), str(auto), "--dawg"]) == 0
    obs.write_text("b c d\n")
    synth_config = tmp / "synth.cfg"  # the synthetic generator draws from letters a-j
    synth_config.write_text(config.read_text().replace("alphabet=abcd", "alphabet=abcdefghij"))
    capsys.readouterr()
    paths = dict(auto=auto, config=config, obs=obs, wordlist=wordlist, out=out,
                 synth_config=synth_config)
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
    # str.splitlines broke "ab\fcd" into the words "ab" and "cd"
    wordlist, _config, tmp = toy_paths
    out = tmp / "x.auto"
    for text in ("ab\na b\nc\n", "ab\x0ccd\nba\n"):
        wordlist.write_text(text)
        assert main(["build", str(wordlist), str(out), "--dawg"]) == 2
        _assert_one_error_line(capsys)
        assert not out.exists()


def test_undecodable_word_list_exits_2(toy_paths, capsys):
    wordlist, _config, tmp = toy_paths
    wordlist.write_bytes(b"ab\n\xff\n")
    assert main(["build", str(wordlist), str(tmp / "x.auto"), "--dawg"]) == 2
    _assert_one_error_line(capsys)


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
