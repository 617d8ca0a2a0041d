"""Command-line front end: build, decode, gen, verify, bench.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

from .automaton import (
    AutomatonError,
    UnsortedWords,
    build_dawg,
    build_trie,
    parse_automaton,
    read_wordlist,
    serialize_automaton,
)
from .bench import CSV_HEADER, generate_sequences, run_bench
from .decode import NBEST_VARIANTS, VARIANTS, DecodeError, format_result
from .hmm import HmmConfigError, format_observations, make_letter_hmms, parse_config, read_observations
from .lexhmm import ExpansionError, expand
from .pph import annotate_increments, compute_suff
from .verify import run_verify


class InputError(Exception):
    """Unusable input file or option combination (exit code 2)."""


# characters per read when a word list is streamed
_BLOCK = 1 << 16


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _stream_words(path: str):
    """The words read_wordlist(_read(path)) would see, in file order, read in
    blocks: each line stripped, blank lines dropped, no sort."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            tail = ""
            while block := fh.read(_BLOCK):
                lines = (tail + block).split("\n")
                tail = lines.pop()  # the line the next block may go on with
                yield from filter(None, map(str.strip, lines))
            yield from filter(None, [tail.strip()])
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            _read(path)  # raises with the bad byte's offset in the file, not in a block
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _at_least(low: int, args, *names: str) -> None:
    """Reject option values below low, before any input is read."""
    for name in names:
        value = getattr(args, name)
        if value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}, not {value}")


def _load_lexicon(path: str):
    lexicon = read_wordlist(_read(path))
    if lexicon.word_count == 0:
        raise InputError(f"word list {path} is empty")
    return lexicon


def _load_config(path: str):
    return parse_config(_read(path))


def cmd_build(args) -> int:
    build = build_dawg if args.dawg else build_trie
    words = _stream_words(args.wordlist)
    first = next(words, None)
    if first is None:
        raise InputError(f"word list {args.wordlist} is empty")
    try:
        auto = build(chain((first,), words))
    except UnsortedWords:
        auto = None
    # Stripped words hold whitespace only inside, so one whitespace label
    # means a word the automaton file cannot store.
    if auto is None or any(map(str.isspace, auto.letters)):
        # A list out of order or with duplicates is sorted once and gives the
        # same automaton; for a word with whitespace this raises the error
        # that names it.
        auto = build(_load_lexicon(args.wordlist))
    suff = compute_suff(auto)
    increments = annotate_increments(auto, suff)
    _write(args.out, serialize_automaton(auto, suff, increments))
    print(
        f"N={auto.node_count} arcs={auto.arc_count} W={auto.word_count} "
        f"p={auto.arc_count / auto.node_count:.6g}"
    )
    return 0


def _nbest_arg(text: str):
    """--nbest value: a count, or "all" for every word of the lexicon."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', not {text!r}") from None


def cmd_decode(args) -> int:
    if args.nbest != "all":
        _at_least(1, args, "nbest")
    if args.nbest != 1 and args.variant in VARIANTS:
        raise InputError(f"--nbest {args.nbest} needs an n-best variant, not {args.variant}")
    auto, _, increments = parse_automaton(_read(args.automaton))
    n = auto.word_count if args.nbest == "all" else args.nbest
    config = _load_config(args.config)
    letter_hmms = make_letter_hmms(auto.letters, config)
    lexhmm = expand(auto, increments, letter_hmms, config)
    entries = read_observations(_read(args.obs))
    for symbols, _truth in entries:
        try:
            if args.variant in VARIANTS:
                result = VARIANTS[args.variant](lexhmm, symbols)
            else:
                result = NBEST_VARIANTS[args.variant](lexhmm, symbols, n)
        except DecodeError as exc:
            print(f"# error: {exc}")
            continue
        sys.stdout.write(format_result(result))
    return 0


def cmd_gen(args) -> int:
    _at_least(0, args, "count")
    lexicon = _load_lexicon(args.wordlist)
    config = _load_config(args.config)
    entries = generate_sequences(lexicon, config, args.count, args.seed)
    _write(args.out, format_observations(entries))
    return 0


def cmd_verify(args) -> int:
    _at_least(0, args, "instances")
    lexicon = _load_lexicon(args.wordlist)
    config = _load_config(args.config)
    report = run_verify(lexicon, config, args.instances, args.seed)
    if report.warning:
        print(f"warning: {report.warning}")
    if report.passed:
        print(f"PASS: {report.checks} checks over {report.instances} instances")
        return 0
    print(f"FAIL: {report.failure}")
    return 1


def cmd_bench(args) -> int:
    _at_least(0, args, "sequences")
    lexicon = _load_lexicon(args.wordlist)
    config = _load_config(args.config)
    rows = run_bench(lexicon, config, args.sequences, args.seed)
    print(CSV_HEADER)
    for row in rows:
        print(row.csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flcva",
        description="Lexically-constrained Viterbi decoding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compile a word list into an automaton")
    p.add_argument("wordlist")
    p.add_argument("out")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--trie", action="store_true")
    grp.add_argument("--dawg", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("decode", help="decode observation sequences")
    p.add_argument("automaton")
    p.add_argument("config")
    p.add_argument("obs")
    p.add_argument("--nbest", type=_nbest_arg, default=1)
    p.add_argument("--variant", choices=[*VARIANTS, *NBEST_VARIANTS], default="inplace")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("gen", help="generate synthetic observation sequences")
    p.add_argument("wordlist")
    p.add_argument("config")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run the oracle equivalence suite")
    p.add_argument("wordlist")
    p.add_argument("config")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="trie vs DAWG benchmark (CSV)")
    p.add_argument("wordlist")
    p.add_argument("config")
    p.add_argument("--sequences", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, AutomatonError, HmmConfigError, ExpansionError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
