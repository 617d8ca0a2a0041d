"""Command-line front end: build, decode, gen, verify, bench.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from .automaton import (
    AutomatonError,
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
from .synth import synthetic_lexicon
from .verify import run_verify


class InputError(Exception):
    """Unusable input file or option combination (exit code 2)."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    lexicon = _load_lexicon(args.wordlist)
    auto = build_dawg(lexicon) if args.dawg else build_trie(lexicon)
    suff = compute_suff(auto)
    increments = annotate_increments(auto, suff)
    _write(args.out, serialize_automaton(auto, suff, increments))
    print(
        f"N={auto.node_count} arcs={auto.arc_count} W={lexicon.word_count} "
        f"p={auto.arc_count / auto.node_count:.6g}"
    )
    return 0


def cmd_decode(args) -> int:
    _at_least(1, args, "nbest")
    if args.nbest != 1 and args.variant in VARIANTS:
        raise InputError(f"--nbest {args.nbest} needs an n-best variant, not {args.variant}")
    auto, _, increments = parse_automaton(_read(args.automaton))
    config = _load_config(args.config)
    letters = {lab for lab in auto.labels if lab is not None}
    letter_hmms = make_letter_hmms(letters, config)
    lexhmm = expand(auto, increments, letter_hmms, config)
    entries = read_observations(_read(args.obs))
    for symbols, _truth in entries:
        try:
            if args.variant in VARIANTS:
                result = VARIANTS[args.variant](lexhmm, symbols)
            else:
                result = NBEST_VARIANTS[args.variant](lexhmm, symbols, args.nbest)
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
    _at_least(1, args, "prefix_len", "suffix_len")
    if args.synthetic_prefixes or args.synthetic_suffixes:
        if args.wordlist is not None:
            raise InputError("bench takes a word list or --synthetic-* pool sizes, not both")
        _at_least(1, args, "synthetic_prefixes", "synthetic_suffixes")
        try:
            lexicon = synthetic_lexicon(
                args.synthetic_prefixes,
                args.synthetic_suffixes,
                prefix_len=args.prefix_len,
                suffix_len=args.suffix_len,
                seed=args.seed,
            )
        except ValueError as exc:  # a pool larger than its words allow
            raise InputError(str(exc)) from exc
    else:
        if args.wordlist is None:
            raise InputError("bench needs a word list or --synthetic-* pool sizes")
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
    p.add_argument("--nbest", type=int, default=1)
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
    p.add_argument("wordlist", nargs="?")
    p.add_argument("config")
    p.add_argument("--sequences", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synthetic-prefixes", type=int, default=0)
    p.add_argument("--synthetic-suffixes", type=int, default=0)
    p.add_argument("--prefix-len", type=int, default=4)
    p.add_argument("--suffix-len", type=int, default=4)
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
