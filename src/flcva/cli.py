"""Command-line front end: build, decode, gen, verify, bench.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error
(out of memory included), 141 (128 + SIGPIPE) stdout closed before all
output was written, as by `| head`.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
import threading
from functools import partial
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


def _decode_entries(decode, entries, write) -> None:
    """Write each sequence's result block, or an `# error:` line for a
    sequence the decoder rejects."""
    for symbols, _truth in entries:
        try:
            result = decode(symbols)
        except DecodeError as exc:
            write(f"# error: {exc}\n")
            continue
        write(format_result(result))


# Decode work is estimated as frames x predecessor entries (LexiconHMM.n_arcs).
# On a 2-vCPU VM one fork, pipe and reap took about 1.3 ms, a decoder took
# 47-115 ns a unit on the benchmark lexicons (more on smaller ones), and two
# processes beat one from about 20,000 units a share.  A child is forked only
# when each half of the file is at least this much work: 2.8 ms at the
# fastest rate measured.
_MIN_SHARE_WORK = 60_000


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork safely: no
    os.fork or os.sched_getaffinity, or another thread running."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_share(decode, share):
    """Fork a child that writes share's decode text to a pipe: (its pid, the
    pipe's read end as a text file), or None when no child could be started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # os._exit leaves without flushing the sys.stdout this child inherited
        status = 1
        try:
            os.close(read_fd)
            text = []
            _decode_entries(decode, share, text.append)
            # written once decoded: a full pipe then cannot stall the decode
            with open(write_fd, "w", encoding="utf-8", newline="") as pipe:
                pipe.writelines(text)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)  # else reading the pipe never meets its end
    return pid, open(read_fd, encoding="utf-8", newline="")


def _fan_out(decode, entries: list) -> None:
    """Decode the second half of entries in a forked child while this process
    decodes the first, then write the child's text after its own.  A half
    whose child could not be started or did not exit with 0 is decoded here
    instead, so a failure looks as it would in one process."""
    cut = len(entries) // 2
    child = _fork_share(decode, entries[cut:])
    try:
        _decode_entries(decode, entries[:cut], sys.stdout.write)
        if child is not None:
            pid, pipe = child
            with pipe:
                text = pipe.read()
            status = os.waitpid(pid, 0)[1]
            child = None  # reaped
            if status == 0:
                sys.stdout.write(text)
                return
        _decode_entries(decode, entries[cut:], sys.stdout.write)
    finally:
        if child is not None:  # something above raised, the wait included
            pid, pipe = child
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    if args.variant in VARIANTS:
        decoder = partial(VARIANTS[args.variant], lexhmm)
    else:
        decoder = partial(NBEST_VARIANTS[args.variant], lexhmm, n=n)

    def decode(symbols):
        try:
            return decoder(symbols)
        except MemoryError:
            pass  # handled below: the exception holds the decoder's tables until left
        slots = f": tabular holds N x T = {lexhmm.n_states} x {len(symbols)} token slots"
        raise InputError(
            f"out of memory decoding a {len(symbols)}-frame sequence with --variant {args.variant}"
            + (slots if args.variant == "tabular" else "")
        )

    # Sequences are independent: a child decodes the second half of the file
    # when each half is worth a fork.
    work = sum(len(symbols) for symbols, _truth in entries) * lexhmm.n_arcs
    if _usable_cpus() > 1 and len(entries) > 1 and work >= 2 * _MIN_SHARE_WORK:
        _fan_out(decode, entries)
    else:
        _decode_entries(decode, entries, sys.stdout.write)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args does not
    change it, and building it costs an in-process caller about 0.7 ms."""
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
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return status
    except (InputError, AutomatonError, HmmConfigError, ExpansionError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early.  Python flushes stdout again at exit, so it
        # is pointed at devnull first; the status is a shell's for a tool
        # killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except MemoryError:
        pass  # reported below: the exception holds what filled memory until left
    print(f"error: out of memory in {args.command}: the input is too large", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
