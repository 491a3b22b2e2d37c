"""Command-line front end.

Subcommands: eval, reduce, play, search, verify, grid, solve-ogtp.
Exit codes: 2 for unreadable or unparsable inputs and for bounds out of
range; play exits 0 on WON_FIXPOINT, 1 on LOST, 3 on EXHAUSTED; search
exits 0 on NONDETERMINATE, 1 on ALL_PLAYS_LOSE, 3 on INCONCLUSIVE; verify
exits 0 when the counterexample checks out and 1 otherwise; solve-ogtp
exits 1 when no tiling exists within the bound.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain, islice
from multiprocessing import Pool

from .automata import accepts, compile_nfa, iter_words, parse_regex, parse_word
from .constraints import ConstraintSet
from .escape import (Caps, ExploreContext, PlayOutcome, VerdictKind, explore,
                     initial_position, run_play, scripted_from_trace,
                     strategy_guided, strategy_interactive, strategy_shortest,
                     trace_from_jsonl, trace_to_jsonl)
from .gadget import build_grid, check_counterexample, decorate, find_homomorphism
from .graphs import endpointed_from_json, endpointed_to_json, graph_from_json
from .ogtp import (ReductionOutput, compile_reduction, instance_from_json,
                   reduction_from_json, reduction_to_json, solve_bruteforce,
                   tiling_from_json, tiling_to_json)
from .rpq import evaluate
from .symbols import Alphabet, WorkbenchError


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shortlex_str(s: str) -> tuple[int, str]:
    return (len(s), s)


# --------------------------------------------------------------------------
# Subcommands


def cmd_eval(args) -> int:
    g = graph_from_json(_read(args.graph))
    alphabet = Alphabet.from_canonical(g.labels())
    q = compile_nfa(parse_regex(args.query, alphabet), alphabet)
    pairs = sorted(evaluate(q, g),
                   key=lambda p: (_shortlex_str(p[0]), _shortlex_str(p[1])))
    _emit(args, "".join(f"{x} {y}\n" for x, y in pairs))
    return 0


def cmd_reduce(args) -> int:
    inst = instance_from_json(_read(args.instance))
    _emit(args, reduction_to_json(compile_reduction(inst)))
    return 0


def _load_instance(path: str) -> tuple[ReductionOutput, ConstraintSet]:
    out = reduction_from_json(_read(path))
    return out, out.constraint_set()


def cmd_play(args) -> int:
    out, cs = _load_instance(args.instance)
    q0 = out.q0_nfa
    script_trace = None
    if args.trace:
        script_trace = trace_from_jsonl(_read(args.trace))

    if args.initial_word:
        word = parse_word(args.initial_word, out.alphabet)
    elif args.initial_cap is not None:
        word = next((w for w in iter_words(q0, args.initial_cap) if w), None)
        if word is None:
            raise WorkbenchError(
                f"q0 has no word within length {args.initial_cap}")
    elif script_trace is not None and script_trace.initial_word is not None:
        word = script_trace.initial_word
    else:
        raise WorkbenchError("need --initial-word, --initial-cap, or a "
                             "--trace with an initial word")
    base_word = tuple(s.uncolored() for s in word)
    if not accepts(q0, base_word):
        raise WorkbenchError("initial word is not in the q0 language")
    init = initial_position(word)

    if args.strategy == "shortest":
        strategy = strategy_shortest()
    elif args.strategy == "scripted":
        if script_trace is None:
            raise WorkbenchError("--strategy scripted needs --trace")
        strategy = scripted_from_trace(script_trace)
    elif args.strategy == "guided":
        if not args.model:
            raise WorkbenchError("--strategy guided needs --model")
        model = graph_from_json(_read(args.model))
        h0 = find_homomorphism(init.graph, model)
        if h0 is None:
            raise WorkbenchError(
                "initial position has no homomorphism into the model")
        strategy = strategy_guided(model, h0)
    else:
        strategy = strategy_interactive()

    result, trace = run_play(q0, cs, strategy, init, args.max_rounds)
    if args.out:
        _emit(args, trace_to_jsonl(trace))
    print(f"{result.outcome.value} round={result.round}")
    return {PlayOutcome.WON_FIXPOINT: 0, PlayOutcome.LOST: 1,
            PlayOutcome.EXHAUSTED: 3}[result.outcome]


_SEARCH_CTX: ExploreContext | None = None

# Start words sent to a search worker at a time.  Most words are decided
# at the root in well under a millisecond, so one word per task costs more
# in inter-process traffic than in search.
_SEARCH_BATCH = 64


def _search_init(instance_text: str, caps: Caps) -> None:
    global _SEARCH_CTX
    out = reduction_from_json(instance_text)
    _SEARCH_CTX = ExploreContext(out.q0_nfa, out.constraint_set(), caps)


def _search_worker(words):
    """The outcomes of a batch of start words, in order, up to the first
    win: the verdict reads no further, and a later word of the batch may
    take far longer than the win did."""
    out = []
    for w in words:
        kind, pos = _SEARCH_CTX.classify_word(w)
        out.append((kind, pos))
        if pos is not None:  # a win
            break
    return out


def _batches(words, size: int):
    it = iter(words)
    while batch := list(islice(it, size)):
        yield batch


def cmd_search(args) -> int:
    text = _read(args.instance)
    out = reduction_from_json(text)
    caps = Caps(args.max_initial_len, args.max_witness_len, args.max_rounds,
                args.max_branches)
    if args.jobs > 1:
        # Workers classify the surviving start words; results come back in
        # start-word order, so the verdict and certificate match explore.
        ctx = ExploreContext(out.q0_nfa, out.constraint_set(), caps)
        with Pool(args.jobs, initializer=_search_init,
                  initargs=(text, caps)) as pool:
            batches = _batches(ctx.start_words(), _SEARCH_BATCH)
            verdict = ctx.verdict(chain.from_iterable(
                pool.imap(_search_worker, batches)))
    else:
        verdict = explore(out.q0_nfa, out.constraint_set(), caps)
    print(verdict.kind.value)
    if verdict.certificate is not None:
        _emit(args, endpointed_to_json(verdict.certificate))
    return {VerdictKind.NONDETERMINATE: 0, VerdictKind.ALL_PLAYS_LOSE: 1,
            VerdictKind.INCONCLUSIVE: 3}[verdict.kind]


def cmd_verify(args) -> int:
    eg = endpointed_from_json(_read(args.graph), args.a, args.b)
    out, _ = _load_instance(args.instance)
    report = check_counterexample(eg.graph, out.views.all_languages(),
                                  out.q0_nfa, eg.a, eg.b)
    if report.ok:
        print("OK")
        return 0
    for line in report.failures:
        print(line)
    return 1


def cmd_grid(args) -> int:
    eg = build_grid(args.m)
    if args.tiling:
        eg = decorate(eg, tiling_from_json(_read(args.tiling)))
    _emit(args, endpointed_to_json(eg))
    return 0


def cmd_solve_ogtp(args) -> int:
    inst = instance_from_json(_read(args.instance))
    tiling = solve_bruteforce(inst, args.max_n)
    if tiling is None:
        print("NONE")
        return 1
    _emit(args, tiling_to_json(tiling))
    return 0


# --------------------------------------------------------------------------
# Parser


def _int_from(low: int):
    """An argparse type: an int of at least low.  A bound below it is
    refused at parse time, with exit 2, before any verb runs."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    # argparse names the type in its message for a non-integer.
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpqdet",
        description="Workbench for determinacy of regular path queries: "
                    "evaluate queries, compile tiling instances, play and "
                    "search the constraint game, verify counterexamples.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the main output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a query over a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--query", required=True,
                   help="regular expression over the graph's edge labels")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reduce", parents=[common],
                       help="compile a tiling instance to a workbench input")
    p.add_argument("instance", help="tiling-problem JSON file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("play", parents=[common], help="play one game")
    p.add_argument("instance", help="workbench instance JSON file")
    p.add_argument("--strategy", default="shortest",
                   choices=["shortest", "guided", "scripted", "interactive"])
    p.add_argument("--initial-word",
                   help="space-separated base symbols of the starting chain")
    p.add_argument("--initial-cap", type=int,
                   help="use the shortlex-least q0 word within this length")
    p.add_argument("--max-rounds", type=_int_from(0), default=20)
    p.add_argument("--trace", help="trace JSONL to replay (scripted)")
    p.add_argument("--model", help="model graph JSON (guided)")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("search", parents=[common],
                       help="bounded exhaustive search for a counterexample")
    p.add_argument("instance", help="workbench instance JSON file")
    p.add_argument("--max-initial-len", type=int, default=8)
    p.add_argument("--max-witness-len", type=int, default=3)
    p.add_argument("--max-rounds", type=int, default=6)
    p.add_argument("--max-branches", type=int, default=4)
    p.add_argument("--jobs", type=_int_from(1), default=1,
                   help="worker processes classifying start words (default 1)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify",
                       help="check a counterexample against an instance")
    p.add_argument("graph", help="endpointed graph JSON file")
    p.add_argument("instance", help="workbench instance JSON file")
    p.add_argument("--a", help="start endpoint (default from the file)")
    p.add_argument("--b", help="target endpoint (default from the file)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", parents=[common],
                       help="emit the doubled grid, optionally decorated")
    p.add_argument("m", type=int, help="grid size")
    p.add_argument("--tiling", help="tiling JSON file to copy shades from")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("solve-ogtp", parents=[common],
                       help="brute-force a tiling instance")
    p.add_argument("instance", help="tiling-problem JSON file")
    p.add_argument("--max-n", type=_int_from(1), default=3)
    p.set_defaults(func=cmd_solve_ogtp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WorkbenchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError as e:
        # The JSON decoder and the regex parser's parentheses recurse.
        print(f"error: input nested too deeply: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
