"""Command-line front end.

Subcommands: ``check`` (offline guard evaluation over a trace),
``simulate`` (replay a scenario with online monitors), ``fuzz`` (the
monitor-vs-semantics differential sweep), and ``explain`` (the causal
view at one event). Reports are JSON; ``--pretty`` switches to an
indented / human layout. Exit codes: 0 success, 1 differential mismatch,
2 bad input (flags, ``$CPL_SEED``, files, guards) or a stdout closed
before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .denot import sat_table
from .lang import ParseError, close_guards, expand_derived, parse_guard
from .monitor import MUTATIONS
from .msc import MscError, validate_msc
from .simulator import (
    FuzzParams,
    ScenarioError,
    fuzz_sweep,
    load_scenario,
    run_scenario,
)
from .rng import SplitMix64
from .trace import TraceFormatError, encode_valuation, load_trace, read_json


def _emit(payload, pretty: bool, out: str | None = None) -> int:
    """Print the report, or write it to ``out``; returns the exit code."""
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if not out:
        print(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _fail(str(exc))
    return 0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_chart_and_guards(path: str):
    """Accept a plain trace or a scenario file (a trace plus guards); the
    chart comes back well-formed, else :class:`TraceFormatError`."""
    data = read_json(path)
    if isinstance(data, dict) and ("guards" in data or "branches" in data):
        sc = load_scenario(data)
        return sc.msc, [sc.guard_texts[eid] for eid in sorted(sc.guard_texts)]
    m = load_trace(data)
    bad = [v.detail for v in validate_msc(m).violations]
    if bad:
        raise TraceFormatError(f"trace is not well-formed: {bad}")
    return m, []


def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return count


def _default_seed(arg_seed: int | None) -> int:
    """``--seed``, else ``$CPL_SEED``, else 0. A ``$CPL_SEED`` that is not
    an integer, or a seed of either source outside [0, 2**64) (which
    :class:`~cplkit.rng.SplitMix64` would silently wrap), ends the run
    with exit 2, like a bad flag."""
    source, seed = "--seed", arg_seed
    if seed is None:
        source, env = "CPL_SEED", os.environ.get("CPL_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise SystemExit(_fail(f"CPL_SEED must be an integer, got {env!r}")) from None
    if not 0 <= seed < 1 << 64:
        raise SystemExit(_fail(f"{source} must be in [0, 2**64), got {seed}"))
    return seed


# ---------------------------------------------------------------------- #
# check
# ---------------------------------------------------------------------- #

def cmd_check(args: argparse.Namespace) -> int:
    try:
        m, embedded = _load_chart_and_guards(args.trace)
    except (OSError, TraceFormatError, ScenarioError) as exc:
        return _fail(str(exc))

    texts: list[str] = list(args.guard or [])
    if args.guards_file:
        try:
            with open(args.guards_file, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        texts.append(line)
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(str(exc))
    if not texts:
        texts = embedded

    try:
        formulas = [
            expand_derived(parse_guard(t, set(m.lifelines)), m.lifelines)
            for t in texts
        ]
    except ParseError as exc:
        return _fail(str(exc))

    events = list(m.events)
    if args.event is not None:
        if args.event not in m.kind:
            return _fail(f"no such event: {args.event}")
        events = [args.event]

    out = []
    if formulas:
        gs = close_guards(formulas)
        rows = sat_table(m, gs)
        out = [
            {"event": e, "guard": text, "value": rows[e][pos]}
            for e in sorted(events)
            for text, pos in zip(texts, gs.guard_pos)
        ]
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------- #
# simulate
# ---------------------------------------------------------------------- #

def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.scenario)
        g = sc.guard_set()
    except (OSError, ScenarioError, ParseError) as exc:
        return _fail(str(exc))

    seed = _default_seed(args.seed)
    seed_rng = SplitMix64(seed)
    logs = []
    try:
        for _ in range(args.extensions):
            logs.append(run_scenario(sc, g, seed_rng.next_u64()).to_dict())
    except ScenarioError as exc:
        return _fail(str(exc))
    return _emit(logs[0] if args.extensions == 1 else logs, args.pretty, args.out)


# ---------------------------------------------------------------------- #
# fuzz
# ---------------------------------------------------------------------- #

def cmd_fuzz(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    try:
        params = FuzzParams(
            lifelines=args.lifelines,
            events_per_lifeline=args.events,
            message_prob=args.msg_prob,
            var_alphabet=args.vars,
            formula_depth=args.depth,
            formula_count=args.formulas,
            seed=seed,
        )
    except ValueError as exc:
        return _fail(str(exc))

    summary = fuzz_sweep(
        params,
        seeds=args.seeds,
        extensions=args.extensions,
        mutation=args.mutate,
        keep_going=args.keep_going,
        jobs=args.jobs,
    )
    _emit(summary.to_dict(), args.pretty)
    return 0 if summary.ok else 1


# ---------------------------------------------------------------------- #
# explain
# ---------------------------------------------------------------------- #

def cmd_explain(args: argparse.Namespace) -> int:
    try:
        m, _ = _load_chart_and_guards(args.trace)
    except (OSError, TraceFormatError, ScenarioError) as exc:
        return _fail(str(exc))
    if args.event not in m.kind:
        return _fail(f"no such event: {args.event}")

    rows = []
    for b in m.lifelines:
        try:
            lv = m.last_visible(args.event, b)
        except MscError as exc:
            return _fail(str(exc))
        if lv is None:
            continue
        rows.append(
            {
                "lifeline": b,
                "event": lv,
                "local_index": m.local_index(lv),
                "valuation": dict(sorted(m.val[lv].items())),
            }
        )

    if args.pretty:
        print(f"causal view at event {args.event} (lifeline {m.pid[args.event]}):")
        for row in rows:
            vals = ", ".join(f"{x}={v!r}" for x, v in row["valuation"].items())
            print(
                f"  {row['lifeline']}: event {row['event']} "
                f"(index {row['local_index']}) {vals or '(empty store)'}"
            )
    else:
        _emit([{**row, "valuation": encode_valuation(row["valuation"])} for row in rows], False)
    return 0


# ---------------------------------------------------------------------- #
# argument parsing
# ---------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cplkit",
        description="Causal-past guard evaluation and monitoring over message charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate guards over a trace, offline")
    p.add_argument("trace", help="trace or scenario JSON file")
    p.add_argument("--guard", action="append", help="guard text (repeatable)")
    p.add_argument("--guards-file", help="file with one guard per line")
    p.add_argument("--event", type=int, help="restrict to one event id")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="replay a scenario with online monitors")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="default: $CPL_SEED or 0")
    p.add_argument(
        "--extensions", type=_at_least(1), default=1, help="number of schedules"
    )
    p.add_argument("--out", help="write the log(s) to a file")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuzz", help="differential sweep of monitor vs semantics")
    p.add_argument(
        "--seeds", type=_at_least(0), default=100, help="generated instances"
    )
    p.add_argument(
        "--extensions", type=_at_least(1), default=3, help="schedules per instance"
    )
    p.add_argument("--lifelines", type=int, default=4)
    p.add_argument("--events", type=int, default=6, help="max events per lifeline")
    p.add_argument("--msg-prob", type=float, default=0.35)
    p.add_argument("--vars", type=int, default=3, help="variable alphabet size")
    p.add_argument("--formulas", type=int, default=6, help="guards per instance")
    p.add_argument("--depth", type=int, default=3, help="max formula depth")
    p.add_argument("--seed", type=int, default=None, help="default: $CPL_SEED or 0")
    p.add_argument(
        "--mutate",
        choices=MUTATIONS,
        help="inject a deliberate monitor defect (the sweep must then fail)",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="collect all divergences instead of stopping at the first",
    )
    p.add_argument(
        "--jobs", type=_at_least(1), default=1, help="parallel worker processes"
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("explain", help="show the causal view at one event")
    p.add_argument("trace", help="trace or scenario JSON file")
    p.add_argument("--event", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. ``| head``). Point stdout at
        # devnull so that the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("stdout was closed before the report was written")


if __name__ == "__main__":
    sys.exit(main())
