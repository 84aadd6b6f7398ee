"""Command line front end.

Exit codes: 0 success, 1 validation failure, an unreadable or malformed
input file, an unwritable output path, a bad argument or a usage error (an
unknown option, a missing argument), 2 empty language at some stage, 3
simulation verdict failure or deadlock.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .agents import validate
from .buchi import to_dot
from .executor import (
    DeadlockError,
    SimulationConfig,
    check_local_satisfaction,
    check_timing,
    simulate,
)
from .globalprod import EmptyLanguageError, SynthesisError
from .pipeline import format_stats, run_synthesis
from .render import render_ascii, render_svg
from .scenario_io import (
    ScenarioFormatError,
    check_strategies_fit,
    load_scenario,
    load_strategies,
    save_strategies,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EMPTY = 2
EXIT_VERDICT = 3


def _reject(message):
    """End the command with EXIT_INVALID and `error: message`."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)


def _load(path, loader=load_scenario):
    """Scenario (or, with `load_strategies`, strategies) read from files;
    an unreadable or malformed file ends the command with EXIT_INVALID."""
    try:
        return loader(path)
    except (ScenarioFormatError, OSError) as exc:
        _reject(exc)


def _load_valid(path):
    """Scenario read like `_load`; one that fails validation ends the command
    with EXIT_INVALID after printing its problems."""
    scenario = _load(path)
    problems = validate(scenario)
    if problems:
        for p in problems:
            print(f"problem: {p}")
        raise SystemExit(EXIT_INVALID)
    return scenario


def _check_output_dir(option, path):
    """Rejects a directory option whose path cannot become a directory: the
    nearest existing path on the way up must be one."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        _reject(f"{option} {path}: {existing} is not a directory")


def _check_output_file(option, path):
    """Rejects a file option whose path is a directory or lies in none."""
    path = Path(path)
    if path.is_dir():
        _reject(f"{option} {path}: is a directory")
    if not path.parent.is_dir():
        _reject(f"{option} {path}: no directory {path.parent}")


def _load_strategies(paths, scenario):
    """Strategies read from files, like `_load`; a strategy naming an agent,
    state or action that `scenario` lacks, a step the agent cannot take, or
    coalitions that do not pair up also ends with EXIT_INVALID."""

    def load(paths):
        strategies = load_strategies(paths)
        check_strategies_fit(scenario, strategies)
        return strategies

    return _load(paths, load)


def cmd_check(args) -> int:
    scenario = _load_valid(args.scenario)
    print(f"scenario '{scenario.name}' is well-formed "
          f"({len(scenario.agents)} agents, services: {', '.join(sorted(scenario.all_services))})")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    scenario = _load_valid(args.scenario)
    _check_output_dir("--out", args.out)
    if args.dot_dir:
        _check_output_dir("--dot-dir", args.dot_dir)
    try:
        result = run_synthesis(scenario)
    except (EmptyLanguageError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    paths = save_strategies(result.strategies, args.out)
    for path in paths:
        print(f"wrote {path}")
    print(format_stats(result.stats))
    if args.dot_dir:
        dot_dir = Path(args.dot_dir)
        dot_dir.mkdir(parents=True, exist_ok=True)
        for aid, art in result.artifacts.items():
            stages = [
                ("motion_spec", art.motion_spec),
                ("task_spec", art.task_spec),
                ("motion_product", art.motion_product.automaton),
                ("reduced_motion", art.reduced_motion.automaton),
                ("task_product", art.task_product.automaton),
                ("reduced_task", art.reduced_task.automaton),
            ]
            for stage, automaton in stages:
                out = dot_dir / f"agent{aid}_{stage}.dot"
                out.write_text(to_dot(automaton, f"agent{aid}_{stage}"))
        for group, gp in result.global_products:
            name = "global_" + "_".join(map(str, group))
            (dot_dir / f"{name}.dot").write_text(to_dot(gp.automaton, name))
        print(f"wrote graphs under {dot_dir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.runs < 1:
        _reject(f"--runs must be at least 1, got {args.runs}")
    scenario = _load(args.scenario)
    base = scenario.simulation
    base_seed = base.get("seed", 0) if args.seed is None else args.seed
    # the scenario's own settings are checked before its strategies
    try:
        config = SimulationConfig(
            seed=base_seed,
            duration_lo=base.get("duration", [1.0, 5.0])[0],
            duration_hi=base.get("duration", [1.0, 5.0])[1],
            action_durations={
                k: tuple(v) for k, v in base.get("action_durations", {}).items()
            },
            unrollings=base.get("unrollings", 3) if args.unrollings is None else args.unrollings,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    strategies = _load_strategies(args.strategies, scenario)
    if args.log:
        _check_output_file("--log", args.log)
    failures = 0
    all_lines = []
    for run in range(args.runs):
        seed = base_seed + run
        config = replace(config, seed=seed)
        try:
            result = simulate(scenario, strategies, config)
        except DeadlockError as exc:
            print(f"seed {seed}: {exc}")
            failures += 1
            continue
        timing_issues = [
            issue
            for behavior in result.behaviors.values()
            for issue in check_timing(behavior)
        ]
        verdicts = check_local_satisfaction(scenario, strategies, result)
        row = []
        for aid in sorted(verdicts):
            v = verdicts[aid]
            row.append(f"agent {aid}: motion={'ok' if v.motion else 'FAIL'} task={'ok' if v.task else 'FAIL'}")
            if not v.consistent:
                row.append(f"agent {aid}: oracle/membership disagreement")
                failures += 1
            if not (v.motion and v.task):
                failures += 1
        print(f"seed {seed}: " + "; ".join(row))
        if timing_issues:
            failures += 1
            for issue in timing_issues:
                print(f"seed {seed}: timing violation: {issue}")
        if args.log:
            all_lines.extend(f"run {run} " + line for line in result.log_lines())
    if args.log:
        Path(args.log).write_text("\n".join(all_lines) + "\n")
        print(f"wrote event log {args.log}")
    return EXIT_OK if failures == 0 else EXIT_VERDICT


def cmd_render(args) -> int:
    scenario = _load(args.scenario)
    strategies = _load_strategies(args.strategies, scenario) if args.strategies else {}
    if args.out:
        _check_output_file("--out", args.out)
    try:
        if args.format == "ascii":
            text = render_ascii(scenario, strategies)
        else:
            text = render_svg(scenario, strategies)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_stats(args) -> int:
    scenario = _load_valid(args.scenario)
    try:
        result = run_synthesis(scenario)
    except (EmptyLanguageError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    print(format_stats(result.stats))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncplan",
        description="Synthesize and execute synchronized strategies for agent teams "
        "with temporal-logic motion and task specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="run the full synthesis pipeline")
    p.add_argument("scenario")
    p.add_argument("--out", default="strategies", help="directory for strategy files")
    p.add_argument("--dot-dir", default=None, help="write automaton graphs here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="execute strategies under random timing")
    p.add_argument("scenario")
    p.add_argument("strategies", nargs="+", help="strategy files")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (defaults to the scenario's simulation seed)")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--unrollings", type=int, default=None,
                   help="cycle repetitions (defaults to the scenario's setting)")
    p.add_argument("--log", default=None, help="write the event log to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="draw the workspace and trajectories")
    p.add_argument("scenario")
    p.add_argument("--strategies", nargs="*", default=[], help="strategy files")
    p.add_argument("--format", choices=("ascii", "svg"), default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("stats", help="print pipeline statistics without writing files")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse ends a usage error with 2, which means an empty language here
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
