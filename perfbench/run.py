"""Synthesis benchmark for syncplan.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds its workload's scenario itself, synthesizes strategies
the way `syncplan synthesize` does (CLI defaults: whole team, estimate on,
cap 2,000,000), and executes them the way `syncplan simulate` does, over a
set of simulation seeds drawn from --seed.  Each iteration times 30
scenario set-ups, one synthesis and at least a second of execution passes
over the seed set; iterations repeat while the next one still fits in
--seconds.  Every result is checked, timings are reported as medians, and
one JSON object is printed as the last line of standard output.

--trace 0 reports the end-to-end metrics from untraced runs.  --trace 1
alternates untraced and traced iterations and reports per-layer metrics:
self times of spans recorded around each layer's entry point (see
spantrace.py), sizes read from the returned objects, and the tracing
overhead.  Spans are written to .perfbench_out/ in the checkout.

Exit codes: 0 all checks passed, 1 some synthesis or execution failed (the
result line is still printed), 2 the benchmark could not run (no result).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 30  # timed set-ups before each iteration; setup_s is their median
N_SIM_SEEDS = 80  # seeded executions per verify pass
VERIFY_MIN_S = 1.0  # verify passes repeat until this much time has passed
CLI_CAP = 2_000_000  # `syncplan synthesize --cap` default

END_TO_END_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
    "plan_steps": "count",
    "plan_syncs": "count",
    "plan_cycle_s": "sim_s",
}

# span name -> per-layer self-time metric; "pipeline" is the run_synthesis root
SELF_TIME_METRICS = {
    "scenario_io.load": "scenario_io.load_s",
    "agents.validate": "agents.validate_s",
    "translate": "translate.s",
    "buchi.emptiness": "buchi.emptiness_s",
    "buchi.membership": "buchi.membership_s",
    "ltl.eval": "ltl.eval_s",
    "motion.product": "motion.product_s",
    "motion.reduce": "motion.reduce_s",
    "taskprod.product": "taskprod.product_s",
    "taskprod.dep": "taskprod.dep_s",
    "taskprod.assisting": "taskprod.assisting_s",
    "taskprod.reduce": "taskprod.reduce_s",
    "globalprod.product": "globalprod.product_s",
    "globalprod.classes": "globalprod.classes_s",
    "globalprod.synthesize": "globalprod.synthesize_s",
    "globalprod.minimize": "globalprod.minimize_s",
    "executor.estimate": "executor.estimate_s",
    "executor.simulate": "executor.simulate_s",
    "executor.verdicts": "executor.verdicts_s",
    "executor.timing": "executor.timing_s",
    "pipeline": "pipeline.self_s",
}

# per-layer counts: sizes read from the returned objects (see `counters`),
# then counts taken from the spans and the simulation results
COUNT_UNITS = {
    "motion.product_states": "count",
    "motion.reduced_states": "count",
    "motion.reduced_edges": "count",
    "taskprod.product_edges": "count",
    "taskprod.reduced_states": "count",
    "taskprod.reduced_states_max": "count",
    "taskprod.reduced_edges": "count",
    "globalprod.states": "count",
    "globalprod.edges": "count",
    "globalprod.silent_edges": "count",
    "executor.centralized_states": "count",
    "pipeline.reduction_ratio": "ratio",
    "translate.calls": "count",
    "translate.edges": "count",
    "executor.events": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def load_program():
    """Import syncplan from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "syncplan" / "__init__.py").is_file():
        raise BenchError(f"no syncplan sources under {src}")
    sys.path.insert(0, str(src))
    import syncplan

    if Path(syncplan.__file__).resolve().parent != (src / "syncplan").resolve():
        raise BenchError(f"imported syncplan from {syncplan.__file__}, not from {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One run: one workload, one seed set, repeated for the time budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import spantrace
        import workloads
        from syncplan import agents, executor, pipeline, scenario_io

        self.workloads, self.spantrace = workloads, spantrace
        self.agents, self.executor = agents, executor
        self.pipeline, self.scenario_io = pipeline, scenario_io
        if workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}"
            )
        self.workload = workload
        self.seconds = seconds
        self.seeds = random.Random(seed).sample(range(1_000_000), N_SIM_SEEDS)
        self.attempted = 0
        self.failed = 0
        self.reference = None  # counters of the first synthesis

    # -- operations -------------------------------------------------------

    def set_up(self, span=lambda name: nullcontext()):
        data = self.workloads.generate(self.workload)
        with span("scenario_io.load"):
            scenario = self.scenario_io.scenario_from_dict(data)
        with span("agents.validate"):
            problems = self.agents.validate(scenario)
        if problems:
            raise BenchError("generated scenario is invalid: " + "; ".join(problems))
        return scenario

    def timed_set_up(self, times: list):
        """SETUP_REPS timed set-ups, appended to `times`; returns the last scenario."""
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            scenario = self.set_up()
            times.append(time.perf_counter() - t0)
        return scenario

    def synthesize(self, scenario):
        """One synthesis operation: (result or None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.pipeline.run_synthesis(scenario, cap=CLI_CAP, per_class=False)
        except Exception:
            self.fail("synthesis raised", traceback.format_exc())
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def verify(self, scenario, strategies):
        """The `syncplan simulate` path over the seed set.

        Returns the strategies as reloaded from their file format, one
        (seed, problems, team cycle time, events) tuple per seed, and the
        elapsed seconds.  Like the CLI, it keeps no simulation result past
        its own seed.
        """
        ex, sio = self.executor, self.scenario_io
        t0 = time.perf_counter()
        loaded = {}
        for aid in sorted(strategies):
            st = sio.strategy_from_dict(json.loads(sio.strategy_text(strategies[aid])))
            loaded[st.agent_id] = st
        base = scenario.simulation
        lo, hi = base.get("duration", [1.0, 5.0])
        outcomes = []
        for seed in self.seeds:
            config = ex.SimulationConfig(
                seed=seed,
                duration_lo=lo,
                duration_hi=hi,
                action_durations={
                    k: tuple(v) for k, v in base.get("action_durations", {}).items()
                },
                unrollings=base.get("unrollings", 3),
            )
            try:
                result = ex.simulate(scenario, loaded, config)
                problems = [
                    issue for b in result.behaviors.values() for issue in ex.check_timing(b)
                ]
                verdicts = ex.check_local_satisfaction(scenario, loaded, result)
            except Exception:
                outcomes.append((seed, [traceback.format_exc()], None, 0))
                continue
            for aid, v in sorted(verdicts.items()):
                if not (v.motion and v.task):
                    problems.append(f"agent {aid}: motion={v.motion} task={v.task}")
                if not v.consistent:
                    problems.append(f"agent {aid}: evaluator and membership disagree")
            outcomes.append((seed, problems, team_cycle_time(result), len(result.events)))
        return loaded, outcomes, time.perf_counter() - t0

    # -- checks -----------------------------------------------------------

    def fail(self, what, detail=""):
        self.failed += 1
        print(f"FAIL {self.workload}: {what}", file=sys.stderr)
        if detail:
            print(detail, file=sys.stderr)

    def check_synthesis(self, result, round_trips: bool) -> dict:
        """Round trip and counters of one successful synthesis; counts a
        failure against it when either is off."""
        if not round_trips:
            self.fail("strategies do not round-trip through their file format")
            return None
        found = counters(result)
        problems = stats_mismatches(found, result.stats)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append(f"counters changed between runs: {found} vs {self.reference}")
        if problems:
            self.fail("inconsistent sizes", "\n".join(problems))
        return found

    def check_executions(self, outcomes):
        """Count each seeded execution; returns the team cycle times."""
        cycles = []
        for seed, problems, cycle, _ in outcomes:
            self.attempted += 1
            if problems:
                self.fail(f"seed {seed}", "\n".join(problems))
            else:
                cycles.append(cycle)
        return cycles

    # -- runs -------------------------------------------------------------

    def iteration(self, scenario, span=None):
        """Synthesize, then verify: untraced, repeat the verify pass until
        VERIFY_MIN_S has passed; traced, run it once.  Returns the
        measurements, or None when synthesis failed."""
        gc.collect()
        with span("pipeline") if span else nullcontext():
            result, synth_s = self.synthesize(scenario)
        if result is None:
            return None
        with span("verify") if span else nullcontext():
            passes = [self.verify(scenario, result.strategies)]
        while not span and sum(p[2] for p in passes) < VERIFY_MIN_S:
            passes.append(self.verify(scenario, result.strategies))
        found = self.check_synthesis(result, all(p[0] == result.strategies for p in passes))
        cycles = [c for _, outcomes, _ in passes for c in self.check_executions(outcomes)]
        return {
            "synth_s": synth_s,
            "verify_s": [p[2] for p in passes],
            "cycles": cycles,
            "counters": found,
            "events": sum(events for _, _, _, events in passes[0][1]),
        }

    def within_budget(self, start, last) -> bool:
        """Whether another iteration as long as the last one still ends
        within the time budget."""
        return time.perf_counter() - start + last <= self.seconds

    def run_untraced(self):
        setup_times, samples = [], []
        start, last = time.perf_counter(), 0.0
        while not samples or self.within_budget(start, last):
            t0 = time.perf_counter()
            scenario = self.timed_set_up(setup_times)
            samples.append(self.iteration(scenario))
            last = time.perf_counter() - t0
        good = [s for s in samples if s is not None]
        metrics = {"setup_s": statistics.median(setup_times)}
        if good:
            metrics["synth_s"] = statistics.median(s["synth_s"] for s in good)
            metrics["verify_s"] = statistics.median(v for s in good for v in s["verify_s"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.reference is not None:
            metrics["plan_steps"] = self.reference["plan_steps"]
            metrics["plan_syncs"] = self.reference["plan_syncs"]
        cycles = [c for s in good for c in s["cycles"]]
        if cycles:
            metrics["plan_cycle_s"] = statistics.median(cycles)
        return {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items() if k in metrics}, len(samples)

    def run_traced(self):
        tracer = self.spantrace.Tracer()
        plain, traced, layers = [], [], []
        start, last = time.perf_counter(), 0.0
        while not plain or self.within_budget(start, last):
            t0 = time.perf_counter()
            sample = self.iteration(self.set_up())
            if sample is None:
                break
            plain.append(sample)
            tracer.run += 1
            with tracer.wrapped():
                with tracer.span("setup"):
                    scenario = self.set_up(tracer.span)
                sample = self.iteration(scenario, tracer.span)
            missing = tracer.never_entered()
            if missing:
                raise BenchError("wrapped but never entered: " + ", ".join(missing))
            if sample is None:
                break
            traced.append(sample)
            layers.append(self.layer_metrics(tracer, sample))
            last = time.perf_counter() - t0
        self.write_spans(tracer)
        if not layers:
            return {}, len(plain) + len(traced)
        metrics = {}
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if isinstance(values[0], float):
                metrics[name] = statistics.median(values)
            elif len(set(values)) == 1:
                metrics[name] = values[0]
            else:
                self.fail(f"{name} changed between traced runs: {values}")
        for name, value in (traced[0]["counters"] or {}).items():
            if name in COUNT_UNITS:
                metrics[name] = value
        plain_s = statistics.median(s["synth_s"] for s in plain)
        metrics["trace.synth_s"] = statistics.median(s["synth_s"] for s in traced)
        metrics["trace.overhead_s"] = metrics["trace.synth_s"] - plain_s
        units = {k: COUNT_UNITS.get(k, "s") for k in metrics}
        return {k: (v, units[k]) for k, v in sorted(metrics.items())}, len(plain) + len(traced)

    def layer_metrics(self, tracer, sample) -> dict:
        spans = [sp for sp in tracer.spans if sp.run == tracer.run]
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for sp in spans:
            if sp.name in SELF_TIME_METRICS:
                out[SELF_TIME_METRICS[sp.name]] += sp.self_time
        (root,) = [sp for sp in spans if sp.name == "pipeline"]
        covered = sum(sp.self_time for sp in tracer.tree(root))
        if abs(covered - root.duration) > 1e-6:
            raise BenchError(
                f"layer self times sum to {covered:.6f} s, traced synthesis took {root.duration:.6f} s"
            )
        translates = [sp for sp in spans if sp.name == "translate"]
        out["translate.calls"] = len(translates)
        out["translate.edges"] = sum(sp.size for sp in translates)
        out["executor.events"] = sample["events"]
        return out

    def write_spans(self, tracer):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans_{self.workload}.json"
        path.write_text(json.dumps([sp.record() for sp in tracer.spans]) + "\n")


def counters(result) -> dict:
    """Sizes and plan counts read from a PipelineResult, summed over agents."""
    from syncplan.buchi import Silent

    arts = [result.artifacts[aid] for aid in sorted(result.artifacts)]
    gautos = [gp.automaton for _, gp in result.global_products]
    reduced = [a.reduced_task.automaton for a in arts]
    steps = [step for st in result.strategies.values() for step in st.steps()]
    estimate = result.estimate
    return {
        "motion.product_states": sum(a.motion_product.automaton.n_states for a in arts),
        "motion.reduced_states": sum(a.reduced_motion.automaton.n_states for a in arts),
        "motion.reduced_edges": sum(len(a.reduced_motion.automaton.transitions) for a in arts),
        "taskprod.product_states": sum(a.task_product.automaton.n_states for a in arts),
        "taskprod.product_edges": sum(len(a.task_product.automaton.transitions) for a in arts),
        "taskprod.reduced_states": sum(r.n_states for r in reduced),
        "taskprod.reduced_states_max": max(r.n_states for r in reduced),
        "taskprod.reduced_edges": sum(len(r.transitions) for r in reduced),
        "globalprod.states": sum(g.n_states for g in gautos),
        "globalprod.edges": sum(len(g.transitions) for g in gautos),
        "globalprod.silent_edges": sum(
            1 for g in gautos for t in g.transitions if isinstance(t.label, Silent)
        ),
        "executor.centralized_states": estimate.materialized_states or 0,
        "pipeline.reduction_ratio": result.stats.get("reduction_ratio", 0.0),
        "plan_steps": len(steps),
        "plan_syncs": sum(1 for step in steps if len(step.sync) > 1),
    }


def stats_mismatches(found: dict, stats: dict) -> list:
    """Where a counter and `result.stats` both hold a size, they must agree."""
    rows = stats["agents"].values()
    expected = {
        "motion.product_states": sum(r["motion_product"] for r in rows),
        "motion.reduced_states": sum(r["reduced_motion"] for r in rows),
        "taskprod.product_states": sum(r["task_product"] for r in rows),
        "taskprod.reduced_states": sum(r["reduced_task"] for r in rows),
        "taskprod.reduced_states_max": max(r["reduced_task"] for r in rows),
        "globalprod.states": stats["global_total"],
        "executor.centralized_states": stats.get("centralized_materialized") or 0,
    }
    return [
        f"{name}: counted {found[name]}, stats say {value}"
        for name, value in expected.items()
        if found[name] != value
    ]


def team_cycle_time(result) -> float:
    """Simulated time per cycle unrolling once the team runs its cycles:
    (end of the last unrolling - end of the first) / (unrollings - 1), where
    an unrolling ends when the last agent finishes its copy of the cycle."""
    behaviors = list(result.behaviors.values())
    unrollings = (len(behaviors[0].steps) - behaviors[0].prefix_len) // behaviors[0].cycle_len

    def team_end(u):
        ends = []
        for b in behaviors:
            last = b.steps[b.prefix_len + u * b.cycle_len - 1]
            ends.append(last.start_time + last.action_duration)
        return max(ends)

    return (team_end(unrollings) - team_end(1)) / (unrollings - 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        bench = Bench(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, iterations = bench.run_traced()
        else:
            metrics, iterations = bench.run_untraced()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _, params = bench.workloads.WORKLOADS[args.workload]
    info = {
        "workload": args.workload,
        "params": params,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": iterations,
        "sim_seeds": N_SIM_SEEDS,
        "setup_reps": SETUP_REPS,
        "fail_frac": bench.failed / bench.attempted,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }
    print("perfbench " + json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
