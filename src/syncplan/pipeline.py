"""End-to-end synthesis pipeline with per-stage bookkeeping.

Runs, for each agent, the motion product and its reduction, then the task
product with dependency analysis, the team-wide assisting-service pass, the
task reduction, and finally one global product per dependency class from
which the strategies are extracted and minimized.  Agents of different
classes never synchronize, so the classes' strategies compose; a product
over the whole team would only interleave them.  The global products are
compared with the one-shot centralized product through its size estimate,
read from the specification automata translated above.

A stage whose automaton accepts nothing stops the run with
`EmptyLanguageError`.  The motion stage's emptiness is read off the reduced
motion automaton: the fold leaves it empty exactly when the full product
is, so the full product's components are never walked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import motion as motion_mod
from . import taskprod as task_mod
from .agents import Scenario, validate
from .buchi import language_empty
from .executor import CentralizedEstimate, estimate_centralized
from .globalprod import (
    EmptyLanguageError,
    build_global_product,
    compute_dependency_classes,
    minimize_synchronizations,
    synthesize,
)
from .translate import translate


@dataclass
class AgentArtifacts:
    agent_id: int
    motion_spec: object
    task_spec: object
    motion_product: object
    reduced_motion: object
    task_product: object
    reduced_task: object


@dataclass
class PipelineResult:
    scenario: Scenario
    artifacts: dict
    globally_assisting: dict
    dependency_classes: list
    global_products: list  # (agent id group, GlobalProduct)
    raw_strategies: dict
    strategies: dict
    estimate: CentralizedEstimate
    stats: dict = field(default_factory=dict)


def run_synthesis(scenario: Scenario, cap=None, per_class=None) -> PipelineResult:
    """Strategies for every agent, with each stage's artifacts and sizes.

    `cap` and `per_class` have no effect: the centralized baseline is its
    estimate, which materializes nothing, and synthesis always runs per
    dependency class.  Both keywords stay accepted only because the
    benchmark (`perfbench/run.py`) passes them, and a benchmark-only change
    removes them.
    """
    problems = validate(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))

    owner = scenario.service_owner
    offers = scenario.offers
    artifacts = {}
    for agent in scenario.agents:
        aid = agent.agent_id
        motion_spec = translate(scenario.motion_formulas[aid])
        task_spec = translate(scenario.task_formulas[aid])
        mp = motion_mod.build_motion_product(agent, motion_spec)
        rm = motion_mod.reduce(mp)
        if language_empty(rm.automaton):
            raise EmptyLanguageError("motion", aid)
        tm = task_mod.build_task_motion_product(rm, task_spec, aid, agent.services, owner, offers)
        if language_empty(tm.automaton):
            raise EmptyLanguageError("task", aid)
        task_mod.compute_dep(tm)
        artifacts[aid] = AgentArtifacts(aid, motion_spec, task_spec, mp, rm, tm, None)

    tms = [artifacts[aid].task_product for aid in sorted(artifacts)]
    globally_assisting = task_mod.compute_globally_assisting(tms)
    for aid in sorted(artifacts):
        art = artifacts[aid]
        art.reduced_task = task_mod.reduce_task_motion(art.task_product, globally_assisting)
        if language_empty(art.reduced_task.automaton):
            raise EmptyLanguageError("task", aid)

    classes = compute_dependency_classes(tms)
    global_products = []
    raw_strategies = {}
    for group in classes:
        products = [artifacts[aid].reduced_task for aid in sorted(group)]
        gp = build_global_product(products)
        global_products.append((tuple(sorted(group)), gp))
        raw_strategies.update(synthesize(gp))

    strategies = minimize_synchronizations(raw_strategies, scenario)

    estimate = estimate_centralized(
        scenario,
        {aid: (art.motion_spec, art.task_spec) for aid, art in artifacts.items()},
    )

    result = PipelineResult(
        scenario,
        artifacts,
        globally_assisting,
        classes,
        global_products,
        raw_strategies,
        strategies,
        estimate,
    )
    result.stats = collect_stats(result)
    return result


def collect_stats(result: PipelineResult) -> dict:
    per_agent = {}
    for aid in sorted(result.artifacts):
        art = result.artifacts[aid]
        per_agent[aid] = {
            "motion_spec": art.motion_spec.n_states,
            "task_spec": art.task_spec.n_states,
            "motion_product": art.motion_product.automaton.n_states,
            "reduced_motion": art.reduced_motion.automaton.n_states,
            "task_product": art.task_product.automaton.n_states,
            "reduced_task": art.reduced_task.automaton.n_states,
        }
    global_sizes = {
        group: gp.automaton.n_states for group, gp in result.global_products
    }
    total = sum(global_sizes.values())
    return {
        "agents": per_agent,
        "global_sizes": global_sizes,
        "global_total": total,
        "globally_assisting": {
            aid: sorted(v) for aid, v in sorted(result.globally_assisting.items())
        },
        "dependency_classes": [sorted(c) for c in result.dependency_classes],
        "centralized_estimate": result.estimate.estimate,
        "centralized_formula": result.estimate.formula,
        "reduction_ratio": result.estimate.estimate / total if total else float("inf"),
    }


def format_stats(stats: dict) -> str:
    lines = []
    header = f"{'agent':>5} {'|B_phi|':>8} {'|B_psi|':>8} {'|P|':>8} {'|P_red|':>8} {'|P_task|':>9} {'|P_hat|':>8}"
    lines.append(header)
    for aid, row in stats["agents"].items():
        lines.append(
            f"{aid:>5} {row['motion_spec']:>8} {row['task_spec']:>8} "
            f"{row['motion_product']:>8} {row['reduced_motion']:>8} "
            f"{row['task_product']:>9} {row['reduced_task']:>8}"
        )
    for group, size in stats["global_sizes"].items():
        lines.append(f"global product over agents {list(group)}: {size} states")
    lines.append(f"global total: {stats['global_total']} states")
    lines.append(
        "globally assisting: "
        + ", ".join(f"{aid}: {svcs}" for aid, svcs in stats["globally_assisting"].items())
    )
    lines.append(f"dependency classes: {stats['dependency_classes']}")
    lines.append(
        f"centralized estimate: {stats['centralized_estimate']} "
        f"({stats['centralized_formula']})"
    )
    lines.append(f"reduction ratio: {stats['reduction_ratio']:.1f}")
    return "\n".join(lines)
