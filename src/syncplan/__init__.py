"""Correct-by-construction strategy synthesis for collaborating agent teams.

Each agent owns a motion specification over its state propositions and a task
specification over the team's services.  The pipeline builds per-agent
products, shrinks them to the collaboration-relevant skeleton, couples the
skeletons in a global product, and extracts per-agent action plans with
synchronization requests whose asynchronous timed execution provably
satisfies every specification.
"""

from .agents import AgentModel, GridSpec, Scenario, SyncRequest, build_grid_agent, validate
from .buchi import (
    BuchiAutomaton,
    Guard,
    Lasso,
    Silent,
    TransitionSystem,
    Witness,
    check_lasso_membership,
    language_empty,
    prune_non_coaccessible,
    to_dot,
)
from .executor import (
    Behavior,
    DeadlockError,
    SimulationConfig,
    check_local_satisfaction,
    check_timing,
    estimate_centralized,
    extract_local_word,
    simulate,
)
from .globalprod import (
    EmptyLanguageError,
    GlobalProduct,
    Strategy,
    StrategyStep,
    SynthesisError,
    build_global_product,
    compute_dependency_classes,
    minimize_synchronizations,
    synthesize,
)
from .ltl import Formula, UltimatelyPeriodicWord, eval_ltl, parse, to_nnf
from .motion import MotionProduct, ReducedMotionProduct, build_motion_product
from .motion import reduce as reduce_motion_product
from .pipeline import PipelineResult, run_synthesis
from .scenario_io import (
    ScenarioFormatError,
    load_bundled,
    load_scenario,
    load_strategies,
    save_strategies,
)
from .taskprod import (
    ReducedTaskMotionProduct,
    TaskMotionProduct,
    build_task_motion_product,
    compute_assisting,
    compute_dep,
    compute_globally_assisting,
    reduce_task_motion,
)
from .translate import translate

__version__ = "0.1.0"
