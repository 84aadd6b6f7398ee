"""Per-agent task-and-motion products, service dependencies, and reduction.

The product runs the reduced motion automaton against the task specification
automaton; its states are (motion state, task state) pairs.  Acceptance sits
on transitions: the motion sets (the low bits), which a transition lies in
when its reduced motion transition does, and the task sets above them,
which it lies in when the task automaton's transition does.  A silent move
rests at its task state and meets the task sets that every transition
entering that state meets, or all of them when none enters: a run resting
there infinitely often either enters it infinitely often, meeting those
sets, or rests there forever, and then whether its task tolerates silence
decides (L_i in the global product).  Joint labels range over the agent's
own service sets extended by foreign services that actually occur in the
task automaton's guards; services outside every guard can never flip a
transition, which the assisting-service test below makes checkable.

Reduction keeps the significant states (able to assist somebody, or needing
somebody's assistance, or initial), with every stretch between them folded
into a single transition that remembers its path and the sets it meets: the
same fold, `buchi.fold`, as the motion reduction's, given the planning
labels and the coalitions.  Each kept state exists once, and one shared
absorbing state captures runs that end in an accepting cycle among
insignificant states, so the result has at most one state more than there
are significant ones.  Only live cycles feed that state: ones that provide
services, or rest at a task state tolerating silence.  A run ending in any
other cycle would end in silence its task rejects, so the absorbing state's
loop keeps every agent's word legal whichever cycle it replays.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    coreachable,
    fold,
    good_components,
)
from .motion import ReducedMotionProduct


@dataclass
class TaskMotionProduct:
    """Product automaton; state tags are (motion_state, task_state) pairs.

    `automaton.tr_back[tid]` is a pair (reduced-motion transition id, task
    automaton transition id or None for silent moves).  Dependency coalitions
    live in `automaton.tr_dep` once `compute_dep` has run.
    """

    automaton: BuchiAutomaton
    rm: ReducedMotionProduct
    task_spec: BuchiAutomaton
    agent_id: int
    own_services: frozenset
    foreign_syntactic: frozenset
    service_owner: dict

    def __post_init__(self):
        self._joint_keys = None
        self._silence_tolerant = None

    @property
    def silent(self) -> Silent:
        return Silent(self.agent_id)

    def joint_keys(self):
        """(source, label, target, mask) of every joint transition: parallel
        transitions that differ in their marks alone are told apart."""
        if self._joint_keys is None:
            self._joint_keys = {
                (t.src, t.label, t.dst, t.mask)
                for t in self.automaton.transitions
                if not isinstance(t.label, Silent)
            }
        return self._joint_keys

    def silence_tolerant(self) -> frozenset:
        """Task-spec states from which the empty service set is accepted forever.

        Those are the states that reach a good component of the spec cut down
        to the transitions whose guards accept the empty set.
        """
        if self._silence_tolerant is None:
            spec = self.task_spec
            quiet = BuchiAutomaton(spec.mode, spec.sets)
            for _ in range(spec.n_states):
                quiet.add_state()
            for t in spec.transitions:
                if t.label.accepts(frozenset()):
                    quiet.add_transition(*t)
            _comp, comps, good = good_components(quiet)
            self._silence_tolerant = frozenset(
                coreachable(quiet, [s for c in good for s in comps[c]])
            )
        return self._silence_tolerant


def _guard_atoms(spec: BuchiAutomaton) -> frozenset:
    atoms = set()
    for t in spec.transitions:
        atoms |= t.label.pos | t.label.neg
    return frozenset(atoms)


def build_task_motion_product(
    rm: ReducedMotionProduct,
    task_spec: BuchiAutomaton,
    agent_id: int,
    own_services,
    service_owner: dict,
) -> TaskMotionProduct:
    """Reachable product with silent and joint transition families.

    Silent moves advance the motion component and stutter the task component;
    joint moves carry a full service set whose own-service part must match a
    motion label and which must satisfy a task guard.  A move's mask is its
    motion transition's, plus, shifted above the motion sets, its task
    transition's or, for a silent move, the sets its task state rests in.
    """
    motion = rm.automaton
    own_services = frozenset(own_services)
    foreign = sorted(_guard_atoms(task_spec) - own_services)
    shift = motion.sets
    resting = [(1 << task_spec.sets) - 1] * task_spec.n_states
    for t in task_spec.transitions:
        resting[t.dst] &= t.mask
    product = BuchiAutomaton(EXPLICIT_MODE, motion.sets + task_spec.sets)
    ids = {}

    def state_id(key):
        if key not in ids:
            ids[key] = product.add_state(key)
            queue.append(key)
        return ids[key]

    silent = Silent(agent_id)
    queue = deque()
    product.initial = state_id((motion.initial, task_spec.initial))
    edge_seen = set()

    def push(src, label, dst_key, mask, back):
        key = (src, label, dst_key, mask)
        if key in edge_seen:
            return
        edge_seen.add(key)
        tid = product.add_transition(src, label, state_id(dst_key), mask)
        product.tr_back[tid] = back

    while queue:
        q1, q2 = queue.popleft()
        src = ids[(q1, q2)]
        for m_tid in motion.out_transitions(q1):
            mt = motion.transitions[m_tid]
            if isinstance(mt.label, Silent):
                mask = mt.mask | resting[q2] << shift
                push(src, silent, (mt.dst, q2), mask, (m_tid, None))
                continue
            for size in range(len(foreign) + 1):
                for extra in combinations(foreign, size):
                    sigma = mt.label | frozenset(extra)
                    for p_tid in task_spec.out_transitions(q2):
                        pt = task_spec.transitions[p_tid]
                        if not pt.label.accepts(sigma):
                            continue
                        mask = mt.mask | pt.mask << shift
                        push(src, sigma, (mt.dst, pt.dst), mask, (m_tid, p_tid))

    return TaskMotionProduct(
        product, rm, task_spec, agent_id, own_services, frozenset(foreign), dict(service_owner)
    )


def compute_assisting(tm: TaskMotionProduct, tid: int, service: str) -> bool:
    """Does toggling `service` in the label flip this transition's existence?"""
    if service in tm.own_services:
        raise ValueError(f"{service!r} belongs to agent {tm.agent_id} itself")
    t = tm.automaton.transitions[tid]
    if isinstance(t.label, Silent):
        raise ValueError("assistance is defined on service-labeled transitions only")
    if service not in tm.foreign_syntactic:
        return False
    keys = tm.joint_keys()
    present_with = (t.src, t.label | {service}, t.dst, t.mask) in keys
    present_without = (t.src, t.label - {service}, t.dst, t.mask) in keys
    return present_with != present_without


def compute_dep(tm: TaskMotionProduct) -> dict:
    """Coalition per transition: the agent plus owners of assisting services."""
    deps = {}
    own = frozenset((tm.agent_id,))
    for tid, t in enumerate(tm.automaton.transitions):
        if isinstance(t.label, Silent):
            deps[tid] = own
            continue
        members = {tm.agent_id}
        for service in sorted(tm.foreign_syntactic):
            if compute_assisting(tm, tid, service):
                members.add(tm.service_owner[service])
        deps[tid] = frozenset(members)
    tm.automaton.tr_dep = dict(deps)
    return deps


def compute_globally_assisting(tms) -> dict:
    """Per agent, the subset of its services assisting somebody else's transition."""
    owners = set()
    for tm in tms:
        owners.add(tm.agent_id)
        owners |= set(tm.service_owner.values())
    result = {agent_id: set() for agent_id in owners}
    for tm in tms:
        for service in sorted(tm.foreign_syntactic):
            owner = tm.service_owner[service]
            if service in result[owner]:
                continue
            for tid, t in enumerate(tm.automaton.transitions):
                if isinstance(t.label, Silent):
                    continue
                if compute_assisting(tm, tid, service):
                    result[owner].add(service)
                    break
    return {agent_id: frozenset(v) for agent_id, v in result.items()}


def classify_task_significance(tm: TaskMotionProduct, globally_assisting: dict):
    """Initial, able to provide a globally assisting service, or dependent."""
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        raise ValueError("dependency map must be computed first")
    ga_own = globally_assisting.get(tm.agent_id, frozenset())
    significant = [False] * a.n_states
    significant[a.initial] = True
    own = frozenset((tm.agent_id,))
    for tid, t in enumerate(a.transitions):
        if isinstance(t.label, Silent):
            continue
        if (t.label & ga_own) or a.tr_dep[tid] != own:
            significant[t.src] = True
    return significant


@dataclass
class ReducedTaskMotionProduct:
    automaton: BuchiAutomaton
    origin: TaskMotionProduct
    significance: list
    globally_assisting_own: frozenset


def _live_anchors(a: BuchiAutomaton, tolerant):
    """An anchor is live when its loop provides services or its task state is
    in `tolerant`: a run absorbed into any other cycle ends in silence its
    task rejects."""

    def live(anchor, loop):
        return a.state_tags[anchor][1] in tolerant or not all(
            isinstance(a.transitions[tid].label, Silent) for tid in loop
        )

    return live


def reduce_task_motion(
    tm: TaskMotionProduct, globally_assisting: dict
) -> ReducedTaskMotionProduct:
    """Fold insignificant stretches away (`buchi.fold`), keeping dependencies
    and witnesses.

    A transition counts as silent for planning when nobody's collaboration
    hinges on it: its coalition is the agent alone, it provides no globally
    assisting service, and the foreign parts of its label are incidental.
    Insignificant states only have such transitions.  Only live anchors feed
    the absorbing state.
    """
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        compute_dep(tm)
    significant = classify_task_significance(tm, globally_assisting)
    silent = tm.silent
    ga_own = globally_assisting.get(tm.agent_id, frozenset())
    own_dep = frozenset((tm.agent_id,))
    keys = tm.joint_keys()

    def strips_to_own(t) -> bool:
        # peel foreign services one at a time as long as the variant without
        # them still exists between the same endpoints with the same marks; a
        # label that cannot be peeled bare still needs *some* companion (even
        # when no single foreign service is pivotal on the full label)
        sigma = t.label
        foreign = sorted(sigma - tm.own_services)
        progress = True
        while foreign and progress:
            progress = False
            for rho in list(foreign):
                if (t.src, sigma - {rho}, t.dst, t.mask) in keys:
                    sigma = sigma - {rho}
                    foreign.remove(rho)
                    progress = True
        return not foreign

    def planning_label(tid):
        t = a.transitions[tid]
        if isinstance(t.label, Silent):
            return silent
        if a.tr_dep[tid] == own_dep and not (t.label & ga_own) and strips_to_own(t):
            return silent
        return t.label

    live = _live_anchors(a, tm.silence_tolerant())
    reduced = fold(a, significant, silent, planning_label, live)
    return ReducedTaskMotionProduct(reduced, tm, significant, ga_own)
