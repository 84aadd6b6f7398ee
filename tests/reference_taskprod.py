"""Frozenset-probe product build and dependency analysis kept as a
reference for the differential tests.

These are the assisting-service, coalition, globally-assisting and strip
tests as they read before the task product indexed its foreign services as
bit sets: each probes a toggled label, built as a frozenset, against the set
of (source, label, target, mask) keys of the joint transitions, taken here
straight from `tm.automaton.transitions`.  They share no code with the
assisting sets and strips `syncplan.taskprod` settles while it builds.
`reduce_task_motion` is the task reduction with this strip test in its
planning labels; the live-anchor filter and the fold, which reads the
significant states off those labels, are the real ones.
`product_automaton` builds the task product's
automaton by spelling out each of the 2^k foreign variants as a frozenset,
whatever the team can provide, checking every guard on it, and skipping a
transition whose (source, label, target key, mask) was already added.
`build_task_motion_product` wraps it with the same signature as the real
builder, so that a pipeline run can be patched onto the full enumeration.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations

from syncplan import buchi
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton, Silent
from syncplan.taskprod import (
    ReducedTaskMotionProduct,
    TaskMotionProduct,
    _guard_atoms,
    _live_anchors,
)


# the task stages the pipeline calls, each with its counterpart here
STAGES = (
    "build_task_motion_product",
    "compute_dep",
    "compute_globally_assisting",
    "reduce_task_motion",
)


def product_automaton(rm, task_spec, agent_id, own_services) -> BuchiAutomaton:
    motion = rm.automaton
    foreign = sorted(_guard_atoms(task_spec) - frozenset(own_services))
    shift = motion.sets
    resting = [(1 << task_spec.sets) - 1] * task_spec.n_states
    for t in task_spec.transitions:
        resting[t.dst] &= t.mask
    product = BuchiAutomaton(EXPLICIT_MODE, motion.sets + task_spec.sets)
    ids = {}
    queue = deque()

    def state_id(key):
        if key not in ids:
            ids[key] = product.add_state(key)
            queue.append(key)
        return ids[key]

    silent = Silent(agent_id)
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
                push(src, silent, (mt.dst, q2), mt.mask | resting[q2] << shift, (m_tid, None))
                continue
            for size in range(len(foreign) + 1):
                for extra in combinations(foreign, size):
                    sigma = mt.label | frozenset(extra)
                    for p_tid in task_spec.out_transitions(q2):
                        pt = task_spec.transitions[p_tid]
                        if pt.label.accepts(sigma):
                            mask = mt.mask | pt.mask << shift
                            push(src, sigma, (mt.dst, pt.dst), mask, (m_tid, p_tid))
    return product


def build_task_motion_product(rm, task_spec, agent_id, own_services, service_owner, _offers):
    """The task product over every foreign variant; the offers are ignored,
    and the settled assisting sets and strips are left empty, as the probes
    below read the transitions."""
    own_services = frozenset(own_services)
    return TaskMotionProduct(
        product_automaton(rm, task_spec, agent_id, own_services),
        rm,
        task_spec,
        agent_id,
        own_services,
        _guard_atoms(task_spec) - own_services,
        dict(service_owner),
        [],
        [],
    )


def joint_keys(tm):
    """(source, label, target, mask) of every joint transition."""
    return {
        (t.src, t.label, t.dst, t.mask)
        for t in tm.automaton.transitions
        if not isinstance(t.label, Silent)
    }


def compute_assisting(tm, keys, tid, service) -> bool:
    if service in tm.own_services:
        raise ValueError(f"{service!r} belongs to agent {tm.agent_id} itself")
    t = tm.automaton.transitions[tid]
    if isinstance(t.label, Silent):
        raise ValueError("assistance is defined on service-labeled transitions only")
    if service not in tm.foreign_syntactic:
        return False
    present_with = (t.src, t.label | {service}, t.dst, t.mask) in keys
    present_without = (t.src, t.label - {service}, t.dst, t.mask) in keys
    return present_with != present_without


def compute_dep(tm) -> dict:
    keys = joint_keys(tm)
    deps = {}
    own = frozenset((tm.agent_id,))
    for tid, t in enumerate(tm.automaton.transitions):
        if isinstance(t.label, Silent):
            deps[tid] = own
            continue
        members = {tm.agent_id}
        for service in sorted(tm.foreign_syntactic):
            if compute_assisting(tm, keys, tid, service):
                members.add(tm.service_owner[service])
        deps[tid] = frozenset(members)
    tm.automaton.tr_dep = dict(deps)
    return deps


def compute_globally_assisting(tms) -> dict:
    owners = set()
    for tm in tms:
        owners.add(tm.agent_id)
        owners |= set(tm.service_owner.values())
    result = {agent_id: set() for agent_id in owners}
    for tm in tms:
        keys = joint_keys(tm)
        for service in sorted(tm.foreign_syntactic):
            owner = tm.service_owner[service]
            if service in result[owner]:
                continue
            for tid, t in enumerate(tm.automaton.transitions):
                if isinstance(t.label, Silent):
                    continue
                if compute_assisting(tm, keys, tid, service):
                    result[owner].add(service)
                    break
    return {agent_id: frozenset(v) for agent_id, v in result.items()}


def strips_to_own(tm, keys, t) -> bool:
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


def planning_labels(tm, globally_assisting) -> list:
    """The planning label of every transition of the task product."""
    a = tm.automaton
    keys = joint_keys(tm)
    silent = tm.silent
    ga_own = globally_assisting.get(tm.agent_id, frozenset())
    own_dep = frozenset((tm.agent_id,))
    labels = []
    for tid, t in enumerate(a.transitions):
        if isinstance(t.label, Silent):
            labels.append(silent)
        elif a.tr_dep[tid] == own_dep and not (t.label & ga_own) and strips_to_own(tm, keys, t):
            labels.append(silent)
        else:
            labels.append(t.label)
    return labels


def reduce_task_motion(tm, globally_assisting) -> ReducedTaskMotionProduct:
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        compute_dep(tm)
    live = _live_anchors(a, tm.silence_tolerant())
    reduced = buchi.fold(a, tm.silent, planning_labels(tm, globally_assisting), live)
    return ReducedTaskMotionProduct(reduced, tm)
