"""Per-agent task-and-motion products, service dependencies, and reduction.

The product runs the reduced motion automaton against the task specification
automaton with a three-valued acceptance counter.  Joint labels range over
the agent's own service sets extended by foreign services that actually occur
in the task automaton's guards; services outside every guard can never flip a
transition, which the assisting-service test below makes checkable.

Reduction keeps the significant states (able to assist somebody, or needing
somebody's assistance, or initial), with every stretch between them folded
into a single transition that remembers its path.  Each kept state exists in
at most two acceptance flavors and one shared absorbing state captures runs
that end in an accepting cycle among insignificant states, so the result has
at most twice as many states as there are significant ones, plus at most
one.  Only live cycles feed that state: ones that provide services, or rest
at a task state tolerating silence.  A run ending in any other cycle would
end in silence its task rejects, so the absorbing state's loop keeps every
agent's word legal whichever cycle it replays.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    Witness,
    _bfs,
    _good_components,
    _walk_backward,
    _walk_forward,
    coreachable,
    label_sort_key,
    least_segments,
    merge_duplicate_states,
    prune_non_coaccessible,
    rebuild,
    strongly_connected_components,
)
from .motion import ReducedMotionProduct


@dataclass
class TaskMotionProduct:
    """Product automaton; state tags are (motion_state, task_state, counter).

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
        if self._joint_keys is None:
            self._joint_keys = {
                (t.src, t.label, t.dst)
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
            quiet = BuchiAutomaton(spec.mode)
            for _ in range(spec.n_states):
                quiet.add_state()
            quiet.accepting = set(spec.accepting)
            for t in spec.transitions:
                if t.label.accepts(frozenset()):
                    quiet.add_transition(t.src, t.label, t.dst)
            _comp, comps, good = _good_components(quiet)
            self._silence_tolerant = frozenset(
                coreachable(quiet, [s for c in good for s in comps[c]])
            )
        return self._silence_tolerant


def _guard_atoms(spec: BuchiAutomaton) -> frozenset:
    atoms = set()
    for t in spec.transitions:
        atoms |= t.label.pos | t.label.neg
    return frozenset(atoms)


def _advance_counter(j, motion_target_accepting, task_target_accepting) -> int:
    if j == 1 and motion_target_accepting:
        return 2
    if j == 2 and task_target_accepting:
        return 3
    if j == 3:
        return 1
    return j


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
    motion label and which must satisfy a task guard.
    """
    motion = rm.automaton
    own_services = frozenset(own_services)
    foreign = sorted(_guard_atoms(task_spec) - own_services)
    product = BuchiAutomaton(EXPLICIT_MODE)
    ids = {}

    def state_id(q1, q2, j):
        key = (q1, q2, j)
        if key not in ids:
            ids[key] = product.add_state(key)
            if j == 2 and q2 in task_spec.accepting:
                product.accepting.add(ids[key])
        return ids[key]

    silent = Silent(agent_id)
    start = (motion.initial, task_spec.initial, 1)
    product.initial = state_id(*start)
    queue = deque([start])
    seen = {start}
    edge_seen = set()

    def push(src_key, label, dst_key, back):
        key = (src_key, label, dst_key)
        if key in edge_seen:
            return
        edge_seen.add(key)
        tid = product.add_transition(state_id(*src_key), label, state_id(*dst_key))
        product.tr_back[tid] = back
        if dst_key not in seen:
            seen.add(dst_key)
            queue.append(dst_key)

    while queue:
        q1, q2, j = queue.popleft()
        src_key = (q1, q2, j)
        for m_tid in motion.out_transitions(q1):
            mt = motion.transitions[m_tid]
            if isinstance(mt.label, Silent):
                j2 = _advance_counter(j, mt.dst in motion.accepting, q2 in task_spec.accepting)
                push(src_key, silent, (mt.dst, q2, j2), (m_tid, None))
                continue
            for size in range(len(foreign) + 1):
                for extra in combinations(foreign, size):
                    sigma = mt.label | frozenset(extra)
                    for p_tid in task_spec.out_transitions(q2):
                        pt = task_spec.transitions[p_tid]
                        if not pt.label.accepts(sigma):
                            continue
                        j2 = _advance_counter(
                            j, mt.dst in motion.accepting, pt.dst in task_spec.accepting
                        )
                        push(src_key, sigma, (mt.dst, pt.dst, j2), (m_tid, p_tid))

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
    present_with = (t.src, t.label | {service}, t.dst) in keys
    present_without = (t.src, t.label - {service}, t.dst) in keys
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


def _region_analysis(a: BuchiAutomaton, significant, tolerant):
    """Live accepting cycles among insignificant states.

    Returns (anchors, reach): `anchors` maps an anchor state to the transition
    ids of a shortest cycle through it; `reach` maps every region state that
    can run into such a cycle to (distance, path transition ids, anchor),
    preferring the nearest anchor and then the smallest one.  An anchor is
    kept only if its loop provides services or its task state is in
    `tolerant`: a run absorbed into any other cycle ends in silence its task
    rejects.
    """
    region = {s for s in range(a.n_states) if not significant[s]}
    anchors = {}
    _comp, comps = strongly_connected_components(a, allowed=region)
    for members in comps:
        member_set = set(members)
        internal = any(
            a.transitions[tid].dst in member_set
            for s in members
            for tid in a.out_transitions(s)
        )
        accepting = [s for s in members if s in a.accepting]
        if internal and accepting:
            anchor = accepting[0]
            loop = _shortest_region_cycle(a, member_set, anchor)
            if a.state_tags[anchor][1] in tolerant or not all(
                isinstance(a.transitions[tid].label, Silent) for tid in loop
            ):
                anchors[anchor] = loop

    reach = {}
    for anchor in sorted(anchors):  # ascending: equally near anchors keep the first
        dist, parent = _bfs(a, anchor, allowed=region, reverse=True)
        for s in region:
            if dist[s] is not None and (s not in reach or dist[s] < reach[s][0]):
                reach[s] = (dist[s], tuple(_walk_backward(a, parent, anchor, s)), anchor)
    return anchors, reach


def _shortest_region_cycle(a, members, anchor):
    """Shortest cycle through the anchor, preferring one that provides services.

    The region's cycles are all accepting-compatible, but a silent loop only
    realizes stuttering acceptance.  When the component offers a transition
    with a real service label, the chosen loop detours through one so that
    an absorbed agent keeps producing its word.  Paths to and from the detour
    are least by ascending transition id.
    """
    fwd, fpar = _bfs(a, anchor, allowed=members)
    bwd, bpar = _bfs(a, anchor, allowed=members, reverse=True)
    best = None
    for x in sorted(members):
        for tid in a.out_transitions(x):
            t = a.transitions[tid]
            if t.dst not in members or fwd[x] is None or bwd[t.dst] is None:
                continue
            key = (isinstance(t.label, Silent), fwd[x] + 1 + bwd[t.dst], x, tid)
            if best is None or key < best[0]:
                best = (key, x, tid)
    _key, x, tid = best
    return (
        tuple(_walk_forward(a, fpar, anchor, x))
        + (tid,)
        + tuple(_walk_backward(a, bpar, anchor, a.transitions[tid].dst))
    )


def reduce_task_motion(
    tm: TaskMotionProduct, globally_assisting: dict
) -> ReducedTaskMotionProduct:
    """Fold insignificant stretches away, keeping dependencies and witnesses.

    Every surviving state is a (significant state, acceptance flag) pair or
    the shared absorbing state.  A transition counts as silent for planning
    when nobody's collaboration hinges on it: its coalition is the agent
    alone and it provides no globally assisting service.  Insignificant
    states only have such transitions, so whole stretches between significant
    states fold into one transition carrying the first edge's label and the
    least path to each next (significant state, flag) pair, read off
    `least_segments`' backward tables.  An edge into a region state that can
    run into a live accepting cycle also leads to the absorbing state.
    """
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        compute_dep(tm)
    significant = classify_task_significance(tm, globally_assisting)
    silent = tm.silent
    ga_own = globally_assisting.get(tm.agent_id, frozenset())
    anchors, reach = _region_analysis(a, significant, tm.silence_tolerant())

    own_dep = frozenset((tm.agent_id,))

    keys = tm.joint_keys()

    def strips_to_own(t) -> bool:
        # peel foreign services one at a time as long as the variant without
        # them still exists between the same endpoints; a label that cannot be
        # peeled bare still needs *some* companion (even when no single
        # foreign service is pivotal on the full label)
        sigma = t.label
        foreign = sorted(sigma - tm.own_services)
        progress = True
        while foreign and progress:
            progress = False
            for rho in list(foreign):
                if (t.src, sigma - {rho}, t.dst) in keys:
                    sigma = sigma - {rho}
                    foreign.remove(rho)
                    progress = True
        return not foreign

    def planning_label(tid, t):
        # silent for planning: trivial coalition, assists nobody, and the
        # foreign parts of the label are incidental
        if isinstance(t.label, Silent):
            return silent
        if (
            a.tr_dep.get(tid, own_dep) == own_dep
            and not (t.label & ga_own)
            and strips_to_own(t)
        ):
            return silent
        return t.label

    summary = {}  # sig state -> {(label, target_desc) -> (dep, Witness)}
    segments = least_segments(a, significant)
    for s in sorted(x for x in range(a.n_states) if significant[x]):
        edges = {}
        for tid in a.out_transitions(s):
            t = a.transitions[tid]
            label = planning_label(tid, t)
            dep = own_dep if isinstance(label, Silent) else a.tr_dep.get(tid, own_dep)
            for target, flag, path in segments(tid):
                w = Witness(path, s, target)
                _put_edge(edges, label, ("state", target, flag), dep, w)
            esc = reach.get(t.dst)  # the region can swallow the run forever
            if esc is not None:
                _dist, path, anchor = esc
                w = Witness((tid,) + path, s, anchor)
                _put_edge(edges, label, ("sink",), dep, w)
        summary[s] = edges

    reduced = BuchiAutomaton(EXPLICIT_MODE)
    ids = {}
    sink_id = None

    def copy_id(state, flag):
        key = (state, flag)
        if key not in ids:
            ids[key] = reduced.add_state((state,))
            if flag:
                reduced.accepting.add(ids[key])
        return ids[key]

    start = (a.initial, a.initial in a.accepting)
    reduced.initial = copy_id(*start)
    queue = deque([start])
    seen = {start}
    sink_anchors = set()
    while queue:
        state, flag = queue.popleft()
        src = copy_id(state, flag)
        for (label, desc) in sorted(
            summary[state], key=lambda k: (label_sort_key(k[0]), k[1])
        ):
            dep, witness = summary[state][(label, desc)]
            if desc[0] == "sink":
                if sink_id is None:
                    sink_id = reduced.add_state(tuple(sorted(anchors)))
                    reduced.accepting.add(sink_id)
                tid = reduced.add_transition(src, label, sink_id)
                reduced.tr_witness[tid] = (witness,)
                reduced.tr_dep[tid] = dep
                sink_anchors.add(witness.dst)
                continue
            _kind, target, tflag = desc
            tid = reduced.add_transition(src, label, copy_id(target, tflag))
            reduced.tr_witness[tid] = (witness,)
            reduced.tr_dep[tid] = dep
            if (target, tflag) not in seen:
                seen.add((target, tflag))
                queue.append((target, tflag))

    if sink_id is not None:
        tid = reduced.add_transition(sink_id, silent, sink_id)
        reduced.tr_witness[tid] = tuple(
            Witness(anchors[anchor], anchor, anchor) for anchor in sorted(sink_anchors)
        )
        reduced.tr_dep[tid] = own_dep

    # A fully silent automaton only distinguishes silence from emptiness, so
    # the acceptance copies of the (lone significant) initial state collapse.
    if sink_id is not None and all(isinstance(t.label, Silent) for t in reduced.transitions):
        rep = min(i for (s, _f), i in ids.items() if s == a.initial)
        class_of = {i: rep for i in ids.values()}
        class_of[sink_id] = sink_id
        reduced = rebuild(reduced, sorted({rep, sink_id}), class_of)

    reduced = prune_non_coaccessible(reduced)
    reduced = merge_duplicate_states(reduced)
    return ReducedTaskMotionProduct(reduced, tm, significant, ga_own)


def _put_edge(edges, label, desc, dep, witness):
    key = (label, desc)
    cur = edges.get(key)
    rank = (len(dep), tuple(sorted(dep)), witness.rank())
    if cur is None or rank < (len(cur[0]), tuple(sorted(cur[0])), cur[1].rank()):
        edges[key] = (dep, witness)
