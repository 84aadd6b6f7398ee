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
transition, which the assisting-service test below makes checkable.  Each
foreign service is one bit, and one index of the joint transitions by
endpoints, marks and own part answers the assisting and strip tests by
toggling bits.

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
from dataclasses import dataclass, field
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

    Foreign service i of `foreign_syntactic`, in sorted order, is bit
    `1 << i`.  `label_parts` splits each joint label into its own part (the
    services outside `foreign_syntactic`) and its foreign bits, one label
    object per such pair, and `joint_index` maps (source, target, mask, own
    part) to the foreign bits of every joint transition with those
    endpoints, marks and own part: parallel transitions that differ in
    their marks alone are told apart.
    """

    automaton: BuchiAutomaton
    rm: ReducedMotionProduct
    task_spec: BuchiAutomaton
    agent_id: int
    own_services: frozenset
    foreign_syntactic: frozenset
    service_owner: dict
    label_parts: dict
    joint_index: dict
    _silence_tolerant: frozenset | None = field(default=None, init=False, repr=False)

    @property
    def silent(self) -> Silent:
        return Silent(self.agent_id)

    def foreign_bits(self) -> dict:
        """Each foreign service's bit."""
        return {s: 1 << i for i, s in enumerate(sorted(self.foreign_syntactic))}

    def variants(self, t):
        """(foreign bits of joint transition `t`, the foreign bits of every
        joint transition sharing its endpoints, marks and own part)."""
        own, bits = self.label_parts[t.label]
        return bits, self.joint_index[(t.src, t.dst, t.mask, own)]

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
    The foreign parts are enumerated as bit sets, by size and then in the
    order `combinations` gives, and each guard is checked on its own part
    once per motion transition and on its foreign bits per variant.
    """
    motion = rm.automaton
    own_services = frozenset(own_services)
    foreign = sorted(_guard_atoms(task_spec) - own_services)
    foreign_set = frozenset(foreign)
    bit = {s: 1 << i for i, s in enumerate(foreign)}
    subsets = [
        sum(extra)
        for size in range(len(foreign) + 1)
        for extra in combinations(bit.values(), size)
    ]

    def split(atoms):
        """(the atoms that are not foreign, the foreign ones as bits)"""
        inside = atoms & foreign_set
        if not inside:
            return atoms, 0
        return atoms - inside, sum(map(bit.__getitem__, inside))

    guards = [(*split(t.label.pos), *split(t.label.neg)) for t in task_spec.transitions]
    motion_parts = [
        None if isinstance(t.label, Silent) else split(t.label) for t in motion.transitions
    ]
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
    labels = {}  # (own part, foreign bits) -> the one label object
    parts = {}  # label -> (own part, foreign bits)
    index = {}

    def label_of(own, bits):
        label = labels.get((own, bits))
        if label is None:
            label = own | frozenset(s for s in foreign if bits & bit[s])
            labels[(own, bits)] = label
            parts[label] = (own, bits)
        return label

    while queue:
        q1, q2 = queue.popleft()
        src = ids[(q1, q2)]
        silent_seen = set()
        for m_tid in motion.out_transitions(q1):
            mt = motion.transitions[m_tid]
            if isinstance(mt.label, Silent):
                mask = mt.mask | resting[q2] << shift
                dst = state_id((mt.dst, q2))
                if (dst, mask) not in silent_seen:
                    silent_seen.add((dst, mask))
                    tid = product.add_transition(src, silent, dst, mask)
                    product.tr_back[tid] = (m_tid, None)
                continue
            own, low = motion_parts[m_tid]
            matching = []  # task transitions whose guard the own part satisfies
            for p_tid in task_spec.out_transitions(q2):
                pos_own, pos_bits, neg_own, neg_bits = guards[p_tid]
                if pos_own <= own and not (neg_own & own):
                    pt = task_spec.transitions[p_tid]
                    mask = mt.mask | pt.mask << shift
                    matching.append((p_tid, pos_bits, neg_bits, (mt.dst, pt.dst), mask))
            for extra in subsets:
                bits = low | extra
                for p_tid, pos_bits, neg_bits, target, mask in matching:
                    if pos_bits & ~bits or neg_bits & bits:
                        continue
                    dst = state_id(target)
                    group = index.get((src, dst, mask, own))
                    if group is None:
                        group = index[(src, dst, mask, own)] = set()
                    elif bits in group:
                        continue
                    group.add(bits)
                    tid = product.add_transition(src, label_of(own, bits), dst, mask)
                    product.tr_back[tid] = (m_tid, p_tid)

    return TaskMotionProduct(
        product,
        rm,
        task_spec,
        agent_id,
        own_services,
        foreign_set,
        dict(service_owner),
        parts,
        index,
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
    bits, group = tm.variants(t)
    return bits ^ tm.foreign_bits()[service] not in group


def compute_dep(tm: TaskMotionProduct) -> dict:
    """Coalition per transition: the agent plus owners of assisting services."""
    deps = {}
    own = frozenset((tm.agent_id,))
    owners = [(b, tm.service_owner[s]) for s, b in tm.foreign_bits().items()]
    for tid, t in enumerate(tm.automaton.transitions):
        if isinstance(t.label, Silent):
            deps[tid] = own
            continue
        bits, group = tm.variants(t)
        members = {tm.agent_id}
        members.update(owner for b, owner in owners if bits ^ b not in group)
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
        for service, b in tm.foreign_bits().items():
            owner = tm.service_owner[service]
            if service in result[owner]:
                continue
            for t in tm.automaton.transitions:
                if isinstance(t.label, Silent):
                    continue
                bits, group = tm.variants(t)
                if bits ^ b not in group:
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
    bits_in_order = list(tm.foreign_bits().values())

    def strips_to_own(t) -> bool:
        # peel foreign services one at a time, in sorted order, as long as the
        # variant without them still exists between the same endpoints with
        # the same marks; a label that cannot be peeled bare still needs
        # *some* companion (even when no single foreign service is pivotal on
        # the full label).  The rest of a label is the agent's own services,
        # as its actions provide only those
        bits, group = tm.variants(t)
        progress = True
        while bits and progress:
            progress = False
            for b in bits_in_order:
                if bits & b and bits ^ b in group:
                    bits ^= b
                    progress = True
        return not bits

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
