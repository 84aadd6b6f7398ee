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
foreign service is one bit.  Only the foreign parts the team can provide at
one instant are spelled out: one service set offered by each owner (or none),
united.  A global move fires a joint transition only when its label is the
union of the coalition's own parts, each of them one action's service set,
so a transition with any other foreign part could never fire.

Reduction keeps the significant states (able to assist somebody, or needing
somebody's assistance, or initial), with every stretch between them folded
into a single transition that remembers its path and the sets it meets: the
same fold, `buchi.fold`, as the motion reduction's, given the planning
labels, off which it reads the significant states, and the coalitions.  Each kept state exists once, and one shared
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

    Per transition, `assisting[tid]` holds the foreign services whose toggle
    makes it vanish, and `strips[tid]` whether its foreign services can be
    peeled away one at a time (`_strips`); a silent move has none and
    strips.  Both are settled while the product is built, against the guard
    cubes matched between the same endpoints with the same marks and own
    part: a foreign bit set has a joint transition there exactly when some
    cube accepts it, whether or not the team can provide it.  Parallel
    transitions that differ in their marks alone are told apart.
    """

    automaton: BuchiAutomaton
    rm: ReducedMotionProduct
    task_spec: BuchiAutomaton
    agent_id: int
    own_services: frozenset
    foreign_syntactic: frozenset
    service_owner: dict
    assisting: list
    strips: list
    _silence_tolerant: frozenset | None = field(default=None, init=False, repr=False)

    @property
    def silent(self) -> Silent:
        return Silent(self.agent_id)

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


def _accepted(cubes, bits) -> bool:
    """Does some (pos bits, neg bits) cube accept the foreign bit set?"""
    return any(not (pos & ~bits or neg & bits) for pos, neg in cubes)


def _strips(cubes, bits, bits_in_order) -> bool:
    """Can the foreign bits be peeled away?

    Peel them one at a time, in sorted order, as long as some cube accepts
    the bit set without them; a label that cannot be peeled bare still
    needs *some* companion (even when no single foreign service is pivotal
    on the full label).  The rest of a label is the agent's own services, as
    its actions provide only those.
    """
    progress = True
    while bits and progress:
        progress = False
        for b in bits_in_order:
            if bits & b and _accepted(cubes, bits ^ b):
                bits ^= b
                progress = True
    return not bits


def _providable(bit: dict, service_owner: dict, offers: dict) -> list:
    """The foreign bit sets the team can provide at one instant: the unions
    of one offered service set (or none) per owner of a foreign service, by
    size and then in the order `combinations` gives."""
    unions = {0}
    for owner in {service_owner[s] for s in bit}:
        choices = {0} | {sum(bit[s] for s in label if s in bit) for label in offers[owner]}
        unions = {u | c for u in unions for c in choices}
    return sorted(unions, key=lambda u: (u.bit_count(), [i for i in range(len(bit)) if u >> i & 1]))


def build_task_motion_product(
    rm: ReducedMotionProduct,
    task_spec: BuchiAutomaton,
    agent_id: int,
    own_services,
    service_owner: dict,
    offers: dict,
) -> TaskMotionProduct:
    """Reachable product with silent and joint transition families.

    Silent moves advance the motion component and stutter the task component;
    joint moves carry a full service set whose own-service part must match a
    motion label and which must satisfy a task guard.  A move's mask is its
    motion transition's, plus, shifted above the motion sets, its task
    transition's or, for a silent move, the sets its task state rests in.
    `offers` maps each agent to the service sets its actions provide; the
    foreign parts are the bit sets their owners can provide together
    (`_providable`), and each guard is checked on its own part once per
    motion transition and on its foreign bits per variant.  A motion label
    holds only the agent's own services (`agents.validate`), so it is the
    own part whole.  Once a state's motion edges are done, every cube
    matched from it is known, and its joint transitions' assisting services
    and strips are settled.
    """
    motion = rm.automaton
    own_services = frozenset(own_services)
    foreign = sorted(_guard_atoms(task_spec) - own_services)
    foreign_set = frozenset(foreign)
    bit = {s: 1 << i for i, s in enumerate(foreign)}
    subsets = _providable(bit, service_owner, offers)

    def split(atoms):
        """(the atoms that are not foreign, the foreign ones as bits)"""
        inside = atoms & foreign_set
        if not inside:
            return atoms, 0
        return atoms - inside, sum(map(bit.__getitem__, inside))

    guards = [(*split(t.label.pos), *split(t.label.neg)) for t in task_spec.transitions]
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
    assisting, strips = [], []

    def label_of(own, bits):
        label = labels.get((own, bits))
        if label is None:
            label = own | frozenset(s for s in foreign if bits & bit[s])
            labels[(own, bits)] = label
        return label

    while queue:
        q1, q2 = queue.popleft()
        src = ids[(q1, q2)]
        seen = set()
        cubes = {}  # (target tag, mask, own part) -> guard cubes matched from here
        joint = {}  # joint transition id -> (its cubes' key, foreign bits)
        for m_tid in motion.out_transitions(q1):
            mt = motion.transitions[m_tid]
            if isinstance(mt.label, Silent):
                mask = mt.mask | resting[q2] << shift
                dst = state_id((mt.dst, q2))
                if (dst, mask) not in seen:
                    seen.add((dst, mask))
                    tid = product.add_transition(src, silent, dst, mask)
                    product.tr_back[tid] = (m_tid, None)
                continue
            own = mt.label
            matching = []  # task transitions whose guard the own part satisfies
            for p_tid in task_spec.out_transitions(q2):
                pos_own, pos_bits, neg_own, neg_bits = guards[p_tid]
                if pos_own <= own and not neg_own & own:
                    pt = task_spec.transitions[p_tid]
                    mask = mt.mask | pt.mask << shift
                    target = (mt.dst, pt.dst)
                    cubes.setdefault((target, mask, own), set()).add((pos_bits, neg_bits))
                    matching.append((p_tid, pos_bits, neg_bits, target, mask))
            for bits in subsets:
                for p_tid, pos_bits, neg_bits, target, mask in matching:
                    if pos_bits & ~bits or neg_bits & bits:
                        continue
                    dst = state_id(target)
                    if (dst, mask, own, bits) in seen:
                        continue
                    seen.add((dst, mask, own, bits))
                    tid = product.add_transition(src, label_of(own, bits), dst, mask)
                    product.tr_back[tid] = (m_tid, p_tid)
                    joint[tid] = ((target, mask, own), bits)
        for tid in range(len(assisting), len(product.transitions)):
            if tid not in joint:
                assisting.append(frozenset())
                strips.append(True)
                continue
            key, bits = joint[tid]
            group = cubes[key]
            assisting.append(frozenset(s for s in foreign if not _accepted(group, bits ^ bit[s])))
            strips.append(_strips(group, bits, bit.values()))
    return TaskMotionProduct(
        product,
        rm,
        task_spec,
        agent_id,
        own_services,
        foreign_set,
        dict(service_owner),
        assisting,
        strips,
    )


def compute_assisting(tm: TaskMotionProduct, tid: int, service: str) -> bool:
    """Does toggling `service` in the label flip this transition's existence?"""
    if service in tm.own_services:
        raise ValueError(f"{service!r} belongs to agent {tm.agent_id} itself")
    if isinstance(tm.automaton.transitions[tid].label, Silent):
        raise ValueError("assistance is defined on service-labeled transitions only")
    return service in tm.assisting[tid]


def compute_dep(tm: TaskMotionProduct) -> dict:
    """Coalition per transition: the agent plus owners of assisting services."""
    deps = {
        tid: frozenset({tm.agent_id}.union(tm.service_owner[s] for s in services))
        for tid, services in enumerate(tm.assisting)
    }
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
        for service in set().union(*tm.assisting):
            result[tm.service_owner[service]].add(service)
    return {agent_id: frozenset(v) for agent_id, v in result.items()}


def planning_labels(tm: TaskMotionProduct, globally_assisting: dict) -> list:
    """Each transition's label for planning.

    A transition counts as silent for planning when nobody's collaboration
    hinges on it: its coalition is the agent alone, it provides no globally
    assisting service, and the foreign parts of its label are incidental
    (`_strips`).
    """
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        raise ValueError("dependency map must be computed first")
    silent = tm.silent
    ga_own = globally_assisting.get(tm.agent_id, frozenset())
    own = frozenset((tm.agent_id,))
    return [
        silent
        if isinstance(t.label, Silent)
        or (a.tr_dep[tid] == own and not (t.label & ga_own) and tm.strips[tid])
        else t.label
        for tid, t in enumerate(a.transitions)
    ]


@dataclass
class ReducedTaskMotionProduct:
    automaton: BuchiAutomaton
    origin: TaskMotionProduct


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

    Transitions are relabeled by `planning_labels`, and the significant
    states are the initial one and the sources of transitions not silent
    for planning, so insignificant states only have silent ones.  Only live
    anchors feed the absorbing state.
    """
    a = tm.automaton
    if len(a.tr_dep) != len(a.transitions):
        compute_dep(tm)
    live = _live_anchors(a, tm.silence_tolerant())
    reduced = fold(a, tm.silent, planning_labels(tm, globally_assisting), live)
    return ReducedTaskMotionProduct(reduced, tm)
