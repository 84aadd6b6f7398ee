"""Team-level product, accepting-lasso selection, and strategy extraction.

Joint transitions are enumerated as dependency closures of single seed moves:
a coalition consists of exactly the agents pulled in transitively by the
dependency sets of the chosen per-agent transitions, so nobody synchronizes
without a reason.  The joint label is the union of the members' own service
contributions and every member's transition must agree with that label on the
services its own task automaton can distinguish.  A partial coalition
grows by its least still-needed agent, trying only those of that agent's
transitions that provide every own service the chosen members' labels name;
the agreement test decides every complete assignment.  The pipeline builds
one product per dependency class, which is closed under dependency; agents
of different classes never synchronize, so a product over several classes
would only interleave them.

The product carries its acceptance on its transitions, like every other
automaton: generalized, with a slot of bits per position, one after the
other.  Position i's slot holds the sets of its reduced automaton (its
motion sets, its task sets, then L_i, which the task product marks on the
moves that keep the agent's word legal), and a move lies in them when the
agent's own reduced transition does.  One pass of strongly connected
components decides emptiness: a lasso exists iff some component's internal
moves meet every set.  The lasso is built from least-cost legs, a move
costing its synchronizing agents first and its transition-system steps
second, after the prefix-suffix cost of Smith, Tumova, Belta and Rus
("Optimal path planning for surveillance with temporal-logic constraints",
IJRR 2011); since covering every set at least cost is NP-hard, each leg goes
to the edge that meets the sets still needed at the least cost per set,
Chvatal's greedy rule for set cover.
Strategy extraction projects that lasso onto each agent and replays the
recorded witnesses down through the reduced products until plain
transition-system steps with synchronization requests remain.  Each reduced
state stands for one lower state, so one pass over a projected cycle
returns to where it started.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate
from operator import or_
from types import MappingProxyType

from .buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Lasso,
    Silent,
    Transition,
    _walk_forward,
    covered_sets,
)
from .taskprod import ReducedTaskMotionProduct


class EmptyLanguageError(RuntimeError):
    """A pipeline stage produced an automaton with an empty language."""

    def __init__(self, stage: str, agent_id=None):
        self.stage = stage
        self.agent_id = agent_id
        where = stage if agent_id is None else f"{stage} stage of agent {agent_id}"
        super().__init__(f"no accepting run exists ({where})")


class SynthesisError(RuntimeError):
    pass


@dataclass(frozen=True)
class StrategyStep:
    state: str
    action: str
    sync: frozenset


@dataclass(frozen=True)
class Strategy:
    agent_id: int
    prefix: tuple
    cycle: tuple

    def steps(self):
        return self.prefix + self.cycle


@dataclass
class GlobalProduct:
    """Product over the reduced task-and-motion automata of one dependency
    class, or of any agents closed under dependency: a coalition naming an
    agent outside them is a `SynthesisError`.

    State tags are the reachable component state tuples, plain tuples with
    one reduced state per position.  `tr_back[tid]` is ("local", position,
    transition id) or ("joint", coalition ids, {position: transition id});
    the assignment is read-only.  A transition's mask holds, in each moving
    position's slot (`_slots`), that position's reduced transition mask.
    """

    automaton: BuchiAutomaton
    products: list
    agent_ids: list


def _slots(products) -> list:
    """Per position, the first bit of its slot, and the number of bits of
    all slots last: each slot holds its reduced automaton's sets."""
    return list(accumulate((p.automaton.sets for p in products), initial=0))


def build_global_product(products) -> GlobalProduct:
    products = sorted(products, key=lambda p: p.origin.agent_id)
    agent_ids = [p.origin.agent_id for p in products]
    id2pos = {aid: pos for pos, aid in enumerate(agent_ids)}
    n = len(products)
    autos = [p.automaton for p in products]
    own = [p.origin.own_services for p in products]
    visible = [p.origin.own_services | p.origin.foreign_syntactic for p in products]
    slots = _slots(products)

    silent = [Silent(aid) for aid in agent_ids]
    solo = [frozenset((aid,)) for aid in agent_ids]
    # per position, keyed by state: its silent moves as (target, back
    # reference, mask), and its other transitions as (id, transition,
    # partner positions, mask, own part)
    silent_out, joint_out = [], []
    for pos, a in enumerate(autos):
        s_out, j_out = {}, {}
        for tid, t in enumerate(a.transitions):
            mask = t.mask << slots[pos]
            if isinstance(t.label, Silent):
                s_out.setdefault(t.src, []).append((t.dst, ("local", pos, tid), mask))
                continue
            dep = a.tr_dep.get(tid, solo[pos])
            outside = dep.difference(id2pos)
            if outside:
                raise SynthesisError(
                    f"agent {agent_ids[pos]} needs agent {min(outside)}, "
                    "which is outside the global product"
                )
            partners = frozenset(id2pos[aid] for aid in dep) - {pos}
            j_out.setdefault(t.src, []).append((tid, t, partners, mask, t.label & own[pos]))
        silent_out.append(s_out)
        joint_out.append(j_out)

    def moves_from(qs):
        """All moves out of a component tuple as (label, dep, back, target
        tuple, mask): the silent moves position by position, then the joint
        moves, complete closed coalition assignments grown from every seed
        transition, in (label, coalition, targets, mask) order."""
        out = []
        for pos in range(n):
            for dst, back, mask in silent_out[pos].get(qs[pos], ()):
                out.append((silent[pos], solo[pos], back, qs[:pos] + (dst,) + qs[pos + 1:], mask))
        seen = {}  # (coalition, sigma, targets, mask) -> first assignment found
        for seed_pos in range(n):
            for seed in joint_out[seed_pos].get(qs[seed_pos], ()):
                # (chosen (position, move) pairs, assigned positions, positions
                # still needed, own services provided, services the chosen
                # labels name)
                stack = [
                    (((seed_pos, seed),), frozenset((seed_pos,)), seed[2], seed[4], seed[1].label)
                ]
                while stack:
                    chosen, assigned, need, sigma, wanted = stack.pop()
                    if need:
                        # r must provide what the chosen labels name of its
                        # own services: a transition providing less can
                        # never pass the agreement test below
                        r = min(need)
                        grown = assigned | {r}
                        expected = wanted & own[r]
                        for move in joint_out[r].get(qs[r], ()):
                            if expected <= move[4]:
                                stack.append(
                                    (
                                        chosen + ((r, move),),
                                        grown,
                                        (need | move[2]) - grown,
                                        sigma | move[4],
                                        wanted | move[1].label,
                                    )
                                )
                        continue
                    if not all(move[1].label == sigma & visible[p] for p, move in chosen):
                        continue
                    targets = list(qs)
                    mask = 0
                    for p, move in chosen:
                        targets[p] = move[1].dst
                        mask |= move[3]
                    coalition = frozenset(agent_ids[p] for p, _move in chosen)
                    seen.setdefault((coalition, sigma, tuple(targets), mask), chosen)
        for key in sorted(seen, key=lambda k: (sorted(k[1]), sorted(k[0]), k[2], k[3])):
            coalition, sigma, targets, mask = key
            assignment = MappingProxyType({p: move[0] for p, move in seen[key]})
            out.append((sigma, coalition, ("joint", coalition, assignment), targets, mask))
        return out

    product = BuchiAutomaton(EXPLICIT_MODE, slots[-1])
    start = tuple(a.initial for a in autos)
    state_ids = {start: product.add_state(start)}
    product.initial = state_ids[start]
    tags = product.state_tags
    transitions = product.transitions
    tr_dep = product.tr_dep
    tr_back = product.tr_back
    # breadth first: states are numbered in discovery order, so the queue is
    # the run of ids not yet expanded; transitions are appended directly,
    # as nothing reads the automaton's index while it is built
    src = 0
    while src < len(tags):
        for label, dep, back, targets, mask in moves_from(tags[src]):
            dst = state_ids.get(targets)
            if dst is None:
                dst = state_ids[targets] = product.add_state(targets)
            tid = len(transitions)  # one int object for both keys
            tr_dep[tid] = dep
            tr_back[tid] = back
            transitions.append(Transition(src, label, dst, mask))
        src += 1

    return GlobalProduct(product, products, agent_ids)


def _move_costs(gp: GlobalProduct) -> list:
    """Per transition, the cost (synchronizing agents, expanded steps) as one
    integer in which synchronizations dominate.

    A move synchronizes its coalition when that has more than one member.
    Its steps are, summed over the moving positions, the length of the
    reduced transition's first witness variant, expanded through the reduced
    motion witnesses down to transition-system steps.  A leg has at most as
    many transitions as the product has states, so its steps stay below the
    synchronization weight.
    """
    a = gp.automaton
    lengths = []  # per position and reduced transition
    for p in gp.products:
        bar, motion = p.origin.automaton, p.origin.rm.automaton
        lengths.append([
            sum(len(motion.tr_witness[bar.tr_back[step][0]][0].steps) for step in w[0].steps)
            for w in (p.automaton.tr_witness[tid] for tid in range(len(p.automaton.transitions)))
        ])
    steps = []
    for tid in range(len(a.transitions)):
        back = a.tr_back[tid]
        moved = ((back[1], back[2]),) if back[0] == "local" else back[2].items()
        steps.append(sum(lengths[pos][low] for pos, low in moved))
    weight = a.n_states * max(steps, default=0) + 1
    syncs = [len(a.tr_dep[tid]) for tid in range(len(steps))]
    return [(k if k > 1 else 0) * weight + n for k, n in zip(syncs, steps)]


def _cheapest(a: BuchiAutomaton, source: int, costs, pick, allowed=None):
    """Least-cost search from `source` (inside `allowed`) for the least
    candidate that `pick` yields.

    `pick(state, distance)` yields candidates (rank, tie breakers...) whose
    rank is at least the state's distance.  The search stops once no state
    left can lead to a smaller rank.  Returns the least
    candidate, or None, and the parent transition of every state settled;
    on a tie in cost the parent is the one with the smaller transition id.
    """
    dist = {source: 0}
    parent = {source: None}
    heap = [(0, source)]
    best = None
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if best is not None and d > best[0]:
            break
        for candidate in pick(v, d):
            if best is None or candidate < best:
                best = candidate
        for tid in a.out_transitions(v):
            w = a.transitions[tid].dst
            if allowed is not None and w not in allowed:
                continue
            dw = d + costs[tid]
            old = dist.get(w)
            if old is None or dw < old:
                dist[w] = dw
                parent[w] = tid
                heappush(heap, (dw, w))
            elif dw == old and tid < parent[w]:
                parent[w] = tid
    return best, parent


def _accepting_lasso(gp: GlobalProduct) -> Lasso:
    """One SCC pass over the product; the lasso enters the component covering
    every acceptance set at least cost from the initial state and greedily
    walks to edges meeting the sets still uncovered, then back to where it
    entered.  Each leg is least-cost under `_move_costs`; the next edge is
    the one whose leg, the edge included, costs least per set still needed
    that the edge meets, then meets the most such sets, then has the
    smallest id."""
    a = gp.automaton
    marks = [t.mask for t in a.transitions]
    everything = (1 << a.sets) - 1
    comp, comps, covered = covered_sets(a)
    if not covered:
        raise EmptyLanguageError("global")
    good = {c for c, mask in covered.items() if mask == everything}
    if not good:
        missing = everything & ~reduce(or_, covered.values())
        if not missing:
            best = min(covered, key=lambda c: (-covered[c].bit_count(), comps[c][0]))
            missing = everything & ~covered[best]
        first = (missing & -missing).bit_length() - 1
        pos = bisect_right(_slots(gp.products), first) - 1
        raise EmptyLanguageError("task", gp.agent_ids[pos])

    costs = _move_costs(gp)
    (_cost, entry), parent = _cheapest(
        a, a.initial, costs, lambda s, d: [(d, s)] if comp[s] in good else ()
    )
    members = set(comps[comp[entry]])
    cycle = []
    cur = entry
    need = everything

    def meeting_need(s, d):
        # leg cost per set met, times the sets still needed: never below d
        for tid in a.out_transitions(s):
            met = (marks[tid] & need).bit_count()
            if met and a.transitions[tid].dst in members:
                yield Fraction((d + costs[tid]) * need.bit_count(), met), -met, tid

    while need:
        (_ratio, _met, tid), par = _cheapest(a, cur, costs, meeting_need, members)
        for step in _walk_forward(a, par, cur, a.transitions[tid].src) + [tid]:
            cycle.append(step)
            need &= ~marks[step]
        cur = a.transitions[tid].dst
    _found, par = _cheapest(a, cur, costs, lambda s, d: [(d,)] if s == entry else (), members)
    cycle += _walk_forward(a, par, cur, entry)
    return Lasso(tuple(_walk_forward(a, parent, a.initial, entry)), tuple(cycle))


def _variant_for(witnesses, origin):
    for w in witnesses:
        if w.src == origin:
            return w
    raise SynthesisError(f"no witness variant starts at state {origin}")


class _AgentExpander:
    """Replays one agent's projected run down to transition-system steps."""

    def __init__(self, product: ReducedTaskMotionProduct, agent_id: int):
        self.agent_id = agent_id
        self.hat = product.automaton
        self.tm = product.origin
        self.bar = self.tm.automaton
        self.rm = self.tm.rm
        self.ddot = self.rm.automaton
        self.mp = self.rm.origin
        self.agent = self.mp.agent

    def _pass(self, hat_steps, state, emit):
        bar_orig, p_orig = state
        bar_steps = []
        for hat_tid, sync in hat_steps:
            w = _variant_for(self.hat.tr_witness[hat_tid], bar_orig)
            bar_steps.append((w.steps[0], sync))
            bar_steps.extend((s, None) for s in w.steps[1:])
            bar_orig = w.dst
        for bar_tid, sync in bar_steps:
            rm_tid, _task_tid = self.bar.tr_back[bar_tid]
            w = _variant_for(self.ddot.tr_witness[rm_tid], p_orig)
            emit.append((w.steps[0], sync))
            emit.extend((s, None) for s in w.steps[1:])
            p_orig = w.dst
        return bar_orig, p_orig

    def expand(self, hat_prefix, hat_cycle):
        """Returns (strategy, task-product state the cycle starts and ends
        at).  One pass over the cycle must return to where it started."""
        prefix, cycle = [], []
        start = self._pass(hat_prefix, (self.bar.initial, self.mp.automaton.initial), prefix)
        if self._pass(hat_cycle, start, cycle) != start:
            raise SynthesisError(f"agent {self.agent_id}: cycle expansion did not close")
        return self._to_strategy(prefix, cycle), start[0]

    def _to_strategy(self, prefix_emit, cycle_emit) -> Strategy:
        if not cycle_emit:
            raise SynthesisError("strategies need a nonempty cycle")
        singleton = frozenset((self.agent_id,))
        auto = self.mp.automaton

        def convert(emitted):
            steps = []
            for p_tid, sync in emitted:
                t = auto.transitions[p_tid]
                s_idx, _q = auto.state_tags[t.src]
                steps.append(
                    StrategyStep(
                        self.agent.ts.states[s_idx],
                        auto.tr_back[p_tid],
                        sync if sync is not None else singleton,
                    )
                )
            return steps

        # replay sanity: transitions must chain and the cycle must close
        chain = [tid for tid, _ in prefix_emit + cycle_emit]
        for first, second in zip(chain, chain[1:]):
            if auto.transitions[first].dst != auto.transitions[second].src:
                raise SynthesisError(f"replayed steps {first} and {second} do not chain")
        cyc = [tid for tid, _ in cycle_emit]
        if auto.transitions[cyc[-1]].dst != auto.transitions[cyc[0]].src:
            raise SynthesisError("replayed cycle does not close")
        return Strategy(self.agent_id, tuple(convert(prefix_emit)), tuple(convert(cycle_emit)))


def _project_agent(gp: GlobalProduct, lasso: Lasso, pos: int):
    a = gp.automaton
    aid = gp.agent_ids[pos]

    def kept(tids):
        steps = []
        for tid in tids:
            dep = a.tr_dep[tid]
            if aid not in dep:
                continue
            back = a.tr_back[tid]
            low_tid = back[2] if back[0] == "local" else back[2][pos]
            steps.append((low_tid, frozenset(dep)))
        return steps

    return kept(lasso.prefix), kept(lasso.cycle)


def _expand_lasso(gp: GlobalProduct, lasso: Lasso):
    """Project and replay one lasso.

    Returns (strategies, None) on success, or (None, agent id) naming an
    agent whose word would die even though its task does not tolerate
    eternal silence.  A lasso meets every agent's L_i, so neither check
    can fire; both stay as invariants.
    """
    strategies = {}
    for pos, product in enumerate(gp.products):
        aid = gp.agent_ids[pos]
        hat_prefix, hat_cycle = _project_agent(gp, lasso, pos)
        if not hat_cycle:
            return None, aid
        expander = _AgentExpander(product, aid)
        strategy, bar_state = expander.expand(hat_prefix, hat_cycle)
        silent = all(expander.agent.is_silent(step.action) for step in strategy.cycle)
        if silent and expander.bar.state_tags[bar_state][1] not in expander.tm.silence_tolerant:
            return None, aid
        strategies[aid] = strategy
    return strategies, None


def synthesize(gp: GlobalProduct) -> dict:
    """Per-agent strategies realizing one accepting run of the global product."""
    strategies, failed = _expand_lasso(gp, _accepting_lasso(gp))
    if failed is not None:
        raise SynthesisError(f"agent {failed}: the accepting lasso leaves its word illegal")
    return strategies


def minimize_synchronizations(strategies: dict, scenario) -> dict:
    """Drop pointless stay steps: those with singleton requests vanish,
    keeping at least one cycle step.

    Coalition requests stay as they are: each one is the first step of a
    service-labeled reduced motion transition, so it runs a service action.
    """
    slim = {}
    for aid, st in strategies.items():
        stay = scenario.agent(aid).stay_action
        prefix = tuple(s for s in st.prefix if not (s.action == stay and len(s.sync) == 1))
        cycle = tuple(s for s in st.cycle if not (s.action == stay and len(s.sync) == 1))
        if not cycle:
            cycle = (st.cycle[0],)
        slim[aid] = Strategy(aid, prefix, cycle)
    return slim


def compute_dependency_classes(task_products) -> list:
    """Finest partition closing the who-depends-on-whom relation."""
    parent = {tm.agent_id: tm.agent_id for tm in task_products}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for tm in task_products:
        deps = tm.automaton.tr_dep
        if len(deps) != len(tm.automaton.transitions):
            raise ValueError("dependency map must be computed first")
        for dep in set(deps.values()):
            for other in dep:
                if other in parent:
                    union(tm.agent_id, other)
    classes = {}
    for aid in parent:
        classes.setdefault(find(aid), set()).add(aid)
    return [frozenset(classes[root]) for root in sorted(classes)]
