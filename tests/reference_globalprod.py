"""Unmemoized product, full-scan lasso search and plain least-cost search,
kept as the references for the differential tests.

`build_global_product` builds the product with no candidate filters,
indexes or shared sets: the joint moves are enumerated anew at every
component tuple, by trying every transition of every needed agent.  A
move's mask is `acceptance_marks`' for its back reference.  It must give
the optimized product's states, moves, marks and annotations.

`acceptance_marks` reads each move's marks off its back reference: the OR
of its moving components' reduced masks and L bits, each in its position's
slot, which holds the position's reduced sets and then its L bit, the slots
following each other in position order.  It must give the marks the optimized product's
transitions carry.  `accepting_lasso` is the lasso search before its
searches stopped early and became least-cost: every breadth-first search
covers the whole product or component, and each cycle step scans all
internal edges for the nearest one meeting a set still needed.  It must
give the same failure where no lasso exists.

`move_costs` and `least_costs` price the optimized lasso's legs: each move
costs the pair (synchronizing agents, expanded transition-system steps),
pairs add up per component and compare lexicographically, and the search
is a plain Dijkstra over the whole product or component, with no early
stop and no integer encoding.
"""
from __future__ import annotations

from collections import deque
from functools import reduce
from heapq import heappop, heappush
from operator import or_

from syncplan.buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Lasso,
    Silent,
    _bfs,
    _walk_forward,
    strongly_connected_components,
)
from syncplan.globalprod import EmptyLanguageError, GlobalProduct, _keeps_word_legal


def build_global_product(products) -> GlobalProduct:
    products = sorted(products, key=lambda p: p.origin.agent_id)
    agent_ids = [p.origin.agent_id for p in products]
    id2pos = {aid: pos for pos, aid in enumerate(agent_ids)}
    n = len(products)
    autos = [p.automaton for p in products]
    own = [p.origin.own_services for p in products]
    fsyn = [p.origin.foreign_syntactic for p in products]

    silent_out = []
    joint_out = []
    for a in autos:
        s_out = {}
        j_out = {}
        for tid, t in enumerate(a.transitions):
            if isinstance(t.label, Silent):
                s_out.setdefault(t.src, []).append(tid)
            else:
                j_out.setdefault(t.src, []).append(tid)
        silent_out.append(s_out)
        joint_out.append(j_out)

    def dep_of(pos, tid):
        return autos[pos].tr_dep.get(tid, frozenset((agent_ids[pos],)))

    def joint_moves_at(qs):
        """Complete closed coalition assignments, deduplicated across seeds."""
        results = []
        seen = set()
        for seed_pos in range(n):
            for seed_tid in joint_out[seed_pos].get(qs[seed_pos], ()):
                stack = [{seed_pos: seed_tid}]
                while stack:
                    assign = stack.pop()
                    need = set()
                    for pos, tid in assign.items():
                        for aid in dep_of(pos, tid):
                            other = id2pos.get(aid)
                            if other is None:
                                need = None
                                break
                            if other not in assign:
                                need.add(other)
                        if need is None:
                            break
                    if need is None:
                        continue
                    if need:
                        pos = min(need)
                        for tid in joint_out[pos].get(qs[pos], ()):
                            ext = dict(assign)
                            ext[pos] = tid
                            stack.append(ext)
                        continue
                    sigma = frozenset()
                    for pos, tid in assign.items():
                        sigma |= autos[pos].transitions[tid].label & own[pos]
                    consistent = all(
                        autos[pos].transitions[tid].label == sigma & (own[pos] | fsyn[pos])
                        for pos, tid in assign.items()
                    )
                    if not consistent:
                        continue
                    coalition = frozenset(agent_ids[pos] for pos in assign)
                    targets = tuple(
                        autos[pos].transitions[assign[pos]].dst if pos in assign else qs[pos]
                        for pos in range(n)
                    )
                    key = (coalition, sigma, targets, entering(assign))
                    if key in seen:
                        continue
                    seen.add(key)
                    results.append((sigma, coalition, dict(assign), targets))
        results.sort(
            key=lambda r: (tuple(sorted(r[0])), tuple(sorted(r[1])), r[3], entering(r[2]))
        )
        return results

    offsets = slot_offsets(products)

    def entering(assign):
        mask = 0
        for pos, tid in assign.items():
            mask |= autos[pos].transitions[tid].mask << offsets[pos]
        return mask

    product = BuchiAutomaton(EXPLICIT_MODE, offsets[n])
    ids = {}

    def state_id(qs):
        if qs not in ids:
            ids[qs] = product.add_state(qs)
            queue.append(qs)
        return ids[qs]

    queue = deque()
    product.initial = state_id(tuple(a.initial for a in autos))

    def push(qs, label, targets, dep, back):
        mask = _move_marks(products, agent_ids, back)
        tid = product.add_transition(ids[qs], label, state_id(targets), mask)
        product.tr_dep[tid] = dep
        product.tr_back[tid] = back

    while queue:
        qs = queue.popleft()
        for pos in range(n):
            for tid in silent_out[pos].get(qs[pos], ()):
                t = autos[pos].transitions[tid]
                targets = tuple(t.dst if p == pos else qs[p] for p in range(n))
                back = ("local", pos, tid)
                push(qs, Silent(agent_ids[pos]), targets, frozenset((agent_ids[pos],)), back)
        for sigma, coalition, assign, targets in joint_moves_at(qs):
            push(qs, sigma, targets, coalition, ("joint", coalition, assign))

    return GlobalProduct(product, products, agent_ids)


def slot_offsets(products) -> list:
    """Per position, the first bit of its slot, and the total number of
    bits last."""
    offsets = [0]
    for p in products:
        offsets.append(offsets[-1] + p.automaton.sets + 1)
    return offsets


def _move_marks(products, agent_ids, back) -> int:
    """The acceptance sets a move with back reference `back` lies in: in
    position i's slot, the reduced sets its reduced transition meets, and
    the slot's last bit for L_i (the move keeps position i's word legal)."""
    offsets = slot_offsets(products)

    def legal(pos):
        return 1 << (offsets[pos] + products[pos].automaton.sets)

    if back[0] == "joint":
        id2pos = {aid: pos for pos, aid in enumerate(agent_ids)}
        mask = sum(legal(id2pos[aid]) for aid in back[1])
        moved = back[2].items()
    else:
        mask = legal(back[1]) if _keeps_word_legal(products[back[1]], back[2]) else 0
        moved = [back[1:]]
    for pos, low in moved:
        mask |= products[pos].automaton.transitions[low].mask << offsets[pos]
    return mask


def acceptance_marks(gp: GlobalProduct) -> list:
    """Per transition, the bit mask `_move_marks` reads off its back
    reference."""
    backs = gp.automaton.tr_back
    return [_move_marks(gp.products, gp.agent_ids, backs[tid]) for tid in range(len(backs))]


def accepting_lasso(gp: GlobalProduct, marks) -> Lasso:
    """One SCC pass over the product; the lasso enters the component covering
    every acceptance set nearest the initial state and greedily walks to an
    edge of each set still uncovered."""
    a = gp.automaton
    offsets = slot_offsets(gp.products)
    everything = (1 << offsets[-1]) - 1
    comp, comps = strongly_connected_components(a)
    covered = {}  # component with an internal edge -> sets its internal edges meet
    for tid, t in enumerate(a.transitions):
        c = comp[t.src]
        if c == comp[t.dst]:
            covered[c] = covered.get(c, 0) | marks[tid]
    if not covered:
        raise EmptyLanguageError("global")
    good = [c for c, mask in covered.items() if mask == everything]
    if not good:
        missing = everything & ~reduce(or_, covered.values())
        if not missing:
            best = min(covered, key=lambda c: (-covered[c].bit_count(), comps[c][0]))
            missing = everything & ~covered[best]
        first = (missing & -missing).bit_length() - 1
        pos = max(p for p in range(len(gp.agent_ids)) if offsets[p] <= first)
        raise EmptyLanguageError("task", gp.agent_ids[pos])

    dist, parent = _bfs(a, a.initial)
    entry = min((s for c in good for s in comps[c]), key=lambda s: (dist[s], s))
    members = set(comps[comp[entry]])
    internal = [
        tid for s in sorted(members) for tid in a.out_transitions(s)
        if a.transitions[tid].dst in members
    ]
    cycle = []
    cur = entry
    need = everything
    while need:
        reach, par = _bfs(a, cur, allowed=members)
        tid = min(
            (tid for tid in internal if marks[tid] & need),
            key=lambda tid: (
                reach[a.transitions[tid].src], -(marks[tid] & need).bit_count(), tid
            ),
        )
        for step in _walk_forward(a, par, cur, a.transitions[tid].src) + [tid]:
            cycle.append(step)
            need &= ~marks[step]
        cur = a.transitions[tid].dst
    _reach, par = _bfs(a, cur, allowed=members)
    cycle += _walk_forward(a, par, cur, entry)
    return Lasso(tuple(_walk_forward(a, parent, a.initial, entry)), tuple(cycle))


def move_costs(gp: GlobalProduct) -> list:
    """Per transition, (synchronizing agents, expanded steps): the coalition
    size if above one, else 0, and the summed lengths, in transition-system
    steps, of the moving positions' first witness variants."""
    a = gp.automaton
    costs = []
    for tid in range(len(a.transitions)):
        back = a.tr_back[tid]
        moved = {back[1]: back[2]} if back[0] == "local" else dict(back[2])
        steps = 0
        for pos, low in moved.items():
            product = gp.products[pos]
            bar = product.origin.automaton
            motion = product.origin.rm.automaton
            for bar_tid in product.automaton.tr_witness[low][0].steps:
                rm_tid = bar.tr_back[bar_tid][0]
                steps += len(motion.tr_witness[rm_tid][0].steps)
        coalition = a.tr_dep[tid]
        costs.append((len(coalition) if len(coalition) > 1 else 0, steps))
    return costs


def least_costs(a: BuchiAutomaton, source: int, costs, allowed=None) -> dict:
    """Least cost from `source` to every state it reaches (inside
    `allowed`), costs being pairs added per component."""
    dist = {source: (0, 0)}
    heap = [((0, 0), source)]
    done = set()
    while heap:
        d, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        for tid in a.out_transitions(v):
            w = a.transitions[tid].dst
            if allowed is not None and w not in allowed:
                continue
            dw = (d[0] + costs[tid][0], d[1] + costs[tid][1])
            if w not in dist or dw < dist[w]:
                dist[w] = dw
                heappush(heap, (dw, w))
    return dist
