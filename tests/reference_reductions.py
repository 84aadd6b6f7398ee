"""Unoptimized reductions kept as references for the differential tests.

`least_paths` is the forward walk that `buchi.least_segments`' backward
tables replace, and `segments_by_path_copying` the region walk that copies
the path at every queued entry and reports every arrival.  They define the
witnesses the fold must reproduce exactly, and share no code with it.

`region_analysis` is the hand-written search for silent accepting cycles
and the routes into them that `buchi.region_analysis` replaces with one
backward search.  It breaks ties between equally short paths by set
iteration order, so it fixes distances, anchors and the length of each
anchor's shortest loop, not the paths.  Each anchor's loop is the one the
task reduction chose before the task product marked L, one providing
services where the component has one, which the old path's live-anchor
filter reads.  Its components come from `region_components`, which copies
the region into a second automaton, as the task reduction did before
Tarjan took a state mask.  `covering_cycle` is the loop search that ran to
exhaustion before `buchi._covering_cycle` stopped at its goal; it fixes the
loops themselves.
"""
from __future__ import annotations

from collections import deque

from syncplan.buchi import BuchiAutomaton, Silent, strongly_connected_components


def region_components(a: BuchiAutomaton, region):
    """Strongly connected components of the region, as sorted member lists,
    computed on a copy of the induced subautomaton."""
    order = sorted(region)
    index = {s: i for i, s in enumerate(order)}
    sub = BuchiAutomaton(a.mode)
    for s in order:
        sub.add_state(s)
    for s in order:
        for tid in a.out_transitions(s):
            dst = a.transitions[tid].dst
            if dst in region:
                sub.add_transition(index[s], None, index[dst])
    _comp, comps = strongly_connected_components(sub)
    return [[order[i] for i in members] for members in comps]


def least_paths(a: BuchiAutomaton, stop, entries):
    """Least path from the entry (state, mask) pairs to each next stop state.

    Breadth-first over (state, mask) pairs, where the mask collects the
    acceptance sets of the transitions a path takes.  Entries are taken in
    the given order and out-transitions in ascending id order, so the first
    step to reach a pair ends its least path: the shortest one, ties going
    to the earlier entry and then to the lexicographically smallest sequence
    of transition ids.  The walk expands non-stop states only.  Returns one
    (stop state, mask, entry, steps) per stop pair reached, `steps` leading
    from the entry.
    """
    transitions = a.transitions
    parent = dict.fromkeys(entries)  # (state, mask) -> (previous pair, step id)
    arrivals = {}  # (stop state, mask) -> (previous pair, step id)
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, mask = key
        for tid in a.out_transitions(state):
            y = transitions[tid].dst
            nxt = (y, mask | transitions[tid].mask)
            if stop[y]:
                if nxt not in arrivals:
                    arrivals[nxt] = (key, tid)
            elif nxt not in parent:
                parent[nxt] = (key, tid)
                queue.append(nxt)
    found = []
    for (y, mask), (key, tid) in arrivals.items():
        steps = [tid]
        while parent[key] is not None:
            key, tid = parent[key]
            steps.append(tid)
        steps.reverse()
        found.append((y, mask, key, tuple(steps)))
    return found


def segments_by_path_copying(a: BuchiAutomaton, significant, src_tid):
    """Every arrival at a significant state behind one edge, with its path."""
    t = a.transitions[src_tid]
    if significant[t.dst]:
        return [(t.dst, t.mask, (src_tid,))]
    segments = []
    start = (t.dst, t.mask)
    seen = {start}
    queue = deque([(start, (src_tid,))])
    while queue:
        (x, mask), path = queue.popleft()
        for tid in a.out_transitions(x):
            nxt = a.transitions[tid]
            if significant[nxt.dst]:
                segments.append((nxt.dst, mask | nxt.mask, path + (tid,)))
                continue
            key = (nxt.dst, mask | nxt.mask)
            if key in seen:
                continue
            seen.add(key)
            queue.append((key, path + (tid,)))
    return segments


def region_analysis(a: BuchiAutomaton, significant):
    """Returns (anchors, reach, shortest): the anchors with their loops,
    and the routes, as `buchi.region_analysis` gives them, and per anchor
    the length of the shortest loop meeting every set.
    """
    full = (1 << a.sets) - 1
    region = {s for s in range(a.n_states) if not significant[s]}
    adjacency = {s: [] for s in region}
    for tid, t in enumerate(a.transitions):
        if t.src in region and t.dst in region:
            adjacency[t.src].append(tid)

    anchors = {}
    shortest = {}
    for members in region_components(a, region):
        member_set = set(members)
        covered = 0
        for s in members:
            for tid in adjacency[s]:
                if a.transitions[tid].dst in member_set:
                    covered |= a.transitions[tid].mask
        if covered != full:
            continue
        anchor = min(members)
        anchors[anchor], shortest[anchor] = shortest_region_cycle(
            a, adjacency, member_set, anchor, full
        )

    radj = {s: [] for s in region}
    for s in region:
        for tid in adjacency[s]:
            radj[a.transitions[tid].dst].append(tid)
    reach = {}
    for anchor in sorted(anchors):
        dist = {anchor: 0}
        parent = {}
        queue = deque([anchor])
        while queue:
            v = queue.popleft()
            for tid in radj[v]:
                s = a.transitions[tid].src
                if s in dist:
                    continue
                dist[s] = dist[v] + 1
                parent[s] = tid
                queue.append(s)
        for s in dist:
            cur = reach.get(s)
            if cur is not None and (cur[0], cur[2]) <= (dist[s], anchor):
                continue
            path = []
            x = s
            while x != anchor:
                tid = parent[x]
                path.append(tid)
                x = a.transitions[tid].dst
            reach[s] = (dist[s], tuple(path), anchor)
    return anchors, reach, shortest


def shortest_region_cycle(a, adjacency, members, anchor, full):
    """The shortest loop search by hand, returning (loop, length of the
    shortest loop): layer by layer, the (state, sets met, served) triples
    first reached by a walk of that many steps from the anchor, until no
    new triple appears.  The loop is the first walk back to the anchor
    meeting every set that provides a service, else the first that meets
    every set."""
    start = (anchor, 0, False)
    layers = [{start: ()}]  # triple -> one walk ending in it
    seen = {start}
    found = {}  # served -> the first loop of that kind
    while layers[-1]:
        layer = {}
        for (x, mask, served), walk in layers[-1].items():
            for tid in adjacency[x]:
                t = a.transitions[tid]
                if t.dst not in members:
                    continue
                nxt = (t.dst, mask | t.mask, served or not isinstance(t.label, Silent))
                if nxt in seen:
                    continue
                seen.add(nxt)
                layer[nxt] = walk + (tid,)
        for (x, mask, served), walk in layer.items():
            if x == anchor and mask == full and served not in found:
                found[served] = walk
        layers.append(layer)
    loop = found.get(True, found.get(False))
    return loop, min(len(walk) for walk in found.values())


def covering_cycle(a, full, members, anchor):
    """`buchi._covering_cycle` as a full search: every (state, sets met)
    pair of the component is discovered before the loop is read off, so
    the early stop at the goal must give this loop exactly."""
    start = (anchor, 0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        for tid in a.out_transitions(key[0]):
            t = a.transitions[tid]
            if t.dst not in members:
                continue
            nxt = (t.dst, key[1] | t.mask)
            if nxt not in parent:
                parent[nxt] = (key, tid)
                queue.append(nxt)
    key = (anchor, full)
    loop = []
    while key != start:
        key, tid = parent[key]
        loop.append(tid)
    return tuple(reversed(loop))
