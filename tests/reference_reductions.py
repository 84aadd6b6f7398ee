"""Unoptimized reductions kept as references for the differential tests.

`least_paths` is the forward walk that `buchi.least_segments`' backward
tables replace, and `segments_by_path_copying` the region walk that copies
the path at every queued entry and reports every arrival.  They define the
witnesses the fold must reproduce exactly, and share no code with it.

`region_analysis` is the hand-written search for silent accepting cycles
and the routes into them that `buchi.region_analysis` replaces with
`buchi._bfs`.  It breaks ties between equally short paths by set iteration
order, so it fixes distances, anchors and the chosen detour transition, not
the paths.  Its components come from `region_components`, which copies the
region into a second automaton, as the task reduction did before Tarjan
took a state mask.
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
    """Least path from the entry (state, flag) pairs to each next stop state.

    Breadth-first over (state, flag) pairs, where the flag turns true once a
    path visits an accepting state.  Entries are taken in the given order and
    out-transitions in ascending id order, so the first step to reach a pair
    ends its least path: the shortest one, ties going to the earlier entry
    and then to the lexicographically smallest sequence of transition ids.
    The walk expands non-stop states only.  Returns one (stop state, flag,
    entry, steps) per stop pair reached, `steps` leading from the entry.
    """
    transitions, accepting = a.transitions, a.accepting
    parent = dict.fromkeys(entries)  # (state, flag) -> (previous pair, step id)
    arrivals = {}  # (stop state, flag) -> (previous pair, step id)
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, flag = key
        for tid in a.out_transitions(state):
            y = transitions[tid].dst
            nxt = (y, flag or y in accepting)
            if stop[y]:
                if nxt not in arrivals:
                    arrivals[nxt] = (key, tid)
            elif nxt not in parent:
                parent[nxt] = (key, tid)
                queue.append(nxt)
    found = []
    for (y, flag), (key, tid) in arrivals.items():
        steps = [tid]
        while parent[key] is not None:
            key, tid = parent[key]
            steps.append(tid)
        steps.reverse()
        found.append((y, flag, key, tuple(steps)))
    return found


def segments_by_path_copying(a: BuchiAutomaton, significant, src_tid):
    """Every arrival at a significant state behind one edge, with its path."""
    t = a.transitions[src_tid]
    if significant[t.dst]:
        return [(t.dst, t.dst in a.accepting, (src_tid,))]
    segments = []
    start = (t.dst, t.dst in a.accepting)
    seen = {start}
    queue = deque([(start, (src_tid,))])
    while queue:
        (x, flag), path = queue.popleft()
        for tid in a.out_transitions(x):
            nxt = a.transitions[tid]
            if significant[nxt.dst]:
                segments.append((nxt.dst, flag or nxt.dst in a.accepting, path + (tid,)))
                continue
            key = (nxt.dst, flag or nxt.dst in a.accepting)
            if key in seen:
                continue
            seen.add(key)
            queue.append((key, path + (tid,)))
    return segments


def region_analysis(a: BuchiAutomaton, significant):
    """Returns (anchors, reach, loop_keys) as `buchi.region_analysis` does
    unfiltered.

    `loop_keys` maps each anchor to the (silent, length, x, tid) key of its
    loop: whether the detour transition `tid` leaving `x` is silent, and the
    loop length.
    """
    region = {s for s in range(a.n_states) if not significant[s]}
    adjacency = {s: [] for s in region}
    for tid, t in enumerate(a.transitions):
        if t.src in region and t.dst in region:
            adjacency[t.src].append(tid)

    anchors = {}
    loop_keys = {}
    for members in region_components(a, region):
        member_set = set(members)
        internal = any(
            a.transitions[tid].dst in member_set for s in members for tid in adjacency[s]
        )
        if not internal:
            continue
        accepting = sorted(s for s in members if s in a.accepting)
        if not accepting:
            continue
        anchor = accepting[0]
        key, loop = shortest_region_cycle(a, adjacency, member_set, anchor)
        if loop:
            anchors[anchor] = loop
            loop_keys[anchor] = key

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
    return anchors, reach, loop_keys


def shortest_region_cycle(a, adjacency, members, anchor):
    """`buchi._shortest_region_cycle` by hand, returning (key, loop)."""
    fwd_dist = {anchor: 0}
    fwd_par = {}
    queue = deque([anchor])
    while queue:
        v = queue.popleft()
        for tid in adjacency[v]:
            w = a.transitions[tid].dst
            if w not in members or w in fwd_dist:
                continue
            fwd_dist[w] = fwd_dist[v] + 1
            fwd_par[w] = tid
            queue.append(w)
    radj = {}
    for x in members:
        for tid in adjacency[x]:
            w = a.transitions[tid].dst
            if w in members:
                radj.setdefault(w, []).append(tid)
    bwd_dist = {anchor: 0}
    bwd_par = {}
    queue = deque([anchor])
    while queue:
        v = queue.popleft()
        for tid in radj.get(v, ()):
            s = a.transitions[tid].src
            if s in bwd_dist:
                continue
            bwd_dist[s] = bwd_dist[v] + 1
            bwd_par[s] = tid
            queue.append(s)

    def walk_to(x):  # anchor -> x
        path = []
        cur = x
        while cur != anchor:
            tid = fwd_par[cur]
            path.append(tid)
            cur = a.transitions[tid].src
        path.reverse()
        return path

    def walk_back(x):  # x -> anchor
        path = []
        cur = x
        while cur != anchor:
            tid = bwd_par[cur]
            path.append(tid)
            cur = a.transitions[tid].dst
        return path

    best = None
    for x in sorted(members):
        for tid in adjacency[x]:
            t = a.transitions[tid]
            if t.dst not in members:
                continue
            if x not in fwd_dist or t.dst not in bwd_dist:
                continue
            length = fwd_dist[x] + 1 + bwd_dist[t.dst]
            silent = isinstance(t.label, Silent)
            key = (silent, length, x, tid)
            if best is None or key < best[0]:
                best = (key, tuple(walk_to(x)) + (tid,) + tuple(walk_back(t.dst)))
    return best if best else (None, ())
