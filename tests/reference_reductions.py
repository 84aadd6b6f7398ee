"""Unoptimized reductions kept as references for the differential tests.

`eliminate_by_pairs` is the pairwise state elimination that the motion
reduction's survivor search replaces, and `eliminate_accepting` an
independent copy of its accepting-state phase, keep rule included, written
against the plain witness table; `segments_by_path_copying` is the
region walk that `taskprod._segments_from` replaces, copying the path at
every queued entry and reporting every arrival.  They define the witnesses
the optimized code must reproduce exactly.

`region_analysis` is the task reduction's hand-written search for silent
accepting cycles and the routes into them, which now runs on `buchi._bfs`.
It breaks ties between equally short paths by set iteration order, so it
fixes distances, anchors and the chosen detour transition, not the paths.
Its components come from `region_components`, which copies the region into
a second automaton, as the task reduction did before Tarjan took a state
mask.
"""
from __future__ import annotations

from collections import deque

from syncplan.buchi import BuchiAutomaton, Silent, Witness, strongly_connected_components
from syncplan.motion import _chain, _in_order, _rebuild_from_bench, _Workbench


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


def eliminate_by_pairs(a: BuchiAutomaton, significant, silent):
    """Phase one of the reduction by elimination; returns (workbench, alive).

    Non-accepting insignificant states are removed in state order; each
    removal concatenates every incoming witness with every outgoing one and
    keeps the least witness per (src, label, dst).
    """
    bench = _Workbench(a.n_states)
    for tid, t in enumerate(a.transitions):
        bench.put(t.src, t.label, t.dst, Witness((tid,), t.src, t.dst))
    alive = set(range(a.n_states))
    for p in range(a.n_states):
        if significant[p] or p in a.accepting:
            continue
        in_wits, out_wits = bench.snapshot(p)
        bench.remove_state(p)
        alive.discard(p)
        for src, label in _in_order(in_wits):
            for dst in sorted(out_wits):
                bench.put(src, label, dst, _chain(in_wits[(src, label)], out_wits[dst]))
    return bench, alive


def eliminate_accepting(table, alive, accepting, significant, silent):
    """Phase two on the plain (src, label, dst) -> witness table.

    In state order, an accepting insignificant state goes when no
    significant state enters it and it has no silent self-loop that one of
    its predecessors lacks; each of its entries is chained with each of its
    exits, keeping the least witness per (src, label, dst).
    """
    for p in sorted(alive):
        if significant[p] or p not in accepting:
            continue
        entries = {key: w for key, w in table.items() if key[2] == p and key[0] != p}
        preds = {src for src, _label, _dst in entries}
        if any(significant[q] for q in preds):
            continue
        if (p, silent, p) in table and not all((q, silent, q) in table for q in preds):
            continue
        exits = {key: w for key, w in table.items() if key[0] == p and key[2] != p}
        for key in [key for key in table if p in (key[0], key[2])]:
            del table[key]
        alive.discard(p)
        for (src, label, _p), w_in in entries.items():
            for (_p, _label, dst), w_out in exits.items():
                w = Witness(w_in.steps + w_out.steps, src, dst)
                cur = table.get((src, label, dst))
                if cur is None or w.rank() < cur.rank():
                    table[(src, label, dst)] = w


def eliminate_insignificant_states(a: BuchiAutomaton, significant, silent) -> BuchiAutomaton:
    """Drop-in for `motion.eliminate_insignificant_states` built on the pairs."""
    bench, alive = eliminate_by_pairs(a, significant, silent)
    eliminate_accepting(bench.table, alive, a.accepting, significant, silent)
    return _rebuild_from_bench(a, bench, alive)


def segments_by_path_copying(a: BuchiAutomaton, significant, src_tid, reach):
    """Every arrival at a significant state behind one edge, with its path."""
    t = a.transitions[src_tid]
    segments = []
    absorb = None
    if significant[t.dst]:
        segments.append((t.dst, t.dst in a.accepting, (src_tid,)))
        return segments, absorb
    esc = reach.get(t.dst)
    if esc is not None:
        absorb = ((src_tid,) + esc[1], esc[2])
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
    return segments, absorb


def region_analysis(a: BuchiAutomaton, significant):
    """Returns (anchors, reach, loop_keys) as the old `_region_analysis` did.

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
    """The old `_shortest_region_cycle`, returning (key, loop)."""
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
