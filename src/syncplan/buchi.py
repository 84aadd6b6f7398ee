"""Explicit-state automata: Buchi automata, transition systems, emptiness,
lasso membership, and the fold that reduces a product to its significant
states.

Every automaton accepts on its transitions, generalized: each transition
carries one bit per acceptance set it lies in (see `BuchiAutomaton`).  Two
transition-label conventions coexist.
Specification automata obtained from formulas carry propositional guards
(conjunctions of literals) and are evaluated against concrete symbol sets.
Product automata built later in the pipeline carry explicit labels: either a
concrete service set (a frozenset, possibly empty) or a per-agent silent
symbol.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple

GUARD_MODE = "guard"
EXPLICIT_MODE = "explicit"


class AlphabetMismatchError(ValueError):
    """Word symbols are incompatible with the automaton's label mode."""


@dataclass(frozen=True)
class Guard:
    """Conjunction of literals over named atoms; empty guard means `true`.

    Hashed once, to the value the dataclass would generate.
    """

    pos: frozenset = frozenset()
    neg: frozenset = frozenset()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.pos, self.neg)))

    def __hash__(self):
        return self._hash

    def accepts(self, symbol) -> bool:
        return self.pos <= symbol and not (self.neg & symbol)

    def text(self) -> str:
        lits = sorted(self.pos) + ["!" + a for a in sorted(self.neg)]
        return " & ".join(lits) if lits else "true"


TRUE_GUARD = Guard()


@dataclass(frozen=True)
class Silent:
    """Silent label of one agent; distinct from the empty service set."""

    agent: int

    def text(self) -> str:
        return f"eps_{self.agent}"


def label_text(label) -> str:
    if isinstance(label, Guard) or isinstance(label, Silent):
        return label.text()
    return "{" + ",".join(sorted(label)) + "}"


def label_sort_key(label):
    if isinstance(label, Silent):
        return (0, label.agent, ())
    if isinstance(label, Guard):
        return (2, 0, (tuple(sorted(label.pos)), tuple(sorted(label.neg))))
    return (1, 0, tuple(sorted(label)))


class Transition(NamedTuple):
    src: int
    label: object
    dst: int
    mask: int = 0  # acceptance sets the transition lies in, one bit each


@dataclass(frozen=True)
class Witness:
    """Path of lower-level transitions abbreviated by one reduced transition.

    `steps` chain from state `src` to state `dst` of the finer automaton.
    """

    steps: tuple
    src: int
    dst: int


class BuchiAutomaton:
    """Nondeterministic automaton over infinite words, state ids are dense ints.

    Acceptance is transition-based and generalized: each transition's
    `mask` holds the sets among the automaton's `sets` it lies in, and a run
    is accepting when it meets every set infinitely often (with no sets,
    every infinite run is).  Besides the core structure a few optional
    per-transition annotation slots are carried through `rebuild`: witness
    variants (`tr_witness`; `fold` gives each transition one, and its
    absorbing loop one per anchor), dependency coalitions (`tr_dep`) and
    generic back references (`tr_back`).  `state_tags` holds one arbitrary
    payload per state (product tuples, anchors, display names).
    """

    def __init__(self, mode=GUARD_MODE, sets=0):
        self.mode = mode
        self.sets = sets
        self.initial = 0
        self.transitions: list = []
        self.state_tags: list = []
        self.tr_witness: dict = {}
        self.tr_dep: dict = {}
        self.tr_back: dict = {}
        self._out = None
        self._inn = None

    @property
    def n_states(self) -> int:
        return len(self.state_tags)

    def add_state(self, tag=None) -> int:
        self.state_tags.append(tag)
        self._out = None
        self._inn = None
        return len(self.state_tags) - 1

    def add_transition(self, src: int, label, dst: int, mask: int = 0) -> int:
        self.transitions.append(Transition(src, label, dst, mask))
        self._out = None
        self._inn = None
        return len(self.transitions) - 1

    def _index(self):
        """Per state, its out- and in-transition ids, kept until a change."""
        if self._out is None:
            n = self.n_states
            out, inn = [[] for _ in range(n)], [[] for _ in range(n)]
            for tid, (src, _label, dst, _mask) in enumerate(self.transitions):
                out[src].append(tid)
                inn[dst].append(tid)
            self._out, self._inn = out, inn
        return self._out, self._inn

    def out_transitions(self, state: int) -> list:
        self._index()
        return self._out[state]

    def in_transitions(self, state: int) -> list:
        self._index()
        return self._inn[state]


@dataclass(frozen=True)
class Lasso:
    """Finite witness of an accepting run: a prefix path and a cycle."""

    prefix: tuple
    cycle: tuple

    def states(self, automaton: BuchiAutomaton):
        seq = [automaton.initial]
        for tid in self.prefix + self.cycle:
            seq.append(automaton.transitions[tid].dst)
        return seq


class TransitionSystem:
    """Finite state machine with named actions, deterministic per (state, action)."""

    def __init__(self):
        self.states: list = []
        self.initial = 0
        self.actions: list = []
        self.props: set = set()
        self.labels: list = []
        self.trans: dict = {}
        self.conflicts: list = []
        self._succ = None

    def add_state(self, name: str, labels=()) -> int:
        self.states.append(name)
        self.labels.append(frozenset(labels))
        self._succ = None
        return len(self.states) - 1

    def add_action(self, name: str):
        if name not in self.actions:
            self.actions.append(name)

    def add_transition(self, src: int, action: str, dst: int):
        key = (src, action)
        if key in self.trans and self.trans[key] != dst:
            self.conflicts.append((src, action, self.trans[key], dst))
            return
        self.trans[key] = dst
        self._succ = None

    def state_index(self, name: str) -> int:
        return self.states.index(name)

    def successors(self, state: int):
        """Outgoing (action, target) pairs in declared action order."""
        if self._succ is None:
            succ = [[] for _ in self.states]
            for action in self.actions:
                for s in range(len(self.states)):
                    if (s, action) in self.trans:
                        succ[s].append((action, self.trans[(s, action)]))
            self._succ = succ
        return self._succ[state]


def components(roots, successors, size):
    """Strongly connected components reachable from `roots`, by an iterative
    Tarjan over dense int nodes.

    Nodes are the ints below `size`, and the visit order, the low links and
    the on-stack flags are held in arrays indexed by node; `successors(node)`
    gives a node's successors.  Roots are taken in the given order and
    successors in the order given, and each component is yielded, as a list
    of its nodes, as soon as it closes: after every component it reaches.  A
    caller may stop early; nodes past that point are never visited.
    """
    index = [0] * size  # visit number, from 1; 0 while unvisited
    low = [0] * size
    on_stack = bytearray(size)
    stack = []
    visited = 0
    for root in roots:
        if index[root]:
            continue
        visited += 1
        index[root] = low[root] = visited
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(successors(root)))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if not index[w]:
                    visited += 1
                    index[w] = low[w] = visited
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(successors(w))))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != index[v]:
                    continue
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    members.append(w)
                    if w == v:
                        break
                yield members


def strongly_connected_components(a: BuchiAutomaton, allowed=None):
    """(component id per state, component members), ids in closing order.

    With `allowed`, a flag per state, only the subgraph induced by the
    flagged states counts; roots are taken in ascending order either way,
    and other states get no id.
    """
    transitions = a.transitions
    out, _inn = a._index()
    n = a.n_states

    def successors(v):
        targets = [transitions[tid].dst for tid in out[v]]
        return targets if allowed is None else [w for w in targets if allowed[w]]

    comp = [None] * n
    comps = []
    roots = range(n) if allowed is None else [s for s in range(n) if allowed[s]]
    for members in components(roots, successors, n):
        for w in members:
            comp[w] = len(comps)
        comps.append(sorted(members))
    return comp, comps


def covered_sets(a: BuchiAutomaton):
    """(component id per state, component members, covered): `covered` maps
    each component with an internal edge to the OR of its internal edges'
    masks."""
    comp, comps = strongly_connected_components(a)
    covered = {}
    for t in a.transitions:
        c = comp[t.src]
        if c == comp[t.dst]:
            covered[c] = covered.get(c, 0) | t.mask
    return comp, comps, covered


def good_components(a: BuchiAutomaton):
    """Component ids whose internal edges meet every acceptance set."""
    full = (1 << a.sets) - 1
    comp, comps, covered = covered_sets(a)
    return comp, comps, {c for c, mask in covered.items() if mask == full}


def _bfs(a: BuchiAutomaton, source: int, allowed=None, reverse=False):
    """Deterministic BFS; returns (dist, parent transition id) arrays."""
    out, inn = a._index()
    transitions = a.transitions
    n = a.n_states
    dist = [None] * n
    parent = [None] * n
    if allowed is not None and source not in allowed:
        return dist, parent
    dist[source] = 0
    queue = [source]
    for v in queue:
        d = dist[v] + 1
        for tid in (inn if reverse else out)[v]:
            t = transitions[tid]
            w = t.src if reverse else t.dst
            if dist[w] is None and (allowed is None or w in allowed):
                dist[w] = d
                parent[w] = tid
                queue.append(w)
    return dist, parent


def least_segments(a: BuchiAutomaton, stop):
    """Least paths from a transition leaving a stop state to the next stop
    states, read off tables built by one backward sweep per stop (state,
    mask) pair.

    A path's mask is the OR of its transitions' masks, its first and last
    included.  Each sweep is breadth-first from the stop pair over the
    non-stop pairs that paths from stop states carry (pair `(x, m)` stored
    at `x * width + m`), and records per pair the smallest transition id
    leading to a pair one step closer, or straight into the stop pair.
    Following those steps gives the least path: the shortest one, ties going
    to the lexicographically smallest sequence of transition ids.  Pays off
    when the entries into the non-stop region outnumber the stop pairs.
    Each table is read for every entry pair, a non-stop pair that a
    transition leaving a stop state enters, right after its sweep and then
    dropped, so one table is held at a time.  A sweep ends after the layer
    in which the last entry pair gets its distance: a pair's step can only
    change within its own layer, so later layers would change no step that
    a path from an entry pair follows.

    Returns `segments(tid)` for a transition `tid` leaving a stop state: one
    (stop state, mask, steps) per stop pair that a path starting with `tid`
    and running through non-stop states reaches, `steps` its least such path.
    """
    transitions = a.transitions
    out, _inn = a._index()
    n = a.n_states
    width = 1 << a.sets
    entering = [[] for _ in range(n)]  # per state, (tid, source, mask) from non-stop states
    for tid, (src, _label, dst, mask) in enumerate(transitions):
        if not stop[src]:
            entering[dst].append((tid, src, mask))
    # per state, the masks paths from stop states carry into it
    carried = [set() for _ in range(n)]
    pending = []
    for y, _label, z, m in transitions:
        if stop[y] and not stop[z] and m not in carried[z]:
            carried[z].add(m)
            pending.append((z, m))
    tails = {x * width + m: [] for x, m in pending}  # entry pair -> (stop, mask, steps after)
    while pending:
        x, m = pending.pop()
        for tid in out[x]:
            _x, _label, z, mt = transitions[tid]
            mz = m | mt
            if mz not in carried[z]:
                carried[z].add(mz)
                if not stop[z]:
                    pending.append((z, mz))
    size = n * width
    for y in range(n):
        if not stop[y]:
            continue
        for my in sorted(carried[y]):
            dist = [None] * size
            step = [None] * size
            frontier = [y * width + my]
            unsettled = len(tails)
            d = 0
            while frontier and unsettled:
                d += 1
                found = []
                for key in frontier:
                    x, mx = divmod(key, width)
                    for tid, w, mt in entering[x]:
                        if mt | mx != mx:
                            continue
                        for mw in carried[w]:
                            if mw | mt != mx:
                                continue
                            k = w * width + mw
                            if dist[k] is None:
                                dist[k] = d
                                step[k] = tid
                                found.append(k)
                                if k in tails:
                                    unsettled -= 1
                            elif dist[k] == d and tid < step[k]:
                                step[k] = tid
                frontier = found
            for start, paths in tails.items():
                if step[start] is None:
                    continue
                k = start
                steps = []
                while True:
                    t = transitions[step[k]]
                    steps.append(step[k])
                    if stop[t.dst]:
                        break
                    k = t.dst * width + (k % width | t.mask)
                paths.append((y, my, tuple(steps)))

    def segments(tid):
        _src, _label, x, mask = transitions[tid]
        if stop[x]:
            return [(x, mask, (tid,))]
        return [(y, m, (tid,) + steps) for y, m, steps in tails[x * width + mask]]

    return segments


def region_analysis(a: BuchiAutomaton, significant, live=None):
    """Accepting cycles among insignificant states, and the routes into them.

    Returns (anchors, route): `anchors` maps an anchor state, the smallest
    state of a region component whose internal edges meet every acceptance
    set, to the transition ids of its `_covering_cycle`; `route(s)` gives a
    region state that can run into such a cycle its (distance, path
    transition ids, anchor), preferring the nearest anchor and then the
    smallest one, and None to any other state.  One backward breadth-first
    search from all anchors at once, in ascending order, records each region
    state's distance and first step, the step a search from its anchor alone
    would record; a path is walked only when `route` is asked for it.  With
    `live`, an anchor is kept only if `live(anchor, loop)` holds.
    """
    out, inn = a._index()
    transitions = a.transitions
    n = a.n_states
    region = [not sig for sig in significant]
    full = (1 << a.sets) - 1
    anchors = {}
    comp, comps = strongly_connected_components(a, allowed=region)
    for c, members in enumerate(comps):
        covered, serves = 0, False
        for s in members:
            for tid in out[s]:
                _s, label, w, mask = transitions[tid]
                if comp[w] == c:
                    covered |= mask
                    serves = serves or not isinstance(label, Silent)
        if covered == full:
            anchor = members[0]
            loop = _covering_cycle(a, full, set(members), anchor, serves)
            if live is None or live(anchor, loop):
                anchors[anchor] = loop

    dist, step = [None] * n, [None] * n
    queue = sorted(anchors)  # ascending: equally near anchors keep the first
    for x in queue:
        dist[x] = 0
    for v in queue:
        d = dist[v] + 1
        for tid in inn[v]:
            w = transitions[tid].src
            if dist[w] is None and region[w]:
                dist[w], step[w] = d, tid
                queue.append(w)

    def route(s):
        if dist[s] is None:
            return None
        path, x = [], s
        while dist[x]:  # down to the anchor, at distance 0
            path.append(step[x])
            x = transitions[step[x]].dst
        return dist[s], tuple(path), x

    return anchors, route


def _covering_cycle(a, full, members, anchor, serves):
    """Shortest cycle through the anchor inside `members` that meets every
    set in `full`, preferring one that provides services.

    A silent loop only realizes stuttering acceptance.  When the component
    offers a transition with a real service label (`serves`), the chosen
    loop takes one, so that an absorbed agent keeps producing its word.
    The search is breadth-first over (state, sets met) pairs, with one more
    bit for a service step, takes out-transitions in ascending id order,
    and stops once it discovers its goal, the anchor with every set met
    (and the service bit when `serves`).  A pair's parent is fixed when it
    is discovered, so the goal's path back to the start is the one a search
    run to exhaustion would read off.
    """
    out, _inn = a._index()
    transitions = a.transitions
    served = full + 1
    start = (anchor, 0)
    goal = (anchor, full | served) if serves else (anchor, full)
    parent = {start: None}
    queue = deque([start])
    while goal not in parent:
        key = queue.popleft()
        for tid in out[key[0]]:
            _x, label, w, mask = transitions[tid]
            if w not in members:
                continue
            nxt = (w, key[1] | mask | (0 if isinstance(label, Silent) else served))
            if nxt not in parent:
                parent[nxt] = (key, tid)
                queue.append(nxt)
    key = goal
    loop = []
    while key != start:
        key, tid = parent[key]
        loop.append(tid)
    return tuple(reversed(loop))


def significance(a: BuchiAutomaton, labels) -> list:
    """Per state: initial, or the source of a transition whose label in
    `labels` is not silent."""
    significant = [False] * a.n_states
    significant[a.initial] = True
    for t, label in zip(a.transitions, labels):
        if not isinstance(label, Silent):
            significant[t.src] = True
    return significant


def fold(a: BuchiAutomaton, silent, labels=None, live=None) -> BuchiAutomaton:
    """Fold the insignificant states away: the significant skeleton of `a`.

    `labels[tid]` is a transition's label in the result, the transition's
    own label by default, and the significant states are read off them
    (`significance`), so a labelled step never hides inside a silent
    stretch.  `a` carries its acceptance on transitions, and so does the
    result.  The result has one state per reachable significant state,
    tagged (state,), and at most one shared absorbing state, tagged with the
    sorted anchors of `region_analysis`.  A transition `tid` leaving
    significant state `u` yields, per (v, mask) pair that a path starting
    with `tid` reaches through insignificant states, the transition (u,
    label, v, mask), where the mask is the sets the path meets.  Per (u,
    label, v) only the variants no other one dominates are kept: a variant
    is dominated when another meets a superset of its sets, and provides a
    service if it does, at an equal or smaller rank, the rank being the
    least witness of `least_segments` (the shortest path, ties going to the
    lexicographically smallest sequence of transition ids).  A witness
    providing a service keeps the agent's word alive where a shorter silent
    one would not, which matters once `labels` makes a service step silent.
    When `tid` enters a region state that can run into an anchor's cycle, it
    also yields (u, label, absorbing state), whose witness leads to that
    anchor along the state's `region_analysis` route, the only routes walked;
    the absorbing state's `silent` self-loop meets every set and keeps one
    witness per anchor it is entered at, that anchor's cycle.  The edges
    into the absorbing state lie on no cycle, so they meet no set.

    When `a` carries coalitions (`tr_dep`), so does the result: a silent
    edge is its agent's alone, any other edge takes its first transition's
    coalition, and the smallest coalition ranks before the witness.  `live`
    filters the anchors, as in `region_analysis`.  The result is pruned to
    the states that reach acceptance.  So each state but the absorbing one
    stands for one state of `a`, the one witness of a transition leaving it
    starts there, and each variant of the absorbing loop runs from its
    anchor back to it: one pass over a cycle of the result replays a cycle
    of `a`.  Coalition ranks and label sort keys are worked out once per call.
    """
    if labels is None:
        labels = [t.label for t in a.transitions]
    significant = significance(a, labels)
    anchors, route = region_analysis(a, significant, live)
    segments = least_segments(a, significant)
    coalitions = bool(a.tr_dep)
    sink_target = (1,)
    served = 1 << a.sets  # a bit above the sets: the witness provides a service
    provides = [not isinstance(t.label, Silent) for t in a.transitions]

    def coalition(label, tid):
        if not coalitions:
            return None
        return frozenset((label.agent,)) if isinstance(label, Silent) else a.tr_dep[tid]

    ranks, sort_keys = {}, {}  # per coalition and per label, worked out once

    def coalition_rank(dep):
        if dep not in ranks:
            ranks[dep] = () if dep is None else (len(dep), tuple(sorted(dep)))
        return ranks[dep]

    def sort_key(label):
        if label not in sort_keys:
            sort_keys[label] = label_sort_key(label)
        return sort_keys[label]

    def edges_from(u):
        # (label, target) -> [(rank, mask, coalition, steps, end)]; a witness
        # is made for the kept variants only
        variants = {}
        for tid in a.out_transitions(u):
            label = labels[tid]
            dep = coalition(label, tid)
            dep_rank = coalition_rank(dep)
            for v, mask, steps in segments(tid):
                variants.setdefault((label, (0, v)), []).append(
                    ((dep_rank, (len(steps), steps)), mask, dep, steps, v)
                )
            entry = route(a.transitions[tid].dst)
            if entry is not None:
                _dist, steps, anchor = entry
                steps = (tid,) + steps
                variants.setdefault((label, sink_target), []).append(
                    ((dep_rank, (len(steps), steps)), 0, dep, steps, anchor)
                )
        edges = []
        for label, target in sorted(variants, key=lambda k: (sort_key(k[0]), k[1])):
            kept = []  # masks and service bits of the variants kept, none ranking higher
            ranked = sorted(variants[(label, target)], key=itemgetter(0))
            for _rank, mask, dep, steps, end in ranked:
                key = mask | served if any(provides[step] for step in steps) else mask
                if all(k | key != k for k in kept):
                    kept.append(key)
                    edges.append((label, target, mask, dep, Witness(steps, u, end)))
        return edges

    b = BuchiAutomaton(a.mode, a.sets)
    ids = {}

    def state_id(state):
        if state not in ids:
            ids[state] = b.add_state((state,))
            queue.append(state)
        return ids[state]

    queue = deque()
    b.initial = state_id(a.initial)
    sink = None
    entered = set()
    while queue:
        state = queue.popleft()
        src = ids[state]
        for label, target, mask, dep, witness in edges_from(state):
            if target == sink_target:
                if sink is None:
                    sink = b.add_state(tuple(sorted(anchors)))
                dst = sink
                entered.add(witness.dst)
            else:
                dst = state_id(target[1])
            tid = b.add_transition(src, label, dst, mask)
            b.tr_witness[tid] = (witness,)
            if dep is not None:
                b.tr_dep[tid] = dep
    if sink is not None:
        tid = b.add_transition(sink, silent, sink, (1 << a.sets) - 1)
        b.tr_witness[tid] = tuple(Witness(anchors[x], x, x) for x in sorted(entered))
        if coalitions:
            b.tr_dep[tid] = coalition(silent, None)
    return prune_non_coaccessible(b)


def _walk_forward(a, parent, source, target):
    path = []
    cur = target
    while cur != source:
        tid = parent[cur]
        path.append(tid)
        cur = a.transitions[tid].src
    path.reverse()
    return path


def language_empty(a: BuchiAutomaton) -> bool:
    """True iff no accepting run exists from the initial state."""
    comp, _comps, good = good_components(a)
    if not good:
        return True
    dist, _ = _bfs(a, a.initial)
    return not any(dist[s] is not None and comp[s] in good for s in range(a.n_states))


def check_lasso_membership(a: BuchiAutomaton, word) -> bool:
    """Does the automaton accept prefix . period^omega?

    Searches the synchronous product of the automaton with the lasso-shaped
    word automaton without building it: `components` walks the (position,
    state) pairs, numbered position * n_states + state, computes each
    pair's successors, and the masks of the transitions read, when it is
    first visited and answers as soon as it closes a component whose
    internal edges meet every set.  Every pair it visits is reachable, so
    that component is too.  A silent symbol
    fed to a guard-labeled automaton raises `AlphabetMismatchError`.
    """
    symbols = tuple(word.prefix) + tuple(word.period)
    guards = a.mode == GUARD_MODE
    if guards and any(isinstance(symbol, Silent) for symbol in symbols):
        raise AlphabetMismatchError("silent symbol fed to a guard-labeled automaton")
    size, loop_to = a.n_states, len(word.prefix)
    transitions, full = a.transitions, (1 << a.sets) - 1
    edges = {}  # visited pair -> [(successor pair, mask)]

    def successors(node):
        pos, q = divmod(node, size)
        symbol = symbols[pos]
        base = (pos + 1 if pos + 1 < len(symbols) else loop_to) * size
        out = edges[node] = [
            (base + t.dst, t.mask)
            for t in (transitions[tid] for tid in a.out_transitions(q))
            if (t.label.accepts(symbol) if guards else t.label == symbol)
        ]
        return [w for w, _mask in out]

    for members in components([a.initial], successors, len(symbols) * size):
        inside = set(members)
        internal = [mask for v in members for w, mask in edges[v] if w in inside]
        if internal and reduce(or_, internal) == full:
            return True
    return False


def rebuild(a: BuchiAutomaton, keep) -> BuchiAutomaton:
    """The restriction of `a` to the states in `keep`, renumbered in
    ascending order, with the transitions between them and their
    annotations."""
    keep = sorted(keep)
    remap = {old: new for new, old in enumerate(keep)}
    b = BuchiAutomaton(a.mode, a.sets)
    for old in keep:
        b.add_state(a.state_tags[old])
    b.initial = remap[a.initial]
    notes = ((a.tr_witness, b.tr_witness), (a.tr_dep, b.tr_dep), (a.tr_back, b.tr_back))
    for tid, t in enumerate(a.transitions):
        if t.src in remap and t.dst in remap:
            new_tid = b.add_transition(remap[t.src], t.label, remap[t.dst], t.mask)
            for old, new in notes:
                if tid in old:
                    new[new_tid] = old[tid]
    return b


def prune_non_coaccessible(a: BuchiAutomaton) -> BuchiAutomaton:
    """Keep states from which a component whose internal edges meet every
    set is reachable, plus the initial state."""
    _comp, comps, good = good_components(a)
    keep = coreachable(a, [s for c in good for s in comps[c]])
    keep.add(a.initial)
    if len(keep) == a.n_states:
        return a
    return rebuild(a, keep)


def coreachable(a: BuchiAutomaton, targets) -> set:
    """States with a path into `targets`, the targets included."""
    found = set(targets)
    queue = deque(found)
    while queue:
        for tid in a.in_transitions(queue.popleft()):
            s = a.transitions[tid].src
            if s not in found:
                found.add(s)
                queue.append(s)
    return found


def to_dot(a: BuchiAutomaton, name: str = "automaton") -> str:
    """Graphviz rendering; silent edges as eps_i, acceptance sets after the
    label as acc{0,1}."""
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    lines.append('  __init [shape=point,label=""];')
    for s in range(a.n_states):
        tag = a.state_tags[s]
        label = f"{s}" if tag is None else f"{s}\\n{tag}"
        lines.append(f'  s{s} [shape=circle,label="{label}"];')
    lines.append(f"  __init -> s{a.initial};")
    for tid, t in enumerate(a.transitions):
        text = label_text(t.label)
        if t.mask:
            text += " acc{" + ",".join(str(i) for i in range(a.sets) if t.mask >> i & 1) + "}"
        if tid in a.tr_dep:
            text += " Dep" + "{" + ",".join(str(i) for i in sorted(a.tr_dep[tid])) + "}"
        attrs = [f'label="{text}"']
        if tid in a.tr_witness:
            span = max(len(w.steps) for w in a.tr_witness[tid])
            attrs.append(f'tooltip="witness length {span}"')
        lines.append(f'  s{t.src} -> s{t.dst} [{",".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
