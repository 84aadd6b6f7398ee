"""Explicit-state automata: Buchi automata, transition systems, lasso search.

Two transition-label conventions coexist.  Specification automata obtained
from formulas carry propositional guards (conjunctions of literals) and are
evaluated against concrete symbol sets.  Product automata built later in the
pipeline carry explicit labels: either a concrete service set (a frozenset,
possibly empty) or a per-agent silent symbol.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Witness:
    """Path of lower-level transitions abbreviated by one reduced transition.

    `steps` chain from state `src` to state `dst` of the finer automaton.
    """

    steps: tuple
    src: int
    dst: int

    def rank(self):
        return (len(self.steps), self.steps)


class BuchiAutomaton:
    """Nondeterministic automaton over infinite words, state ids are dense ints.

    Besides the core structure a few optional per-transition annotation slots
    are carried through the rebuild operations below: witness variants
    (`tr_witness`), dependency coalitions (`tr_dep`) and generic back
    references (`tr_back`).  `state_tags` holds one arbitrary payload per
    state (product tuples, merge classes, display names).
    """

    def __init__(self, mode=GUARD_MODE):
        self.mode = mode
        self.initial = 0
        self.accepting: set = set()
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

    def add_transition(self, src: int, label, dst: int) -> int:
        self.transitions.append(Transition(src, label, dst))
        self._out = None
        self._inn = None
        return len(self.transitions) - 1

    def _index(self):
        if self._out is None:
            out = [[] for _ in range(self.n_states)]
            inn = [[] for _ in range(self.n_states)]
            for tid, t in enumerate(self.transitions):
                out[t.src].append(tid)
                inn[t.dst].append(tid)
            self._out = out
            self._inn = inn

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


def validate_lasso(a: BuchiAutomaton, lasso: Lasso):
    """Structural checks: contiguity, closed cycle, accepting visit.

    Raises ValueError naming the first check that fails.
    """
    cur = a.initial
    for tid in lasso.prefix:
        t = a.transitions[tid]
        if t.src != cur:
            raise ValueError("prefix not contiguous")
        cur = t.dst
    start = cur
    if not lasso.cycle:
        raise ValueError("cycle must be nonempty")
    hit = start in a.accepting
    for tid in lasso.cycle:
        t = a.transitions[tid]
        if t.src != cur:
            raise ValueError("cycle not contiguous")
        cur = t.dst
        hit = hit or cur in a.accepting
    if cur != start:
        raise ValueError("cycle not closed")
    if not hit:
        raise ValueError("cycle misses accepting states")


def components(roots, successors):
    """Strongly connected components reachable from `roots`, by an iterative
    Tarjan.

    Nodes are any hashable values; `successors(node)` gives a node's
    successors.  Roots are taken in the given order and successors in the
    order given, and each component is yielded, as a list of its nodes, as
    soon as it closes: after every component it reaches.  A caller may stop
    early; nodes past that point are never visited.
    """
    index, low = {}, {}
    stack, on_stack = [], set()
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != index[v]:
                    continue
                members = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                yield members


def strongly_connected_components(a: BuchiAutomaton, allowed=None):
    """(component id per state, component members), ids in closing order.

    With `allowed`, only the subgraph induced by those states counts; roots
    are taken in ascending order either way, and other states get no id.
    """
    transitions = a.transitions

    def successors(v):
        targets = [transitions[tid].dst for tid in a.out_transitions(v)]
        return targets if allowed is None else [w for w in targets if w in allowed]

    comp = [None] * a.n_states
    comps = []
    roots = range(a.n_states) if allowed is None else sorted(allowed)
    for members in components(roots, successors):
        for w in members:
            comp[w] = len(comps)
        comps.append(sorted(members))
    return comp, comps


def _good_components(a: BuchiAutomaton):
    """Component ids that contain an accepting state and an internal edge."""
    comp, comps = strongly_connected_components(a)
    internal = set()
    for t in a.transitions:
        if comp[t.src] == comp[t.dst]:
            internal.add(comp[t.src])
    good = {c for c in internal if any(s in a.accepting for s in comps[c])}
    return comp, comps, good


def _bfs(a: BuchiAutomaton, source: int, allowed=None, reverse=False):
    """Deterministic BFS; returns (dist, parent transition id) arrays."""
    n = a.n_states
    dist = [None] * n
    parent = [None] * n
    if allowed is not None and source not in allowed:
        return dist, parent
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        tids = a.in_transitions(v) if reverse else a.out_transitions(v)
        for tid in tids:
            t = a.transitions[tid]
            w = t.src if reverse else t.dst
            if allowed is not None and w not in allowed:
                continue
            if dist[w] is None:
                dist[w] = dist[v] + 1
                parent[w] = tid
                queue.append(w)
    return dist, parent


def least_segments(a: BuchiAutomaton, stop):
    """Least paths from a transition leaving a stop state to the next stop
    states, read off tables built by one backward sweep per stop (state,
    flag) pair.

    A path's flag turns true once it enters an accepting state, its last
    state included.  Each sweep is breadth-first from the stop pair over the
    non-stop pairs (pair `(x, f)` stored at `2 * x + f`), and records per
    pair the smallest transition id leading to a pair one step closer, or
    straight into the stop pair.  Following those steps gives the least path:
    the shortest one, ties going to the lexicographically smallest sequence
    of transition ids.  Pays off when the entries into the non-stop region
    outnumber the stop pairs.  Each table is read for every entry pair, a
    non-stop pair that a transition leaving a stop state enters, right after
    its sweep and then dropped, so one table is held at a time.

    Returns `segments(tid)` for a transition `tid` leaving a stop state: one
    (stop state, flag, steps) per stop pair that a path starting with `tid`
    and running through non-stop states reaches, `steps` its least such path.
    """
    transitions = a.transitions
    n = a.n_states
    accepting = [s in a.accepting for s in range(n)]
    entering = [[] for _ in range(n)]  # per state, (tid, source) from non-stop states
    for tid, t in enumerate(transitions):
        if not stop[t.src]:
            entering[t.dst].append((tid, t.src))
    # a non-stop pair (x, True) lies only on paths from an accepting one
    flagged = [accepting[x] and not stop[x] for x in range(n)]
    pending = [x for x in range(n) if flagged[x]]
    while pending:
        for tid in a.out_transitions(pending.pop()):
            z = transitions[tid].dst
            if not (stop[z] or flagged[z]):
                flagged[z] = True
                pending.append(z)
    tails = {  # entry pair -> (stop state, flag, steps after the entry)
        2 * t.dst + accepting[t.dst]: []
        for t in transitions
        if stop[t.src] and not stop[t.dst]
    }
    size = 2 * n
    for y in range(n):
        if not stop[y]:
            continue
        for flag in (False, True):
            dist = [None] * size
            step = [None] * size
            frontier = [2 * y + flag]
            d = 0
            while frontier:
                d += 1
                found = []
                for key in frontier:
                    x, fx = key >> 1, key & 1
                    if accepting[x]:  # entered with the flag set, whatever it was
                        flags = (0, 1) if fx else ()
                    else:
                        flags = (fx,)
                    for tid, w in entering[x]:
                        for fw in flags:
                            if fw and not flagged[w]:
                                continue
                            k = 2 * w + fw
                            if dist[k] is None:
                                dist[k] = d
                                step[k] = tid
                                found.append(k)
                            elif dist[k] == d and tid < step[k]:
                                step[k] = tid
                frontier = found
            if d == 1:  # no non-stop pair leads into this stop pair
                continue
            for start, paths in tails.items():
                if step[start] is None:
                    continue
                k = start
                steps = []
                while True:
                    steps.append(step[k])
                    z = transitions[step[k]].dst
                    if stop[z]:
                        break
                    k = 2 * z + (k & 1 or accepting[z])
                paths.append((y, flag, tuple(steps)))

    def segments(tid):
        x = transitions[tid].dst
        if stop[x]:
            return [(x, accepting[x], (tid,))]
        return [(y, fy, (tid,) + steps) for y, fy, steps in tails[2 * x + accepting[x]]]

    return segments


def region_analysis(a: BuchiAutomaton, significant, live=None):
    """Accepting cycles among insignificant states, and the routes into them.

    Returns (anchors, reach): `anchors` maps an anchor state, the smallest
    accepting state of a region component with an internal edge, to the
    transition ids of a shortest cycle through it; `reach` maps every region
    state that can run into such a cycle to (distance, path transition ids,
    anchor), preferring the nearest anchor and then the smallest one.  With
    `live`, an anchor is kept only if `live(anchor, loop)` holds.
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
            if live is None or live(anchor, loop):
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

    A silent loop only realizes stuttering acceptance.  When the component
    offers a transition with a real service label, the chosen loop detours
    through one so that an absorbed agent keeps producing its word.  Paths
    to and from the detour are least by ascending transition id.
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


def fold(a: BuchiAutomaton, significant, silent, relabel=None, live=None) -> BuchiAutomaton:
    """Fold the insignificant states away: the significant skeleton of `a`.

    The result has one state per reachable (significant state, flag) pair,
    tagged (state,) and accepting with the flag, and at most one shared
    accepting absorbing state, tagged with the sorted anchors of
    `region_analysis`.  A transition `tid` leaving significant state `u`
    yields, per (v, flag) pair that a path starting with `tid` reaches
    through insignificant states, the transition (u, label, (v, flag)),
    where the flag tells whether the path enters an accepting state.  When
    `tid` enters a region state that can run into an anchor's cycle, it
    also yields (u, label, absorbing state), whose witness leads to that
    anchor; the absorbing state's `silent` self-loop keeps one witness per
    anchor it is entered at, that anchor's cycle.  Per key the least
    witness of `least_segments` is kept: the shortest path, ties going to
    the lexicographically smallest sequence of transition ids.

    `relabel(tid)` gives a transition's label in the result, the
    transition's own label by default.  When `a` carries coalitions
    (`tr_dep`), so does the result: a silent edge is its agent's alone, any
    other edge takes its first transition's coalition, and per key the
    smallest coalition wins before the witness is compared.  `live` filters
    the anchors, as in `region_analysis`.  The result is pruned to the
    states that reach acceptance, and states with equal edges are merged.
    """
    if not significant[a.initial]:
        raise ValueError("the initial state must be significant")
    anchors, reach = region_analysis(a, significant, live)
    segments = least_segments(a, significant)
    coalitions = bool(a.tr_dep)

    def coalition(label, tid):
        if not coalitions:
            return None
        return frozenset((label.agent,)) if isinstance(label, Silent) else a.tr_dep[tid]

    def edges_from(u):
        edges = {}  # (label, target) -> (rank, coalition, witness)

        def put(label, target, dep, witness):
            rank = (() if dep is None else (len(dep), tuple(sorted(dep))), witness.rank())
            cur = edges.get((label, target))
            if cur is None or rank < cur[0]:
                edges[(label, target)] = (rank, dep, witness)

        for tid in a.out_transitions(u):
            label = a.transitions[tid].label if relabel is None else relabel(tid)
            dep = coalition(label, tid)
            for v, flag, steps in segments(tid):
                put(label, ("state", v, flag), dep, Witness(steps, u, v))
            route = reach.get(a.transitions[tid].dst)
            if route is not None:
                _dist, steps, anchor = route
                put(label, ("sink",), dep, Witness((tid,) + steps, u, anchor))
        return [
            (label, target, dep, witness)
            for (label, target), (_rank, dep, witness) in sorted(
                edges.items(), key=lambda item: (label_sort_key(item[0][0]), item[0][1])
            )
        ]

    b = BuchiAutomaton(a.mode)
    ids = {}
    out = {}  # significant state -> its folded edges, shared by both flags

    def copy_id(state, flag):
        key = (state, flag)
        if key not in ids:
            ids[key] = b.add_state((state,))
            if flag:
                b.accepting.add(ids[key])
            queue.append(key)
        return ids[key]

    queue = deque()
    b.initial = copy_id(a.initial, a.initial in a.accepting)
    sink = None
    entered = set()
    while queue:
        state, flag = queue.popleft()
        src = ids[(state, flag)]
        if state not in out:
            out[state] = edges_from(state)
        for label, target, dep, witness in out[state]:
            if target[0] == "sink":
                if sink is None:
                    sink = b.add_state(tuple(sorted(anchors)))
                    b.accepting.add(sink)
                dst = sink
                entered.add(witness.dst)
            else:
                dst = copy_id(target[1], target[2])
            tid = b.add_transition(src, label, dst)
            b.tr_witness[tid] = (witness,)
            if dep is not None:
                b.tr_dep[tid] = dep
    if sink is not None:
        tid = b.add_transition(sink, silent, sink)
        b.tr_witness[tid] = tuple(Witness(anchors[x], x, x) for x in sorted(entered))
        if coalitions:
            b.tr_dep[tid] = coalition(silent, None)

    # A fully silent automaton only distinguishes silence from emptiness, so
    # the acceptance copies of the (lone significant) initial state collapse.
    if sink is not None and all(isinstance(t.label, Silent) for t in b.transitions):
        rep = min(i for (s, _f), i in ids.items() if s == a.initial)
        class_of = {i: rep for i in ids.values()}
        class_of[sink] = sink
        b = rebuild(b, sorted({rep, sink}), class_of)
    return merge_duplicate_states(prune_non_coaccessible(b))


def _walk_forward(a, parent, source, target):
    path = []
    cur = target
    while cur != source:
        tid = parent[cur]
        path.append(tid)
        cur = a.transitions[tid].src
    path.reverse()
    return path


def _walk_backward(a, parent, source, target):
    # parent from a reverse BFS rooted at `source`: chains target -> source
    path = []
    cur = target
    while cur != source:
        tid = parent[cur]
        path.append(tid)
        cur = a.transitions[tid].dst
    return path


def language_empty(a: BuchiAutomaton) -> bool:
    """True iff no accepting run exists from the initial state."""
    comp, _comps, good = _good_components(a)
    if not good:
        return True
    dist, _ = _bfs(a, a.initial)
    return not any(dist[s] is not None and comp[s] in good for s in range(a.n_states))


def _shortest_accepting_cycle(a, v, comp, comps):
    """Shortest cycle through `v` inside its component that visits acceptance."""
    members = set(comps[comp[v]])
    fwd, fpar = _bfs(a, v, allowed=members)
    bwd, bpar = _bfs(a, v, allowed=members, reverse=True)
    best = None
    for x in comps[comp[v]]:
        if x not in a.accepting:
            continue
        if x == v:
            for tid in a.out_transitions(v):
                w = a.transitions[tid].dst
                if w not in members or bwd[w] is None:
                    continue
                cand_len = 1 + bwd[w]
                key = (cand_len, x, tid)
                if best is None or key < best[0]:
                    path = [tid] + _walk_backward(a, bpar, v, w)
                    best = (key, path)
        else:
            if fwd[x] is None or bwd[x] is None:
                continue
            key = (fwd[x] + bwd[x], x, -1)
            if best is None or key < best[0]:
                path = _walk_forward(a, fpar, v, x) + _walk_backward(a, bpar, v, x)
                best = (key, path)
    if best is None:
        return None
    return best[0][0], best[1]


def find_accepting_lasso(a: BuchiAutomaton):
    """Deterministic minimal lasso, or None when the language is empty.

    Minimizes prefix length, then cycle length, then breaks ties by smallest
    state id; all searches are breadth-first with transition ids fixing order.
    """
    comp, comps, good = _good_components(a)
    if not good:
        return None
    dist, parent = _bfs(a, a.initial)
    candidates = [s for s in range(a.n_states) if dist[s] is not None and comp[s] in good]
    if not candidates:
        return None
    dmin = min(dist[s] for s in candidates)
    best = None
    for v in sorted(s for s in candidates if dist[s] == dmin):
        res = _shortest_accepting_cycle(a, v, comp, comps)
        if res is None:
            continue
        clen, cycle = res
        key = (clen, v)
        if best is None or key < best[0]:
            best = (key, v, cycle)
    if best is None:
        return None
    _, v, cycle = best
    prefix = _walk_forward(a, parent, a.initial, v)
    lasso = Lasso(tuple(prefix), tuple(cycle))
    validate_lasso(a, lasso)
    return lasso


def check_lasso_membership(a: BuchiAutomaton, word) -> bool:
    """Does the automaton accept prefix . period^omega?

    Searches the synchronous product of the automaton with the lasso-shaped
    word automaton without building it: `components` walks the (position,
    state) pairs, numbered position * n_states + state, computes each
    pair's successors when it is first visited and answers as soon as it
    closes a component with an accepting state and an internal edge.  Every
    pair it visits is reachable, so that component is too.  A silent symbol
    fed to a guard-labeled automaton raises `AlphabetMismatchError`.
    """
    symbols = tuple(word.prefix) + tuple(word.period)
    guards = a.mode == GUARD_MODE
    if guards and any(isinstance(symbol, Silent) for symbol in symbols):
        raise AlphabetMismatchError("silent symbol fed to a guard-labeled automaton")
    size, loop_to = a.n_states, len(word.prefix)
    transitions, accepting = a.transitions, a.accepting

    def successors(node):
        pos, q = divmod(node, size)
        symbol = symbols[pos]
        base = (pos + 1 if pos + 1 < len(symbols) else loop_to) * size
        return [
            base + t.dst
            for t in (transitions[tid] for tid in a.out_transitions(q))
            if (t.label.accepts(symbol) if guards else t.label == symbol)
        ]

    for members in components([a.initial], successors):
        if any(w % size in accepting for w in members) and (
            len(members) > 1 or members[0] in successors(members[0])
        ):
            return True
    return False


def merge_tags(tags):
    """Tag of merged states: the sorted union of tuple tags, else the first tag."""
    tuple_tags = [t for t in tags if isinstance(t, tuple)]
    if len(tuple_tags) == len(tags) and tags:
        merged = sorted({x for t in tuple_tags for x in t})
        return tuple(merged)
    return tags[0] if tags else None


def _keep_best_witnesses(variant_lists):
    by_src = {}
    for variants in variant_lists:
        for w in variants:
            cur = by_src.get(w.src)
            if cur is None or w.rank() < cur.rank():
                by_src[w.src] = w
    return tuple(by_src[s] for s in sorted(by_src))


def rebuild(a: BuchiAutomaton, keep, class_of=None) -> BuchiAutomaton:
    """New automaton over `keep` (sorted), optionally quotienting by classes.

    `class_of` maps every old state to its representative; representatives
    must be members of `keep`.  Parallel duplicate transitions collapse, with
    witness variants merged per original source and other annotations taken
    from the first contributor.
    """
    keep = sorted(keep)
    if class_of is None:
        class_of = {s: s for s in keep}
    remap = {old: new for new, old in enumerate(keep)}
    b = BuchiAutomaton(a.mode)
    groups = {}
    for s in range(a.n_states):
        if class_of.get(s) is not None:
            groups.setdefault(class_of[s], []).append(s)
    for old in keep:
        b.add_state(merge_tags([a.state_tags[m] for m in groups.get(old, [old])]))
    b.initial = remap[class_of[a.initial]]
    for old in keep:
        if any(m in a.accepting for m in groups.get(old, [old])):
            b.accepting.add(remap[old])
    bucket = {}
    order = []
    for tid, t in enumerate(a.transitions):
        src = class_of.get(t.src)
        dst = class_of.get(t.dst)
        if src is None or dst is None:
            continue
        key = (remap[src], t.label, remap[dst])
        if key not in bucket:
            bucket[key] = []
            order.append(key)
        bucket[key].append(tid)
    for key in order:
        src, label, dst = key
        new_tid = b.add_transition(src, label, dst)
        olds = bucket[key]
        variants = [a.tr_witness[o] for o in olds if o in a.tr_witness]
        if variants:
            b.tr_witness[new_tid] = _keep_best_witnesses(variants)
        for o in olds:
            if o in a.tr_dep:
                b.tr_dep[new_tid] = a.tr_dep[o]
                break
        for o in olds:
            if o in a.tr_back:
                b.tr_back[new_tid] = a.tr_back[o]
                break
    return b


def prune_non_coaccessible(a: BuchiAutomaton) -> BuchiAutomaton:
    """Keep states from which acceptance is reachable, plus the initial state."""
    keep = coreachable(a, a.accepting) | {a.initial}
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


def _signature_side(pairs, state):
    out = []
    for label, other, dep in pairs:
        marker = "self" if other == state else other
        out.append((label_sort_key(label), marker, dep))
    return frozenset(out)


def merge_duplicate_states(a: BuchiAutomaton) -> BuchiAutomaton:
    """Merge states with identical incoming and outgoing edge sets.

    The signature covers edge labels, endpoint states (self-loops compared
    symbolically), dependency annotations and the acceptance flag; merging is
    a single pass, not a full bisimulation quotient.
    """
    sigs = {}
    for s in range(a.n_states):
        outs = [
            (a.transitions[t].label, a.transitions[t].dst, a.tr_dep.get(t))
            for t in a.out_transitions(s)
        ]
        ins = [
            (a.transitions[t].label, a.transitions[t].src, a.tr_dep.get(t))
            for t in a.in_transitions(s)
        ]
        key = (s in a.accepting, _signature_side(outs, s), _signature_side(ins, s))
        sigs.setdefault(key, []).append(s)
    class_of = {}
    changed = False
    for group in sigs.values():
        rep = min(group)
        for s in group:
            class_of[s] = rep
            if s != rep:
                changed = True
    if not changed:
        return a
    keep = sorted(set(class_of.values()))
    return rebuild(a, keep, class_of)


def to_dot(a: BuchiAutomaton, name: str = "automaton") -> str:
    """Graphviz rendering; accepting states doubled, silent edges as eps_i."""
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    lines.append('  __init [shape=point,label=""];')
    for s in range(a.n_states):
        shape = "doublecircle" if s in a.accepting else "circle"
        tag = a.state_tags[s]
        label = f"{s}" if tag is None else f"{s}\\n{tag}"
        lines.append(f'  s{s} [shape={shape},label="{label}"];')
    lines.append(f"  __init -> s{a.initial};")
    for tid, t in enumerate(a.transitions):
        text = label_text(t.label)
        if tid in a.tr_dep:
            text += " Dep" + "{" + ",".join(str(i) for i in sorted(a.tr_dep[tid])) + "}"
        attrs = [f'label="{text}"']
        if tid in a.tr_witness:
            span = max(len(w.steps) for w in a.tr_witness[tid])
            attrs.append(f'tooltip="witness length {span}"')
        lines.append(f'  s{t.src} -> s{t.dst} [{",".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
