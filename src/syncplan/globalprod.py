"""Team-level product, accepting-lasso selection, and strategy extraction.

Joint transitions are enumerated as dependency closures of single seed moves:
a coalition consists of exactly the agents pulled in transitively by the
dependency sets of the chosen per-agent transitions, so nobody synchronizes
without a reason.  The joint label is the union of the members' own service
contributions and every member's transition must agree with that label on the
services its own task automaton can distinguish.  Three things keep this
cheap without changing the product.  Each agent's candidate transitions are
filtered once per state: one whose label holds a service the agent cannot
see, or that depends on an agent outside the product, never joins, and a
partnerless one providing own services only is a complete move by itself.
Extending a partial coalition by a needed agent is a hash join: that agent's
candidates are indexed by the services both sides must agree on (its own
services the members' guards mention, and the members' own services its
guards mention), and only the matching bucket is tried; the full agreement
test still decides every complete assignment.  Last, joint moves involve
the agents of one dependency class only, so they are enumerated once per
class and tuple of its members' states, and shared by every component tuple
agreeing on those states.

Strategy extraction projects a global accepting lasso onto each agent and
replays the recorded witnesses down through the reduced products until plain
transition-system steps with synchronization requests remain.  Candidate
lassos must wind the acceptance counter through every position, and the
expanded strategies must keep every agent's produced word either infinite or
ending in silence its task automaton tolerates; candidates failing these
checks are discarded and the search continues.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from types import MappingProxyType

from .buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Lasso,
    Silent,
    Transition,
    _bfs,
    _good_components,
    _minimal_lasso,
    _walk_backward,
    _walk_forward,
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
    """Product over all reduced task-and-motion automata plus a team counter.

    State tags are (component state tuple, counter); the counter walks
    1..N+1, advancing when the agent at the current position moves into its
    accepting set.  `tr_back[tid]` is ("local", position, transition id) or
    ("joint", coalition ids, {position: transition id}).  Transitions out of
    equal component tuples share their label, `tr_dep` and `tr_back` objects,
    so the assignment is read-only.
    """

    automaton: BuchiAutomaton
    products: list
    agent_ids: list


def build_global_product(products) -> GlobalProduct:
    products = sorted(products, key=lambda p: p.origin.agent_id)
    agent_ids = [p.origin.agent_id for p in products]
    id2pos = {aid: pos for pos, aid in enumerate(agent_ids)}
    n = len(products)
    autos = [p.automaton for p in products]
    own = [p.origin.own_services for p in products]
    fsyn = [p.origin.foreign_syntactic for p in products]
    visible = [o | f for o, f in zip(own, fsyn)]

    counter_steps = {}

    def counter_step(advancing):
        """The next counter value for each value 1..n+1 (index 0 unused)
        when the agents at the `advancing` positions move into their
        accepting sets: the counter passes position j - 1 if that agent
        advances, and wraps from n + 1 back to 1."""
        step = counter_steps.get(advancing)
        if step is None:
            step = tuple(j + 1 if j - 1 in advancing else j for j in range(n + 1)) + (1,)
            counter_steps[advancing] = step
        return step

    silent = [Silent(aid) for aid in agent_ids]
    solo = [frozenset((aid,)) for aid in agent_ids]
    # per position, keyed by state:
    # - silent_out: [(target, back reference, counter step)] of its silent moves;
    # - cands: ids of the joint transitions some assignment may make
    #   consistent; a label outside what the agent can see, or a dependency
    #   on an agent outside the product, rules a transition out for good;
    # - seeds: those of them with partners, which start a coalition;
    # - lone: the partnerless ones providing own services only, as complete
    #   joint moves (see joint_moves), keeping the first transition of each
    #   (label, target) pair; a partnerless transition expecting a foreign
    #   service is consistent only in a coalition some other member pulls
    #   it into.
    # Per position and candidate id: its partner positions, the own services
    # it provides and the foreign services it expects, in flat lists of
    # shared sets, which leave the garbage collector few objects to trace.
    silent_out, cands, seeds, lone = [], [], [], []
    partners, gives, wants = [], [], []
    for pos, a in enumerate(autos):
        s_out, c_out, seed_out, lone_out = {}, {}, {}, {}
        partners_at = [None] * len(a.transitions)
        gives_at = [None] * len(a.transitions)
        wants_at = [None] * len(a.transitions)
        dep_partners = {}  # dependency set -> partner positions, None if outside
        parts = {}  # label -> (own part, foreign part), None if partly invisible
        lone_seen = set()
        for tid, t in enumerate(a.transitions):
            label = t.label
            if isinstance(label, Silent):
                step = counter_step(frozenset((pos,) if t.dst in a.accepting else ()))
                s_out.setdefault(t.src, []).append((t.dst, ("local", pos, tid), step))
                continue
            dep = a.tr_dep.get(tid, solo[pos])
            if dep not in dep_partners:
                dep_pos = {id2pos.get(aid) for aid in dep}
                dep_partners[dep] = None if None in dep_pos else frozenset(dep_pos - {pos})
            if label not in parts:
                parts[label] = (
                    (label & own[pos], label & fsyn[pos]) if label <= visible[pos] else None
                )
            partners_at[tid] = dep_partners[dep]
            part = parts[label]
            if partners_at[tid] is None or part is None:
                continue
            gives_at[tid], wants_at[tid] = part
            c_out.setdefault(t.src, []).append(tid)
            if partners_at[tid]:
                seed_out.setdefault(t.src, []).append(tid)
            elif not wants_at[tid] and (t.src, label, t.dst) not in lone_seen:
                lone_seen.add((t.src, label, t.dst))
                back = ("joint", solo[pos], MappingProxyType({pos: tid}))
                step = counter_step(frozenset((pos,) if t.dst in a.accepting else ()))
                key = (tuple(sorted(label)), (agent_ids[pos],))
                lone_out.setdefault(t.src, []).append(
                    (key, label, solo[pos], back, ((pos, t.dst),), step)
                )
        silent_out.append(s_out)
        cands.append(c_out)
        seeds.append(seed_out)
        lone.append(lone_out)
        partners.append(partners_at)
        gives.append(gives_at)
        wants.append(wants_at)

    # (position r, its state, assigned positions) -> r's candidates keyed by
    # the services r and the assigned members must agree on: r's own
    # services their foreign guards mention, and their own services r's
    # foreign guards mention
    indexes = {}

    def partner_index(r, q, members):
        index = indexes.get((r, q, members))
        if index is None:
            mentioned = frozenset().union(*(fsyn[m] for m in members))
            owned = frozenset().union(*(own[m] for m in members))
            index = indexes[(r, q, members)] = {}
            for tid in cands[r].get(q, ()):
                key = (gives[r][tid] & mentioned, wants[r][tid] & owned)
                index.setdefault(key, []).append(tid)
        return index

    def joint_moves(qs, positions):
        """Complete closed coalition assignments among `positions`,
        deduplicated across seeds, as (sort key prefix, sigma, coalition,
        back reference, (position, target) changes, counter step)."""
        results = []
        for pos in positions:
            results += lone[pos].get(qs[pos], ())
        seen = set()
        for seed_pos in positions:
            for seed in seeds[seed_pos].get(qs[seed_pos], ()):
                # (chosen (position, transition id) pairs, assigned positions,
                # positions still needed, own services provided, foreign
                # services expected)
                stack = [
                    (
                        ((seed_pos, seed),),
                        frozenset((seed_pos,)),
                        partners[seed_pos][seed],
                        gives[seed_pos][seed],
                        wants[seed_pos][seed],
                    )
                ]
                while stack:
                    chosen, assigned, need, sigma, wanted = stack.pop()
                    if need:
                        r = min(need)
                        grown = assigned | {r}
                        index = partner_index(r, qs[r], assigned)
                        for tid in index.get((wanted & own[r], sigma & fsyn[r]), ()):
                            stack.append(
                                (
                                    chosen + ((r, tid),),
                                    grown,
                                    (need | partners[r][tid]) - grown,
                                    sigma | gives[r][tid],
                                    wanted | wants[r][tid],
                                )
                            )
                        continue
                    moved = [(p, tid, autos[p].transitions[tid]) for p, tid in chosen]
                    if not all(t.label == sigma & visible[p] for p, _tid, t in moved):
                        continue
                    coalition = frozenset(agent_ids[p] for p, _tid in chosen)
                    changes = tuple(sorted((p, t.dst) for p, _tid, t in moved))
                    if (coalition, sigma, changes) in seen:
                        continue
                    seen.add((coalition, sigma, changes))
                    back = ("joint", coalition, MappingProxyType(dict(chosen)))
                    step = counter_step(
                        frozenset(p for p, _tid, t in moved if t.dst in autos[p].accepting)
                    )
                    key = (tuple(sorted(sigma)), tuple(sorted(coalition)))
                    results.append((key, sigma, coalition, back, changes, step))
        return results

    # joint moves involve only the agents of one dependency class; each
    # reduced transition keeps its origin's dependency set, so the origins'
    # classes hold every coalition
    classes = [
        tuple(sorted(id2pos[aid] for aid in cls))
        for cls in compute_dependency_classes([p.origin for p in products])
    ]
    class_moves = {}  # (class, its states) -> joint_moves, for classes short of the team

    # component tuple -> [the tuple, its state id at counter 1, ..., at n + 1]
    state_ids = {}

    def ids_of(qs):
        ids = state_ids.get(qs)
        if ids is None:
            ids = state_ids[qs] = [qs] + [None] * (n + 1)
        return ids

    def moves_from(qs):
        """All moves out of a component tuple as (label, dep, back, target
        ids, counter step); every counter value shares them."""
        out = []
        for pos in range(n):
            for dst, back, step in silent_out[pos].get(qs[pos], ()):
                targets = qs[:pos] + (dst,) + qs[pos + 1:]
                out.append((silent[pos], solo[pos], back, ids_of(targets), step))
        joint = []
        for positions in classes:
            if len(positions) == n:
                found = joint_moves(qs, positions)
            else:
                sub = (positions, tuple(qs[p] for p in positions))
                found = class_moves.get(sub)
                if found is None:
                    found = class_moves[sub] = joint_moves(qs, positions)
            for key, sigma, coalition, back, changes, step in found:
                targets = list(qs)
                for p, dst in changes:
                    targets[p] = dst
                targets = tuple(targets)
                joint.append((key + (targets,), sigma, coalition, back, targets, step))
        joint.sort(key=itemgetter(0))
        for _key, sigma, coalition, back, targets, step in joint:
            out.append((sigma, coalition, back, ids_of(targets), step))
        return out

    product = BuchiAutomaton(EXPLICIT_MODE)
    last_accepting = autos[n - 1].accepting

    def add_state(ids, j):
        qs = ids[0]
        sid = ids[j] = product.add_state((qs, j))
        if j == n and qs[n - 1] in last_accepting:
            product.accepting.add(sid)
        return sid

    product.initial = add_state(ids_of(tuple(a.initial for a in autos)), 1)
    moves = {}  # component tuple -> moves_from(tuple)
    tags = product.state_tags
    transitions = product.transitions
    tr_dep = product.tr_dep
    tr_back = product.tr_back
    # breadth first: states are numbered in discovery order, so the queue is
    # the run of ids not yet expanded; transitions are appended directly,
    # as nothing reads the automaton's index while it is built
    src = 0
    while src < len(tags):
        qs, j = tags[src]
        out = moves.get(qs)
        if out is None:
            out = moves[qs] = moves_from(qs)
        for label, dep, back, ids, step in out:
            j2 = step[j]
            dst = ids[j2]
            if dst is None:
                dst = add_state(ids, j2)
            tid = len(transitions)  # one int object for both keys
            tr_dep[tid] = dep
            tr_back[tid] = back
            transitions.append(Transition(src, label, dst))
        src += 1

    return GlobalProduct(product, products, agent_ids)


def _cycle_states(a, lasso):
    states = []
    cur = a.initial
    for tid in lasso.prefix:
        cur = a.transitions[tid].dst
    states.append(cur)
    for tid in lasso.cycle:
        cur = a.transitions[tid].dst
        states.append(cur)
    return states


def _counter_winds(gp: GlobalProduct, lasso: Lasso) -> bool:
    """The cycle must pass the top counter value, which forces every agent to
    enter its accepting set within the cycle."""
    a = gp.automaton
    top = len(gp.products) + 1
    return any(a.state_tags[s][1] == top for s in _cycle_states(a, lasso))


def _agent_alive_edges(gp, members):
    """Per agent, in-component transitions whose replay provides services."""
    a = gp.automaton
    alive = {aid: [] for aid in gp.agent_ids}
    for tid, t in enumerate(a.transitions):
        if t.src not in members or t.dst not in members:
            continue
        back = a.tr_back[tid]
        if back[0] == "joint":
            for aid in a.tr_dep[tid]:
                alive[aid].append(tid)
        elif _witness_emits(gp.products[back[1]], back[2]):
            alive[gp.agent_ids[back[1]]].append(tid)
    return alive


def _witness_emits(product, low_tid) -> bool:
    """Would replaying this transition make the agent provide services?"""
    bar = product.origin.automaton
    for w in product.automaton.tr_witness.get(low_tid, ()):
        for step in list(w.steps) + list(w.loop):
            if not isinstance(bar.transitions[step].label, Silent):
                return True
    return False


def _component_capabilities(gp, comp, comps, good_comps):
    """Which agents each component can serve, and which it can host at all.

    An agent is *served* when the component holds a transition whose replay
    makes it provide services; it is *hostable* when it is served or can park
    forever at a silent spot its task automaton tolerates.  Components that
    cannot host every agent admit no valid lasso and are skipped outright;
    among the rest, better-served components are searched first.
    """
    a = gp.automaton
    emit_cache = [dict() for _ in gp.products]

    def emits(pos, low_tid):
        cache = emit_cache[pos]
        if low_tid not in cache:
            cache[low_tid] = _witness_emits(gp.products[pos], low_tid)
        return cache[low_tid]

    served = {c: set() for c in good_comps}
    for tid, t in enumerate(a.transitions):
        c = comp[t.src]
        if c not in served or comp[t.dst] != c:
            continue
        back = a.tr_back[tid]
        if back[0] == "joint":
            served[c] |= a.tr_dep[tid]
        elif emits(back[1], back[2]):
            served[c].add(gp.agent_ids[back[1]])

    def parkable(pos, hat_states):
        product = gp.products[pos]
        bar_tags = product.origin.automaton.state_tags
        tolerant = product.origin.silence_tolerant()
        return any(
            bar_tags[bar_state][1] in tolerant
            for hat_state in hat_states
            for bar_state in product.automaton.state_tags[hat_state]
        )

    hostable = {}
    for c in good_comps:
        members = comps[c]
        agents = set(served[c])
        for pos, aid in enumerate(gp.agent_ids):
            if aid in agents:
                continue
            hat_states = {a.state_tags[s][0][pos] for s in members}
            if parkable(pos, hat_states):
                agents.add(aid)
        hostable[c] = agents
    return served, hostable


def _candidate_lassos(gp: GlobalProduct):
    """Deterministic stream of accepting lassos, most promising first."""
    a = gp.automaton
    comp, comps, good_comps = _good_components(a)
    dist, parent = _bfs(a, a.initial)
    base = _minimal_lasso(a, comp, comps, good_comps, dist, parent)
    if base is None:
        raise EmptyLanguageError("global")
    yield base

    n = len(gp.products)
    served, hostable = _component_capabilities(gp, comp, comps, good_comps)
    everyone = set(gp.agent_ids)
    anchors = sorted(
        (-len(served[comp[s]]), dist[s], s)
        for s in range(a.n_states)
        if s in a.accepting
        and dist[s] is not None
        and comp[s] in good_comps
        and hostable[comp[s]] == everyone
    )
    for _score, _d, v in anchors:
        members = set(comps[comp[v]])
        fwd, fpar = _bfs(a, v, allowed=members)
        bwd, bpar = _bfs(a, v, allowed=members, reverse=True)
        prefix = tuple(_walk_forward(a, parent, a.initial, v))

        tops = sorted(
            h
            for h in members
            if a.state_tags[h][1] == n + 1
            and h != v
            and fwd[h] is not None
            and bwd[h] is not None
        )
        # the routed cycle deliberately serves every agent, so it is by far
        # the most likely candidate to survive the validity checks; plain
        # counter-winding cycles follow as shorter-but-riskier alternatives
        alive = _agent_alive_edges(gp, members)
        route = _routed_cycle(gp, v, members, tops, alive)
        if route:
            yield Lasso(prefix, tuple(route))
        for h in sorted(tops, key=lambda h: (fwd[h] + bwd[h], h))[:8]:
            cyc = _walk_forward(a, fpar, v, h) + _walk_backward(a, bpar, v, h)
            yield Lasso(prefix, tuple(cyc))


def _routed_cycle(gp, v, members, top_states, alive_edges):
    """Greedy cycle: wind the counter, then visit a word-keeping edge per agent."""
    a = gp.automaton
    route = []
    cur = v
    if not top_states:
        return None

    dist, par = _bfs(a, cur, allowed=members)
    best = None
    for s in top_states:
        if dist[s] is not None and (best is None or dist[s] < dist[best]):
            best = s
    if best is None:
        return None
    route.extend(_walk_forward(a, par, cur, best))
    cur = best

    alive_sets = {aid: set(edges) for aid, edges in alive_edges.items()}
    for aid in sorted(gp.agent_ids):
        if any(tid in alive_sets[aid] for tid in route):
            continue
        dist, par = _bfs(a, cur, allowed=members)
        best = None
        for tid in alive_edges.get(aid, []):
            src = a.transitions[tid].src
            if dist[src] is None:
                continue
            key = (dist[src], tid)
            if best is None or key < best[0]:
                best = (key, tid, src)
        if best is None:
            continue
        _key, tid, src = best
        route.extend(_walk_forward(a, par, cur, src))
        route.append(tid)
        cur = a.transitions[tid].dst

    dist, par = _bfs(a, cur, allowed=members)
    if dist[v] is None:
        return None
    route.extend(_walk_forward(a, par, cur, v))
    return route


def _variant_for(witnesses, origin):
    for w in witnesses:
        if w.src == origin:
            return w
    raise SynthesisError(f"no witness variant starts at state {origin}")


@dataclass
class _Expansion:
    prefix_emit: list
    passes: list  # [(emitted steps, state after the pass)]
    split: int
    absorbed: tuple  # (approach steps, loop steps, anchor) or None


class _AgentExpander:
    """Replays one agent's projected run down to transition-system steps."""

    MAX_PASSES = 64

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
            if w.absorbing:
                raise SynthesisError("task-level witnesses are plain paths")
            bar_steps.append((w.steps[0], sync))
            bar_steps.extend((s, None) for s in w.steps[1:])
            bar_orig = w.dst
        absorbed = None
        for bar_tid, sync in bar_steps:
            rm_tid, _task_tid = self.bar.tr_back[bar_tid]
            w = _variant_for(self.ddot.tr_witness[rm_tid], p_orig)
            if w.absorbing:
                if absorbed is None:
                    absorbed = w
                continue
            emit.append((w.steps[0], sync))
            emit.extend((s, None) for s in w.steps[1:])
            p_orig = w.dst
        return (bar_orig, p_orig), absorbed

    def expand(self, hat_prefix, hat_cycle) -> _Expansion:
        state = (self.bar.initial, self.mp.automaton.initial)
        prefix_emit = []
        state, _ = self._pass(hat_prefix, state, prefix_emit)
        passes = []
        seen = {state: 0}
        while True:
            emit = []
            nxt, absorbed = self._pass(hat_cycle, state, emit)
            if not emit:
                if absorbed is None:
                    raise SynthesisError("a cycle pass must emit or absorb")
                approach = [(tid, None) for tid in absorbed.steps]
                loop = [(tid, None) for tid in absorbed.loop]
                return _Expansion(
                    prefix_emit, passes, len(passes), (approach, loop, absorbed.dst)
                )
            passes.append((emit, nxt))
            if len(passes) > self.MAX_PASSES:
                raise SynthesisError(
                    f"agent {self.agent_id}: cycle expansion did not close "
                    f"within {self.MAX_PASSES} passes"
                )
            if nxt in seen:
                return _Expansion(prefix_emit, passes, seen[nxt], None)
            seen[nxt] = len(passes)
            state = nxt

    def materialize(self, expansion: _Expansion, shift: int, period: int):
        """Returns (strategy, trailing task-product state of the cycle)."""
        if expansion.absorbed is not None:
            approach, loop, anchor = expansion.absorbed
            emitted_prefix = list(expansion.prefix_emit)
            for emit, _state in expansion.passes:
                emitted_prefix.extend(emit)
            emitted_prefix.extend(approach)
            return self._to_strategy(emitted_prefix, list(loop)), anchor
        j = expansion.split
        k = len(expansion.passes) - j
        if not (k >= 1 and shift >= j and period % k == 0):
            raise SynthesisError("cycle passes do not align with the team period")

        def emit_at(idx):
            return expansion.passes[idx if idx < j else j + (idx - j) % k][0]

        def state_at(idx):
            return expansion.passes[idx if idx < j else j + (idx - j) % k][1]

        prefix = list(expansion.prefix_emit)
        for idx in range(shift):
            prefix.extend(emit_at(idx))
        cycle = []
        for idx in range(shift, shift + period):
            cycle.extend(emit_at(idx))
        trailing_bar = state_at(shift + period - 1)[0]
        return self._to_strategy(prefix, cycle), trailing_bar

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
    eternal silence.
    """
    expansions = {}
    expanders = {}
    for pos, product in enumerate(gp.products):
        aid = gp.agent_ids[pos]
        hat_prefix, hat_cycle = _project_agent(gp, lasso, pos)
        if not hat_cycle:
            return None, aid
        expander = _AgentExpander(product, aid)
        expanders[aid] = expander
        expansions[aid] = expander.expand(hat_prefix, hat_cycle)

    live = [e for e in expansions.values() if e.absorbed is None]
    shift = max((e.split for e in live), default=0)
    period = 1
    for e in live:
        period = lcm(period, len(e.passes) - e.split)

    strategies = {}
    for aid in sorted(expansions):
        expander = expanders[aid]
        strategy, trailing_bar = expander.materialize(expansions[aid], shift, period)
        agent = expander.agent
        alive = any(not agent.is_silent(step.action) for step in strategy.cycle)
        if not alive:
            psi_state = expander.bar.state_tags[trailing_bar][1]
            if psi_state not in expander.tm.silence_tolerant():
                return None, aid
        strategies[aid] = strategy
    return strategies, None


def _unhostable_agent(gp: GlobalProduct):
    """An agent no reachable accepting component can serve or park, if any."""
    a = gp.automaton
    comp, comps, good_comps = _good_components(a)
    if not good_comps:
        return None
    dist, _ = _bfs(a, a.initial)
    reachable = {
        comp[s]
        for s in range(a.n_states)
        if dist[s] is not None and comp[s] in good_comps and s in a.accepting
    }
    if not reachable:
        return None
    _served, hostable = _component_capabilities(gp, comp, comps, reachable)
    for aid in sorted(gp.agent_ids):
        if all(aid not in hostable[c] for c in reachable):
            return aid
    return None


def synthesize(gp: GlobalProduct) -> dict:
    """Per-agent strategies realizing one accepting run of the global product."""
    blocked = {}
    for lasso in _candidate_lassos(gp):
        if not _counter_winds(gp, lasso):
            continue
        strategies, failed = _expand_lasso(gp, lasso)
        if strategies is not None:
            return strategies
        blocked[failed] = blocked.get(failed, 0) + 1
    if blocked:
        worst = max(sorted(blocked), key=lambda aid: blocked[aid])
        raise EmptyLanguageError("task", worst)
    starved = _unhostable_agent(gp)
    if starved is not None:
        raise EmptyLanguageError("task", starved)
    raise SynthesisError(
        "the global product accepts runs, but none winds the acceptance counter"
    )


def minimize_synchronizations(strategies: dict, scenario) -> dict:
    """Drop pointless stay steps and pointless coalition requests.

    Stay steps with singleton requests vanish (keeping at least one cycle
    step); a coalition request downgrades to a singleton when every member's
    matching step executes a silent action.
    """
    slim = {}
    for aid, st in strategies.items():
        agent = scenario.agent(aid)
        stay = agent.stay_action
        prefix = tuple(s for s in st.prefix if not (s.action == stay and len(s.sync) == 1))
        cycle = tuple(s for s in st.cycle if not (s.action == stay and len(s.sync) == 1))
        if not cycle:
            cycle = (st.cycle[0],)
        slim[aid] = Strategy(aid, prefix, cycle)

    occurrences = {}
    for aid, st in slim.items():
        for part, steps in (("prefix", st.prefix), ("cycle", st.cycle)):
            for idx, step in enumerate(steps):
                if len(step.sync) > 1:
                    occurrences.setdefault((step.sync, part), {}).setdefault(aid, []).append(idx)

    downgrade = set()
    for (coalition, part), members in occurrences.items():
        if set(members) != set(coalition):
            continue
        counts = {len(v) for v in members.values()}
        if len(counts) != 1:
            continue
        for k in range(counts.pop()):
            steps_k = []
            for aid in sorted(coalition):
                steps_k.append((aid, members[aid][k]))
            if all(
                scenario.agent(aid).is_silent(
                    (slim[aid].prefix if part == "prefix" else slim[aid].cycle)[idx].action
                )
                for aid, idx in steps_k
            ):
                downgrade.update((aid, part, idx) for aid, idx in steps_k)

    if not downgrade:
        return slim
    out = {}
    for aid, st in slim.items():
        def rewrite(part, steps):
            return tuple(
                StrategyStep(s.state, s.action, frozenset((aid,)))
                if (aid, part, idx) in downgrade
                else s
                for idx, s in enumerate(steps)
            )

        out[aid] = Strategy(aid, rewrite("prefix", st.prefix), rewrite("cycle", st.cycle))
    return out


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
