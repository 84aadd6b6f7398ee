"""Motion products and the silent-state elimination with witnesses."""
import random

import pytest

from syncplan import ltl
from syncplan.agents import GridSpec, build_grid_agent
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, language_empty
from syncplan.motion import (
    MotionProduct,
    _survivors,
    build_motion_product,
    classify_significance,
    eliminate_insignificant_states,
    reduce,
)
from syncplan.translate import translate
from tests.conftest import explicit_agent, random_motion_product


def _variant_from(witnesses, origin):
    for w in witnesses:
        if w.src == origin:
            return w
    raise AssertionError(f"no witness from {origin}")


def replay_nonsilent_labels(original, reduced, lasso):
    """Expand a reduced lasso through its witnesses; returns the pair of
    non-silent label sequences (expanded, reduced) after validating chaining."""
    orig = original.initial
    expanded = []
    reduced_labels = []

    def walk(tids):
        nonlocal orig
        for tid in tids:
            t = reduced.transitions[tid]
            w = _variant_from(reduced.tr_witness[tid], orig)
            assert w.steps
            cur = orig
            for step in w.steps:
                ot = original.transitions[step]
                assert ot.src == cur
                cur = ot.dst
                expanded.append(ot.label)
            assert cur == w.dst
            orig = cur
            if not isinstance(t.label, Silent):
                reduced_labels.append(t.label)

    walk(lasso.prefix)
    emitted = len(expanded)
    walk(lasso.cycle)
    assert len(expanded) > emitted  # every cycle emits: witnesses are plain paths
    nonsilent = [l for l in expanded if not isinstance(l, Silent)]
    return nonsilent, reduced_labels


def kept_silent_loops(mp, reduced, significant) -> int:
    """Accepting insignificant states that stay only for their silent
    self-loop: every other predecessor is insignificant.  (A state entered by
    a significant one is entered by it for good, as only insignificant states
    are removed.)"""
    a = mp.automaton
    kept = 0
    for s in range(reduced.n_states):
        (old,) = reduced.state_tags[s]
        if significant[old] or old not in a.accepting:
            continue
        preds = {reduced.transitions[tid].src for tid in reduced.in_transitions(s)} - {s}
        looped = any(
            reduced.transitions[tid].dst == s and isinstance(reduced.transitions[tid].label, Silent)
            for tid in reduced.out_transitions(s)
        )
        if looped and not any(significant[reduced.state_tags[q][0]] for q in preds):
            kept += 1
    return kept


class TestProduct:
    def test_trivial_agent_times_true(self):
        agent = explicit_agent(1, ["s"], {}, [])
        mp = build_motion_product(agent, translate(ltl.TRUE_F))
        assert mp.automaton.n_states == 1
        assert len(mp.automaton.transitions) == 1
        assert isinstance(mp.automaton.transitions[0].label, Silent)
        assert 0 in mp.automaton.accepting

    def test_forbidden_room_empties_language(self):
        agent = explicit_agent(1, ["s"], {}, [], labels={"s": ["R1"]})
        mp = build_motion_product(agent, translate(ltl.parse("G !R1", {"R1"})))
        assert language_empty(mp.automaton)

    def test_size_bounded_by_state_product(self):
        rng = random.Random(1)
        agent = build_grid_agent(GridSpec(1, 4, 3, (0, 0), rooms={(3, 2): "R1"}))
        spec = translate(ltl.parse("G F R1", {"R1"}))
        mp = build_motion_product(agent, spec)
        assert mp.automaton.n_states <= len(agent.ts.states) * spec.n_states


class TestSignificance:
    def build(self):
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(3):
            a.add_state()
        a.add_transition(0, Silent(1), 1)
        a.add_transition(1, frozenset({"load"}), 2)
        a.add_transition(2, Silent(1), 0)
        return MotionProduct(a)

    def test_initial_always_significant(self):
        sig = classify_significance(self.build())
        assert sig[0] is True

    def test_nonsilent_outgoing_is_significant(self):
        sig = classify_significance(self.build())
        assert sig[1] is True

    def test_silent_only_noninitial_is_insignificant(self):
        sig = classify_significance(self.build())
        assert sig[2] is False


class TestReduce:
    def test_silent_chain_collapses_with_witness(self):
        # p0 -{load}-> p1 -eps-> p2 -eps-> p3, p1 and p2 insignificant
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(4):
            a.add_state()
        eps = Silent(1)
        a.add_transition(0, frozenset({"load"}), 1)
        a.add_transition(1, eps, 2)
        a.add_transition(2, eps, 3)
        a.accepting = {3}
        rm = reduce(MotionProduct(a))
        labels = [
            (t.label, rm.automaton.state_tags[t.src], rm.automaton.state_tags[t.dst])
            for t in rm.automaton.transitions
        ]
        assert (frozenset({"load"}), (0,), (3,)) in labels
        tid = labels.index((frozenset({"load"}), (0,), (3,)))
        (witness,) = rm.automaton.tr_witness[tid]
        assert len(witness.steps) == 3

    def test_fully_significant_automaton_unchanged(self):
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(2):
            a.add_state()
        a.add_transition(0, frozenset({"x"}), 1)
        a.add_transition(1, frozenset({"y"}), 0)
        a.accepting = {1}
        rm = reduce(MotionProduct(a))
        assert rm.automaton.n_states == 2
        assert sorted(
            (t.src, t.label, t.dst) for t in rm.automaton.transitions
        ) == [(0, frozenset({"x"}), 1), (1, frozenset({"y"}), 0)]

    @staticmethod
    def _looped_tail(pred_loop):
        # significant init 0 -eps-> 1 -eps-> 2 -eps-> 3 -{go}-> 0, where 1 and
        # 2 are accepting and insignificant and 2 has a silent self-loop; 1
        # has one too iff `pred_loop`.  Returns (silent step ids by endpoints,
        # reduced automaton).
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(4):
            a.add_state()
        eps = Silent(1)
        steps = {
            (0, 1): a.add_transition(0, eps, 1),
            (1, 2): a.add_transition(1, eps, 2),
            (2, 2): a.add_transition(2, eps, 2),
            (2, 3): a.add_transition(2, eps, 3),
        }
        a.add_transition(3, frozenset({"go"}), 0)
        if pred_loop:
            steps[(1, 1)] = a.add_transition(1, eps, 1)
        a.accepting = {1, 2}
        reduced = eliminate_insignificant_states(a, classify_significance(MotionProduct(a)))
        return steps, reduced

    @staticmethod
    def _edges(reduced):
        """(src tag, dst tag) -> witness steps, one witness per edge."""
        edges = {}
        for tid, t in enumerate(reduced.transitions):
            (w,) = reduced.tr_witness[tid]
            edges[(reduced.state_tags[t.src][0], reduced.state_tags[t.dst][0])] = w.steps
        return edges

    def test_looped_accepting_state_kept_when_a_predecessor_has_no_loop(self):
        steps, reduced = self._looped_tail(pred_loop=False)
        assert reduced.state_tags == [(0,), (1,), (2,), (3,)]
        edges = self._edges(reduced)
        assert edges[(1, 2)] == (steps[(1, 2)],)
        assert edges[(2, 2)] == (steps[(2, 2)],)
        assert edges[(2, 3)] == (steps[(2, 3)],)
        assert (1, 1) not in edges and (1, 3) not in edges

    def test_looped_accepting_state_eliminated_when_every_predecessor_loops(self):
        steps, reduced = self._looped_tail(pred_loop=True)
        assert reduced.state_tags == [(0,), (1,), (3,)]
        assert reduced.accepting == {1}
        edges = self._edges(reduced)
        assert edges[(1, 1)] == (steps[(1, 1)],)
        assert edges[(1, 3)] == (steps[(1, 2)], steps[(2, 3)])
        assert (0, 1) in edges and (3, 0) in edges and len(edges) == 4

    def test_keep_rule_sees_the_states_removed_before(self):
        # 0 -{b}-> 1 -eps-> 2 -eps-> 0, 2 -{a,b}-> 2 and an unreachable
        # accepting tail 3 -eps-> 4 -eps-> 2 (twice), 4 -eps-> 4.  State 3 has
        # no loop and goes first; with 3 gone, 4 has no predecessor left, so
        # it goes too.  Judged on the states 1 alone bypasses, 4 would stay
        # for its predecessor 3 without a loop.
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(5):
            a.add_state()
        eps = Silent(1)
        first = a.add_transition(0, frozenset({"b"}), 1)
        second = a.add_transition(1, eps, 2)
        back = a.add_transition(2, eps, 0)
        work = a.add_transition(2, frozenset({"a", "b"}), 2)
        a.add_transition(3, eps, 4)
        a.add_transition(4, eps, 2)
        a.add_transition(4, eps, 2)
        a.add_transition(4, eps, 4)
        a.accepting = {2, 3, 4}
        significant = classify_significance(MotionProduct(a))
        assert [s for s in range(5) if significant[s]] == [0, 2]
        assert _survivors(a, significant) == {0, 2}
        reduced = eliminate_insignificant_states(a, significant)
        assert reduced.state_tags == [(0,), (2,)]
        assert reduced.accepting == {1}
        assert self._edges(reduced) == {(0, 2): (first, second), (2, 0): (back,), (2, 2): (work,)}

    def test_mask_removing_a_non_silent_exit_rejected(self):
        # 0 -eps-> 1 -{go}-> 0 with 1 marked insignificant: removing 1 would
        # hide `go` inside a witness
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(2):
            a.add_state()
        a.add_transition(0, Silent(1), 1)
        a.add_transition(1, frozenset({"go"}), 0)
        a.accepting = {0}
        with pytest.raises(ValueError, match="state 1 has a non-silent exit"):
            eliminate_insignificant_states(a, [True, False])


class TestReductionSoundness:
    def test_emptiness_and_labels_preserved(self):
        rng = random.Random(23)
        checked_nonempty = 0
        kept_loops = 0
        for _ in range(120):
            mp = random_motion_product(rng)
            significant = classify_significance(mp)
            kept_loops += kept_silent_loops(
                mp, eliminate_insignificant_states(mp.automaton, significant), significant
            )
            rm = reduce(mp)
            assert rm.automaton.n_states <= mp.automaton.n_states
            empty_before = language_empty(mp.automaton)
            empty_after = language_empty(rm.automaton)
            assert empty_before == empty_after
            if empty_after:
                continue
            from syncplan.buchi import find_accepting_lasso

            lasso = find_accepting_lasso(rm.automaton)
            expanded, reduced_labels = replay_nonsilent_labels(
                mp.automaton, rm.automaton, lasso
            )
            assert expanded == reduced_labels
            checked_nonempty += 1
        assert checked_nonempty >= 30
        assert kept_loops >= 1
