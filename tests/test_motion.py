"""Motion products and the silent-state elimination with witnesses."""
import random

from syncplan import ltl
from syncplan.agents import GridSpec, build_grid_agent
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, language_empty
from syncplan.motion import MotionProduct, build_motion_product, reduce
from syncplan.translate import translate
from tests.conftest import (
    explicit_agent,
    mark_entering,
    random_motion_product,
    significant_states,
)
from tests.reference_buchi import accepting_lasso


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


class TestProduct:
    def test_trivial_agent_times_true(self):
        agent = explicit_agent(1, ["s"], {}, [])
        mp = build_motion_product(agent, translate(ltl.TRUE_F))
        assert mp.automaton.n_states == 1
        assert len(mp.automaton.transitions) == 1
        assert isinstance(mp.automaton.transitions[0].label, Silent)
        # the stay loop takes the specification's loop, which meets its one
        # set, so it meets the motion set
        assert (mp.automaton.sets, mp.automaton.transitions[0].mask) == (1, 1)

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
        sig = significant_states(self.build())
        assert sig[0] is True

    def test_nonsilent_outgoing_is_significant(self):
        sig = significant_states(self.build())
        assert sig[1] is True

    def test_silent_only_noninitial_is_insignificant(self):
        sig = significant_states(self.build())
        assert sig[2] is False


class TestReduce:
    def test_silent_chain_collapses_with_witness(self):
        # p0 -{load}-> p1 -eps-> p2 -eps-> p3 -eps-> p3, p1 to p3
        # insignificant: the accepting loop at p3 is the absorbing state's,
        # tagged with its anchor p3
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(4):
            a.add_state()
        eps = Silent(1)
        a.add_transition(0, frozenset({"load"}), 1)
        a.add_transition(1, eps, 2)
        a.add_transition(2, eps, 3)
        a.add_transition(3, eps, 3)
        rm = reduce(MotionProduct(mark_entering(a, {3})))
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
        rm = reduce(MotionProduct(mark_entering(a, {1})))
        assert rm.automaton.n_states == 2
        assert sorted(
            (t.src, t.label, t.dst) for t in rm.automaton.transitions
        ) == [(0, frozenset({"x"}), 1), (1, frozenset({"y"}), 0)]


class TestReductionSoundness:
    def test_emptiness_and_labels_preserved(self):
        rng = random.Random(23)
        checked_nonempty = 0
        for _ in range(120):
            mp = random_motion_product(rng)
            rm = reduce(mp)
            assert rm.automaton.n_states <= sum(significant_states(mp)) + 1
            empty_before = language_empty(mp.automaton)
            empty_after = language_empty(rm.automaton)
            assert empty_before == empty_after
            if empty_after:
                continue
            lasso = accepting_lasso(rm.automaton)
            expanded, reduced_labels = replay_nonsilent_labels(
                mp.automaton, rm.automaton, lasso
            )
            assert expanded == reduced_labels
            checked_nonempty += 1
        assert checked_nonempty >= 30
