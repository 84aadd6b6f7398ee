"""Automaton structures: the lasso oracle, membership, emptiness on marks,
pruning, folding, and the reference translator's class quotient."""
import random

import pytest

from syncplan import ltl
from syncplan.buchi import (
    EXPLICIT_MODE,
    AlphabetMismatchError,
    BuchiAutomaton,
    Lasso,
    Silent,
    check_lasso_membership,
    fold,
    significance,
    language_empty,
    prune_non_coaccessible,
    to_dot,
)
from syncplan.translate import translate
from tests.conftest import mark_entering, random_word
from tests.reference_buchi import accepting_lasso
from tests.reference_buchi import validate_lasso
from tests.reference_tableau import quotient


def chain_automaton():
    """0 -> 1 -> 2 with a self-loop at 2; the edges entering 2 meet the
    one set."""
    a = BuchiAutomaton(EXPLICIT_MODE)
    for _ in range(3):
        a.add_state()
    a.add_transition(0, frozenset("x"), 1)
    a.add_transition(1, frozenset("y"), 2)
    a.add_transition(2, frozenset("z"), 2)
    return mark_entering(a, {2})


class TestLasso:
    """The least-lasso oracle that replays reduced automata in the tests."""

    def test_single_accepting_self_loop(self):
        a = BuchiAutomaton(EXPLICIT_MODE)
        a.add_state()
        a.add_transition(0, Silent(1), 0)
        mark_entering(a, {0})
        lasso = accepting_lasso(a)
        assert lasso.prefix == ()
        assert lasso.cycle == (0,)

    def test_unreachable_accepting_state(self):
        a = BuchiAutomaton(EXPLICIT_MODE)
        a.add_state()
        a.add_state()
        a.add_transition(1, Silent(1), 1)
        mark_entering(a, {1})
        assert accepting_lasso(a) is None
        assert language_empty(a)

    def test_three_state_chain(self):
        a = chain_automaton()
        lasso = accepting_lasso(a)
        assert lasso.prefix == (0, 1)
        assert lasso.cycle == (2,)
        validate_lasso(a, lasso)

    def test_minimizes_prefix_then_cycle(self):
        # two accepting loops: nearer one has a longer cycle, still preferred
        a = BuchiAutomaton(EXPLICIT_MODE)
        for _ in range(4):
            a.add_state()
        a.add_transition(0, Silent(1), 1)  # near component entry
        a.add_transition(1, Silent(1), 2)
        a.add_transition(2, Silent(1), 1)
        a.add_transition(0, Silent(1), 3)  # far singleton loop, also dist 1
        a.add_transition(3, Silent(1), 3)
        mark_entering(a, {1, 3})
        lasso = accepting_lasso(a)
        # both entries have prefix length 1; state 1 wins the id tie only if
        # its cycle is not longer: cycle through 1 has length 2, through 3
        # length 1, so the shorter cycle wins
        assert lasso.prefix == (3,)
        assert lasso.cycle == (4,)

    def test_deterministic_across_runs(self):
        a = chain_automaton()
        assert accepting_lasso(a) == accepting_lasso(a)

    @pytest.mark.parametrize("prefix, cycle, message", [
        ((1,), (2,), "prefix not contiguous"),
        ((0, 1), (), "cycle must be nonempty"),
        ((0,), (2,), "cycle not contiguous"),
        ((0,), (1,), "cycle not closed"),
    ])
    def test_broken_lasso_rejected(self, prefix, cycle, message):
        with pytest.raises(ValueError, match=message):
            validate_lasso(chain_automaton(), Lasso(prefix, cycle))

    def test_lasso_missing_acceptance_rejected(self):
        a = mark_entering(chain_automaton(), {0})
        with pytest.raises(ValueError, match="cycle misses accepting states"):
            validate_lasso(a, Lasso((0, 1), (2,)))

    def test_cycle_meets_every_set_of_transition_marks(self):
        # a two-set loop at 1: the self-loop meets set 0 only, the detour
        # through 2 meets set 1, so the least cycle takes both
        a = BuchiAutomaton(EXPLICIT_MODE, sets=2)
        for _ in range(3):
            a.add_state()
        a.add_transition(0, Silent(1), 1)
        a.add_transition(1, Silent(1), 1, 1)
        a.add_transition(1, Silent(1), 2)
        a.add_transition(2, Silent(1), 1, 2)
        lasso = accepting_lasso(a)
        assert lasso.prefix == (0,)
        assert lasso.cycle == (1, 2, 3)


class TestMembership:
    def test_first_symbol_infeasible(self):
        a = chain_automaton()
        w = ltl.UltimatelyPeriodicWord((frozenset("q"),), (frozenset("z"),))
        assert not check_lasso_membership(a, w)

    def test_matches_oracle_on_safety(self):
        ba = translate(ltl.parse("G a", {"a"}))
        assert check_lasso_membership(ba, ltl.word([], [{"a"}]))

    def test_matches_oracle_on_reachability(self):
        ba = translate(ltl.parse("F b", {"b"}))
        assert check_lasso_membership(ba, ltl.word([{"b"}], [set()]))

    def test_alphabet_mismatch(self):
        ba = translate(ltl.parse("F b", {"b"}))
        w = ltl.UltimatelyPeriodicWord((), (Silent(1),))
        with pytest.raises(AlphabetMismatchError):
            check_lasso_membership(ba, w)


class TestPrune:
    def test_coaccessible_automaton_unchanged(self):
        a = chain_automaton()
        assert prune_non_coaccessible(a) is a

    def test_dead_branch_removed(self):
        a = chain_automaton()
        a.add_state()  # 3: dead end off the chain
        a.add_transition(1, frozenset("w"), 3)
        rng = random.Random(9)
        words = [random_word(rng, ["x", "y", "z", "w"]) for _ in range(100)]
        before = [check_lasso_membership(a, w) for w in words]
        pruned = prune_non_coaccessible(a)
        assert pruned.n_states == 3
        assert language_empty(a) == language_empty(pruned)
        assert before == [check_lasso_membership(pruned, w) for w in words]

    def test_fully_dead_automaton_keeps_initial(self):
        a = BuchiAutomaton(EXPLICIT_MODE)
        a.add_state()
        a.add_state()
        a.add_transition(0, Silent(1), 1)
        pruned = prune_non_coaccessible(a)
        assert pruned.n_states == 1
        assert language_empty(pruned)


class TestFold:
    """`fold` keeps one state per significant state: states with equal
    edges stay apart, so each witness starts at its source's own state."""

    def diamond(self):
        """0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 3, the two middle states
        alike; entering 3 meets the one set."""
        a = BuchiAutomaton(EXPLICIT_MODE, sets=1)
        for s in range(4):
            a.add_state((s,))
        lab = frozenset("x")
        for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 3)):
            a.add_transition(src, lab, dst, int(dst == 3))
        return a

    def test_states_with_equal_edges_stay_apart(self):
        a = self.diamond()
        folded = fold(a, Silent(1))
        assert folded.state_tags == [(0,), (1,), (2,), (3,)]
        assert len(folded.transitions) == 5
        for tid, t in enumerate(folded.transitions):
            (w,) = folded.tr_witness[tid]
            assert (w.src, w.dst) == (folded.state_tags[t.src][0], folded.state_tags[t.dst][0])
        rng = random.Random(2)
        for _ in range(100):
            w = random_word(rng, ["x"])
            assert check_lasso_membership(a, w) == check_lasso_membership(folded, w)

    def test_absorbing_loop_keeps_one_variant_per_anchor(self):
        # the middle states become two silent loops meeting the set, each an
        # anchor; 0 runs into either, so the absorbing loop has two
        # variants, each from its anchor back to it
        a = BuchiAutomaton(EXPLICIT_MODE, sets=1)
        for s in range(3):
            a.add_state((s,))
        eps = Silent(1)
        a.add_transition(0, eps, 1)
        a.add_transition(0, frozenset("x"), 2)
        a.add_transition(1, eps, 1, 1)
        a.add_transition(2, eps, 2, 1)
        folded = fold(a, eps)
        assert folded.state_tags == [(0,), (1, 2)]
        loop = next(tid for tid, t in enumerate(folded.transitions) if t.src == t.dst == 1)
        assert [(w.src, w.dst, w.steps) for w in folded.tr_witness[loop]] == [
            (1, 1, (2,)), (2, 2, (3,))
        ]
        others = [tid for tid in range(len(folded.transitions)) if tid != loop]
        assert len(others) == 2 and all(len(folded.tr_witness[tid]) == 1 for tid in others)

    def test_significance_follows_the_labels_kept(self):
        # 0 -eps-> 1 -x-> 2 -y-> 0: kept labelled, the x step keeps its
        # source 1; made silent through `labels`, 1 folds away into one
        # silent edge from 0 to 2 whose witness replays both steps
        a = BuchiAutomaton(EXPLICIT_MODE, sets=1)
        for s in range(3):
            a.add_state((s,))
        eps, x, y = Silent(1), frozenset("x"), frozenset("y")
        a.add_transition(0, eps, 1)
        a.add_transition(1, x, 2)
        a.add_transition(2, y, 0, 1)
        kept = fold(a, eps)
        assert kept.state_tags == [(0,), (1,), (2,)]
        assert [(t.src, t.label, t.dst) for t in kept.transitions] == [
            (0, eps, 1), (1, x, 2), (2, y, 0)
        ]
        labels = [eps, eps, y]
        assert significance(a, labels) == [True, False, True]
        folded = fold(a, eps, labels)
        assert folded.state_tags == [(0,), (2,)]
        assert [(t.src, t.label, t.dst) for t in folded.transitions] == [(0, eps, 1), (1, y, 0)]
        assert [w.steps for (w,) in folded.tr_witness.values()] == [(0, 1), (2,)]


class TestMarks:
    """Transition-based generalized acceptance: a run must meet every set."""

    def loop(self, masks, sets=2):
        a = BuchiAutomaton(EXPLICIT_MODE, sets=sets)
        a.add_state()
        a.add_state()
        a.add_transition(0, Silent(1), 1)
        for mask in masks:
            a.add_transition(1, Silent(1), 1, mask)
        return a

    def test_emptiness_needs_every_set_in_one_component(self):
        assert language_empty(self.loop([1]))
        assert language_empty(self.loop([2]))
        assert not language_empty(self.loop([1, 2]))
        assert not language_empty(self.loop([3]))
        # with no sets, every cycle accepts
        assert not language_empty(self.loop([0], sets=0))

    def test_prune_keeps_states_reaching_a_covering_component(self):
        a = self.loop([3])
        a.add_state()  # 2: a loop meeting one set only, off the lasso
        a.add_transition(0, Silent(1), 2)
        a.add_transition(2, Silent(1), 2, 1)
        pruned = prune_non_coaccessible(a)
        assert pruned.n_states == 2 and pruned.sets == 2
        assert sorted(t.mask for t in pruned.transitions) == [0, 3]

    def test_masks_block_parallel_collapse(self):
        # the reference translator's class quotient collapses parallel
        # transitions only where their masks agree too
        a = BuchiAutomaton(EXPLICIT_MODE, sets=1)
        for _ in range(3):
            a.add_state()
        eps = Silent(1)
        a.add_transition(0, eps, 1)
        a.add_transition(0, eps, 2)
        a.add_transition(1, eps, 1, 1)
        a.add_transition(2, eps, 2, 0)
        classes = {0: 0, 1: 1, 2: 1}
        merged = quotient(a, classes)
        assert sorted((t.src, t.dst, t.mask) for t in merged.transitions) == [
            (0, 1, 0), (1, 1, 0), (1, 1, 1)
        ]
        a.add_transition(2, eps, 2, 1)
        a.add_transition(1, eps, 1, 0)
        merged = quotient(a, classes)
        assert merged.n_states == 2 and merged.sets == 1
        assert sorted((t.src, t.dst, t.mask) for t in merged.transitions) == [
            (0, 1, 0), (1, 1, 0), (1, 1, 1)
        ]

    def test_dot_export_names_the_sets(self):
        assert "acc{0,1}" in to_dot(self.loop([3]))
        assert "acc{1}" in to_dot(self.loop([2]))


def test_dot_export_shape():
    a = chain_automaton()
    dot = to_dot(a, "demo")
    assert dot.startswith('digraph "demo"')
    assert dot.count("circle") == 3 and "doublecircle" not in dot
    assert dot.count("acc{0}") == 2  # the two edges entering state 2
    assert "eps_" not in dot
    a2 = BuchiAutomaton(EXPLICIT_MODE)
    a2.add_state()
    a2.add_transition(0, Silent(7), 0)
    assert "eps_7" in to_dot(a2)


def test_transitions_are_read_only():
    a = chain_automaton()
    t = a.transitions[0]
    for field in ("src", "label", "dst"):
        with pytest.raises(AttributeError):
            setattr(t, field, 2)
    assert (t.src, t.label, t.dst) == (0, frozenset("x"), 1)
