"""Formula-to-automaton translation against the semantic oracle."""
import random

from syncplan import ltl
from syncplan.buchi import check_lasso_membership, language_empty
from syncplan.translate import translate
from tests.conftest import ATOMS, random_formula, random_word
from tests.reference_buchi import accepting_lasso


def test_true_gives_single_state_universal_loop():
    # no liveness obligation: one set, which the one loop meets
    ba = translate(ltl.TRUE_F)
    assert ba.n_states == 1 and ba.sets == 1
    assert len(ba.transitions) == 1
    t = ba.transitions[0]
    assert t.src == t.dst == 0 and t.mask == 1
    assert t.label.accepts(frozenset()) and t.label.text() == "true"


def test_safety_avoidance_language():
    ba = translate(ltl.parse("G !R1", {"R1"}))
    assert check_lasso_membership(ba, ltl.word([], [set()]))
    assert not check_lasso_membership(ba, ltl.word([{"R1"}], [set()]))
    assert not check_lasso_membership(ba, ltl.word([set(), set()], [{"R1"}, set()]))


def test_tautology_accepts_everything():
    ba = translate(ltl.parse("assist || !assist", {"assist"}))
    rng = random.Random(3)
    for _ in range(50):
        w = random_word(rng, ["assist"])
        assert check_lasso_membership(ba, w)


def test_oracle_agreement_sample():
    rng = random.Random(41)
    for _ in range(120):
        f = random_formula(rng, ATOMS, 4)
        ba = translate(f)
        for _ in range(8):
            w = random_word(rng, ATOMS)
            assert check_lasso_membership(ba, w) == ltl.eval_ltl(f, w), str(f)


def test_empty_language_implies_every_word_rejected_by_oracle():
    rng = random.Random(17)
    seen_empty = 0
    for _ in range(250):
        f = random_formula(rng, ATOMS, 4)
        ba = translate(f)
        if language_empty(ba):
            seen_empty += 1
            for _ in range(20):
                assert not ltl.eval_ltl(f, random_word(rng, ATOMS))
    assert seen_empty >= 3  # unsatisfiable formulas do occur in the sample


def test_satisfiable_formula_has_accepting_lasso():
    # one state and one set, met by the edges that read `a`
    ba = translate(ltl.parse("G F a", {"a"}))
    assert ba.n_states == 1 and ba.sets == 1
    for t in ba.transitions:
        assert t.mask == int("a" in t.label.pos)
    lasso = accepting_lasso(ba)
    assert lasso is not None and lasso.cycle
    states = lasso.states(ba)
    for tid, src in zip(lasso.prefix + lasso.cycle, states):
        assert ba.transitions[tid].src == src
    assert states[-1] == states[len(lasso.prefix)]
    assert any(ba.transitions[tid].mask for tid in lasso.cycle)


def test_guards_stay_symbolic():
    ba = translate(ltl.parse("G (!load || X unload)", {"load", "unload", "x1", "x2"}))
    # guard alphabet does not explode with unrelated atoms
    for t in ba.transitions:
        assert t.label.pos | t.label.neg <= {"load", "unload"}
