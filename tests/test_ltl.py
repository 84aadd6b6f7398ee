"""Formula syntax, normal form, and the lasso-word evaluator."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncplan import ltl
from tests.conftest import ATOMS, random_formula, random_word


class TestParse:
    def test_conjunction_of_recurrence_goals(self):
        f = ltl.parse("G F R1 && G F R2", {"R1", "R2"})
        assert f == ltl.land(
            ltl.always(ltl.eventually(ltl.atom("R1"))),
            ltl.always(ltl.eventually(ltl.atom("R2"))),
        )

    def test_true_constant(self):
        assert ltl.parse("true") == ltl.TRUE_F

    def test_three_atom_conjunction(self):
        f = ltl.parse("load && help && assist", {"load", "help", "assist"})
        assert f == ltl.land(
            ltl.land(ltl.atom("load"), ltl.atom("help")), ltl.atom("assist")
        )

    def test_precedence_unary_until_and_or(self):
        f = ltl.parse("!a U b && c || X d", {"a", "b", "c", "d"})
        # ((!a U b) && c) || (X d)
        assert f.kind == ltl.OR
        assert f.children[0].kind == ltl.AND
        assert f.children[0].children[0].kind == ltl.UNTIL
        assert f.children[0].children[0].children[0] == ltl.lnot(ltl.atom("a"))
        assert f.children[1] == ltl.lnext(ltl.atom("d"))

    def test_until_right_associative(self):
        f = ltl.parse("a U b U c", {"a", "b", "c"})
        assert f == ltl.until(ltl.atom("a"), ltl.until(ltl.atom("b"), ltl.atom("c")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ltl.LtlSyntaxError) as err:
            ltl.parse("a && ", {"a"})
        assert "column" in str(err.value)

    def test_unknown_atom_named(self):
        with pytest.raises(ltl.UnknownAtomError) as err:
            ltl.parse("a && mystery", {"a"})
        assert err.value.atom == "mystery"

    def test_single_ampersand_rejected(self):
        with pytest.raises(ltl.LtlSyntaxError):
            ltl.parse("a & b", {"a", "b"})

    def test_operator_without_operand(self):
        with pytest.raises(ltl.LtlSyntaxError):
            ltl.parse("a U", {"a"})

    def test_deep_formula_nesting_bound(self):
        bound = ltl.MAX_NESTING
        at_bound = [
            "(" * bound + "a" + ")" * bound,
            "G " * bound + "a",
            " && ".join(["a"] * (bound + 1)),
        ]
        for text in at_bound:
            f = ltl.parse(text, {"a"})
            assert ltl.eval_ltl(ltl.to_nnf(f), ltl.word([], [{"a"}]))
        # one level more is refused; far more would overflow the parser's
        # own stack, which is refused the same way
        for text in [
            "(" * (bound + 1) + "a" + ")" * (bound + 1),
            "G " * (bound + 1) + "a",
            " && ".join(["a"] * (bound + 2)),
            "a U " * 5000 + "a",
            "!" * 5000 + "a",
        ]:
            with pytest.raises(ltl.LtlSyntaxError, match="nested"):
                ltl.parse(text, {"a"})


class TestNormalForm:
    def test_eventually_dualizes_to_always(self):
        f = ltl.to_nnf(ltl.parse("!F a", {"a"}))
        assert f == ltl.always(ltl.lnot(ltl.atom("a")))

    def test_double_negation(self):
        assert ltl.to_nnf(ltl.parse("!!a", {"a"})) == ltl.atom("a")

    def test_negated_until_becomes_release(self):
        f = ltl.to_nnf(ltl.lnot(ltl.parse("a U b", {"a", "b"})))
        assert f == ltl.release(ltl.lnot(ltl.atom("a")), ltl.lnot(ltl.atom("b")))
        rng = random.Random(11)
        g = ltl.lnot(ltl.parse("a U b", {"a", "b"}))
        for _ in range(100):
            w = random_word(rng, ["a", "b"])
            assert ltl.eval_ltl(f, w) == ltl.eval_ltl(g, w)

    def test_negations_sit_on_atoms_only(self):
        rng = random.Random(5)
        for _ in range(150):
            f = ltl.to_nnf(random_formula(rng, ATOMS, 4))
            stack = [f]
            while stack:
                g = stack.pop()
                if g.kind == ltl.NOT:
                    assert g.children[0].kind == ltl.ATOM
                stack.extend(g.children)


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        leaf = draw(st.sampled_from(ATOMS + ["true", "false"]))
        if leaf == "true":
            return ltl.TRUE_F
        if leaf == "false":
            return ltl.FALSE_F
        return ltl.atom(leaf)
    kind = draw(
        st.sampled_from(
            [ltl.NOT, ltl.AND, ltl.OR, ltl.NEXT, ltl.UNTIL, ltl.EVENTUALLY, ltl.ALWAYS, "leaf"]
        )
    )
    if kind == "leaf":
        return draw(formulas(depth=0))
    if kind in (ltl.NOT, ltl.NEXT, ltl.EVENTUALLY, ltl.ALWAYS):
        return ltl.Formula(kind, (draw(formulas(depth=depth - 1)),))
    return ltl.Formula(
        kind, (draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    )


@st.composite
def words(draw):
    symbol = st.frozensets(st.sampled_from(ATOMS), max_size=3)
    prefix = draw(st.lists(symbol, max_size=5))
    period = draw(st.lists(symbol, min_size=1, max_size=5))
    return ltl.UltimatelyPeriodicWord(tuple(prefix), tuple(period))


@settings(max_examples=120, deadline=None)
@given(formulas(), words())
def test_nnf_preserves_semantics(f, w):
    assert ltl.eval_ltl(ltl.to_nnf(f), w) == ltl.eval_ltl(f, w)


class TestEval:
    def test_always_on_constant_word(self):
        w = ltl.word([], [{"a"}])
        assert ltl.eval_ltl(ltl.parse("G a", {"a"}), w) is True

    def test_eventually_never_satisfied(self):
        w = ltl.word([{"a"}], [{"a"}])
        assert ltl.eval_ltl(ltl.parse("F b", {"a", "b"}), w) is False

    def test_until_discharged_in_prefix(self):
        w = ltl.word([{"a"}, {"a"}, {"b"}], [set()])
        assert ltl.eval_ltl(ltl.parse("a U b", {"a", "b"}), w) is True

    def test_agrees_with_truncated_unrolling(self):
        # bounded recursive expansion; sound for verdicts that stabilize early
        def truncated(f, w, pos, budget):
            k = f.kind
            if k == ltl.ATOM:
                return f.name in w.symbol(pos)
            if k == ltl.TRUE:
                return True
            if k == ltl.FALSE:
                return False
            if k == ltl.NOT:
                return not truncated(f.children[0], w, pos, budget)
            if k == ltl.AND:
                return truncated(f.children[0], w, pos, budget) and truncated(
                    f.children[1], w, pos, budget
                )
            if k == ltl.OR:
                return truncated(f.children[0], w, pos, budget) or truncated(
                    f.children[1], w, pos, budget
                )
            if budget == 0:
                return k in (ltl.ALWAYS, ltl.RELEASE)  # optimistic for safety shapes
            if k == ltl.NEXT:
                return truncated(f.children[0], w, pos + 1, budget - 1)
            if k == ltl.UNTIL:
                a, b = f.children
                return truncated(b, w, pos, budget) or (
                    truncated(a, w, pos, budget) and truncated(f, w, pos + 1, budget - 1)
                )
            if k == ltl.EVENTUALLY:
                return truncated(f.children[0], w, pos, budget) or truncated(
                    f, w, pos + 1, budget - 1
                )
            if k == ltl.ALWAYS:
                return truncated(f.children[0], w, pos, budget) and truncated(
                    f, w, pos + 1, budget - 1
                )
            raise AssertionError(k)

        w = ltl.word([{"a"}, {"a"}, {"b"}], [set()])
        f = ltl.parse("a U b", {"a", "b"})
        assert truncated(f, w, 0, 10) == ltl.eval_ltl(f, w) is True
        f2 = ltl.parse("F b", {"a", "b"})
        assert truncated(f2, w, 0, 10) == ltl.eval_ltl(f2, w) is True

    def test_period_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ltl.UltimatelyPeriodicWord((), ())

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            ltl.Formula(ltl.AND, (ltl.TRUE_F,))
        with pytest.raises(ValueError):
            ltl.Formula(ltl.ATOM, name="")
