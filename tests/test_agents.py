"""Agent models, grid construction, scenario validation."""
import pytest

from syncplan import ltl
from syncplan.agents import GridSpec, build_grid_agent, validate
from syncplan.buchi import Silent
from tests.conftest import explicit_agent, make_scenario


class TestGrid:
    def test_single_cell_only_stay(self):
        agent = build_grid_agent(GridSpec(1, 1, 1, (0, 0)))
        assert len(agent.ts.states) == 1
        assert agent.ts.successors(0) == [("stay", 0)]

    def test_hundred_cells(self):
        agent = build_grid_agent(GridSpec(1, 10, 10, (0, 0)))
        assert len(agent.ts.states) == 100

    def test_service_cell_gets_labeled_action(self):
        agent = build_grid_agent(
            GridSpec(1, 3, 3, (0, 0), service_cells=(((1, 1), frozenset(["load"])),))
        )
        assert agent.action_labels["load"] == frozenset(["load"])
        sid = agent.ts.state_index("1,1")
        assert ("load", sid) in agent.ts.successors(sid)
        assert agent.services == frozenset(["load"])

    def test_initial_inside_obstacle_rejected(self):
        with pytest.raises(ValueError):
            build_grid_agent(GridSpec(1, 3, 3, (1, 1), obstacles=frozenset({(1, 1)})))

    def test_moves_symmetric_unless_one_way(self):
        agent = build_grid_agent(
            GridSpec(
                1,
                3,
                3,
                (0, 0),
                walls=frozenset({frozenset({(0, 0), (1, 0)})}),
                one_way=frozenset({((2, 2), (2, 1))}),
            )
        )
        ts = agent.ts
        edges = set()
        for (s, action), dst in ts.trans.items():
            if action != "stay":
                edges.add((s, dst))
        for s, d in edges:
            if (s, d) == (ts.state_index("2,2"), ts.state_index("2,1")):
                continue
            one_way_pair = (ts.state_index("2,2"), ts.state_index("2,1"))
            if (d, s) == one_way_pair:
                continue  # the reverse of the blocked direction stays
            assert (d, s) in edges or (d, s) == one_way_pair
        assert (ts.state_index("2,2"), ts.state_index("2,1")) not in edges
        assert (ts.state_index("2,1"), ts.state_index("2,2")) in edges
        assert (ts.state_index("0,0"), ts.state_index("1,0")) not in edges

    def test_every_state_has_an_outgoing_action(self):
        agent = build_grid_agent(GridSpec(1, 4, 4, (0, 0), obstacles=frozenset({(2, 2)})))
        for s in range(len(agent.ts.states)):
            assert agent.ts.successors(s)

    def test_rooms_label_states(self):
        agent = build_grid_agent(GridSpec(1, 2, 1, (0, 0), rooms={(0, 0): "R1", (1, 0): "R2"}))
        assert agent.ts.labels[agent.ts.state_index("0,0")] == frozenset({"R1"})
        assert agent.ts.props == {"R1", "R2"}


class TestValidate:
    def test_bundled_scenario_clean(self, three_robots):
        assert validate(three_robots) == []

    def test_service_overlap_reported(self):
        a1 = explicit_agent(1, ["s"], {"go": ["help"]}, [(0, "go", 0)])
        a2 = explicit_agent(2, ["t"], {"do": ["help"]}, [(0, "do", 0)])
        sc = make_scenario([a1, a2], {1: "true", 2: "true"}, {1: "true", 2: "true"})
        problems = validate(sc)
        assert any("share services" in p and "help" in p for p in problems)

    def test_next_in_motion_formula_flagged(self):
        a1 = explicit_agent(1, ["s"], {}, [], labels={"s": ["R1"]})
        sc = make_scenario([a1], {1: "X R1"}, {1: "true"})
        problems = validate(sc)
        assert any("next operator" in p for p in problems)

    def test_missing_stay_loop_flagged(self):
        a1 = explicit_agent(1, ["s", "t"], {"go": None}, [(0, "go", 1), (1, "go", 0)])
        del a1.ts.trans[(1, "stay")]
        problems = validate(make_scenario([a1], {1: "true"}, {1: "true"}))
        assert any("stay self-loop" in p for p in problems)

    def test_nondeterminism_flagged(self):
        a1 = explicit_agent(1, ["s", "t"], {"go": None}, [(0, "go", 1), (0, "go", 0)])
        problems = validate(make_scenario([a1], {1: "true"}, {1: "true"}))
        assert any("nondeterministic" in p for p in problems)

    def test_undeclared_task_atom_flagged(self):
        a1 = explicit_agent(1, ["s"], {"go": ["a"]}, [(0, "go", 0)])
        sc = make_scenario([a1], {1: "true"}, {1: "true"})
        sc.task_formulas[1] = ltl.parse("F ghost", {"ghost"})
        problems = validate(sc)
        assert any("undeclared services" in p for p in problems)


def test_silent_label_distinct_from_empty_set():
    assert Silent(1) != frozenset()
    agent = build_grid_agent(
        GridSpec(1, 2, 1, (0, 0), service_cells=(((1, 0), frozenset()),))
    )
    assert agent.action_labels["noop"] == frozenset()
    assert isinstance(agent.action_labels["stay"], Silent)
