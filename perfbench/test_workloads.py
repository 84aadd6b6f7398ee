"""Checks on the benchmark's scenario generators and span tracer.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""
from __future__ import annotations

import pytest

import spantrace
import workloads
from syncplan import agents, ltl
from syncplan.scenario_io import scenario_from_dict


def _agent_models(data):
    return {a.agent_id: a for a in scenario_from_dict(data).agents}


def test_block_mapping_reproduces_bundled_team_at_base_size():
    bundled = workloads.bundled_dict("three_robots")
    generated = workloads.three_robots(workloads.BASE_GRID)
    assert generated["agents"] == bundled["agents"]
    old, new = _agent_models(bundled), _agent_models(generated)
    for aid, agent in old.items():
        assert new[aid].ts.states == agent.ts.states
        assert new[aid].ts.labels == agent.ts.labels
        assert new[aid].ts.trans == agent.ts.trans
        assert new[aid].ts.initial == agent.ts.initial
        assert new[aid].services == agent.services
        assert new[aid].action_labels == agent.action_labels


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_scenarios_validate(name):
    assert agents.validate(scenario_from_dict(workloads.generate(name))) == []


def test_scaled_rooms_tile_quadrants_and_walls_separate_rows():
    n = 13
    data = workloads.three_robots(n)
    for entry in data["agents"]:
        rooms = entry["grid"]["rooms"]
        covered = [
            (x, y)
            for x0, y0, x1, y1 in rooms.values()
            for x in range(x0, x1 + 1)
            for y in range(y0, y1 + 1)
        ]
        assert sorted(covered) == [(x, y) for x in range(n) for y in range(n)]
    r1 = data["agents"][0]["grid"]["rooms"]["R1"]
    r2 = data["agents"][0]["grid"]["rooms"]["R2"]
    assert r1[2] + 1 == r2[0]
    walls = data["agents"][1]["grid"]["walls"]
    rows = sorted(a[1] for a, _ in walls)
    assert rows == list(range(rows[0], rows[0] + len(rows)))
    assert all(a[0] == r1[2] and b[0] == r2[0] and a[1] == b[1] for a, b in walls)
    # agent 2 cannot step from R1 into R2 across a walled row
    model = _agent_models(data)[2]
    for a, b in walls:
        src = model.ts.state_index(f"{a[0]},{a[1]}")
        assert model.ts.trans.get((src, "east")) is None


def test_wide_guards_layout():
    k = 9
    data = workloads.wide_guards(k)
    owner = data["agents"][1]["grid"]
    assert (owner["width"], owner["height"]) == (4, 3)
    cells = {e["services"][0]: tuple(e["cell"]) for e in owner["service_cells"]}
    assert cells == {f"x{i}": (i % 4, i // 4) for i in range(k)}
    task = ltl.parse(data["task_formulas"]["1"])
    assert ltl.atoms_of(task) == frozenset({"s"} | set(cells))


def test_tracer_restores_originals_and_accounts_self_time():
    import syncplan.ltl as target

    original = target.eval_ltl
    tracer = spantrace.Tracer()
    word = ltl.word([], [{"a"}])
    with tracer.wrapped():
        assert target.eval_ltl is not original
        with tracer.span("root") as root:
            assert target.eval_ltl(ltl.parse("G F a"), word)
    assert target.eval_ltl is original
    assert tracer.entered[("syncplan.ltl", "eval_ltl")] == 1
    assert "syncplan.ltl.eval_ltl" not in tracer.never_entered()
    tree = tracer.tree(root)
    assert [sp.name for sp in tree] == ["root", "ltl.eval"]
    assert sum(sp.self_time for sp in tree) == pytest.approx(root.duration)


def test_tracer_rejects_missing_attribute(monkeypatch):
    monkeypatch.setattr(
        spantrace, "WRAPPED", spantrace.WRAPPED + (("syncplan.ltl", "no_such_fn", "x"),)
    )
    import syncplan.ltl as target

    original = target.eval_ltl
    with pytest.raises(spantrace.TraceError):
        with spantrace.Tracer().wrapped():
            pass
    assert target.eval_ltl is original
