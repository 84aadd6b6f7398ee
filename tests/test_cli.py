"""Command line behavior: exit codes, files, round trips, rendering."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import syncplan
from syncplan.cli import main
from syncplan.scenario_io import (
    bundled_scenario_path,
    load_strategies,
    save_strategies,
    strategy_from_dict,
    strategy_text,
)

THREE = str(bundled_scenario_path("three_robots"))
PAIRS = str(bundled_scenario_path("two_pairs"))
ASYM = str(bundled_scenario_path("asymmetry"))


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def minimal_grid_agent(aid, services, cell):
    return {
        "id": aid,
        "grid": {
            "width": 2,
            "height": 1,
            "initial": [0, 0],
            "rooms": {"R1": [1, 0, 1, 0]},
            "service_cells": [{"cell": cell, "services": services}],
        },
    }


class TestCheck:
    def test_bundled_scenario_clean(self, capsys):
        assert main(["check", THREE]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_overlapping_services_rejected(self, tmp_path, capsys):
        data = {
            "agents": [
                minimal_grid_agent(1, ["help"], [0, 0]),
                minimal_grid_agent(2, ["help"], [0, 0]),
            ],
            "motion_formulas": {"1": "true", "2": "true"},
            "task_formulas": {"1": "true", "2": "true"},
        }
        assert main(["check", write_scenario(tmp_path, data)]) == 1
        assert "share services" in capsys.readouterr().out

    def test_malformed_formula_positioned(self, tmp_path, capsys):
        data = {
            "agents": [minimal_grid_agent(1, ["a"], [0, 0])],
            "motion_formulas": {"1": "G (R1 &&"},
            "task_formulas": {"1": "true"},
        }
        assert main(["check", write_scenario(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "column" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        data = {
            "agents": [minimal_grid_agent(1, ["a"], [0, 0])],
            "motion_formulas": {"1": "true"},
            "task_formulas": {"1": "true"},
            "simualtion": {},
        }
        assert main(["check", write_scenario(tmp_path, data)]) == 1
        assert "unknown keys" in capsys.readouterr().err


class TestSynthesize:
    def test_two_pairs_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "strategies"
        code = main(
            ["synthesize", PAIRS, "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "dependency classes: [[1, 2], [3, 4]]" in text
        files = sorted(out.glob("strategy_agent_*.json"))
        assert len(files) == 4
        loaded = load_strategies(files)
        # saving the reloaded strategies reproduces the files byte for byte
        for path in files:
            data = json.loads(path.read_text())
            st = strategy_from_dict(data)
            assert strategy_text(st) == path.read_text()
        assert set(loaded) == {1, 2, 3, 4}

    def test_unsatisfiable_motion_exits_two(self, tmp_path, capsys):
        data = {
            "agents": [
                {
                    "id": 1,
                    "grid": {
                        "width": 1,
                        "height": 1,
                        "initial": [0, 0],
                        "rooms": {"R1": [0, 0, 0, 0]},
                    },
                }
            ],
            "motion_formulas": {"1": "G R1 && G !R1"},
            "task_formulas": {"1": "true"},
        }
        code = main(["synthesize", write_scenario(tmp_path, data), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "motion stage of agent 1" in capsys.readouterr().err

    def test_dot_dir_written(self, tmp_path):
        out = tmp_path / "strategies"
        dots = tmp_path / "dots"
        code = main(
            ["synthesize", ASYM, "--out", str(out), "--dot-dir", str(dots)]
        )
        assert code == 0
        names = {p.name for p in dots.glob("*.dot")}
        assert "agent1_motion_product.dot" in names
        assert "global_1_2.dot" in names
        assert (dots / "agent1_reduced_task.dot").read_text().startswith("digraph")


class TestSimulate:
    def test_synthesized_strategies_pass(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["synthesize", ASYM, "--out", str(out)]) == 0
        capsys.readouterr()
        files = [str(p) for p in sorted(out.glob("*.json"))]
        log = tmp_path / "events.log"
        code = main(
            ["simulate", ASYM, *files, "--seed", "3", "--runs", "2", "--log", str(log)]
        )
        assert code == 0
        assert "motion=ok task=ok" in capsys.readouterr().out
        lines = log.read_text().strip().splitlines()
        assert lines and all("\t" in line for line in lines)

    def test_failing_verdict_exits_three(self, tmp_path, capsys):
        # handcrafted strategies reproducing the one-sided satisfaction
        from syncplan.globalprod import Strategy, StrategyStep

        both = [1, 2]
        st1 = Strategy(
            1, (), (StrategyStep("s0", "ping", frozenset(both)),)
        )
        st2 = Strategy(
            2,
            (),
            (
                StrategyStep("t0", "pong", frozenset(both)),
                StrategyStep("t0", "pong", frozenset({2})),
            ),
        )
        paths = save_strategies({1: st1, 2: st2}, tmp_path / "st")
        code = main(["simulate", ASYM, *[str(p) for p in paths], "--runs", "1"])
        assert code == 3
        assert "task=FAIL" in capsys.readouterr().out


@pytest.fixture(scope="module")
def strategy_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("render") / "st"
    assert main(["synthesize", THREE, "--out", str(out)]) == 0
    return [str(p) for p in sorted(out.glob("*.json"))]


class TestRender:
    def test_svg_structure(self, tmp_path, strategy_files):
        target = tmp_path / "out.svg"
        code = main(
            ["render", THREE, "--strategies", *strategy_files, "--out", str(target)]
        )
        assert code == 0
        svg = target.read_text()
        assert svg.count('class="trajectory"') == 3
        assert svg.count('class="sync-star"') >= 2
        assert svg.count('class="obstacle"') == 4

    def test_ascii_dimensions(self, capsys, strategy_files):
        code = main(["render", THREE, "--strategies", *strategy_files, "--format", "ascii"])
        assert code == 0
        out = capsys.readouterr().out
        frames = out.strip().split("\n\n")
        assert len(frames) == 3
        for frame in frames:
            rows = frame.splitlines()[1:]
            assert len(rows) == 10
            assert all(len(r) == 10 for r in rows)

    def test_non_grid_scenario_rejected(self, capsys):
        assert main(["render", ASYM, "--format", "ascii"]) == 1


class TestStats:
    def test_stats_prints_block(self, capsys):
        assert main(["stats", PAIRS]) == 0
        out = capsys.readouterr().out
        for token in ("|P_hat|", "global total", "dependency classes", "reduction ratio"):
            assert token in out

    def test_stats_prints_the_estimated_baseline(self, capsys):
        assert main(["stats", PAIRS]) == 0
        out = capsys.readouterr().out
        assert (
            "centralized estimate: 20480 "
            "(4 * 4 * 4 * 4 * 1 * 2 * 1 * 2 * 1 * 2 * 1 * 2 * 5)\n"
        ) in out
        assert "reduction ratio: 209.0\n" in out
        assert "centralized reachable" not in out


def run_cli(*args):
    """The command line in a fresh interpreter, so a traceback would show."""
    env = dict(os.environ, PYTHONPATH=str(Path(syncplan.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "syncplan.cli", *args], capture_output=True, text=True, env=env
    )


class TestMalformedFiles:
    @pytest.fixture()
    def strategy_path(self, tmp_path):
        from syncplan.globalprod import Strategy, StrategyStep

        st = Strategy(1, (), (StrategyStep("s0", "ping", frozenset({1, 2})),))
        (path,) = save_strategies({1: st}, tmp_path / "st")
        return path

    def assert_rejected(self, proc, message):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr + proc.stdout
        assert proc.stderr.startswith("error: ") and message in proc.stderr

    def test_truncated_strategy(self, strategy_path):
        strategy_path.write_text(strategy_path.read_text()[:40])
        self.assert_rejected(run_cli("simulate", ASYM, str(strategy_path)), "line")

    def test_missing_strategy(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        self.assert_rejected(run_cli("simulate", ASYM, missing), "No such file")
        self.assert_rejected(run_cli("render", THREE, "--strategies", missing), "No such file")

    def test_sync_not_a_list(self, strategy_path):
        data = json.loads(strategy_path.read_text())
        data["cycle"][0]["sync"] = 5
        strategy_path.write_text(json.dumps(data))
        self.assert_rejected(run_cli("simulate", ASYM, str(strategy_path)), "sync")

    def rewrite(self, strategy_path, agent=1, **step):
        data = json.loads(strategy_path.read_text())
        data["agent"] = agent
        data["cycle"][0].update(step)
        strategy_path.write_text(json.dumps(data))
        return str(strategy_path)

    def test_unknown_agent(self, strategy_path):
        path = self.rewrite(strategy_path, agent=9, sync=[9])
        self.assert_rejected(run_cli("simulate", ASYM, path), "has no agent 9")

    def test_unknown_action(self, strategy_path):
        path = self.rewrite(strategy_path, action="fly")
        self.assert_rejected(run_cli("simulate", ASYM, path), "no action 'fly'")

    def test_unknown_state(self, strategy_path):
        path = self.rewrite(strategy_path, state="99,99")
        self.assert_rejected(run_cli("simulate", ASYM, path), "no state '99,99'")
        self.assert_rejected(run_cli("render", ASYM, "--strategies", path), "no state '99,99'")

    def test_teleporting_strategy(self, tmp_path, strategy_files):
        # agent 3's first cycle move becomes `stay`: every step still names a
        # known state and action, but the next step starts a cell further
        paths = []
        for src in strategy_files:
            data = json.loads(Path(src).read_text())
            if data["agent"] == 3:
                step = next(s for s in data["cycle"] if s["action"] == "north")
                step["action"] = "stay"
            paths.append(tmp_path / Path(src).name)
            paths[-1].write_text(json.dumps(data))
        files = [str(p) for p in paths]
        self.assert_rejected(run_cli("simulate", THREE, *files), "'stay' leads from")
        self.assert_rejected(run_cli("render", THREE, "--strategies", *files), "'stay' leads from")

    @pytest.fixture(scope="class")
    def asymmetry_files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("asymmetry") / "st"
        assert main(["synthesize", ASYM, "--out", str(out)]) == 0
        return sorted(out.glob("*.json"))

    def resynced(self, tmp_path, asymmetry_files, sync):
        # agent 2's first cycle step gets `sync`; agent 1 keeps its own
        paths = []
        for src in asymmetry_files:
            data = json.loads(src.read_text())
            if data["agent"] == 2:
                assert data["cycle"][0]["sync"] == [1, 2]
                data["cycle"][0]["sync"] = sync
            paths.append(tmp_path / src.name)
            paths[-1].write_text(json.dumps(data))
        return [str(p) for p in paths]

    def test_unpaired_coalition(self, tmp_path, asymmetry_files):
        # without the pairing check, simulate deadlocks on every seed
        files = self.resynced(tmp_path, asymmetry_files, [2])
        message = "coalition [1, 2] is joined unequally often in the cycle"
        self.assert_rejected(run_cli("simulate", ASYM, *files), message)
        self.assert_rejected(run_cli("render", ASYM, "--strategies", *files), message)

    def test_sync_with_unknown_agent(self, tmp_path, asymmetry_files):
        files = self.resynced(tmp_path, asymmetry_files, [1, 2, 9])
        message = "cycle[0]: syncs with agent 9, which scenario 'asymmetry' lacks"
        self.assert_rejected(run_cli("simulate", ASYM, *files), message)
        self.assert_rejected(run_cli("render", ASYM, "--strategies", *files), message)

    def test_sync_with_agent_without_strategy(self, asymmetry_files):
        (first, _second) = asymmetry_files
        assert json.loads(first.read_text())["agent"] == 1
        message = "syncs with agent 2, which has no strategy here"
        self.assert_rejected(run_cli("simulate", ASYM, str(first)), message)
        self.assert_rejected(run_cli("render", ASYM, "--strategies", str(first)), message)

    def test_out_is_a_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_cli("synthesize", ASYM, "--out", str(taken))
        self.assert_rejected(proc, f"--out {taken}: {taken} is not a directory")

    def test_dot_dir_below_a_file(self, tmp_path):
        # rejected before synthesis: no strategy file is written either
        taken = tmp_path / "taken"
        taken.write_text("")
        out = tmp_path / "st"
        proc = run_cli("synthesize", ASYM, "--out", str(out), "--dot-dir", str(taken / "dot"))
        self.assert_rejected(proc, f"{taken} is not a directory")
        assert not out.exists()

    def test_log_in_missing_directory(self, tmp_path, asymmetry_files):
        log = tmp_path / "missing" / "events.log"
        proc = run_cli("simulate", ASYM, *map(str, asymmetry_files), "--log", str(log))
        self.assert_rejected(proc, f"no directory {log.parent}")
        assert "seed" not in proc.stdout  # nothing was simulated

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one(self, runs, asymmetry_files):
        proc = run_cli("simulate", ASYM, *map(str, asymmetry_files), "--runs", runs)
        self.assert_rejected(proc, f"--runs must be at least 1, got {runs}")

    def test_render_out_in_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "plan.svg"
        self.assert_rejected(run_cli("render", THREE, "--out", str(out)), "no directory")

    def test_grid_width_not_an_integer(self, tmp_path):
        data = json.loads(Path(THREE).read_text())
        data["agents"][0]["grid"]["width"] = "x"
        self.assert_rejected(
            run_cli("check", write_scenario(tmp_path, data)), "width: expected an integer"
        )

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize(
        "formula, message",
        [
            ("(" * 200 + "true" + ")" * 200, "nested parentheses"),
            ("G " * 900 + "true", "nested operators"),
        ],
        ids=["parentheses", "operators"],
    )
    def test_deep_formula_rejected(self, tmp_path, command, formula, message):
        data = json.loads(Path(ASYM).read_text())
        data["motion_formulas"]["1"] = formula
        out = tmp_path / "st"
        options = ["--out", str(out)] if command == "synthesize" else []
        proc = run_cli(command, write_scenario(tmp_path, data), *options)
        self.assert_rejected(proc, f"motion_formulas[1]: more than 64 {message}")
        assert not out.exists()

    def test_deeply_nested_json(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_rejected(run_cli("check", str(deep)), "JSON nested too deeply")
        self.assert_rejected(run_cli("simulate", ASYM, str(deep)), "JSON nested too deeply")

    def test_reversed_duration_bounds(self, tmp_path, strategy_path):
        data = json.loads(Path(ASYM).read_text())
        data["simulation"]["duration"] = [5.0, 1.0]
        scenario = write_scenario(tmp_path, data)
        self.assert_rejected(run_cli("simulate", scenario, str(strategy_path)), "duration")


class TestUsageErrors:
    # argparse ends a usage error with 2, which here means an empty language

    def test_removed_per_class_option(self):
        proc = run_cli("synthesize", PAIRS, "--per-class")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr + proc.stdout
        assert "unrecognized arguments: --per-class" in proc.stderr

    @pytest.mark.parametrize(
        "argv", [["stats"], ["synthesize", PAIRS, "--cap", "many"], ["plan", PAIRS]]
    )
    def test_usage_errors_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synthesize", "stats"])
    def test_removed_cap_option(self, command, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where `synthesize` would write, were it accepted
        assert main([command, PAIRS, "--cap", "10"]) == 1
        assert "unrecognized arguments: --cap 10" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synthesize" in capsys.readouterr().out
