"""Scenario generators for the benchmark workloads.

Each generator returns a plain scenario dict in the JSON scenario format; the
benchmark passes it to `syncplan.scenario_io.scenario_from_dict`.  None of
them depends on the benchmark seed: the seed only picks simulation seeds.
"""
from __future__ import annotations

import json

from syncplan.scenario_io import bundled_scenario_path

BASE_GRID = 10  # side of the bundled three_robots grid


def bundled_dict(name: str) -> dict:
    return json.loads(bundled_scenario_path(name).read_text())


def _block(v: int, n: int):
    """First and last new coordinate of the block that old coordinate v maps to."""
    return v * n // BASE_GRID, (v + 1) * n // BASE_GRID - 1


def _cells(cell, n: int):
    (x0, x1), (y0, y1) = _block(cell[0], n), _block(cell[1], n)
    return [[x, y] for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]


def _first(cell, n: int):
    return [_block(cell[0], n)[0], _block(cell[1], n)[0]]


def _walls(a, b, n: int):
    """A wall between adjacent old cells a and b, repeated along the shared
    border of their blocks."""
    if a[0] > b[0] or a[1] > b[1]:
        a, b = b, a
    if a[1] == b[1]:  # a is left of b
        xa, xb = _block(a[0], n)[1], _block(b[0], n)[0]
        y0, y1 = _block(a[1], n)
        return [[[xa, y], [xb, y]] for y in range(y0, y1 + 1)]
    ya, yb = _block(a[1], n)[1], _block(b[1], n)[0]
    x0, x1 = _block(a[0], n)
    return [[[x, ya], [x, yb]] for x in range(x0, x1 + 1)]


def scale_grid(grid: dict, n: int) -> dict:
    """Map a 10x10 grid onto n x n: every old cell becomes a block of cells.

    Rooms keep tiling the same quadrants, obstacles grow into blocks, walls
    separate every row (or column) of the two blocks they stood between, and
    the initial and service cells go to the first cell of their block.
    """
    if grid["width"] != BASE_GRID or grid["height"] != BASE_GRID:
        raise ValueError(f"expected a {BASE_GRID}x{BASE_GRID} grid")
    out = {"width": n, "height": n, "initial": _first(grid["initial"], n)}
    if "obstacles" in grid:
        out["obstacles"] = [c for cell in grid["obstacles"] for c in _cells(cell, n)]
    if "walls" in grid:
        out["walls"] = [w for a, b in grid["walls"] for w in _walls(a, b, n)]
    if "rooms" in grid:
        out["rooms"] = {
            room: [_block(x0, n)[0], _block(y0, n)[0], _block(x1, n)[1], _block(y1, n)[1]]
            for room, (x0, y0, x1, y1) in grid["rooms"].items()
        }
    if "service_cells" in grid:
        out["service_cells"] = [
            {"cell": _first(e["cell"], n), "services": list(e["services"])}
            for e in grid["service_cells"]
        ]
    return out


def three_robots(n: int) -> dict:
    """The bundled three_robots team with every grid mapped onto n x n."""
    data = bundled_dict("three_robots")
    for agent in data["agents"]:
        agent["grid"] = scale_grid(agent["grid"], n)
    data["name"] = f"three-robots-{n}x{n}"
    return data


def two_pairs() -> dict:
    """The bundled two_pairs team, unchanged."""
    return bundled_dict("two_pairs")


def wide_guards(k: int) -> dict:
    """Agent 1 needs `s` together with any one of agent 2's k services.

    Agent 1 sits on a 3x3 grid with `s` at (2,2) and task
    `G F (s && (x0 || ... || x{k-1}))`; agent 2 sits on a 4-wide grid holding
    x_i at (i mod 4, i div 4) and must visit x0..x3 infinitely often.
    """
    xs = [f"x{i}" for i in range(k)]
    return {
        "name": f"wide-guards-{k}",
        "agents": [
            {
                "id": 1,
                "grid": {
                    "width": 3,
                    "height": 3,
                    "initial": [0, 0],
                    "service_cells": [{"cell": [2, 2], "services": ["s"]}],
                },
            },
            {
                "id": 2,
                "grid": {
                    "width": 4,
                    "height": (k + 3) // 4,
                    "initial": [0, 0],
                    "service_cells": [
                        {"cell": [i % 4, i // 4], "services": [x]} for i, x in enumerate(xs)
                    ],
                },
            },
        ],
        "motion_formulas": {"1": "true", "2": "true"},
        "task_formulas": {
            "1": "G F (s && (" + " || ".join(xs) + "))",
            "2": " && ".join(f"G F {x}" for x in xs[:4]),
        },
        "simulation": {"seed": 0, "duration": [1.0, 5.0], "unrollings": 3},
    }


# name -> (generator, its parameters); the parameters are recorded in the output
WORKLOADS = {
    "three_robots_13x13": (three_robots, {"n": 13}),
    "two_pairs_team": (two_pairs, {}),
    "wide_guards": (wide_guards, {"k": 9}),
}


def generate(name: str) -> dict:
    gen, params = WORKLOADS[name]
    return gen(**params)
