"""The result and layout records keep what callers rely on: keyword
constructors with defaults, the truth value of a decomposition check, and
a spanner claim that can be set after construction."""
import pytest

from kslab.adversary import (
    GbLayout,
    ModuleLayout,
    UnitLayout,
    ValidSequence,
    gb_layout,
    module_layout,
)
from kslab.gpc import GpcMove, GpcRun
from kslab.instances import path_decomposition, path_graph
from kslab.offline_solver import Move, Schedule
from kslab.spanner_cover import (
    SpannerMove,
    SpannerRun,
    SpannerSystem,
    SpanningTree,
    shortest_path_tree,
)
from kslab.tree_decomp import DecompositionCheck, TreeDecomposition, verify_decomposition


def test_decomposition_check_is_false_when_it_fails():
    assert not DecompositionCheck(False, 1, 0, "vertex 0 not covered by any bag")
    assert DecompositionCheck(True, message="all three axioms hold")
    missing = TreeDecomposition([[0, 1]], [None], root=0)
    check = verify_decomposition(path_graph(3), missing)
    assert not check and check.axiom == 1 and check.witness == 2
    assert verify_decomposition(path_graph(3), path_decomposition(3))


def test_spanner_system_claim_can_be_set_later():
    system = SpannerSystem(trees=(shortest_path_tree(path_graph(3), 0),))
    assert (system.q, system.r, system.mu) == (None, None, 1)
    system.q, system.r = 1, 0
    assert system.to_json()["q"] == 1 and system.to_json()["r"] == 0


_UNIT = module_layout(2).side1
_MOVE = Move(t=0, server=0, src=1, dst=2, cost=1)

# (record type, keyword arguments, the defaults the record fills in)
RECORDS = [
    (Schedule, {"moves": [_MOVE], "total_cost": 1}, {"optimal_count": None}),
    (DecompositionCheck, {"ok": True}, {"axiom": None, "witness": None, "message": ""}),
    (
        GpcRun,
        {"online_cost": 1, "bits_read": 4, "log": [GpcMove(0, 2, 0, 1, 2, 1, 1)],
         "bit_budget": 8},
        {},
    ),
    (
        SpannerMove,
        {"t": 0, "request": 2, "server": 0, "tree": 1, "src": 1, "relay": 2,
         "cost": 1},
        {},
    ),
    (
        SpannerRun,
        {"cost": 1, "bits_read": 4, "log": [], "labels": [0], "bit_budget": 8},
        {"ambiguous_retrievals": 0, "suffix_bits": 0},
    ),
    (
        SpanningTree,
        {"root": 0, "parent": (None, 0), "edge_weight": (None, 1)},
        {},
    ),
    (SpannerSystem, {"trees": ()}, {"q": None, "r": None}),
    (
        UnitLayout,
        {"gamma": 2, "u_ids": _UNIT.u_ids, "w_ids": _UNIT.w_ids,
         "mask_of": _UNIT.mask_of, "w_by_mask": _UNIT.w_by_mask},
        {},
    ),
    (ModuleLayout, {"gamma": 2, "side1": _UNIT, "side2": _UNIT}, {}),
    (
        GbLayout,
        {"gamma": 2, "m": 1, "modules": gb_layout(1, 2).modules, "source": 10},
        {},
    ),
    (
        ValidSequence,
        {"gamma": 2, "m": 1, "rounds": 0, "perms": (), "requests": ()},
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_take_keywords_and_fill_defaults(cls, kwargs, defaults):
    record = cls(**kwargs)
    for name, value in {**kwargs, **defaults}.items():
        assert getattr(record, name) == value, name

