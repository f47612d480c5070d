"""Generated tests of the sweep's DP maps, read-only views over dense
arrays.

For a drawn rule, function and entry point (``run_fs``,
``run_fs_shared``, the precedence-constrained DP, or FS* over a
non-contiguous ``J`` above a placed prefix), run serially or on two
threads, ``dict()`` of each of ``mincost_by_subset``, ``best_last`` and
``level_cost_by_choice`` must equal a reference DP built here from the
cell-at-a-time ``COMPACT`` oracle, and each view must keep the
:class:`~collections.abc.Mapping` contract: ``len``, ``in``, ``get``,
:class:`KeyError` for keys outside the sweep, ``==`` with a dict either
way round, and no item assignment.
"""

from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro._bitops import bits_of, popcount, subsets_of_size
from repro.core import (
    EngineConfig,
    ReductionRule,
    initial_state,
    initial_state_shared,
    run_fs,
    run_fs_shared,
    run_layered_sweep,
)
from repro.core.constrained import _closure_masks, _feasible
from repro.truth_table import TruthTable
from tests.compact_oracle import compact_python

ENTRY_POINTS = ("run_fs", "run_fs_shared", "constrained", "fs_star")


@st.composite
def sweeps(draw):
    """A rule, its tables, an entry point and its sweep's parameters."""
    rule = draw(st.sampled_from(list(ReductionRule)))
    entry = draw(st.sampled_from(ENTRY_POINTS))
    n = draw(st.integers(3 if entry == "fs_star" else 1, 5))
    top = 2 if rule is ReductionRule.MTBDD else 1
    tables = [
        TruthTable(n, draw(st.lists(st.integers(0, top), min_size=1 << n,
                                    max_size=1 << n)))
        for _ in range(2 if entry == "run_fs_shared" else 1)
    ]
    precedence = []
    placed = []
    universe = (1 << n) - 1
    if entry == "constrained":
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        precedence = [(a, b) for a, b in draw(st.lists(pairs, max_size=3))
                      if a < b]
    if entry == "fs_star":
        chain = draw(st.permutations(range(n)))
        placed = chain[:draw(st.integers(1, n - 2))]
        free = chain[len(placed):]
        members = draw(st.lists(st.sampled_from(free), min_size=2,
                                unique=True))
        universe = sum(1 << var for var in members)
        assume(universe != (1 << len(members)) - 1)  # not the low bits
    jobs, backend = draw(st.sampled_from([(1, "serial"), (2, "thread")]))
    return rule, entry, tables, precedence, placed, universe, jobs, backend


def reference_dp(base, universe, rule, feasible):
    """``MINCOST``, the first minimizing last variable and every
    candidate's ``Cost_i`` over the sub-masks of ``universe``, by the
    cell-at-a-time oracle."""
    states = {0: base}
    mincost, best_last, level_cost = {0: base.mincost}, {}, {}
    for k in range(1, popcount(universe) + 1):
        for mask in subsets_of_size(universe, k):
            if not feasible(mask):
                continue
            best = None
            for var in bits_of(mask):
                before = mask ^ 1 << var
                if before not in states:
                    continue
                state = compact_python(states[before], var, rule)
                level_cost[(base.mask | before, var)] = (
                    state.mincost - states[before].mincost)
                if best is None or state.mincost < best.mincost:
                    best = state
            states[mask] = best
            mincost[mask] = best.mincost
            best_last[mask] = best.pi[-1]
    return mincost, best_last, level_cost


def check_mapping(view, reference, absent):
    """The Mapping contract of ``view`` against its reference dict, and
    :class:`KeyError` for every key of ``absent``."""
    assert isinstance(view, Mapping)
    assert dict(view) == reference
    assert dict(view.items()) == reference
    assert list(view.values()) == [reference[key] for key in view]
    assert len(view) == len(reference)
    assert view == reference and reference == view
    assert not view != reference
    for key, value in reference.items():
        assert key in view
        assert view[key] == view.get(key) == value
    if reference:
        key = next(iter(reference))
        assert view != dict(reference, **{"extra": 0})
        assert {**reference, key: reference[key] + 1} != view
        with pytest.raises(TypeError):
            view[key] = 0
        with pytest.raises(TypeError):
            del view[key]
    for key in absent:
        assert key not in view
        assert view.get(key) is None
        with pytest.raises(KeyError):
            view[key]


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
def test_dp_maps_match_oracle(sweep):
    rule, entry, tables, precedence, placed, universe, jobs, backend = sweep
    n = tables[0].n
    feasible = (lambda mask: True)
    if entry == "run_fs":
        base = initial_state(tables[0], rule)
        outcome = run_fs(tables[0], rule=rule, jobs=jobs, backend=backend)
    elif entry == "run_fs_shared":
        base = initial_state_shared(tables, rule)
        outcome = run_fs_shared(tables, rule=rule, jobs=jobs,
                                backend=backend)
    else:
        base = initial_state(tables[0], rule)
        for var in placed:
            base = compact_python(base, var, rule)
        if precedence:
            after = _closure_masks(n, precedence)
            feasible = (lambda mask: _feasible(mask, after))
        outcome = run_layered_sweep(
            base, universe, rule,
            config=EngineConfig(jobs=jobs, backend=backend),
            subset_filter=feasible if precedence else None,
        )
    mincost, best_last, level_cost = reference_dp(base, universe, rule,
                                                  feasible)

    others = [var for var in range(n) if not universe >> var & 1]
    outside = [-1, 1 << n, "0", None, (0,)]
    outside += [mask | 1 << var for mask in (0, universe) for var in others]
    outside += [mask for mask in subsets_of_size(universe, 2)
                if mask not in mincost]  # filtered out
    check_mapping(outcome.mincost_by_subset, mincost, outside)
    check_mapping(outcome.best_last, best_last, outside + [0])

    # Keys naming a placed variable, in the predecessor or in the base;
    # predecessors without the base; variables outside the sweep.
    absent = [(before | 1 << var, var) for before, var in level_cost]
    absent += [(base.mask, var) for var in bits_of(base.mask)]
    absent += [(base.mask ^ 1 << var, next(iter(bits_of(universe))))
               for var in bits_of(base.mask)]
    absent += [(base.mask, var) for var in others + [-1, n, None]]
    absent += [(-1, 0), (base.mask, 0, 0), base.mask, "key"]
    check_mapping(outcome.level_cost_by_choice, level_cost, absent)
