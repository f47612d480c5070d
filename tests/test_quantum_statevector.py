"""Unit tests for the explicit statevector Grover simulator."""

import math
import random

import numpy as np
import pytest

from repro.quantum import (
    diffusion,
    grover_iterate,
    grover_search,
    grover_state,
    measured_success_probability,
    optimal_iterations,
    oracle_phase_flip,
    statevector_minimum,
    success_probability,
    uniform_state,
)


class TestPrimitives:
    def test_uniform_state_normalized(self):
        state = uniform_state(10)
        assert np.abs(state).max() == pytest.approx(1 / math.sqrt(10))
        assert np.vdot(state, state).real == pytest.approx(1.0)

    def test_uniform_state_validation(self):
        with pytest.raises(ValueError):
            uniform_state(0)

    def test_oracle_flips_only_marked(self):
        state = uniform_state(8)
        flipped = oracle_phase_flip(state, [3, 5])
        assert flipped[3] == -state[3] and flipped[5] == -state[5]
        assert flipped[0] == state[0]

    def test_oracle_is_unitary(self):
        state = uniform_state(8)
        flipped = oracle_phase_flip(state, [1])
        assert np.vdot(flipped, flipped).real == pytest.approx(1.0)

    def test_diffusion_preserves_uniform(self):
        state = uniform_state(16)
        assert np.allclose(diffusion(state), state)

    def test_diffusion_is_involution(self):
        rng = np.random.default_rng(0)
        state = rng.normal(size=12) + 1j * rng.normal(size=12)
        state /= np.linalg.norm(state)
        assert np.allclose(diffusion(diffusion(state)), state)

    def test_iteration_preserves_norm(self):
        state = uniform_state(32)
        for _ in range(5):
            state = grover_iterate(state, [7])
            assert np.vdot(state, state).real == pytest.approx(1.0)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("num_items,num_marked", [
        (8, 1), (16, 1), (16, 4), (32, 3), (64, 1), (10, 2), (7, 1),
    ])
    def test_matches_formula_for_all_iteration_counts(self, num_items, num_marked):
        marked = list(range(num_marked))
        for iterations in range(8):
            measured = measured_success_probability(num_items, marked, iterations)
            formula = success_probability(num_items, num_marked, iterations)
            assert measured == pytest.approx(formula, abs=1e-9)

    def test_amplitude_uniform_within_classes(self):
        # All marked amplitudes equal; all unmarked amplitudes equal.
        state = grover_state(32, [3, 17, 29], 4)
        marked = {3, 17, 29}
        marked_amps = {complex(round(state[i].real, 12)) for i in marked}
        other_amps = {complex(round(state[i].real, 12))
                      for i in range(32) if i not in marked}
        assert len(marked_amps) == 1
        assert len(other_amps) == 1

    def test_optimal_iterations_nearly_certain(self):
        j = optimal_iterations(256, 1)
        assert measured_success_probability(256, [123 % 256], j) > 0.99


class TestSearch:
    def test_finds_unique_target(self):
        hits = sum(
            grover_search(64, lambda x: x == 42, 1, random.Random(s)).succeeded
            for s in range(30)
        )
        assert hits >= 29

    def test_oracle_call_count(self):
        run = grover_search(64, lambda x: x == 1, 1, random.Random(0))
        assert run.oracle_calls == run.iterations + 1
        assert run.iterations == optimal_iterations(64, 1)

    def test_no_marked_items(self):
        run = grover_search(16, lambda x: False, 0, random.Random(0))
        assert not run.succeeded
        assert run.oracle_calls == 1

    def test_marked_count_checked(self):
        with pytest.raises(ValueError):
            grover_search(8, lambda x: x < 2, 3)

    def test_multiple_targets(self):
        run = grover_search(64, lambda x: x % 16 == 0, 4, random.Random(1))
        assert run.succeeded


class TestStatevectorMinimum:
    def test_finds_minimum(self):
        rng = random.Random(5)
        values = [rng.randint(10, 99) for _ in range(24)]
        values[13] = 1
        hits = sum(
            statevector_minimum(values, random.Random(s)).succeeded
            for s in range(20)
        )
        assert hits >= 18

    def test_single_value(self):
        out = statevector_minimum([7], random.Random(0))
        assert out.index == 0 and out.succeeded

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            statevector_minimum([])

    def test_threshold_updates_monotone(self):
        # Each successful update strictly lowers the threshold, so the
        # number of updates is at most the number of distinct values.
        values = [9, 3, 7, 3, 1, 9, 5, 1]
        out = statevector_minimum(values, random.Random(2))
        assert out.threshold_updates <= len(set(values))

    def test_agrees_with_closed_form_simulator(self):
        # Both layers of the substitution find the same minima w.h.p.
        from repro.quantum import durr_hoyer

        rng = random.Random(6)
        values = [rng.randint(0, 50) for _ in range(16)]
        sv = statevector_minimum(values, random.Random(7))
        dh = durr_hoyer(values, rng=random.Random(7), epsilon=0.01)
        assert values[sv.index] == values[dh.index] == min(values)


class TestBBHTSearch:
    def test_finds_single_target_unknown_count(self):
        import random as rnd_mod

        from repro.quantum import bbht_search

        hits = sum(
            bbht_search(64, lambda x: x == 17,
                        rnd_mod.Random(s)).succeeded
            for s in range(30)
        )
        assert hits >= 28

    def test_multiple_targets(self):
        import random as rnd_mod

        from repro.quantum import bbht_search

        run = bbht_search(128, lambda x: x % 32 == 5, rnd_mod.Random(1))
        assert run.succeeded and run.outcome % 32 == 5

    def test_no_marked_items_fails_within_budget(self):
        import random as rnd_mod

        from repro.quantum import bbht_search

        run = bbht_search(32, lambda x: False, rnd_mod.Random(2))
        assert not run.succeeded
        assert run.oracle_calls <= int(45 * 32 ** 0.5) + 10

    def test_query_scaling_sqrt(self):
        import random as rnd_mod
        import statistics

        from repro.quantum import bbht_search

        means = []
        for num_items in (16, 64, 256):
            runs = [
                bbht_search(num_items, lambda x: x == 0, rnd_mod.Random(s))
                for s in range(25)
            ]
            assert all(r.succeeded for r in runs)
            means.append(statistics.mean(r.oracle_calls for r in runs))
        # quadrupling N roughly doubles the queries
        assert means[1] / means[0] == pytest.approx(2.0, rel=0.8)
        assert means[2] / means[1] == pytest.approx(2.0, rel=0.8)
