"""Explicit statevector simulation of Grover's algorithm.

The Durr-Hoyer simulator in :mod:`repro.quantum.minimum_finding` draws its
coin flips from the *closed-form* Grover success probability.  This module
grounds that closed form: it simulates Grover's algorithm on an explicit
``2^m``-amplitude statevector (oracle phase flip + diffusion about the
mean) and measures the success probability directly, so the tests can
assert the formula against genuine unitary dynamics rather than taking it
on faith.  It also runs complete Grover *searches* (iterate, measure,
verify) and a statevector-level minimum-finding round.

This is the deepest level of the quantum substitution (DESIGN.md): the
paper's QRAM machine -> closed-form dynamics -> explicit unitaries, each
layer validated against the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grover import optimal_iterations


def uniform_state(num_items: int) -> np.ndarray:
    """The equal-superposition initial state over ``num_items`` basis
    states (``num_items`` need not be a power of two; the diffusion
    operator below reflects about this state)."""
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    state = np.full(num_items, 1.0 / math.sqrt(num_items), dtype=np.complex128)
    return state


def oracle_phase_flip(state: np.ndarray, marked: Sequence[int]) -> np.ndarray:
    """Apply the phase oracle ``|x> -> -|x>`` for marked ``x``."""
    out = state.copy()
    for index in marked:
        out[index] = -out[index]
    return out


def diffusion(state: np.ndarray) -> np.ndarray:
    """Grover diffusion: reflection about the uniform superposition."""
    mean = state.mean()
    return 2.0 * mean - state


def grover_iterate(state: np.ndarray, marked: Sequence[int]) -> np.ndarray:
    """One Grover iteration (oracle then diffusion)."""
    return diffusion(oracle_phase_flip(state, marked))


def grover_state(num_items: int, marked: Sequence[int], iterations: int) -> np.ndarray:
    """The statevector after ``iterations`` Grover iterations."""
    state = uniform_state(num_items)
    for _ in range(iterations):
        state = grover_iterate(state, marked)
    return state


def measured_success_probability(
    num_items: int, marked: Sequence[int], iterations: int
) -> float:
    """Total probability mass on the marked states — measured from the
    explicit statevector, to be compared against
    :func:`repro.quantum.grover.success_probability`."""
    state = grover_state(num_items, marked, iterations)
    return float(sum(abs(state[m]) ** 2 for m in set(marked)))


@dataclass
class GroverRun:
    """Outcome of a complete Grover search on the statevector."""

    outcome: int
    succeeded: bool
    iterations: int
    oracle_calls: int


def grover_search(
    num_items: int,
    is_marked: Callable[[int], bool],
    num_marked: int,
    rng: Optional[random.Random] = None,
) -> GroverRun:
    """Run Grover's algorithm end to end on the statevector.

    Uses the optimal iteration count for the known ``num_marked``,
    measures in the computational basis, and verifies the outcome with
    one more oracle call (as the real algorithm would).
    """
    if rng is None:
        rng = random.Random()
    marked = [x for x in range(num_items) if is_marked(x)]
    if len(marked) != num_marked:
        raise ValueError(
            f"is_marked marks {len(marked)} items, caller claimed {num_marked}"
        )
    if not marked:
        return GroverRun(outcome=rng.randrange(num_items), succeeded=False,
                         iterations=0, oracle_calls=1)
    iterations = optimal_iterations(num_items, num_marked)
    state = grover_state(num_items, marked, iterations)
    probabilities = np.abs(state) ** 2
    probabilities /= probabilities.sum()
    outcome = rng.choices(range(num_items), weights=probabilities)[0]
    return GroverRun(
        outcome=outcome,
        succeeded=is_marked(outcome),
        iterations=iterations,
        oracle_calls=iterations + 1,
    )


@dataclass
class BBHTRun:
    """Outcome of exponential (unknown-count) search on the statevector."""

    outcome: int
    succeeded: bool
    oracle_calls: int
    attempts: int


def bbht_search(
    num_items: int,
    is_marked: Callable[[int], bool],
    rng: Optional[random.Random] = None,
    growth: float = 1.2,
    max_oracle_calls: Optional[int] = None,
) -> BBHTRun:
    """Boyer-Brassard-Hoyer-Tapp search with UNKNOWN marked count,
    executed on the explicit statevector.

    This removes the last idealization of :func:`grover_search` (which is
    told ``num_marked``): the iteration count is drawn uniformly from a
    geometrically growing range, each attempt runs real unitaries, and
    measurement/verification decide success — exactly the subroutine the
    Durr-Hoyer closed-form simulator models.
    """
    if rng is None:
        rng = random.Random()
    marked = [x for x in range(num_items) if is_marked(x)]
    if max_oracle_calls is None:
        max_oracle_calls = int(45 * math.sqrt(num_items)) + 10
    oracle_calls = 0
    attempts = 0
    bound = 1.0
    while oracle_calls < max_oracle_calls:
        attempts += 1
        iterations = rng.randrange(int(bound) + 1)
        state = grover_state(num_items, marked, iterations)
        probabilities = np.abs(state) ** 2
        probabilities /= probabilities.sum()
        outcome = rng.choices(range(num_items), weights=probabilities)[0]
        oracle_calls += iterations + 1  # +1 to verify the measurement
        if is_marked(outcome):
            return BBHTRun(outcome=outcome, succeeded=True,
                           oracle_calls=oracle_calls, attempts=attempts)
        bound = min(growth * bound, math.sqrt(num_items))
    return BBHTRun(outcome=rng.randrange(num_items), succeeded=False,
                   oracle_calls=oracle_calls, attempts=attempts)


@dataclass
class StatevectorMinimumRun:
    """Outcome of statevector-level Durr-Hoyer minimum finding."""

    index: int
    succeeded: bool
    oracle_calls: int
    threshold_updates: int


def statevector_minimum(
    values: Sequence[float],
    rng: Optional[random.Random] = None,
    max_rounds: Optional[int] = None,
) -> StatevectorMinimumRun:
    """Durr-Hoyer minimum finding with every Grover run executed on the
    explicit statevector (small inputs only — cost is per-round
    ``O(iterations * N)``).

    Each round searches for an item strictly below the current threshold
    using the optimal iteration count for the true marked count (the
    textbook idealization; the BBHT exponential search in
    :mod:`repro.quantum.minimum_finding` removes that idealization at the
    closed-form level).
    """
    if rng is None:
        rng = random.Random()
    n = len(values)
    if n == 0:
        raise ValueError("values must be non-empty")
    if max_rounds is None:
        max_rounds = 4 * n  # generous; expected rounds are O(log n)
    index = rng.randrange(n)
    oracle_calls = 1
    updates = 0
    for _ in range(max_rounds):
        threshold = values[index]
        marked = [i for i in range(n) if values[i] < threshold]
        if not marked:
            break
        run = grover_search(
            n, lambda i: values[i] < threshold, len(marked), rng
        )
        oracle_calls += run.oracle_calls
        if run.succeeded:
            index = run.outcome
            updates += 1
    return StatevectorMinimumRun(
        index=index,
        succeeded=values[index] == min(values),
        oracle_calls=oracle_calls,
        threshold_updates=updates,
    )
