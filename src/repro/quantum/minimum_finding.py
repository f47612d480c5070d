"""Simulated quantum minimum finding (Durr-Hoyer + small-error wrapper).

Lemma 6 of the paper: for ``f : [N] -> Z`` given as an oracle there is a
quantum algorithm finding an ``x`` minimizing ``f(x)`` with error at most
``epsilon`` using ``O(sqrt(N log(1/epsilon)))`` queries.

This module provides two interchangeable *minimum finders* used by the
divide-and-conquer algorithms in :mod:`repro.core`:

* :class:`ClassicalMinimumFinder` — evaluates every candidate; exact.
* :class:`QuantumMinimumFinder` — a classical **simulation** of the quantum
  algorithm.  In ``mode="exact"`` it returns the true minimum and charges
  the Lemma 6 query bound to a :class:`~repro.quantum.ledger.QueryLedger`
  (this is how the end-to-end algorithms keep exponentially-small error
  while the benches still observe the modeled query counts).  In
  ``mode="sampled"`` it actually runs the Durr-Hoyer threshold dynamics,
  drawing Grover coin flips from the closed-form success probabilities in
  :mod:`repro.quantum.grover` — so it can return a non-minimal element with
  exactly the failure behaviour the theory predicts, which the benches
  measure.

The simulator necessarily inspects all candidate values to *emulate the
physics* (computing how many items are better than the current threshold);
those classical evaluations are simulation overhead and are accounted
separately from the modeled quantum queries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from ..analysis.counters import OperationCounters
from .grover import success_probability
from .ledger import QueryLedger

CostFn = Callable[[int], float]


@dataclass
class MinimumOutcome:
    """Result of one minimum-finding call."""

    index: int
    cost: float
    queries: float
    """Modeled quantum queries (0 for the classical finder)."""

    evaluations: int
    """Classical cost-function evaluations actually performed."""

    exact: bool
    """Whether the returned element is guaranteed minimal."""


class MinimumFinder(Protocol):
    """Strategy interface used by the divide-and-conquer algorithms."""

    def find(self, num_candidates: int, cost_at: CostFn) -> MinimumOutcome:
        """Return (an estimate of) the minimizing candidate index."""


class ClassicalMinimumFinder:
    """Exact scan over all candidates (the classical baseline)."""

    def __init__(self, counters: Optional[OperationCounters] = None) -> None:
        self.counters = counters

    def find(self, num_candidates: int, cost_at: CostFn) -> MinimumOutcome:
        if num_candidates <= 0:
            raise ValueError("need at least one candidate")
        best_index = 0
        best_cost = cost_at(0)
        for i in range(1, num_candidates):
            cost = cost_at(i)
            if cost < best_cost:
                best_cost = cost
                best_index = i
        if self.counters is not None:
            self.counters.classical_evaluations += num_candidates
        return MinimumOutcome(
            index=best_index,
            cost=best_cost,
            queries=0.0,
            evaluations=num_candidates,
            exact=True,
        )


class QuantumMinimumFinder:
    """Simulated Durr-Hoyer minimum finding (see module docstring).

    Parameters
    ----------
    ledger:
        Sink for the modeled quantum query counts.
    epsilon:
        Target error probability per call (the paper uses
        ``epsilon = 2^-p(n)`` so the polynomial overhead keeps the overall
        error exponentially small).
    mode:
        ``"exact"`` (default) or ``"sampled"`` — see module docstring.
    rng:
        Source of randomness for the sampled dynamics.
    """

    def __init__(
        self,
        ledger: Optional[QueryLedger] = None,
        epsilon: float = 1e-6,
        mode: str = "exact",
        rng: Optional[random.Random] = None,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        if mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.epsilon = epsilon
        self.mode = mode
        self.rng = rng if rng is not None else random.Random()
        self.counters = counters

    # ------------------------------------------------------------------
    def find(self, num_candidates: int, cost_at: CostFn) -> MinimumOutcome:
        if num_candidates <= 0:
            raise ValueError("need at least one candidate")
        values = [cost_at(i) for i in range(num_candidates)]
        if self.counters is not None:
            self.counters.classical_evaluations += num_candidates
        if self.mode == "exact":
            queries = self.ledger.charge_minimum_finding(num_candidates, self.epsilon)
            if self.counters is not None:
                self.counters.oracle_queries += int(queries)
            best_index = min(range(num_candidates), key=lambda i: values[i])
            return MinimumOutcome(
                index=best_index,
                cost=values[best_index],
                queries=queries,
                evaluations=num_candidates,
                exact=True,
            )
        outcome = durr_hoyer(values, rng=self.rng, epsilon=self.epsilon)
        self.ledger.charge(outcome.queries, phase="minimum_finding")
        if self.counters is not None:
            self.counters.oracle_queries += int(outcome.queries)
        return MinimumOutcome(
            index=outcome.index,
            cost=values[outcome.index],
            queries=outcome.queries,
            evaluations=num_candidates,
            exact=False,
        )


@dataclass
class DHOutcome:
    """Raw outcome of the simulated Durr-Hoyer dynamics."""

    index: int
    queries: float
    succeeded: bool
    """Whether the returned index attains the true minimum."""

    rounds: int
    """Threshold updates performed."""


def durr_hoyer(
    values: Sequence[float],
    rng: Optional[random.Random] = None,
    epsilon: float = 0.1,
    growth: float = 1.2,
) -> DHOutcome:
    """Simulate Durr-Hoyer minimum finding over explicit ``values``.

    One base run follows the original algorithm: keep a threshold item,
    repeatedly run BBHT exponential Grover search for a strictly better
    item (coin flips drawn from the exact success probability), replace the
    threshold by a uniformly random better item on success, and stop when a
    total budget of ``22.5 * sqrt(N)`` queries is exhausted.  The run is
    repeated ``ceil(log2(1/epsilon))`` times, keeping the best threshold
    seen, which drives the failure probability below ``epsilon`` (each base
    run fails with probability at most 1/2).
    """
    if rng is None:
        rng = random.Random()
    n = len(values)
    if n == 0:
        raise ValueError("values must be non-empty")
    true_min = min(values)
    repetitions = max(1, math.ceil(math.log2(1.0 / epsilon)))
    total_queries = 0.0
    best_index = rng.randrange(n)
    rounds = 0

    for _ in range(repetitions):
        index = rng.randrange(n)
        total_queries += 1  # query to learn the initial threshold's value
        budget = 22.5 * math.sqrt(n)
        spent = 0.0
        while spent < budget:
            better = [i for i in range(n) if values[i] < values[index]]
            if not better:
                break
            t = len(better)
            # BBHT exponential search for one of the `t` marked items.
            m = 1.0
            found = False
            while spent < budget:
                j = rng.randrange(int(m) + 1)
                spent += j + 1  # j Grover iterations + 1 verification query
                if rng.random() < success_probability(n, t, j):
                    index = rng.choice(better)
                    rounds += 1
                    found = True
                    break
                m = min(growth * m, math.sqrt(n))
            if not found:
                break
        total_queries += spent
        if values[index] < values[best_index]:
            best_index = index

    return DHOutcome(
        index=best_index,
        queries=total_queries,
        succeeded=values[best_index] == true_min,
        rounds=rounds,
    )
