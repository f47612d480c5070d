"""Ordering-sensitivity statistics: how much does the ordering matter?

The paper's opening problem is that OBDD size "may vary exponentially
depending on the variable ordering".  This module quantifies that spread
per function: the distribution of sizes over all (or sampled) orderings,
the best/worst ratio, and where heuristics' results fall inside the
distribution.  Used by the benches to rank families by sensitivity and by
the examples to show the achilles function is the extreme case by design.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from typing import List, Optional

from ..errors import DimensionError
from ..truth_table import TruthTable, count_subfunctions


@dataclass
class SensitivityReport:
    """Distribution of OBDD sizes (internal nodes) over orderings."""

    n: int
    orderings_examined: int
    exhaustive: bool
    minimum: int
    maximum: int
    mean: float
    median: float
    stddev: float

    @property
    def spread(self) -> float:
        """Worst/best ratio — 1.0 means the ordering is irrelevant.

        A constant function (every ordering costs 0) is perfectly
        insensitive, hence 1.0 rather than 0/0.
        """
        if self.minimum == 0:
            return 1.0 if self.maximum == 0 else math.inf
        return self.maximum / self.minimum

    @property
    def regret_of_average(self) -> float:
        """Expected penalty of ordering blindly: mean / best."""
        if self.minimum == 0:
            return 1.0 if self.mean == 0 else math.inf
        return self.mean / self.minimum


def ordering_sensitivity(
    table: TruthTable,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> SensitivityReport:
    """Measure the size distribution over orderings.

    Exhaustive when ``sample`` is None (requires small ``n``); otherwise
    draws ``sample`` orderings uniformly (always including the natural
    one, so the minimum is an upper bound on the true optimum).
    """
    n = table.n
    if n < 1:
        raise DimensionError("need at least one variable")
    sizes: List[int] = []
    if sample is None:
        if n > 8:
            raise DimensionError(
                f"exhaustive sensitivity over {math.factorial(n)} orderings "
                "is impractical; pass sample="
            )
        for perm in itertools.permutations(range(n)):
            sizes.append(sum(count_subfunctions(table, list(perm))))
        exhaustive = True
    else:
        if sample < 1:
            raise DimensionError("sample must be positive")
        rng = random.Random(seed)
        orders = [list(range(n))]
        for _ in range(sample - 1):
            order = list(range(n))
            rng.shuffle(order)
            orders.append(order)
        sizes = [sum(count_subfunctions(table, order)) for order in orders]
        exhaustive = False
    return SensitivityReport(
        n=n,
        orderings_examined=len(sizes),
        exhaustive=exhaustive,
        minimum=min(sizes),
        maximum=max(sizes),
        mean=statistics.mean(sizes),
        median=statistics.median(sizes),
        stddev=statistics.pstdev(sizes) if len(sizes) > 1 else 0.0,
    )


def heuristic_percentile(
    table: TruthTable,
    heuristic_size: int,
    sample: int = 200,
    seed: Optional[int] = None,
) -> float:
    """Fraction of sampled orderings the heuristic's result beats or ties.

    1.0 means the heuristic beat every sampled ordering; 0.5 means it is
    no better than the sampling median.
    """
    n = table.n
    rng = random.Random(seed)
    beaten = 0
    for _ in range(sample):
        order = list(range(n))
        rng.shuffle(order)
        if heuristic_size <= sum(count_subfunctions(table, order)):
            beaten += 1
    return beaten / sample
