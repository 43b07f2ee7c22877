"""paper_trials: the paper's statistical grid, a pass of the traced run only.

One grid is a serial ``run_statistical_grid`` over 24 cells: the universal
mean, variance, IQR and quantile estimators on six families (gaussian,
student_t_3, lognormal, pareto_3, mixture_bimodal, spike), each trial on a
fresh unsorted sample with no sketches.  Ground truth comes from
``repro.distributions``, including the mixture-quantile bisection.

This is not a timed workload.  It is pure CPU in one process, and its grid
calls follow the machine's own speed: the median grid call of ten runs spread
by more than the end-to-end bound between two sets of runs of the same code
(see README.md, "Steadiness").  Every traced run still runs it, for the
layers only it exercises (``distributions``, ``analysis``, the engine grid)
and for its checks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

import checks
from harness import CheckFailed

FAMILIES = ("gaussian", "student_t_3", "lognormal", "pareto_3", "mixture_bimodal", "spike")
ESTIMATORS = ("mean", "variance", "iqr", "quantiles")
N = 2_000
EPSILON = 1.0
BETA = 0.1
TRIALS = 4
POOL_CHECK_TRIALS = 2
#: Trials per cell of the grid the accuracy check reads.
ACCURACY_TRIALS = 20
#: Round indices of the check and warm-up grids, apart from the pass's own rounds.
WARMUP_ROUND = 1 << 40
POOL_ROUND = WARMUP_ROUND + 1
ACCURACY_ROUND = WARMUP_ROUND + 2


def _estimators() -> Dict[str, Callable]:
    # Looked up on the package at call time, so a traced pass sees the calls.
    import repro.core as core

    def quartile_spread(data, gen):
        values = core.estimate_quantiles(data, (0.25, 0.75), EPSILON, BETA, gen).values
        return float(values[1] - values[0])

    return {
        "mean": lambda data, gen: core.estimate_mean(data, EPSILON, BETA, gen).mean,
        "variance": lambda data, gen: core.estimate_variance(data, EPSILON, BETA, gen).variance,
        "iqr": lambda data, gen: core.estimate_iqr(data, EPSILON, BETA, gen).iqr,
        "quantiles": quartile_spread,
    }


#: The parameter each estimator's answer is compared with.
PARAMETER = {"mean": "mean", "variance": "variance", "iqr": "iqr", "quantiles": "iqr"}


class Grid:
    """The 24-cell sweep over every family and estimator."""

    def __init__(self, seed: int):
        from repro.distributions import make_distribution

        self.seed = seed
        self.distributions = {family: make_distribution(family) for family in FAMILIES}
        self.estimators = _estimators()

    def cells(self, round_index: int, trials: int = TRIALS, families=FAMILIES):
        from repro.analysis import StatisticalCell

        return [
            StatisticalCell(
                self.estimators[name], self.distributions[family], PARAMETER[name],
                N, trials, np.random.default_rng([self.seed, round_index, i, j]),
                key=(family, name),
            )
            for i, family in enumerate(families)
            for j, name in enumerate(ESTIMATORS)
        ]

    def run(self, round_index: int, workers: int = 1, **kwargs):
        from repro.analysis import run_statistical_grid

        cells = self.cells(round_index, **kwargs)
        results = run_statistical_grid(cells, workers=workers)
        return {cell.key: result for cell, result in zip(cells, results)}


def set_up(seed: int) -> Grid:
    """Imports, distributions, their truths and a first (warm-up) grid call."""
    grid = Grid(seed)
    for distribution in grid.distributions.values():
        distribution.mean, distribution.variance, distribution.iqr
    grid.run(WARMUP_ROUND, trials=1)
    return grid


def population(distribution) -> Dict[str, float]:
    iqr = distribution.iqr
    return {
        "sigma": math.sqrt(distribution.variance),
        "variance": distribution.variance,
        "mu4": distribution.central_moment(4),
        "iqr": iqr,
        "theta": distribution.theta(iqr / 8.0),
    }


def check_outputs(grid: Grid) -> List[str]:
    """Truths against SciPy, accuracy at the promised rate, serial = pooled.

    The accuracy check reads its own untimed grid of ``ACCURACY_TRIALS``
    trials per cell, so it sees the same number of answers however long the
    pass ran: on fewer than ten answers per cell, one miss would already
    fall below the ``1 - beta`` share.
    """
    problems: List[str] = []
    outcomes = []
    results = grid.run(ACCURACY_ROUND, trials=ACCURACY_TRIALS)
    for family, distribution in grid.distributions.items():
        program = {"mean": distribution.mean, "variance": distribution.variance,
                   "iqr": distribution.iqr}
        try:
            checks.check_truth(program, checks.scipy_truth(family), family)
        except CheckFailed as exc:
            problems.append(str(exc))
        ref = population(distribution)
        for name in ESTIMATORS:
            parameter = PARAMETER[name]
            allowed = checks.tolerance(parameter, N, EPSILON, ref)
            outcomes += [
                (f"{family}/{name}", abs(value - program[parameter]) <= allowed)
                for value in results[(family, name)].estimates
            ]
    try:
        checks.check_accuracy(outcomes, BETA)
    except CheckFailed as exc:
        problems.append(str(exc))
    serial = grid.run(POOL_ROUND, trials=POOL_CHECK_TRIALS, families=FAMILIES[:2])
    pooled = grid.run(POOL_ROUND, workers=2, trials=POOL_CHECK_TRIALS, families=FAMILIES[:2])
    try:
        checks.check_parity(
            [list(serial[key].estimates) for key in serial],
            [list(pooled[key].estimates) for key in serial],
            "serial vs two-worker sub-grid",
        )
    except CheckFailed as exc:
        problems.append(str(exc))
    return problems
