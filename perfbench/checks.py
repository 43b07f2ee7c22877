"""Correctness checks the benchmark applies to the program's outputs.

Every check is a plain function that raises :class:`CheckFailed` with a
reason, so the benchmark's own tests can feed each one a corrupted output and
see it rejected.  References are computed here, with NumPy and SciPy, never
with the program's code.

Accuracy follows the paper's error shapes.  The theorems hide universal
constants and log-log factors, so each shape is scaled by one constant per
statistic, fixed below; an answer passes when its error is within
``constant * shape``, and a kind passes when at least the ``1 - beta`` share
of its answers do, which is the rate the theorems promise.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
from scipy import optimize, stats

from harness import CheckFailed

#: Constants in front of the paper's error shapes (see module docstring).
#: Chosen once, well above the errors the estimators make, so that a check
#: fails on a wrong answer and not on an unlucky draw.
C_MEAN = 8.0
C_VARIANCE = 8.0
C_IQR = 8.0
C_RANK = 6.0
C_BASELINE_IQR = 8.0

#: Relative tolerance of the ledger-versus-charges sum (the ledger adds in
#: commit order, the check in answer order).
SUM_RTOL = 1e-12

#: Agreement required between the program's ground truth and SciPy's.
TRUTH_TOL = 1e-9


# ---------------------------------------------------------------------------
# reference statistics


def empirical_stats(data: np.ndarray) -> Dict[str, float]:
    """NumPy reference statistics of one dataset (the empirical setting)."""
    data = np.asarray(data, dtype=float)
    ordered = np.sort(data)
    mean = float(np.mean(data))
    centred = data - mean
    q25, q75 = np.quantile(data, [0.25, 0.75])
    iqr = float(q75 - q25)
    return {
        "n": int(data.size),
        "mean": mean,
        "sigma": float(np.std(data)),
        "variance": float(np.var(data)),
        "mu4": float(np.mean(centred**4)),
        "iqr": iqr,
        "range": float(ordered[-1] - ordered[0]),
        "theta": _empirical_theta(ordered, float(q25), float(q75), iqr / 8.0),
    }


def _empirical_theta(ordered: np.ndarray, q25: float, q75: float, kappa: float) -> float:
    """Least average density over the four width-kappa quartile windows."""
    n = ordered.size
    masses = []
    for quartile in (q25, q75):
        below = np.searchsorted(ordered, [quartile - kappa, quartile], side="left")
        above = np.searchsorted(ordered, [quartile, quartile + kappa], side="right")
        masses.append((below[1] - below[0]) / n)
        masses.append((above[1] - above[0]) / n)
    return max(min(masses), 1.0 / n) / kappa


def quantile_at(ordered: np.ndarray, level: float) -> float:
    return float(np.quantile(ordered, level))


# ---------------------------------------------------------------------------
# the paper's error shapes


def _privacy_sampling(scale: float, n: int, epsilon: float) -> float:
    return scale / math.sqrt(n) + scale / math.sqrt(epsilon * n)


def tolerance(kind: str, n: int, epsilon: float, ref: Mapping[str, float]) -> float:
    """Allowed absolute error of one scalar answer of ``kind``.

    * mean: Theorem 4.9 with k = 2, ``sigma/sqrt(n) + sigma/sqrt(eps n)``;
    * variance: Theorem 5.5 with k = 4, ``sqrt(mu4/n) + sqrt(mu4/(eps n))``;
      where the fourth moment is infinite the paper states no rate, and the
      check asks only for a relative error below one;
    * iqr (and the IQR read off two quantiles): Theorem 6.2,
      ``max(1/(eps n theta), 1/(theta sqrt(n)), IQR/n)``;
    * the Dwork-Lei IQR baseline: its log-scale bins are ``1/ln n`` wide,
      so its error is relative, ``IQR / ln n``.
    """
    if kind == "mean":
        return C_MEAN * _privacy_sampling(ref["sigma"], n, epsilon)
    if kind == "variance":
        if not math.isfinite(ref["mu4"]):
            return ref["variance"]
        return C_VARIANCE * _privacy_sampling(math.sqrt(ref["mu4"]), n, epsilon)
    if kind == "baseline.dwork_lei_iqr":
        return C_BASELINE_IQR * ref["iqr"] / math.log(n)
    if kind == "iqr":
        theta = ref["theta"]
        shape = max(
            1.0 / (epsilon * n * theta),
            1.0 / (theta * math.sqrt(n)),
            ref["iqr"] / n,
        )
        return C_IQR * shape
    raise ValueError(f"no tolerance for kind {kind!r}")


def rank_tolerance(ref: Mapping[str, float], epsilon: float, beta: float,
                   levels: int) -> float:
    """Theorem 3.5 rank error ``(1/eps') log(|X|/beta)`` of one level.

    ``eps'`` is the share of epsilon one level gets (two thirds of the total,
    split evenly over the levels).  ``|X|``, the discretised domain size, is
    the range over the bucket; the bucket is the private IQR lower bound
    over n, so ``|X|`` is taken as ``n**2 * range / IQR``.  Algorithm 2's
    rank clamp, ``(2/eps') log(|X|/beta)``, is part of the same error.
    """
    n = ref["n"]
    per_level = epsilon * (2.0 / 3.0) / levels
    domain = n * n * ref["range"] / ref["iqr"]
    return C_RANK * math.log(domain / beta) / per_level


# ---------------------------------------------------------------------------
# checks


def check_accuracy(outcomes: Iterable[Tuple[str, bool]], beta: float) -> Dict[str, float]:
    """Every kind is within tolerance on at least the ``1 - beta`` share.

    ``outcomes`` holds ``(kind, within_tolerance)`` per answer; returns the
    share within tolerance per kind.
    """
    counts: Dict[str, List[int]] = {}
    for kind, ok in outcomes:
        tally = counts.setdefault(kind, [0, 0])
        tally[0] += int(bool(ok))
        tally[1] += 1
    if not counts:
        raise CheckFailed("no answers to check")
    shares = {kind: within / total for kind, (within, total) in counts.items()}
    short = {kind: share for kind, share in shares.items() if share < 1.0 - beta}
    if short:
        raise CheckFailed(
            f"answers within the paper's bound below the promised {1 - beta:.3f} "
            f"share: {short}"
        )
    return shares


def answer_within(kind: str, value: Any, epsilon: float, beta: float,
                  ref: Mapping[str, Any], levels: Sequence[float] = ()) -> bool:
    """One released answer against its NumPy reference (empirical setting)."""
    n = int(ref["n"])
    if kind == "quantile":
        ordered = ref["ordered"]
        allowed = rank_tolerance(ref, epsilon, beta, len(levels))
        for level, estimate in zip(levels, value):
            rank = np.searchsorted(ordered, estimate)
            if abs(rank - level * n) > allowed:
                return False
        return len(value) == len(levels)
    truth = ref["iqr"] if kind == "baseline.dwork_lei_iqr" else ref[kind]
    return abs(float(value) - truth) <= tolerance(kind, n, epsilon, ref)


def relative_error(kind: str, value: Any, ref: Mapping[str, Any],
                   levels: Sequence[float] = ()) -> float:
    """``|answer - reference| / reference scale`` for the run's record."""
    if kind == "quantile":
        ordered = ref["ordered"]
        return max(
            abs(estimate - quantile_at(ordered, level)) / ref["iqr"]
            for level, estimate in zip(levels, value)
        )
    if kind == "mean":
        return abs(value - ref["mean"]) / ref["sigma"]
    truth = ref["iqr"] if kind == "baseline.dwork_lei_iqr" else ref[kind]
    return abs(value - truth) / truth


def served_accuracy(datasets: Mapping[str, np.ndarray],
                    answered: Iterable[Tuple[Mapping[str, Any], Mapping[str, Any]]],
                    beta: float) -> Dict[str, float]:
    """Check ``(query, answer)`` pairs against NumPy on their datasets.

    Returns the share within tolerance per kind and the median relative
    error (``rel_err_p50``); raises when a kind misses the promised rate.
    """
    refs = {}
    for name, values in datasets.items():
        ref = empirical_stats(values)
        ref["ordered"] = np.sort(values)
        refs[name] = ref
    outcomes, rel_errors = [], []
    for query, answer in answered:
        if answer.get("status") != "ok":
            continue
        kind, epsilon = query["kind"], query["epsilon"]
        levels = query.get("params", {}).get("levels", ())
        ref = refs[query["dataset"]]
        outcomes.append((kind, answer_within(kind, answer["value"], epsilon, beta, ref, levels)))
        rel_errors.append(relative_error(kind, answer["value"], ref, levels))
    shares = check_accuracy(outcomes, beta)
    shares["rel_err_p50"] = float(np.median(rel_errors))
    return shares


def check_ledger(spent: float, charges: Sequence[float], cap: float) -> None:
    """The ledger's spent total is the sum of the charges, within the cap."""
    expected = math.fsum(charges)
    if abs(spent - expected) > SUM_RTOL * max(1.0, abs(expected)):
        raise CheckFailed(f"ledger spent {spent!r} != sum of charges {expected!r}")
    if spent > cap:
        raise CheckFailed(f"ledger spent {spent!r} exceeds its cap {cap!r}")


def check_replay(replayed: Mapping[str, float], live: Mapping[str, float]) -> None:
    """Replaying the audit chain gives every live ledger total bit-for-bit."""
    for owner, spent in live.items():
        if spent == 0.0 and owner not in replayed:
            continue
        if replayed.get(owner) != spent:
            raise CheckFailed(
                f"{owner}: audit replay {replayed.get(owner)!r} != live {spent!r}"
            )
    extra = set(replayed) - set(live)
    if extra:
        raise CheckFailed(f"audit replay has owners the service lacks: {sorted(extra)}")


def check_cached(document: Mapping[str, Any], released: Any) -> None:
    """A repeat is a cache hit, charges nothing and returns the release."""
    if document.get("status") != "ok" or document.get("cached") is not True:
        raise CheckFailed(f"repeat was not a cache hit: {document}")
    if document.get("epsilon_charged") != 0.0:
        raise CheckFailed(f"cache hit charged {document.get('epsilon_charged')!r}")
    if document.get("value") != released:
        raise CheckFailed(
            f"cache hit value {document.get('value')!r} != released {released!r}"
        )


def check_unchanged(before: Any, after: Any, what: str) -> None:
    if before != after:
        raise CheckFailed(f"{what} changed: {before!r} -> {after!r}")


def check_parity(served: Sequence[Any], reference: Sequence[Any], what: str) -> None:
    """Two sequences of answers are identical, bit for bit."""
    if len(served) != len(reference):
        raise CheckFailed(f"{what}: {len(served)} answers vs {len(reference)}")
    for index, (left, right) in enumerate(zip(served, reference)):
        if left != right:
            raise CheckFailed(f"{what}: answer {index} differs: {left!r} != {right!r}")


def check_refused(status: int, document: Mapping[str, Any]) -> None:
    if status != 403 or document.get("status") != "refused":
        raise CheckFailed(f"over-budget query was not refused: {status} {document}")
    if document.get("epsilon_charged") != 0.0:
        raise CheckFailed("a refused query was charged")


# ---------------------------------------------------------------------------
# ground truth of the statistical families, computed with SciPy


def _mixture_quantile(components, weights, level: float) -> float:
    def cdf(x: float) -> float:
        return sum(w * c.cdf(x) for w, c in zip(weights, components)) - level

    low = min(c.ppf(1e-12) for c in components)
    high = max(c.ppf(1 - 1e-12) for c in components)
    return optimize.brentq(cdf, low, high, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def scipy_truth(family: str) -> Dict[str, float]:
    """Mean, variance and IQR of a registered family, from SciPy alone."""
    if family in ("mixture_bimodal", "spike"):
        if family == "mixture_bimodal":
            locs, scales, weights = (-5.0, 5.0), (1.0, 1.0), (0.5, 0.5)
        else:
            locs, scales, weights = (0.0, 0.0), (1.0, 1e-4), (0.9, 0.1)
        components = [stats.norm(loc=m, scale=s) for m, s in zip(locs, scales)]
        mean = sum(w * m for w, m in zip(weights, locs))
        second = sum(w * (s * s + m * m) for w, m, s in zip(weights, locs, scales))
        q25 = _mixture_quantile(components, weights, 0.25)
        q75 = _mixture_quantile(components, weights, 0.75)
        return {"mean": mean, "variance": second - mean * mean, "iqr": q75 - q25}
    frozen = {
        "gaussian": stats.norm(),
        "student_t_3": stats.t(3.0),
        "lognormal": stats.lognorm(1.0),
        "pareto_3": stats.pareto(3.0),
    }[family]
    return {
        "mean": float(frozen.mean()),
        "variance": float(frozen.var()),
        "iqr": float(frozen.ppf(0.75) - frozen.ppf(0.25)),
    }


def check_truth(program: Mapping[str, float], reference: Mapping[str, float],
                family: str) -> None:
    """The program's ground truth agrees with SciPy's to ``TRUTH_TOL``."""
    for name, expected in reference.items():
        got = program[name]
        if not abs(got - expected) <= TRUTH_TOL * max(1.0, abs(expected)):
            raise CheckFailed(
                f"{family} {name}: program truth {got!r} != SciPy {expected!r}"
            )
