"""Each correctness check accepts a good output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import math

import numpy as np
import pytest

import checks
from harness import CheckFailed


@pytest.fixture(scope="module")
def dataset():
    return {"d": np.random.default_rng(7).normal(50.0, 5.0, 20_000)}


def _answers(dataset, shift=0.0):
    """Answers equal to the NumPy statistics, optionally shifted."""
    data = dataset["d"]
    ordered = np.sort(data)
    q25, q75 = np.quantile(data, [0.25, 0.75])
    values = {
        "mean": float(np.mean(data)),
        "variance": float(np.var(data)),
        "iqr": float(q75 - q25),
        "quantile": [float(np.quantile(ordered, level)) for level in (0.1, 0.5, 0.9)],
    }
    answered = []
    for kind, value in values.items():
        query = {"dataset": "d", "kind": kind, "epsilon": 1.0}
        if kind == "quantile":
            query["params"] = {"levels": [0.1, 0.5, 0.9]}
            value = [v + shift for v in value]
        else:
            value = value + shift
        answered.append((query, {"status": "ok", "value": value}))
    return answered


def test_accuracy_accepts_exact_answers(dataset):
    shares = checks.served_accuracy(dataset, _answers(dataset), beta=1 / 3)
    assert all(shares[k] == 1.0 for k in ("mean", "variance", "iqr", "quantile"))


def test_accuracy_rejects_perturbed_answers(dataset):
    with pytest.raises(CheckFailed):
        checks.served_accuracy(dataset, _answers(dataset, shift=25.0), beta=1 / 3)


def test_accuracy_rejects_one_perturbed_kind_at_the_promised_rate():
    outcomes = [("mean", True)] * 6 + [("mean", False)] * 4
    with pytest.raises(CheckFailed):
        checks.check_accuracy(outcomes, beta=1 / 3)
    assert checks.check_accuracy(outcomes[:8], beta=1 / 3)["mean"] == 0.75


def test_ledger_accepts_the_sum_and_rejects_a_double_charge():
    charges = [0.31, 0.5, 0.72, 0.4]
    checks.check_ledger(math.fsum(charges), charges, cap=10.0)
    with pytest.raises(CheckFailed):
        checks.check_ledger(math.fsum(charges + charges[-1:]), charges, cap=10.0)
    with pytest.raises(CheckFailed):
        checks.check_ledger(math.fsum(charges), charges, cap=1.0)


def test_replay_must_equal_the_live_ledger_bit_for_bit():
    live = {"dataset:d": 1.25}
    checks.check_replay({"dataset:d": 1.25}, live)
    with pytest.raises(CheckFailed):
        checks.check_replay({"dataset:d": np.nextafter(1.25, 2.0)}, live)
    with pytest.raises(CheckFailed):
        checks.check_replay({"dataset:d": 1.25, "dataset:e": 0.5}, live)


def test_cluster_answer_must_equal_the_in_process_one():
    reference = [1.5, [0.25, 0.5], 3.0]
    checks.check_parity(list(reference), reference, "parity")
    with pytest.raises(CheckFailed):
        checks.check_parity([1.5, [0.25, 0.5], float(np.nextafter(3.0, 4.0))],
                            reference, "parity")
    with pytest.raises(CheckFailed):
        checks.check_parity(reference[:2], reference, "parity")


def test_cache_hit_must_be_free_and_return_the_release():
    hit = {"status": "ok", "cached": True, "epsilon_charged": 0.0, "value": 2.5}
    checks.check_cached(hit, 2.5)
    for corrupt in ({"value": 2.5000001}, {"cached": False}, {"epsilon_charged": 0.5}):
        with pytest.raises(CheckFailed):
            checks.check_cached({**hit, **corrupt}, 2.5)


def test_over_budget_query_must_be_refused_for_free():
    checks.check_refused(403, {"status": "refused", "epsilon_charged": 0.0})
    with pytest.raises(CheckFailed):
        checks.check_refused(200, {"status": "ok", "epsilon_charged": 9.0})
    with pytest.raises(CheckFailed):
        checks.check_unchanged({"spent": 1.0}, {"spent": 2.0}, "ledger")


@pytest.mark.parametrize("family", ["gaussian", "student_t_3", "lognormal",
                                    "pareto_3", "mixture_bimodal", "spike"])
def test_program_truth_matches_scipy_and_a_1e_6_offset_is_rejected(family):
    from repro.distributions import make_distribution

    distribution = make_distribution(family)
    program = {"mean": distribution.mean, "variance": distribution.variance,
               "iqr": distribution.iqr}
    reference = checks.scipy_truth(family)
    checks.check_truth(program, reference, family)
    with pytest.raises(CheckFailed):
        checks.check_truth({**program, "iqr": program["iqr"] + 1e-6}, reference, family)
