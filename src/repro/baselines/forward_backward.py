"""Classical forward-backward smoothing for the hierarchical HMM of Sec. 2.2.

Used as an independent ground truth against which SPPL's symbolic smoothing
(conditioning the translated sum-product expression on the observations and
querying each hidden state) is validated in the test suite and benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict
from typing import List
from typing import Sequence

import numpy as np


def _log_observation(x: float, y: float, mu_x: float, mu_y: float) -> float:
    # The oracle keeps scipy.stats' own densities, independent of the leaf
    # family table; imported here so importing the baselines stays cheap.
    from scipy import stats

    return float(stats.norm(mu_x, 1.0).logpdf(x)) + float(stats.poisson(mu_y).logpmf(y))


def _forward_backward_single(
    xs: Sequence[float],
    ys: Sequence[float],
    p_initial: Sequence[float],
    p_transition: Sequence[float],
    mu_x: Sequence[float],
    mu_y: Sequence[float],
):
    """Forward-backward for a two-state HMM with Normal+Poisson emissions.

    ``p_transition[z]`` is the probability of transitioning *to state 1*
    from state ``z``.  Returns (log evidence, posterior marginals of Z_t=1).
    """
    n = len(xs)
    log_emission = np.zeros((n, 2))
    for t in range(n):
        for z in (0, 1):
            log_emission[t, z] = _log_observation(xs[t], ys[t], mu_x[z], mu_y[z])

    log_transition = np.zeros((2, 2))
    for z_prev in (0, 1):
        log_transition[z_prev, 1] = math.log(p_transition[z_prev])
        log_transition[z_prev, 0] = math.log(1.0 - p_transition[z_prev])

    log_alpha = np.zeros((n, 2))
    log_alpha[0] = [math.log(p_initial[z]) + log_emission[0, z] for z in (0, 1)]
    for t in range(1, n):
        for z in (0, 1):
            log_alpha[t, z] = log_emission[t, z] + np.logaddexp(
                log_alpha[t - 1, 0] + log_transition[0, z],
                log_alpha[t - 1, 1] + log_transition[1, z],
            )

    log_beta = np.zeros((n, 2))
    for t in range(n - 2, -1, -1):
        for z in (0, 1):
            log_beta[t, z] = np.logaddexp(
                log_transition[z, 0] + log_emission[t + 1, 0] + log_beta[t + 1, 0],
                log_transition[z, 1] + log_emission[t + 1, 1] + log_beta[t + 1, 1],
            )

    log_evidence = np.logaddexp(log_alpha[n - 1, 0], log_alpha[n - 1, 1])
    posteriors = []
    for t in range(n):
        log_joint = log_alpha[t] + log_beta[t]
        norm = np.logaddexp(log_joint[0], log_joint[1])
        posteriors.append(float(np.exp(log_joint[1] - norm)))
    return float(log_evidence), posteriors


def hmm_smoothing_forward_backward(
    xs: Sequence[float],
    ys: Sequence[float],
    p_separated: float = 0.4,
    p_initial: Sequence[float] = (0.5, 0.5),
    p_transition: Sequence[float] = (0.2, 0.8),
    mu_x: Sequence[Sequence[float]] = ((5.0, 7.0), (5.0, 15.0)),
    mu_y: Sequence[Sequence[float]] = ((5.0, 8.0), (3.0, 8.0)),
) -> Dict[str, object]:
    """Exact smoothing in the hierarchical HMM by marginalizing ``separated``.

    Returns the posterior marginals ``P(Z_t = 1 | x, y)`` and the posterior
    probability of ``separated = 1``.
    """
    results: List[Dict[str, object]] = []
    for separated in (0, 1):
        log_evidence, posteriors = _forward_backward_single(
            xs, ys, p_initial, p_transition, mu_x[separated], mu_y[separated]
        )
        log_prior = math.log(p_separated if separated == 1 else 1.0 - p_separated)
        results.append(
            {"log_joint": log_evidence + log_prior, "posteriors": posteriors}
        )

    log_total = np.logaddexp(results[0]["log_joint"], results[1]["log_joint"])
    weights = [math.exp(r["log_joint"] - log_total) for r in results]
    n = len(xs)
    smoothed = [
        weights[0] * results[0]["posteriors"][t] + weights[1] * results[1]["posteriors"][t]
        for t in range(n)
    ]
    return {
        "smoothed": smoothed,
        "p_separated": weights[1],
        "log_evidence": float(log_total),
    }
