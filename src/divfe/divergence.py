"""Class-separability analysis of feature-extractor outputs.

The criterion is tr(S^-1 B): within-class scatter S (sum over classes of the
per-class covariance, normalized by the class sample count) against
between-class scatter B (covariance of the class centers, normalized by the
class count). Tight classes spread far apart score high.

Centers come either from the assigned Walsh codebook rows (default) or from
the empirical class means of the outputs (diagnostic mode).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ContractError
from .walsh import WalshCodebook

RIDGE_SCALE = 1e-6


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class ScatterReport:
    within: np.ndarray
    between: np.ndarray
    divergence: float
    ridge: float


def within_class_scatter(outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """S = sum over classes of the mean-centered covariance of that class.

    Per-class covariance is normalized by the class sample count; each
    present class needs at least 2 samples.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    labels = np.asarray(labels)
    if outputs.ndim != 2 or outputs.shape[0] != labels.shape[0]:
        raise ContractError(f"outputs {outputs.shape} incompatible with labels {labels.shape}")
    dim = outputs.shape[1]
    scatter = np.zeros((dim, dim))
    for cls in np.unique(labels):
        members = outputs[labels == cls]
        if members.shape[0] < 2:
            raise InsufficientDataError(f"class {cls} has {members.shape[0]} sample(s); need >= 2")
        centered = members - members.mean(axis=0)
        scatter += centered.T @ centered / members.shape[0]
    return scatter


def between_class_scatter(means: np.ndarray) -> np.ndarray:
    """B = (1/C) * sum_k (mu_k - mu_bar)(mu_k - mu_bar)^T over class centers."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] < 2:
        raise ContractError("between-class scatter needs at least 2 class centers")
    centered = means - means.mean(axis=0)
    return centered.T @ centered / means.shape[0]


def default_ridge(within: np.ndarray) -> float:
    """1e-6 * tr(S)/M, floored to keep a zero scatter matrix invertible."""
    dim = within.shape[0]
    return max(RIDGE_SCALE * float(np.trace(within)) / dim, 1e-12)


def divergence_value(within: np.ndarray, between: np.ndarray,
                     ridge: float | None = None) -> float:
    """tr((S + ridge*I)^-1 B) via a symmetric solve; no explicit inverse."""
    within = np.asarray(within, dtype=np.float64)
    between = np.asarray(between, dtype=np.float64)
    if within.shape != between.shape or within.ndim != 2:
        raise ContractError(f"shape mismatch: S {within.shape} vs B {between.shape}")
    if not np.allclose(within, within.T) or not np.allclose(between, between.T):
        raise ContractError("scatter matrices must be symmetric")
    if ridge is None:
        ridge = default_ridge(within)
    ridged = within + ridge * np.eye(within.shape[0])
    try:
        chol = np.linalg.cholesky(ridged)
    except np.linalg.LinAlgError as exc:
        raise ContractError("within-class scatter is not positive definite "
                            "after ridging") from exc
    half = np.linalg.solve(chol, between)
    solved = np.linalg.solve(chol.T, half)
    return float(np.trace(solved))


def analyze(outputs: np.ndarray, labels: np.ndarray, codebook: WalshCodebook,
            mode: str = "paper", ridge: float | None = None) -> ScatterReport:
    """Full scatter report for a set of feature-extractor outputs.

    ``paper`` mode takes class centers from the codebook rows of the classes
    present in ``labels``; ``empirical`` uses the per-class output means.
    """
    if mode not in ("paper", "empirical"):
        raise ContractError(f"unknown mode {mode!r}")
    outputs = np.asarray(outputs, dtype=np.float64)
    labels = np.asarray(labels)
    present = np.unique(labels)
    if present.size < 2:
        raise InsufficientDataError("divergence needs at least 2 classes")
    s = within_class_scatter(outputs, labels)
    if mode == "paper":
        if present[-1] >= codebook.class_count:
            raise ContractError(f"label {present[-1]} has no codebook row")
        means = codebook.targets()[present]
    else:
        means = np.stack([outputs[labels == cls].mean(axis=0) for cls in present])
    b = between_class_scatter(means)
    if ridge is None:
        ridge = default_ridge(s)
    value = divergence_value(s, b, ridge)
    return ScatterReport(within=s, between=b, divergence=value, ridge=ridge)
