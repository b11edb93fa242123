"""Sigmoid-based cell density / overlap model (paper eq. (2), from [14]).

``D(x, y) = Σ_{i<j} O_x(c_i, c_j) · O_y(c_i, c_j)`` where ``O_x`` is a
sigmoid overlap indicator along x.  With half-extent ``h = (w̃_i + w̃_j)/2``
(``w̃`` the *virtual* width — physical width times the routing-space factor
ω of Sec. 3.5) and center distance ``Δ``::

    O_x = σ((h - |Δ|)/τ) = 1 / (1 + exp((|Δ| - h)/τ))

``O_x ≈ 1`` when the intervals overlap and → 0 when they are separated; τ
controls the transition sharpness.  |Δ| is smoothed as ``sqrt(Δ² + ε)`` so
the gradient is defined at coincident centers.

For small designs every pair is evaluated, so the pair set does not depend
on position and :class:`~repro.physical.placement.objective.PlacementObjective`
builds it once (:func:`fixed_pairs`); beyond
:data:`~repro.physical.placement.spatial.PAIRWISE_LIMIT` cells the pair
set is pruned by spatial binning at every evaluation (sigmoid tails beyond
the interaction cutoff are numerically zero, so the pruning is lossless in
practice).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.special

from repro.physical.placement.spatial import PAIRWISE_LIMIT, candidate_pairs

_EPSILON = 1e-6

#: Sigmoid cutoff margin in units of τ: σ(-8) ≈ 3e-4.
_CUTOFF_TAUS = 8.0


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")


def _sigmoid(
    delta: np.ndarray, half_extent: np.ndarray, tau: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(σ((h - |Δ|)/τ), |Δ|)`` with the smoothed ``|Δ| = sqrt(Δ² + ε)``."""
    soft_abs = np.sqrt(delta * delta + _EPSILON)
    return scipy.special.expit((half_extent - soft_abs) / tau), soft_abs


def sigmoid_overlap(delta: np.ndarray, half_extent: np.ndarray, tau: float) -> np.ndarray:
    """Smooth overlap indicator ``σ((h - |Δ|)/τ)`` (vectorized)."""
    _check_tau(tau)
    return _sigmoid(delta, half_extent, tau)[0]


class PairSet(NamedTuple):
    """Cell pairs ``ii < jj`` with their summed half-extents.

    ``index`` is ``[ii; jj; ii + n; jj + n]``: the scatter index of the
    packed ``[x; y]`` gradient, one ``np.bincount`` for both axes.
    """

    ii: np.ndarray
    jj: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    index: np.ndarray


def _pair_set(ii: np.ndarray, jj: np.ndarray, half_w: np.ndarray, half_h: np.ndarray) -> PairSet:
    n = half_w.shape[0]
    return PairSet(
        ii, jj, half_w[ii] + half_w[jj], half_h[ii] + half_h[jj],
        np.concatenate([ii, jj, ii + n, jj + n]),
    )


def fixed_pairs(half_w: np.ndarray, half_h: np.ndarray) -> Optional[PairSet]:
    """Every pair, when the design is small enough to evaluate them all.

    ``None`` beyond :data:`PAIRWISE_LIMIT` cells, where the pair set is
    pruned by position and must be rebuilt for each placement.
    """
    n = half_w.shape[0]
    if n > PAIRWISE_LIMIT:
        return None
    ii, jj = np.triu_indices(n, k=1)
    return _pair_set(ii, jj, half_w, half_h)


def near_pairs(
    x: np.ndarray,
    y: np.ndarray,
    half_w: np.ndarray,
    half_h: np.ndarray,
    margin: float,
) -> PairSet:
    """Pairs to evaluate: full triangle for small n, binned beyond the limit."""
    pairs = fixed_pairs(half_w, half_h)
    if pairs is not None:
        return pairs
    reach = np.maximum(half_w, half_h) + margin / 2.0
    ii, jj = candidate_pairs(x, y, reach)
    return _pair_set(ii, jj, half_w, half_h)


def cutoff_margin(tau: float) -> float:
    """Pair-pruning margin of the density model: beyond it σ is negligible."""
    return _CUTOFF_TAUS * tau


def pair_density(
    x: np.ndarray,
    y: np.ndarray,
    pairs: PairSet,
    tau: float,
    with_grad: bool,
) -> Tuple[float, Optional[np.ndarray]]:
    """``D`` over ``pairs`` and, if asked, its packed ``[∂x; ∂y]`` gradient."""
    if pairs.ii.size == 0:  # bincount of nothing would be integer zeros
        return 0.0, (np.zeros(2 * x.shape[0]) if with_grad else None)
    dx = x[pairs.ii] - x[pairs.jj]
    dy = y[pairs.ii] - y[pairs.jj]
    ox, soft_abs_x = _sigmoid(dx, pairs.hx, tau)
    oy, soft_abs_y = _sigmoid(dy, pairs.hy, tau)
    value = float(np.sum(ox * oy))
    if not with_grad:
        return value, None
    # dσ/dΔ = -σ(1-σ)/τ · d|Δ|/dΔ with d|Δ|/dΔ = Δ / sqrt(Δ²+ε).
    dox = -(ox * (1.0 - ox) / tau) * (dx / soft_abs_x)
    doy = -(oy * (1.0 - oy) / tau) * (dy / soft_abs_y)
    gx_pair = dox * oy
    gy_pair = doy * ox
    # bincount adds in index order (ii, then jj, per axis): each cell's
    # sum is taken in one fixed order, so gradients are reproducible bits.
    grad = np.bincount(
        pairs.index,
        np.concatenate([gx_pair, -gx_pair, gy_pair, -gy_pair]),
        minlength=2 * x.shape[0],
    )
    return value, grad


def density_value_and_grad(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    tau: float,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Pairwise sigmoid density ``D`` and its gradient.

    Parameters
    ----------
    widths / heights:
        The *virtual* cell dimensions (ω already applied by the caller).
    tau:
        Sigmoid smoothing length in µm.

    Returns
    -------
    (value, grad_x, grad_y)
    """
    _check_tau(tau)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    pairs = near_pairs(x, y, half_w, half_h, cutoff_margin(tau))
    value, grad = pair_density(x, y, pairs, tau, with_grad=True)
    n = x.shape[0]
    return value, grad[:n], grad[n:]


def pair_overlap(x: np.ndarray, y: np.ndarray, pairs: PairSet) -> float:
    """Exact rectangle-overlap area summed over ``pairs``."""
    ox = np.maximum(0.0, pairs.hx - np.abs(x[pairs.ii] - x[pairs.jj]))
    oy = np.maximum(0.0, pairs.hy - np.abs(y[pairs.ii] - y[pairs.jj]))
    return float(np.sum(ox * oy))


def true_overlap(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> float:
    """Exact total pairwise rectangle-overlap area (the loop's stop metric)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    # margin 0: overlapping rectangles always sit within reach of each other.
    return pair_overlap(x, y, near_pairs(x, y, half_w, half_h, margin=0.0))
