"""Weighted-average (WA) wirelength model (paper eq. (1), from [13]).

HPWL is nonconvex and non-differentiable, so the placer minimizes the WA
approximation instead.  For a wire ``e`` with pin coordinates ``x_v`` the
smooth max/min estimates are::

    max ≈ Σ x·exp(x/γ) / Σ exp(x/γ)      min ≈ Σ x·exp(-x/γ) / Σ exp(-x/γ)

and ``WL = Σ_e w_e [ (max_x - min_x) + (max_y - min_y) ]`` with user wire
weights ``w_e``.  γ controls smoothness: WA → HPWL as γ → 0.

All wires in the AutoNCS netlist are 2-pin, so the implementation is
vectorized over wire endpoint arrays; exponent stabilization (subtracting
the per-wire max) keeps it finite for any coordinate range.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def hpwl(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Exact (weighted) half-perimeter wirelength for 2-pin wires."""
    dx = np.abs(x[sources] - x[targets])
    dy = np.abs(y[sources] - y[targets])
    if weights is None:
        return float(np.sum(dx + dy))
    return float(np.sum(weights * (dx + dy)))


def _wa_axis(
    a: np.ndarray, b: np.ndarray, gamma: float, with_grad: bool
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-wire WA span along one axis plus gradients w.r.t. the two pins.

    Returns ``(span, d_span/da, d_span/db)`` for 2-pin wires with pin
    coordinates ``a`` and ``b``; the gradients are ``None`` unless asked.
    """
    # Smooth-max part: stabilized by the per-wire max.
    m = np.maximum(a, b)
    ea = np.exp((a - m) / gamma)
    eb = np.exp((b - m) / gamma)
    denom_max = ea + eb
    smooth_max = (a * ea + b * eb) / denom_max
    # Smooth-min part: stabilized by the per-wire min.
    mn = np.minimum(a, b)
    fa = np.exp((mn - a) / gamma)
    fb = np.exp((mn - b) / gamma)
    denom_min = fa + fb
    smooth_min = (a * fa + b * fb) / denom_min
    span = smooth_max - smooth_min
    if not with_grad:
        return span, None, None
    # d smooth_max / d a = (ea/denom)·[1 + (a - smooth_max)/γ]
    dmax_da = (ea / denom_max) * (1.0 + (a - smooth_max) / gamma)
    dmax_db = (eb / denom_max) * (1.0 + (b - smooth_max) / gamma)
    # d smooth_min / d a = (fa/denom)·[1 - (a - smooth_min)/γ]
    dmin_da = (fa / denom_min) * (1.0 - (a - smooth_min) / gamma)
    dmin_db = (fb / denom_min) * (1.0 - (b - smooth_min) / gamma)
    return span, dmax_da - dmin_da, dmax_db - dmin_db


def wire_index(sources: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Scatter index ``[s; t; s + n; t + n]`` of the packed ``[x; y]`` gradient."""
    return np.concatenate([sources, targets, sources + n, targets + n])


def wa_terms(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    gamma: float,
    index: Optional[np.ndarray],
) -> Tuple[float, Optional[np.ndarray]]:
    """WA wirelength and, when ``index`` (see :func:`wire_index`) is given,
    its packed ``[∂x; ∂y]`` gradient with pin gradients scattered onto cells."""
    with_grad = index is not None
    if sources.size == 0:  # bincount of nothing would be integer zeros
        return 0.0, (np.zeros(2 * x.shape[0]) if with_grad else None)
    span_x, dxa, dxb = _wa_axis(x[sources], x[targets], gamma, with_grad)
    span_y, dya, dyb = _wa_axis(y[sources], y[targets], gamma, with_grad)
    value = float(np.sum(weights * (span_x + span_y)))
    if not with_grad:
        return value, None
    # bincount adds in index order (sources, then targets, per axis):
    # each cell's sum is taken in one fixed order.
    grad = np.bincount(
        index,
        np.concatenate([weights * dxa, weights * dxb, weights * dya, weights * dyb]),
        minlength=2 * x.shape[0],
    )
    return value, grad


def _checked_wa(x, y, sources, targets, weights, gamma, with_grad):
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sources = np.asarray(sources, dtype=int)
    targets = np.asarray(targets, dtype=int)
    weights = np.asarray(weights, dtype=float)
    index = wire_index(sources, targets, x.shape[0]) if with_grad else None
    return wa_terms(x, y, sources, targets, weights, gamma, index)


def wa_wirelength(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    gamma: float,
) -> float:
    """Weighted WA wirelength (eq. 1) over all 2-pin wires."""
    return _checked_wa(x, y, sources, targets, weights, gamma, with_grad=False)[0]


def wa_wirelength_and_grad(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    gamma: float,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """WA wirelength plus its gradient w.r.t. all cell coordinates.

    Returns ``(value, grad_x, grad_y)`` where the gradients have one entry
    per cell (pin gradients scattered back onto cells).
    """
    value, grad = _checked_wa(x, y, sources, targets, weights, gamma, with_grad=True)
    n = grad.shape[0] // 2
    return value, grad[:n], grad[n:]
