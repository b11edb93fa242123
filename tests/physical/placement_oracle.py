"""Reference formulas of the placement objective, kept as the tests' oracle.

These are the straightforward forms the optimized objective must match
bit for bit: the soft-abs ``sqrt`` computed separately for the value and
the gradient, pair indices rebuilt on every call, and the per-axis
``np.add.at`` scatters.  Imported by the bitwise tests; not collected.
"""

import numpy as np
import scipy.special

from repro.physical.placement.spatial import candidate_pairs

EPSILON = 1e-6
CUTOFF_TAUS = 8.0


def pairs(x, y, widths, heights, margin, binned):
    """Full upper triangle, or the spatially binned candidates."""
    n = x.shape[0]
    if not binned:
        return np.triu_indices(n, k=1)
    reach = np.maximum(widths / 2.0, heights / 2.0) + margin / 2.0
    return candidate_pairs(x, y, reach)


def sigmoid_overlap(delta, half_extent, tau):
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    soft_abs = np.sqrt(delta * delta + EPSILON)
    return scipy.special.expit((half_extent - soft_abs) / tau)


def density(x, y, widths, heights, tau, binned=False):
    """``(value, grad_x, grad_y)`` of the sigmoid pair density."""
    grad_x = np.zeros_like(x)
    grad_y = np.zeros_like(y)
    if x.shape[0] < 2:
        return 0.0, grad_x, grad_y
    half_w = widths / 2.0
    half_h = heights / 2.0
    ii, jj = pairs(x, y, widths, heights, CUTOFF_TAUS * tau, binned)
    if ii.size == 0:
        return 0.0, grad_x, grad_y
    dx = x[ii] - x[jj]
    dy = y[ii] - y[jj]
    ox = sigmoid_overlap(dx, half_w[ii] + half_w[jj], tau)
    oy = sigmoid_overlap(dy, half_h[ii] + half_h[jj], tau)
    value = float(np.sum(ox * oy))
    soft_abs_x = np.sqrt(dx * dx + EPSILON)
    soft_abs_y = np.sqrt(dy * dy + EPSILON)
    dox = -(ox * (1.0 - ox) / tau) * (dx / soft_abs_x)
    doy = -(oy * (1.0 - oy) / tau) * (dy / soft_abs_y)
    gx_pair = dox * oy
    gy_pair = doy * ox
    np.add.at(grad_x, ii, gx_pair)
    np.add.at(grad_x, jj, -gx_pair)
    np.add.at(grad_y, ii, gy_pair)
    np.add.at(grad_y, jj, -gy_pair)
    return value, grad_x, grad_y


def overlap(x, y, widths, heights, binned=False):
    """Exact total pairwise rectangle-overlap area."""
    if x.shape[0] < 2:
        return 0.0
    half_w = widths / 2.0
    half_h = heights / 2.0
    ii, jj = pairs(x, y, widths, heights, 0.0, binned)
    if ii.size == 0:
        return 0.0
    ox = np.maximum(0.0, half_w[ii] + half_w[jj] - np.abs(x[ii] - x[jj]))
    oy = np.maximum(0.0, half_h[ii] + half_h[jj] - np.abs(y[ii] - y[jj]))
    return float(np.sum(ox * oy))


def _wa_axis(a, b, gamma):
    m = np.maximum(a, b)
    ea = np.exp((a - m) / gamma)
    eb = np.exp((b - m) / gamma)
    denom_max = ea + eb
    smooth_max = (a * ea + b * eb) / denom_max
    mn = np.minimum(a, b)
    fa = np.exp((mn - a) / gamma)
    fb = np.exp((mn - b) / gamma)
    denom_min = fa + fb
    smooth_min = (a * fa + b * fb) / denom_min
    span = smooth_max - smooth_min
    dmax_da = (ea / denom_max) * (1.0 + (a - smooth_max) / gamma)
    dmax_db = (eb / denom_max) * (1.0 + (b - smooth_max) / gamma)
    dmin_da = (fa / denom_min) * (1.0 - (a - smooth_min) / gamma)
    dmin_db = (fb / denom_min) * (1.0 - (b - smooth_min) / gamma)
    return span, dmax_da - dmin_da, dmax_db - dmin_db


def wirelength(x, y, sources, targets, weights, gamma):
    """``(value, grad_x, grad_y)`` of the weighted WA wirelength."""
    grad_x = np.zeros_like(x)
    grad_y = np.zeros_like(y)
    if sources.size == 0:
        return 0.0, grad_x, grad_y
    span_x, dxa, dxb = _wa_axis(x[sources], x[targets], gamma)
    span_y, dya, dyb = _wa_axis(y[sources], y[targets], gamma)
    value = float(np.sum(weights * (span_x + span_y)))
    np.add.at(grad_x, sources, weights * dxa)
    np.add.at(grad_x, targets, weights * dxb)
    np.add.at(grad_y, sources, weights * dya)
    np.add.at(grad_y, targets, weights * dyb)
    return value, grad_x, grad_y


def objective(x, y, sources, targets, weights, widths, heights, gamma, tau, lam,
              binned=False):
    """``(value, packed gradient)`` of ``WL + λ·D``."""
    wl, wgx, wgy = wirelength(x, y, sources, targets, weights, gamma)
    wl_grad = np.concatenate([wgx, wgy])
    if lam == 0.0:
        return wl, wl_grad
    d, dgx, dgy = density(x, y, widths, heights, tau, binned)
    return wl + lam * d, wl_grad + lam * np.concatenate([dgx, dgy])
