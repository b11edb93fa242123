"""The penalty objective ``WL(x, y) + λ·D(x, y)`` of Algorithm 4."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.physical.placement.density import (
    PairSet,
    cutoff_margin,
    fixed_pairs,
    near_pairs,
    pair_density,
    pair_overlap,
)
from repro.physical.placement.wirelength import wa_terms, wire_index


class PlacementObjective:
    """Objective bundling wirelength and density terms.

    Operates on a packed variable vector ``z = [x; y]`` so generic
    optimizers can consume it.  Everything that does not depend on
    position — the wire scatter index and, up to ``PAIRWISE_LIMIT`` cells,
    the density pair set with its half-extents — is built once here.

    Parameters
    ----------
    sources, targets, weights:
        2-pin wire endpoint arrays and user wire weights.
    virtual_widths, virtual_heights:
        Cell dimensions with the routing-space factor ω applied.
    gamma:
        WA smoothness (µm).
    tau:
        Density sigmoid smoothing (µm).
    """

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        virtual_widths: np.ndarray,
        virtual_heights: np.ndarray,
        gamma: float,
        tau: float,
    ) -> None:
        if gamma <= 0 or tau <= 0:
            raise ValueError("gamma and tau must be > 0")
        self.sources = np.asarray(sources, dtype=int)
        self.targets = np.asarray(targets, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        self.virtual_widths = np.asarray(virtual_widths, dtype=float)
        self.virtual_heights = np.asarray(virtual_heights, dtype=float)
        self.gamma = float(gamma)
        self.tau = float(tau)
        self.lam = 0.0
        self.n = self.virtual_widths.shape[0]
        self._wire_index = wire_index(self.sources, self.targets, self.n)
        self._half_w = self.virtual_widths / 2.0
        self._half_h = self.virtual_heights / 2.0
        self._pairs = fixed_pairs(self._half_w, self._half_h)
        # Evaluation tallies: plain attribute adds in the optimizer's hot
        # loop; the placer reports them to the observability recorder once
        # per place() call.  ``wa_evals``/``density_evals`` count the points
        # at which a term was evaluated, ``gradient_evals`` the points at
        # which the gradient was computed as well.
        self.wa_evals = 0
        self.density_evals = 0
        self.gradient_evals = 0

    # ------------------------------------------------------------------
    def unpack(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a packed variable vector into (x, y)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * self.n,):
            raise ValueError(f"z must have shape ({2 * self.n},), got {z.shape}")
        return z[: self.n], z[self.n :]

    def pack(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Concatenate (x, y) into the packed variable vector."""
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])

    def _pairs_at(self, x: np.ndarray, y: np.ndarray, margin: float) -> PairSet:
        if self._pairs is not None:
            return self._pairs
        return near_pairs(x, y, self._half_w, self._half_h, margin)

    def _wirelength(
        self, x: np.ndarray, y: np.ndarray, with_grad: bool
    ) -> Tuple[float, Optional[np.ndarray]]:
        index = self._wire_index if with_grad else None
        return wa_terms(x, y, self.sources, self.targets, self.weights, self.gamma, index)

    def _density(
        self, x: np.ndarray, y: np.ndarray, with_grad: bool
    ) -> Tuple[float, Optional[np.ndarray]]:
        pairs = self._pairs_at(x, y, cutoff_margin(self.tau))
        return pair_density(x, y, pairs, self.tau, with_grad)

    def _evaluate(
        self, z: np.ndarray, with_grad: bool, new_point: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        if new_point:
            self.wa_evals += 1
            if self.lam != 0.0:
                self.density_evals += 1
        if with_grad:
            self.gradient_evals += 1
        x, y = self.unpack(z)
        wl, wl_grad = self._wirelength(x, y, with_grad)
        if self.lam == 0.0:
            return wl, wl_grad
        d, d_grad = self._density(x, y, with_grad)
        if not with_grad:
            return wl + self.lam * d, None
        return wl + self.lam * d, wl_grad + self.lam * d_grad

    # ------------------------------------------------------------------
    def wirelength_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """WA wirelength term and its packed gradient."""
        self.wa_evals += 1
        return self._wirelength(*self.unpack(z), with_grad=True)

    def density_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Density term and its packed gradient."""
        self.density_evals += 1
        return self._density(*self.unpack(z), with_grad=True)

    def value(self, z: np.ndarray) -> float:
        """``WL + λ·D`` at the current λ, without the gradient."""
        return self._evaluate(z, with_grad=False)[0]

    def value_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """``WL + λ·D`` with gradient, at the current λ."""
        return self._evaluate(z, with_grad=True)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Gradient of ``WL + λ·D`` at a point whose :meth:`value` is known.

        Not counted as a new point: the value it recomputes on the way is
        bit-identical to the one :meth:`value` returned there.
        """
        return self._evaluate(z, with_grad=True, new_point=False)[1]

    def __call__(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        return self.value_and_grad(z)

    def overlap(self, z: np.ndarray) -> float:
        """Exact total rectangle-overlap area of the (virtual) cells at ``z``."""
        x, y = self.unpack(z)
        # margin 0: overlapping rectangles always sit within reach of each other.
        return pair_overlap(x, y, self._pairs_at(x, y, margin=0.0))

    # ------------------------------------------------------------------
    def initial_lambda(self, z: np.ndarray) -> float:
        """Algorithm 4 line 1: ``λ0 = Σ|∂WL| / Σ|∂D|``."""
        _, wl_grad = self.wirelength_and_grad(z)
        _, d_grad = self.density_and_grad(z)
        self.gradient_evals += 1
        denominator = float(np.sum(np.abs(d_grad)))
        numerator = float(np.sum(np.abs(wl_grad)))
        if denominator <= 1e-12:
            return 1.0
        return numerator / denominator
