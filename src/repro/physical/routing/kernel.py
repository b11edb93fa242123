"""Native-speed maze-routing kernel (the ROADMAP "routing hot path" item).

The windowed A* of :mod:`repro.physical.routing.maze` dominates routing
time at scale (the ``routing.heap_pops`` and ``routing.visited_bins``
counters), and the negotiated router roughly doubles searches through
rip-up retries.  This
module rewrites that inner loop as a batched kernel over the existing
:class:`~repro.physical.routing.maze.MazeWorkspace` float64 arrays:

* flat int32 node indexing into preallocated binary-heap arrays
  (``heap_f``/``heap_n``) instead of ``heapq`` tuples,
* fused cost + history + present evaluation inside the expansion (no
  per-neighbour Python/numpy scalar reads),
* a **batched multi-wire mode**: all independent searches of one routing
  pass (the ordered first pass, a relax round, or one rip-up iteration of
  the negotiated router) run in a *single* kernel invocation, with path
  commits applied between wires inside the kernel so sequential semantics
  are preserved exactly.

When Numba is importable the kernel is ``njit``-compiled (that is the
``kernel="numba"`` / ``kernel="auto"`` path of
:class:`~repro.physical.routing.router.RoutingConfig`); Numba stays an
**optional** dependency — without it ``"auto"`` falls back to the pure
Python reference implementation and ``"numba"`` raises
:class:`KernelUnavailableError`.

Parity contract (DESIGN.md "Routing kernel parity")
---------------------------------------------------
The kernel must produce **bit-identical** paths, edge usage, counters and
wirelength to the reference on every input.  Two properties make that
achievable:

1. every cost is computed in float64 with the *same expression order* as
   the reference (IEEE 754 makes the results bit-equal), and
2. the manual binary heap replicates CPython's ``heapq`` sift algorithms
   (``_siftdown``/``_siftup``) with the exact ``(priority, node)``
   lexicographic comparison, so the pop order — which decides every
   tie-break — matches tuple-heap behaviour exactly.

The differential suite ``tests/physical/test_kernel_parity.py`` enforces
the contract on the paper testbenches and on hypothesis-generated grids;
:func:`interpreted_kernel` lets those tests drive the *same* kernel code
uncompiled, so the contract is checked even where Numba is absent.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.physical.routing.grid import BinCoord, RoutingGrid

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.physical.routing.maze import MazeWorkspace

__all__ = [
    "KERNEL_CHOICES",
    "KernelUnavailableError",
    "NUMBA_AVAILABLE",
    "interpreted_kernel",
    "kernel_available",
    "resolve_kernel",
    "route_wires_kernel",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the common case in minimal installs
    _numba = None
    NUMBA_AVAILABLE = False

#: Valid values of ``RoutingConfig.kernel`` / the ``--kernel`` flag.
KERNEL_CHOICES = ("auto", "numba", "python")

#: Wire status codes returned by the batch kernel.
_STATUS_FAILED = 0
_STATUS_ROUTED = 1
_STATUS_OVERFLOWED = 2

#: When True (tests only), dispatch runs the kernel uncompiled.
_FORCE_INTERPRETED = False


class KernelUnavailableError(RuntimeError):
    """``kernel="numba"`` was requested but Numba is not installed."""


def _make_kernels(jit):
    """Build the kernel call graph under ``jit`` (njit or identity).

    One factory produces both the compiled and the interpreted variant
    from the *same* source, so the parity tests exercise exactly the
    code that ships compiled.
    """

    @jit
    def _heap_push(heap_f, heap_n, size, f, node):
        # heapq.heappush: append, then _siftdown(heap, 0, len(heap)-1).
        # Comparison is the (f, node) tuple order: f first, node breaks
        # ties — identical to the reference's (priority, flat) tuples.
        pos = size
        while pos > 0:
            parent = (pos - 1) >> 1
            pf = heap_f[parent]
            pn = heap_n[parent]
            if f < pf or (f == pf and node < pn):
                heap_f[pos] = pf
                heap_n[pos] = pn
                pos = parent
            else:
                break
        heap_f[pos] = f
        heap_n[pos] = node
        return size + 1

    @jit
    def _heap_pop(heap_f, heap_n, size):
        # heapq.heappop: take the last element, place it at the root and
        # _siftup (move the smaller child up until a leaf, then
        # _siftdown back) — replicated exactly so equal-priority pops
        # come out in the same order as the tuple heap.
        top_f = heap_f[0]
        top_n = heap_n[0]
        size -= 1
        last_f = heap_f[size]
        last_n = heap_n[size]
        if size > 0:
            pos = 0
            child = 1
            while child < size:
                right = child + 1
                cf = heap_f[child]
                cn = heap_n[child]
                if right < size:
                    rf = heap_f[right]
                    rn = heap_n[right]
                    if not (cf < rf or (cf == rf and cn < rn)):
                        child = right
                        cf = rf
                        cn = rn
                heap_f[pos] = cf
                heap_n[pos] = cn
                pos = child
                child = 2 * pos + 1
            while pos > 0:
                parent = (pos - 1) >> 1
                pf = heap_f[parent]
                pn = heap_n[parent]
                if last_f < pf or (last_f == pf and last_n < pn):
                    heap_f[pos] = pf
                    heap_n[pos] = pn
                    pos = parent
                else:
                    break
            heap_f[pos] = last_f
            heap_n[pos] = last_n
        return top_f, top_n, size

    @jit
    def _search(
        start_flat, goal_flat, gx, gy,
        lo_x, hi_x, lo_y, hi_y,
        ny, theta,
        congestion_weight, allow_overflow, overflow_penalty,
        present_weight, negotiated,
        h_usage, v_usage, h_capacity, v_capacity,
        h_history, v_history,
        g_score, parent_arr, stamp, closed,
        epoch,
        heap_f, heap_n,
        stats,
    ):
        # One windowed A* — the kernel twin of maze._a_star.  Every cost
        # expression mirrors the reference order exactly (parity
        # contract); stats[0..2] accumulate pushes/pops/visited.
        g_score[start_flat] = 0.0
        stamp[start_flat] = epoch
        parent_arr[start_flat] = -1
        pushes = 1
        pops = 0
        visited = 0
        sx = start_flat // ny
        sy = start_flat % ny
        heap_f[0] = (abs(sx - gx) + abs(sy - gy)) * theta
        heap_n[0] = start_flat
        heap_size = 1
        found = False
        while heap_size > 0:
            f, current, heap_size = _heap_pop(heap_f, heap_n, heap_size)
            current = np.int64(current)
            pops += 1
            if current == goal_flat:
                found = True
                break
            if closed[current] == epoch:
                continue
            closed[current] = epoch
            visited += 1
            cx = current // ny
            cy = current % ny
            current_g = g_score[current]
            for k in range(4):
                if k == 0:
                    nbx = cx + 1
                    nby = cy
                elif k == 1:
                    nbx = cx - 1
                    nby = cy
                elif k == 2:
                    nbx = cx
                    nby = cy + 1
                else:
                    nbx = cx
                    nby = cy - 1
                if nbx < lo_x or nbx > hi_x or nby < lo_y or nby > hi_y:
                    continue
                neighbor = nbx * ny + nby
                if closed[neighbor] == epoch:
                    continue
                if k < 2:
                    ex = cx if k == 0 else nbx
                    usage = h_usage[ex, cy]
                    capacity = h_capacity[ex, cy]
                else:
                    ey = cy if k == 2 else nby
                    usage = v_usage[cx, ey]
                    capacity = v_capacity[cx, ey]
                if negotiated:
                    if k < 2:
                        ex = cx if k == 0 else nbx
                        history = h_history[ex, cy]
                    else:
                        ey = cy if k == 2 else nby
                        history = v_history[cx, ey]
                    overuse = usage + 1 - capacity
                    step = theta * (1.0 + history)
                    if overuse > 0:
                        step = step * (1.0 + present_weight * overuse)
                elif usage >= capacity:
                    if not allow_overflow:
                        continue
                    step = theta * (1.0 + congestion_weight) * overflow_penalty
                else:
                    step = theta * (1.0 + congestion_weight * (usage / capacity))
                tentative = current_g + step
                if stamp[neighbor] != epoch or tentative < g_score[neighbor]:
                    g_score[neighbor] = tentative
                    stamp[neighbor] = epoch
                    parent_arr[neighbor] = current
                    heuristic = (abs(nbx - gx) + abs(nby - gy)) * theta
                    heap_size = _heap_push(
                        heap_f, heap_n, heap_size, tentative + heuristic, neighbor
                    )
                    pushes += 1
        stats[0] += pushes
        stats[1] += pops
        stats[2] += visited
        return found

    @jit
    def _batch(
        starts, goals,
        nx, ny,
        window_margin,
        theta, congestion_weight,
        allow_overflow, overflow_penalty,
        present_weight, negotiated,
        base_capacity, flag_overflow,
        h_usage, v_usage, h_capacity, v_capacity,
        h_history, v_history,
        g_score, parent_arr, stamp, closed,
        epoch,
        heap_f, heap_n,
        out, offsets, status, stats,
    ):
        # Route a whole pass of wires in one invocation.  Each wire runs
        # the same window-then-full-grid retry as maze.maze_route, and a
        # successful path commits its edge usage *before* the next wire
        # searches — exactly the sequential reference semantics.
        total = 0
        n_wires = starts.shape[0]
        max_margin = nx if nx > ny else ny
        for w in range(n_wires):
            offsets[w] = total
            s = starts[w]
            g = goals[w]
            sx = s // ny
            sy = s % ny
            gx = g // ny
            gy = g % ny
            lo_x = min(sx, gx) - window_margin
            if lo_x < 0:
                lo_x = 0
            hi_x = max(sx, gx) + window_margin
            if hi_x > nx - 1:
                hi_x = nx - 1
            lo_y = min(sy, gy) - window_margin
            if lo_y < 0:
                lo_y = 0
            hi_y = max(sy, gy) + window_margin
            if hi_y > ny - 1:
                hi_y = ny - 1
            epoch += 1
            stats[3] += 1
            found = _search(
                s, g, gx, gy, lo_x, hi_x, lo_y, hi_y, ny, theta,
                congestion_weight, allow_overflow, overflow_penalty,
                present_weight, negotiated,
                h_usage, v_usage, h_capacity, v_capacity,
                h_history, v_history,
                g_score, parent_arr, stamp, closed,
                epoch, heap_f, heap_n, stats,
            )
            if not found and window_margin < max_margin:
                # Window too tight — retry on the full grid, as the
                # reference maze_route does.
                epoch += 1
                stats[3] += 1
                found = _search(
                    s, g, gx, gy, 0, nx - 1, 0, ny - 1, ny, theta,
                    congestion_weight, allow_overflow, overflow_penalty,
                    present_weight, negotiated,
                    h_usage, v_usage, h_capacity, v_capacity,
                    h_history, v_history,
                    g_score, parent_arr, stamp, closed,
                    epoch, heap_f, heap_n, stats,
                )
            if not found:
                status[w] = 0
                continue
            plen = 1
            node = g
            while parent_arr[node] != -1:
                node = parent_arr[node]
                plen += 1
            if total + plen > out.shape[0]:
                new_cap = out.shape[0] * 2
                while new_cap < total + plen:
                    new_cap *= 2
                grown = np.empty(new_cap, np.int32)
                grown[: total] = out[: total]
                out = grown
            idx = total + plen - 1
            node = g
            out[idx] = node
            while parent_arr[node] != -1:
                node = parent_arr[node]
                idx -= 1
                out[idx] = node
            overflowed = False
            for i in range(total, total + plen - 1):
                a = out[i]
                b = out[i + 1]
                ax = a // ny
                ay = a % ny
                bx = b // ny
                by = b % ny
                if ay == by:
                    ex = ax if ax < bx else bx
                    h_usage[ex, ay] += 1
                    if flag_overflow and h_usage[ex, ay] > base_capacity:
                        overflowed = True
                else:
                    ey = ay if ay < by else by
                    v_usage[ax, ey] += 1
                    if flag_overflow and v_usage[ax, ey] > base_capacity:
                        overflowed = True
            total += plen
            status[w] = 2 if overflowed else 1
        offsets[n_wires] = total
        stats[4] = epoch
        return out

    return _batch


def _identity_jit(fn):
    return fn


#: The interpreted kernel — always available; the parity tests run it
#: where Numba is absent, and it backs :func:`interpreted_kernel`.
_BATCH_INTERPRETED = _make_kernels(_identity_jit)

#: The compiled kernel (lazily None without numba).
if NUMBA_AVAILABLE:  # pragma: no cover - requires a numba install
    _BATCH_COMPILED = _make_kernels(_numba.njit(cache=False, nogil=True))
else:
    _BATCH_COMPILED = None


def kernel_available() -> bool:
    """True when the ``"numba"`` kernel can run (compiled or forced)."""
    return NUMBA_AVAILABLE or _FORCE_INTERPRETED


def resolve_kernel(choice: str) -> str:
    """Resolve a ``RoutingConfig.kernel`` value to ``"numba"``/``"python"``.

    ``"auto"`` prefers the compiled kernel and silently falls back to the
    Python reference when Numba is absent; an explicit ``"numba"``
    without Numba raises :class:`KernelUnavailableError` instead of
    silently degrading.
    """
    if choice not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {KERNEL_CHOICES}, got {choice!r}"
        )
    if choice == "auto":
        return "numba" if kernel_available() else "python"
    if choice == "numba" and not kernel_available():
        raise KernelUnavailableError(
            "RoutingConfig.kernel='numba' requires the optional numba "
            "dependency (pip install numba); use kernel='auto' for a "
            "silent fallback to the Python reference path"
        )
    return choice


@contextmanager
def interpreted_kernel() -> Iterator[None]:
    """Force the kernel to run uncompiled (differential tests only).

    Inside the context ``kernel_available()`` is True even without
    Numba, so ``kernel="numba"`` routes through the *interpreted* kernel
    — the same source the jit compiles — letting the parity suite check
    the contract on minimal installs.
    """
    global _FORCE_INTERPRETED
    previous = _FORCE_INTERPRETED
    _FORCE_INTERPRETED = True
    try:
        yield
    finally:
        _FORCE_INTERPRETED = previous


def _active_batch():
    if _BATCH_COMPILED is not None and not _FORCE_INTERPRETED:
        return _BATCH_COMPILED
    return _BATCH_INTERPRETED


def route_wires_kernel(
    grid: RoutingGrid,
    workspace: "MazeWorkspace",
    pairs: Sequence[Tuple[BinCoord, BinCoord]],
    *,
    window_margin: int,
    congestion_weight: float,
    allow_overflow: bool = False,
    overflow_penalty: float = 10.0,
    present_weight: Optional[float] = None,
    flag_overflow: bool = False,
) -> Tuple[List[Optional[List[BinCoord]]], List[int]]:
    """Route ``pairs`` of (start, goal) bins in one kernel invocation.

    Wires run sequentially inside the kernel — each successful path
    commits its edge usage on ``grid`` before the next wire searches —
    so the batch is bit-identical to calling
    :func:`~repro.physical.routing.maze.maze_route` +
    ``grid.add_usage`` per wire.  Returns per-wire paths (``None`` for
    unroutable wires, possible only in the blocking ordered mode) and
    status codes (``2`` marks a path that exceeded the base capacity,
    checked edge-by-edge at commit time when ``flag_overflow``).

    Search statistics, the epoch counter and one ``kernel_batches``
    tick are flushed onto ``workspace``.
    """
    if window_margin < 0:
        raise ValueError(f"window_margin must be >= 0, got {window_margin}")
    if not pairs:
        return [], []
    nx, ny = grid.nx, grid.ny
    size = nx * ny
    starts = np.empty(len(pairs), dtype=np.int64)
    goals = np.empty(len(pairs), dtype=np.int64)
    for i, (start, goal) in enumerate(pairs):
        starts[i] = start[0] * ny + start[1]
        goals[i] = goal[0] * ny + goal[1]
    negotiated = present_weight is not None
    if negotiated:
        h_history, v_history = workspace.ensure_history()
        present = float(present_weight)
    else:
        h_history = v_history = _DUMMY_HISTORY
        present = -1.0
    heap_f, heap_n = workspace.ensure_heap(4 * size + 8)
    out = workspace.ensure_path_buffer(max(1024, 4 * size))
    offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
    status = np.zeros(len(pairs), dtype=np.int64)
    stats = np.zeros(5, dtype=np.int64)
    out = _active_batch()(
        starts, goals,
        nx, ny,
        int(window_margin),
        float(grid.bin_um), float(congestion_weight),
        bool(allow_overflow), float(overflow_penalty),
        present, negotiated,
        int(grid.base_capacity), bool(flag_overflow),
        grid.horizontal_usage, grid.vertical_usage,
        grid.horizontal_capacity, grid.vertical_capacity,
        h_history, v_history,
        workspace.g_score, workspace.parent, workspace.stamp,
        workspace.closed,
        workspace.epoch,
        heap_f, heap_n,
        out, offsets, status, stats,
    )
    workspace.path_out = out  # keep any growth for the next batch
    workspace.heap_pushes += int(stats[0])
    workspace.heap_pops += int(stats[1])
    workspace.visited_bins += int(stats[2])
    workspace.searches += int(stats[3])
    workspace.epoch = int(stats[4])
    workspace.kernel_batches += 1
    workspace.kernel_wires += len(pairs)
    paths: List[Optional[List[BinCoord]]] = []
    for w in range(len(pairs)):
        if status[w] == _STATUS_FAILED:
            paths.append(None)
            continue
        lo, hi = int(offsets[w]), int(offsets[w + 1])
        paths.append([(int(f) // ny, int(f) % ny) for f in out[lo:hi]])
    return paths, [int(s) for s in status]


#: Zero-cost stand-in for the history arrays in non-negotiated batches.
_DUMMY_HISTORY = np.zeros((1, 1), dtype=np.float64)
