"""The one quadrature engine: running Fourier-type integrals from t = 0.

Every integral the package cannot take in closed form (axes without a piece
table: ``make_axis`` wrappers and the circle; and the oracle's frame
phases), integral_0^t f(tau) [e^{i omega tau}] d tau read at a list of
instants, runs through :func:`running_integrals`: the
window is split at the breakpoints and instants (:func:`segments`), each
refinement level is streamed in :class:`BlockGrid` batches (:func:`batches`),
and :func:`refine` doubles the grid until every value has changed by at most
``tol`` times its integrand's L1 size. Callers supply only the sampled
integrands, all under one panel rule: Filon's, exact for f's quadratic
interpolant times e^{i omega t}, which at omega = 0 is Simpson's rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: Hard cap on the per-level grid size; refinement beyond this aborts rather
#: than exhausting memory.
MAX_TOTAL_INTERVALS = 1 << 25

#: Grid doublings :func:`refine` tries before it gives up.
MAX_DOUBLINGS = 14

#: Intervals per vectorized batch of a refinement level. Long windows are
#: streamed in batches of this size with running totals carried across, so
#: memory stays flat however long the window (now the circle's revolutions,
#: e.g. ``demo:rotating_g20`` ``probs``: piece tables need no quadrature). At
#: this size a batch's arrays (32 kB real, 64 kB complex) are reused from batch
#: to batch; four times larger ones took tens of thousands of fresh-page
#: faults per long window, a quarter of its time.
BATCH_INTERVALS = 1 << 12


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the oscillatory quadratures.

    ``steps_per_period`` sets the base resolution per oscillation period (or
    per trajectory feature time, whichever is shorter); grids are then
    doubled by :func:`refine` until every value is stable to ``tol`` relative
    to its integrand's L1 size.
    """

    steps_per_period: int = 64
    tol: float = 1e-8

    def __post_init__(self):
        if self.steps_per_period < 16:
            raise ValueError(f"steps_per_period must be >= 16, got {self.steps_per_period}")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


def initial_intervals(span: float, omega: float, feature_time: float | None,
                      steps_per_period: int) -> int:
    """Even interval count resolving the oscillation and the trajectory feature.

    The step is min(oscillation period, feature time, span) / steps_per_period,
    so short pieces (ramps isolated by breakpoints) are resolved on their own
    scale without inflating the grid elsewhere.
    """
    dt = span / steps_per_period
    if omega != 0.0:
        dt = min(dt, (2.0 * math.pi / abs(omega)) / steps_per_period)
    if feature_time is not None and feature_time > 0.0:
        dt = min(dt, feature_time / steps_per_period)
    n = max(32, int(math.ceil(span / dt)))
    return n + (n % 2)


def piece_bounds(a: float, b: float, breakpoints=()) -> list[tuple[float, float]]:
    """Split [a, b] at the interior breakpoints that fall strictly inside it."""
    cuts = sorted(p for p in breakpoints if a < p < b)
    bounds = [a, *cuts, b]
    return list(zip(bounds[:-1], bounds[1:]))


def _filon_series(terms: int = 48) -> np.ndarray:
    """``a[n, k, j]``: the theta^n coefficient of w_k(theta) e^{-i k theta},
    where integral_0^U P(u) e^{i theta u} du = sum_k w_k(theta) P(k) for every
    quadratic P, over a whole panel (j = 0, U = 2) or its first half (j = 1,
    U = 1). At theta = 0 they are Simpson's."""
    n = np.arange(terms)[:, None, None]
    k = np.arange(3.0)
    factorial = np.cumprod(np.maximum(n, 1.0), axis=0)
    moments = np.array([[2.0], [1.0]]) ** (n + k + 1) / (factorial * (n + k + 1))
    # integral_0^U u^q e^{i theta u} du times the Lagrange basis on nodes 0, 1, 2
    w = moments @ np.array([[1.0, 0.0, 0.0], [-1.5, 2.0, -0.5], [0.5, -1.0, 0.5]])
    rotate = (-k) ** n / factorial     # e^{-i k theta}
    a = np.array([(w[:p + 1] * rotate[p::-1]).sum(axis=0) for p in range(terms)])
    return (a * 1j ** n).transpose(0, 2, 1)


_FILON_SERIES = _filon_series()


@functools.lru_cache(maxsize=16)
def _panel_weights(omega: float, steps: tuple) -> np.ndarray:
    """``w[j, k]`` per step h of ``steps``: h w_k(omega h) e^{-i k omega h},
    what node k of a panel carries for samples g = f e^{i omega t} (the
    factor takes e^{i omega t} back to the panel start). The series is summed
    to below 1e-18, so small steps lose nothing to cancellation."""
    if omega < 0.0:     # the conjugates; both signs stay cached
        w = _panel_weights(-omega, steps).conj()
    else:
        h = np.array(steps)
        theta = omega * h
        radius = float(np.abs(theta).max())
        if radius > 2.0:
            raise ValueError("quadratic Filon weights need |omega * step| <= 2")
        n = next(n for n in range(1, 48) if (2.0 * radius) ** n / math.factorial(n) <= 1e-18)
        w = _FILON_SERIES[:n + 1].T @ theta ** np.arange(n + 1.0)[:, None] * h
        w = w.real if omega == 0.0 else w
    w.flags.writeable = False
    return w


class BlockGrid:
    """Uniform sub-grids ("blocks") laid end to end, integrated panel by panel.

    Block b holds nodes ``j0..j1`` of ``np.linspace(lo, hi, m + 1)``, given as
    a row ``(lo, hi, m, j0, j1)`` with j0 < j1, both even, so its intervals
    pair into panels. Adjacent blocks share no samples: a node where one
    block ends and the next begins appears in both. Every rule returns
    running integrals from the first node, which carry on across blocks.

    The panel rule is Filon's: f is replaced by its quadratic interpolant on
    the panel and the product with e^{i omega t} is integrated exactly from
    the samples of g = f e^{i omega t}. At ``omega = 0`` that is Simpson's
    rule. The node and weight arrays are read-only, since the nodes are
    handed to the integrands.
    """

    def __init__(self, blocks):
        self._blocks = blocks
        lo, hi, m, j0, j1 = np.array(blocks, dtype=float).T
        if np.any(j0 % 2 + j1 % 2) or not np.all((0 <= j0) & (j0 < j1) & (j1 <= m)):
            raise ValueError("block nodes do not pair into panels")
        nodes = (j1 - j0 + 1).astype(int)
        self.ends = np.cumsum(nodes) - 1
        self.starts = self.ends - (nodes - 1)
        step = (hi - lo) / m
        self.dx = (lo + step) - lo    # the spacing the nodes actually have
        index = np.arange(self.ends[-1] + 1) + np.repeat((j0 - self.starts).astype(int), nodes)
        self.ts = np.repeat(lo, nodes) + index * np.repeat(step, nodes)
        closes = j1 == m    # the segment's last node sits exactly on its end
        self.ts[self.ends[closes]] = hi[closes]
        self._trapezoid = np.repeat(self.dx, nodes)
        self._trapezoid[self.starts] = self._trapezoid[self.ends] = 0.5 * self.dx
        # Simpson: dx/3 times 1, 4, 2, ..., 4, 1 in each block
        self._simpson = self._trapezoid * np.where(index & 1, 4.0 / 3.0, 2.0 / 3.0)
        for shared in (self.ts, self._trapezoid, self._simpson):
            shared.flags.writeable = False

    @functools.cached_property
    def _panels(self):
        """Panels per block, the last panel of each, and every panel's first node."""
        panels = (self.ends - self.starts) // 2
        through = np.cumsum(panels)     # panels in blocks 0..b
        p0 = np.repeat(self.starts - 2 * (through - panels), panels) + 2 * np.arange(through[-1])
        return panels, through - 1, p0

    def sample_times(self, cuts) -> np.ndarray:
        """Node times, except that a segment end lying in ``cuts`` is moved
        1e-9 of a step into its own segment, so an integrand that jumps at a
        cut is only ever sampled one-sidedly."""
        if not cuts:
            return self.ts
        te = self.ts.copy()
        for b, (lo, hi, m, j0, j1) in enumerate(self._blocks):
            if j0 == 0 and lo in cuts:
                te[self.starts[b]] = lo + 1e-9 * (hi - lo) / m
            if j1 == m and hi in cuts:
                te[self.ends[b]] = hi - 1e-9 * (hi - lo) / m
        return te

    def trapezoid(self, y: np.ndarray) -> np.ndarray:
        """Running composite trapezoid integral at each block's last node."""
        return np.cumsum(np.add.reduceat(self._trapezoid * y, self.starts))

    def integral(self, g: np.ndarray, omega: float = 0.0) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at each block's last node,
        from ``g`` = f e^{i omega t} at the nodes."""
        if omega == 0.0:
            return np.cumsum(np.add.reduceat(self._simpson * g, self.starts))
        # one block's panels share their weights: only its odd and even sums differ
        w0, w1, w2 = _panel_weights(omega, tuple(self.dx.tolist()))[0]
        panels, last, p0 = self._panels
        odd = np.add.reduceat(g[p0 + 1], last + 1 - panels)
        even = np.add.reduceat(g, self.starts) - odd
        return np.cumsum(w1 * odd + (w0 + w2) * even - w2 * g[self.starts] - w0 * g[self.ends])

    def cumulative(self, g: np.ndarray, omega: float = 0.0) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at every node, from ``g``.

        Odd nodes add the integral of the same quadratic over the first half
        of their panel; at ``omega = 0`` that is the (5, 8, -1)/12 rule.
        """
        panels, _, p0 = self._panels
        w = _panel_weights(omega, tuple(self.dx.tolist()))
        if w.shape[-1] > 1:
            w = np.repeat(w, panels, axis=-1)
        whole, half = w[:, 0] * g[p0] + w[:, 1] * g[p0 + 1] + w[:, 2] * g[p0 + 2]
        run = np.concatenate(([0.0], np.cumsum(whole)))
        out = np.empty(len(g), dtype=run.dtype)
        out[p0] = run[:-1]
        out[p0 + 1] = run[:-1] + half
        out[p0 + 2] = run[1:]
        return out


def refine(evaluate, cfg: QuadratureConfig, what: str, intervals: int):
    """Evaluate refinement levels 0, 1, ... until one agrees with the last.

    ``evaluate(level)`` returns ``(values, scales)``, two matching sequences
    of numbers or arrays computed on a grid of ``intervals << level``
    intervals. The first level at which every value (every element, for
    arrays) changed by at most ``cfg.tol`` times its own scale is accepted;
    the result is ``(level, values, scales, change)`` with ``change`` the
    largest last change. Values that are not finite at level 0 raise
    :class:`NumericalError` at once, as no doubling can settle them. A level
    needing more than :data:`MAX_TOTAL_INTERVALS` intervals is never
    evaluated, and no acceptance within :data:`MAX_DOUBLINGS` doublings raises
    :class:`NumericalError` with the largest last change as ``residual``.
    """
    prev = changes = None
    for level in range(MAX_DOUBLINGS + 1):
        if intervals << level > MAX_TOTAL_INTERVALS:
            raise NumericalError(
                f"refinement level {level} would need more than "
                f"{MAX_TOTAL_INTERVALS} quadrature intervals"
            )
        values, scales = evaluate(level)
        if prev is None and not all(np.isfinite(v).all() for v in values):
            raise NumericalError(f"{what} is not finite on its first grid")
        if prev is not None:
            # ufuncs give numpy scalars or arrays, whose methods beat np.all and np.max
            changes = [np.abs(np.subtract(v, p)) for v, p in zip(values, prev)]
            if all((d <= cfg.tol * s).all() for d, s in zip(changes, scales)):
                return level, values, scales, max(float(d.max()) for d in changes)
        prev = values
    residual = max(float(d.max()) for d in changes)
    raise NumericalError(
        f"{what} did not stabilize after {MAX_DOUBLINGS} grid doublings "
        f"(last change {residual:.3e})",
        residual=residual,
    )


def segments(instants, omega: float, feature_time: float | None, breakpoints,
             steps_per_period: int):
    """Level-0 segments ``(lo, hi, intervals, instant index or -1)`` over [0, instants[-1]].

    ``instants`` is a sorted array. Each breakpoint piece gets the
    :func:`initial_intervals` of its own span; the instants inside it become
    extra nodes, and each sub-piece gets the fewest even intervals (at least
    2) whose step is no longer than the piece's own. A segment ending on an
    instant carries that instant's index.
    """
    times = instants.tolist()
    index = {t: k for k, t in enumerate(times)}
    out = []
    for lo, hi in piece_bounds(0.0, times[-1], breakpoints):
        n0 = initial_intervals(hi - lo, omega, feature_time, steps_per_period)
        nodes = [lo, *(t for t in times if lo < t < hi), hi]
        for a, b in zip(nodes[:-1], nodes[1:]):
            m = max(2, math.ceil((b - a) / (hi - lo) * n0 - 1e-9))
            out.append((a, b, m + m % 2, index.get(b, -1)))
    return out


def batches(layout, level: int):
    """The segments of refinement ``level`` as :class:`BlockGrid` batches of
    at most :data:`BATCH_INTERVALS` intervals.

    Yields ``(blocks, at, which)``: block rows ``(lo, hi, m, j0, j1)``, the
    positions of the blocks that end on an instant, and those instants'
    indices.
    """
    blocks, at, which, size = [], [], [], 0
    for lo, hi, m0, k in layout:
        m = m0 << level
        j0 = 0
        while j0 < m:
            j1 = min(m, j0 + BATCH_INTERVALS - size)
            if j1 == m and k >= 0:
                at.append(len(blocks))
                which.append(k)
            blocks.append((lo, hi, m, j0, j1))
            size += j1 - j0
            j0 = j1
            if size == BATCH_INTERVALS:
                yield blocks, at, which
                blocks, at, which, size = [], [], [], 0
    if blocks:
        yield blocks, at, which


def running_integrals(batch, count: int, instants, cfg: QuadratureConfig, what: str, *,
                      omega: float, feature_time: float | None = None, breakpoints=()):
    """Running integrals from t = 0, read at every instant and converged by :func:`refine`.

    ``instants`` is sorted and unique with a positive last entry. The grid
    over [0, instants[-1]] comes from :func:`segments`, which resolves the
    oscillation ``omega`` and ``feature_time`` and splits at ``breakpoints``.
    Each level is streamed through ``batch(grid, te, carried)``: ``grid`` is
    one batch's :class:`BlockGrid`, ``te`` its sample times (segment ends on
    a breakpoint sampled one-sidedly), and ``carried[q]`` the total of value
    q over the earlier batches. It returns ``(values, scales)``: ``count``
    running integrals at each block end, counted from the batch's first
    node, and the L1 size each one converges against. The result is
    ``(level, values, n_intervals)`` with ``values[q, k]``, complex, value q
    at ``instants[k]``.
    """
    cuts = set(p for p in breakpoints if 0.0 < p < instants[-1])
    layout = segments(instants, omega, feature_time, breakpoints, cfg.steps_per_period)

    def evaluate(level):
        readings = np.zeros((2 * count, len(instants)), complex)   # values, then scales
        carried = np.zeros(2 * count, complex)
        for blocks, at, which in batches(layout, level):
            grid = BlockGrid(blocks)
            values, scales = batch(grid, grid.sample_times(cuts), carried)
            runs = np.array([*values, *scales])
            readings[:, which] = carried[:, None] + runs[:, at]
            carried += runs[:, -1]
        return (readings[:count],), (readings[count:].real,)

    intervals = sum(m for _, _, m, _ in layout)
    level, (values,), *_ = refine(evaluate, cfg, what, intervals)
    return level, values, intervals << level
