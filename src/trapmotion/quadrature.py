"""The one quadrature engine: running Fourier-type integrals from t = 0.

Every converged integral of the package, integral_0^t f(tau) [e^{i omega tau}]
d tau read at a list of instants, runs through :func:`running_integrals`: the
window is split at the breakpoints and instants (:func:`segments`), each
refinement level is streamed in :class:`BlockGrid` batches (:func:`batches`),
and :func:`refine` doubles the grid until every value has changed by at most
``tol`` times its integrand's L1 size. Callers supply only the integrands.
The oscillatory ones use refined composite Simpson on the sampled product
("adaptive-simpson") or composite Filon, which integrates f's quadratic
interpolant against the oscillation exactly ("composite-filon").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

SCHEMES = ("adaptive-simpson", "composite-filon")

#: Hard cap on the per-level grid size; refinement beyond this aborts rather
#: than exhausting memory.
MAX_TOTAL_INTERVALS = 1 << 25

#: Intervals per vectorized batch of a refinement level. Long windows are
#: streamed in batches of this size with running totals carried across, so
#: memory stays flat however long the window. At this size a batch's arrays
#: (32 kB real, 64 kB complex) are reused from batch to batch; four times
#: larger ones took tens of thousands of fresh-page faults per 1e4-period
#: profile, a quarter of its time.
BATCH_INTERVALS = 1 << 12


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the oscillatory quadratures.

    ``steps_per_period`` sets the base resolution per oscillation period (or
    per trajectory feature time, whichever is shorter); grids are then
    doubled by :func:`refine` until every value is stable to ``tol`` relative
    to its integrand's L1 size. The composite Filon scheme is worthwhile once
    omega * t is very large (~1e4 periods) and f varies slowly.
    """

    steps_per_period: int = 64
    scheme: str = "adaptive-simpson"
    tol: float = 1e-8
    max_doublings: int = 14

    def __post_init__(self):
        if self.steps_per_period < 16:
            raise ValueError(f"steps_per_period must be >= 16, got {self.steps_per_period}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be >= 1")


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


@functools.lru_cache(maxsize=1024)
def _quadratic_weights(theta: float, upper: float) -> tuple[complex, complex, complex]:
    """Weights (w0, w1, w2) such that integral_0^upper P(u) e^{i theta u} du
    = w0 P(0) + w1 P(1) + w2 P(2) for every quadratic P.

    Built from the moments m_k = integral_0^upper u^k e^{i theta u} du, summed
    as power series in i theta upper, so small theta loses nothing to
    cancellation. At theta = 0 they are the Simpson weights.
    """
    z = 1j * theta * upper
    if abs(z) > 4.0:
        raise ValueError("quadratic Filon weights need |theta * upper| <= 4")
    m = [0j, 0j, 0j]
    term, n = 1.0 + 0.0j, 0
    while abs(term) > 1e-18:
        for k in range(3):
            m[k] += term / (n + k + 1)
        n += 1
        term *= z / n
    m0, m1, m2 = (mk * upper ** (k + 1) for k, mk in enumerate(m))
    return (m2 - 3.0 * m1 + 2.0 * m0) / 2.0, 2.0 * m1 - m2, (m2 - m1) / 2.0


class BlockGrid:
    """Uniform sub-grids ("blocks") laid end to end, integrated panel by panel.

    Block b holds nodes ``j0..j1`` of ``np.linspace(lo, hi, m + 1)``, given as
    a row ``(lo, hi, m, j0, j1)`` with j0 < j1, both even, so its intervals
    pair into Simpson panels. Adjacent blocks share no samples: a node where
    one block ends and the next begins appears in both. Every rule returns
    running integrals from the first node, which carry on across blocks.

    The panel rule is Filon's: f is replaced by its quadratic interpolant on
    the panel and the product with e^{i omega t} is integrated exactly. At
    ``omega = 0`` that is Simpson's rule, and ``fvals`` may be complex;
    otherwise ``fvals`` is real and ``cos_t`` and ``sin_t`` hold
    cos(|omega| t) and sin(|omega| t) at the nodes. The node and weight
    arrays are read-only, since one grid can serve many calls.
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

    def integral(self, fvals: np.ndarray, omega: float = 0.0, cos_t=None,
                 sin_t=None) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at each block's last node."""
        if omega == 0.0:
            return np.cumsum(np.add.reduceat(self._simpson * fvals, self.starts))
        (steps,) = self._panel_steps(fvals, omega, cos_t, sin_t, (2.0,))
        return np.cumsum(steps)[self._panels[1]]

    def cumulative(self, fvals: np.ndarray, omega: float = 0.0, cos_t=None,
                   sin_t=None) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at every node.

        Odd nodes add the integral of the same quadratic over the first half
        of their panel; at ``omega = 0`` that is the (5, 8, -1)/12 rule.
        """
        p0 = self._panels[2]
        whole, half = self._panel_steps(fvals, omega, cos_t, sin_t, (2.0, 1.0))
        run = np.concatenate(([0.0], np.cumsum(whole)))
        out = np.empty(len(fvals), dtype=run.dtype)
        out[p0] = run[:-1]
        out[p0 + 1] = run[:-1] + half
        out[p0 + 2] = run[1:]
        return out

    def _panel_steps(self, fvals, omega, cos_t, sin_t, uppers) -> list[np.ndarray]:
        """Filon integrals over the first ``upper`` intervals of every panel,
        one array for each of ``uppers``."""
        panels, _, p0 = self._panels
        f0, f1, f2 = fvals[p0], fvals[p0 + 1], fvals[p0 + 2]
        if omega != 0.0:   # each panel's weights hold e^{i omega (t - x0)}; put e^{i omega x0} back
            turn = cos_t[p0] + (1j if omega > 0.0 else -1j) * sin_t[p0]
        steps = []
        for upper in uppers:
            w = np.array([_quadratic_weights(omega * h, upper) for h in self.dx]) * self.dx[:, None]
            if omega == 0.0:
                w = w.real
            if len(w) > 1:
                w = np.repeat(w, panels, axis=0)
            step = w[:, 0] * f0 + w[:, 1] * f1 + w[:, 2] * f2
            steps.append(step if omega == 0.0 else turn * step)
        return steps


@functools.lru_cache(maxsize=8)
def _small_grid(blocks: tuple) -> BlockGrid:
    """The grid of a level that fits in one batch. Short windows are the ones
    integrated over and over (a transport solve makes n_free + 2 quadratures
    of one window), so their grids are kept; long ones stream past."""
    return BlockGrid(blocks)


def refine(evaluate, cfg: QuadratureConfig, what: str, intervals: int):
    """Evaluate refinement levels 0, 1, ... until one agrees with the last.

    ``evaluate(level)`` returns ``(values, scales)``, two matching sequences
    of numbers or arrays computed on a grid of ``intervals << level``
    intervals. The first level at which every value (every element, for
    arrays) changed by at most ``cfg.tol`` times its own scale is accepted;
    the result is ``(level, values, scales, change)`` with ``change`` the
    largest last change. A level needing more than
    :data:`MAX_TOTAL_INTERVALS` intervals is never evaluated, and no
    acceptance within ``cfg.max_doublings`` doublings raises
    :class:`NumericalError` with the largest last change as ``residual``.
    """
    prev = changes = None
    for level in range(cfg.max_doublings + 1):
        if intervals << level > MAX_TOTAL_INTERVALS:
            raise NumericalError(
                f"refinement level {level} would need more than "
                f"{MAX_TOTAL_INTERVALS} quadrature intervals"
            )
        values, scales = evaluate(level)
        if prev is not None:
            # ufuncs give numpy scalars or arrays, whose methods beat np.all and np.max
            changes = [np.abs(np.subtract(v, p)) for v, p in zip(values, prev)]
            if all((d <= cfg.tol * s).all() for d, s in zip(changes, scales)):
                return level, values, scales, max(float(d.max()) for d in changes)
        prev = values
    residual = max(float(d.max()) for d in changes)
    raise NumericalError(
        f"{what} did not stabilize after {cfg.max_doublings} grid doublings "
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
        grid_of = _small_grid if intervals << level <= BATCH_INTERVALS else BlockGrid
        for blocks, at, which in batches(layout, level):
            grid = grid_of(tuple(blocks))
            values, scales = batch(grid, grid.sample_times(cuts), carried)
            runs = np.array([*values, *scales])
            readings[:, which] = carried[:, None] + runs[:, at]
            carried += runs[:, -1]
        return (readings[:count],), (readings[count:].real,)

    intervals = sum(m for _, _, m, _ in layout)
    level, (values,), _, _ = refine(evaluate, cfg, what, intervals)
    return level, values, intervals << level
