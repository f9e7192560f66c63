"""Quadrature primitives for oscillatory Fourier-type integrals.

Two schemes are provided for integrals of the form

    I = integral_a^b f(t) exp(i * omega * t) dt,   f real-valued and smooth:

* refined composite Simpson ("adaptive-simpson"): a uniform grid resolving
  both the oscillation period and the trajectory's own feature time, doubled
  until the value is stable;
* composite Filon ("composite-filon"): parabolic fit of f per panel pair,
  integrated exactly against the oscillation. Useful when omega*(b-a) is so
  large that resolving every period is wasteful.

Convergence is judged against the L1 size of f (times the unit-modulus
oscillation), so the stopping rule is invariant under rescaling f.
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


def composite_simpson(y: np.ndarray, dx: float):
    """Composite Simpson rule over a uniform grid with an even interval count."""
    n = len(y) - 1
    if n < 2 or n % 2:
        raise ValueError(f"need an even number of intervals >= 2, got {n}")
    return (dx / 3.0) * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral on the sample grid; exact for cubics panel-wise.

    Even nodes get the composite Simpson partial sums; odd nodes use the
    (5, 8, -1)/12 half-panel rule on the enclosing panel.
    """
    n = len(y) - 1
    if n < 2 or n % 2:
        raise ValueError(f"need an even number of intervals >= 2, got {n}")
    f0, f1, f2 = y[:-2:2], y[1:-1:2], y[2::2]
    full = dx * (f0 + 4.0 * f1 + f2) / 3.0
    half = dx * (5.0 * f0 + 8.0 * f1 - f2) / 12.0
    out = np.empty(len(y), dtype=np.result_type(y.dtype, float))
    even = np.concatenate(([0.0], np.cumsum(full)))
    out[0::2] = even
    out[1::2] = even[:-1] + half
    return out


def _filon_weights(theta: float) -> tuple[float, float, float]:
    # Classic Filon weights; Taylor series below theta ~ 1/6 to dodge
    # catastrophic cancellation in the closed forms.
    if theta < 1.0 / 6.0:
        t2 = theta * theta
        alpha = theta * t2 * (2.0 / 45.0 + t2 * (-2.0 / 315.0 + t2 * (2.0 / 4725.0)))
        beta = 2.0 / 3.0 + t2 * (2.0 / 15.0 + t2 * (-4.0 / 105.0 + t2 * (2.0 / 567.0)))
        gamma = 4.0 / 3.0 + t2 * (-2.0 / 15.0 + t2 * (1.0 / 210.0 + t2 * (-1.0 / 11340.0)))
        return alpha, beta, gamma
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    t3 = theta ** 3
    alpha = (theta ** 2 + theta * sin_t * cos_t - 2.0 * sin_t ** 2) / t3
    beta = 2.0 * (theta * (1.0 + cos_t ** 2) - 2.0 * sin_t * cos_t) / t3
    gamma = 4.0 * (sin_t - theta * cos_t) / t3
    return alpha, beta, gamma


def filon_exponential(fvals: np.ndarray, ts: np.ndarray, omega: float) -> complex:
    """Composite Filon value of integral f(t) e^{i omega t} dt on a uniform grid.

    ``fvals`` must be real samples on ``ts`` with an even interval count.
    """
    n = len(ts) - 1
    if n < 2 or n % 2:
        raise ValueError(f"need an even number of intervals >= 2, got {n}")
    h = ts[1] - ts[0]
    w = abs(omega)
    if w == 0.0:
        return complex(composite_simpson(np.asarray(fvals, dtype=float), h))
    sign = 1.0 if omega > 0.0 else -1.0
    alpha, beta, gamma = _filon_weights(w * h)
    c = np.cos(w * ts)
    s = np.sin(w * ts)
    fc = fvals * c
    fs = fvals * s
    c_even = np.sum(fc[0::2]) - 0.5 * (fc[0] + fc[-1])
    c_odd = np.sum(fc[1::2])
    s_even = np.sum(fs[0::2]) - 0.5 * (fs[0] + fs[-1])
    s_odd = np.sum(fs[1::2])
    i_cos = h * (alpha * (fvals[-1] * s[-1] - fvals[0] * s[0]) + beta * c_even + gamma * c_odd)
    i_sin = h * (-alpha * (fvals[-1] * c[-1] - fvals[0] * c[0]) + beta * s_even + gamma * s_odd)
    return complex(i_cos, sign * i_sin)


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


@dataclass(frozen=True)
class OscillatoryResult:
    value: complex
    n_intervals: int
    error_estimate: float
    scale: float


def piece_bounds(a: float, b: float, breakpoints=()) -> list[tuple[float, float]]:
    """Split [a, b] at the interior breakpoints that fall strictly inside it."""
    cuts = sorted(p for p in breakpoints if a < p < b)
    bounds = [a, *cuts, b]
    return list(zip(bounds[:-1], bounds[1:]))


def piece_grids(pieces, level: int):
    """Per-piece (nodes, sample_times) grids for refinement ``level``.

    ``pieces`` lists consecutive ``(lo, hi, intervals at level 0)``, split at
    the breakpoints; interval counts double with ``level``. Grid nodes land
    exactly on the breakpoints; the sample times are identical except that
    endpoints sitting on a breakpoint are inset into the piece by a 1e-9
    fraction of the local step, so a discontinuous integrand is only ever
    sampled one-sidedly. The integrand is smooth within each piece, restoring
    clean Simpson/Filon convergence.
    """
    grids = []
    last = len(pieces) - 1
    for k, (lo, hi, n0) in enumerate(pieces):
        n = n0 << level
        ts = te = np.linspace(lo, hi, n + 1)
        if last:
            inset = 1e-9 * (hi - lo) / n
            te = ts.copy()
            if k > 0:
                te[0] = lo + inset
            if k < last:
                te[-1] = hi - inset
        grids.append((ts, te))
    return grids


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
    cos(|omega| t) and sin(|omega| t) at the nodes.
    """

    def __init__(self, blocks):
        lo, hi, m, j0, j1 = (np.array(col) for col in zip(*blocks))
        step = (hi - lo) / m
        nodes = j1 - j0 + 1
        self.first = np.concatenate(([0], np.cumsum(nodes)))
        self.starts, self.ends = self.first[:-1], self.first[1:] - 1
        index = np.arange(self.first[-1]) + np.repeat(j0 - self.starts, nodes)
        self.ts = np.repeat(lo, nodes) + index * np.repeat(step, nodes)
        closes = j1 == m
        self.ts[self.ends[closes]] = hi[closes]
        self._bounds = (lo, hi, m, j0 == 0, closes)
        self.dx = (lo + step) - lo    # the spacing the nodes actually have
        self._panels = (j1 - j0) // 2
        panels_through = np.cumsum(self._panels)     # panels in blocks 0..b
        self._last_panels = panels_through - 1
        self._panel_starts = (np.repeat(self.starts - 2 * (panels_through - self._panels),
                                        self._panels)
                              + 2 * np.arange(panels_through[-1]))
        self._trapezoid = np.repeat(self.dx, nodes)
        self._trapezoid[self.starts] *= 0.5
        self._trapezoid[self.ends] *= 0.5

    def sample_times(self, cuts) -> np.ndarray:
        """Node times, except that a segment end lying in ``cuts`` is moved
        1e-9 of a step into its own segment (as in :func:`piece_grids`)."""
        if not cuts:
            return self.ts
        lo, hi, m, opens, closes = self._bounds
        cut_list = list(cuts)
        inset = 1e-9 * (hi - lo) / m
        te = self.ts.copy()
        at_lo = opens & np.isin(lo, cut_list)
        at_hi = closes & np.isin(hi, cut_list)
        te[self.starts[at_lo]] = (lo + inset)[at_lo]
        te[self.ends[at_hi]] = (hi - inset)[at_hi]
        return te

    def trapezoid(self, y: np.ndarray) -> np.ndarray:
        """Running composite trapezoid integral at each block's last node."""
        return np.cumsum(np.add.reduceat(self._trapezoid * y, self.starts))

    def integral(self, fvals: np.ndarray, omega: float = 0.0, cos_t=None,
                 sin_t=None) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at each block's last node."""
        return np.cumsum(self._panel_steps(fvals, omega, cos_t, sin_t, 2.0))[self._last_panels]

    def cumulative(self, fvals: np.ndarray, omega: float = 0.0, cos_t=None,
                   sin_t=None) -> np.ndarray:
        """Running integral of f(t) e^{i omega t} at every node.

        Odd nodes add the integral of the same quadratic over the first half
        of their panel; at ``omega = 0`` that is the (5, 8, -1)/12 rule of
        :func:`cumulative_simpson`.
        """
        p0 = self._panel_starts
        run = np.concatenate(([0.0], np.cumsum(self._panel_steps(fvals, omega, cos_t, sin_t, 2.0))))
        out = np.empty(len(fvals), dtype=run.dtype)
        out[p0] = run[:-1]
        out[p0 + 1] = run[:-1] + self._panel_steps(fvals, omega, cos_t, sin_t, 1.0)
        out[p0 + 2] = run[1:]
        return out

    def _panel_steps(self, fvals, omega, cos_t, sin_t, upper: float) -> np.ndarray:
        """Filon integral over the first ``upper`` intervals of every panel."""
        p0 = self._panel_starts
        w = np.array([_quadratic_weights(omega * h, upper) for h in self.dx]) * self.dx[:, None]
        if len(w) > 1:
            w = np.repeat(w, self._panels, axis=0)
        f = (fvals[p0], fvals[p0 + 1], fvals[p0 + 2])
        re = sum(w[..., k].real * f[k] for k in range(3))
        if omega == 0.0:
            return re
        im = sum(w[..., k].imag * f[k] for k in range(3))
        cos0, sin0 = cos_t[p0], (1.0 if omega > 0.0 else -1.0) * sin_t[p0]
        step = np.empty(len(p0), dtype=complex)   # e^{i omega x0} (re + i im)
        step.real = cos0 * re - sin0 * im
        step.imag = sin0 * re + cos0 * im
        return step


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
            # plain Python on scalars: gamma-only calls sit in optimizer loops
            changes = [abs(v - p) for v, p in zip(values, prev)]
            if all((d <= cfg.tol * s).all() if isinstance(d, np.ndarray) else d <= cfg.tol * s
                   for d, s in zip(changes, scales)):
                return level, values, scales, _largest(changes)
        prev = values
    residual = _largest(changes)
    raise NumericalError(
        f"{what} did not stabilize after {cfg.max_doublings} grid doublings "
        f"(last change {residual:.3e})",
        residual=residual,
    )


def _largest(changes) -> float:
    return max(float(d.max()) if isinstance(d, np.ndarray) else float(d) for d in changes)


def oscillatory_integral(f, a: float, b: float, omega: float,
                         cfg: QuadratureConfig | None = None, *,
                         feature_time: float | None = None,
                         breakpoints=()) -> OscillatoryResult:
    """Integrate f(t) e^{i omega t} over [a, b] to a scale-relative tolerance.

    The grid is doubled by :func:`refine` until successive values agree
    within ``cfg.tol`` times the L1 norm of f. Known discontinuity locations
    of f can be passed as ``breakpoints``; the integral is then assembled
    piecewise so the jumps never sit inside a Simpson panel.
    """
    cfg = cfg or QuadratureConfig()
    span = b - a
    if span == 0.0:
        return OscillatoryResult(0.0 + 0.0j, 0, 0.0, 0.0)
    if span < 0.0:
        raise ValueError(f"integration bounds must be ordered, got [{a!r}, {b!r}]")
    filon = cfg.scheme == "composite-filon"
    pieces = [(lo, hi, initial_intervals(hi - lo, omega, feature_time, cfg.steps_per_period))
              for lo, hi in piece_bounds(a, b, breakpoints)]

    def evaluate(level):
        value = 0.0 + 0.0j
        scale = 0.0
        for ts, te in piece_grids(pieces, level):
            fv = np.asarray(f(te), dtype=float)
            dx = ts[1] - ts[0]
            scale += float(np.trapezoid(np.abs(fv), dx=dx))
            if filon:
                value += filon_exponential(fv, ts, omega)
            else:
                value += complex(composite_simpson(fv * np.exp(1j * omega * te), dx))
        return (value,), (scale,)

    n0 = sum(n for _, _, n in pieces)
    level, (value,), (scale,), change = refine(evaluate, cfg, "oscillatory quadrature", n0)
    return OscillatoryResult(value, n0 << level, change / 15.0, scale)
