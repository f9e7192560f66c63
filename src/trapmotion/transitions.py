"""Fock-state transition probabilities and coherent-state amplitudes.

For a ground- or excited-state oscillator driven so that the excitation
parameter is gamma, the level-to-level transition probabilities are

    P_mn = (mu! / nu!) * gamma^|m-n| * e^{-gamma} * [L_mu^{(|m-n|)}(gamma)]^2,

with mu = min(m, n), nu = max(m, n) and L the associated Laguerre polynomial.
Rows are complete (sum over n is 1), the matrix is symmetric and the m = 0
row is the Poisson distribution with mean gamma. One kernel gives every
number: the degree recurrence for L runs over many (mu, d) lanes at once,
rescaled by powers of two, and P is assembled in log space, so no level or
gamma overflows. Multi-axis probabilities are products over axes; totals
between degenerate levels have no closed form in general (w in place of
gamma is wrong already for 1 -> 2 in two dimensions).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: Hard cap on the truncation search in transition_row.
ROW_LIMIT = 1_000_000

# Lanes past 2^500 are divided by 2^500 at every 8th degree. A step grows a lane
# at most (3 + 2 alpha + x)-fold, so none overflows in between for alpha + x < 1e19.
_BIG = 2.0 ** 500
_LOG_BIG = 500 * math.log(2.0)
_CHECK_EVERY = 8
# Lane values assembled at once by rows and tables, which bounds their memory.
_BLOCK = 1024
# n! is a finite float for n <= 170.
_FACTORIAL_MAX = 170


def _check_level(name: str, value: int) -> int:
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _check_gamma(gamma: float) -> float:
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma!r}")
    return float(gamma)


def _laguerre(alphas, x, top: int):
    """Yield (k, mantissas, rescale counts c) of L_k^{(alpha)}(x) for k <= top.

    ``alphas`` and ``x`` broadcast to the lanes; L = mantissa 2^(500 c). One
    lane given as numbers runs on Python floats, the same IEEE arithmetic as
    an array lane. Yielded arrays are never modified afterwards.
    """
    alpha = np.asarray(alphas, dtype=float)
    coef = alpha - x
    if coef.ndim == 0:
        coef, alpha, prev, curr, count = float(coef), float(alpha), 0.0, 1.0, 0.0
    else:
        prev, curr, count = np.zeros_like(coef), np.ones_like(coef), np.zeros_like(coef)
    yield 0, curr, count
    for k in range(1, top + 1):   # L_{-1} = 0 makes k = 1 the general step
        prev, curr = curr, ((coef + (2 * k - 1)) * curr - (alpha + (k - 1)) * prev) / k
        if k % _CHECK_EVERY == 0 and np.abs(curr).max() > _BIG:
            big = np.abs(curr) > _BIG
            prev, curr = np.where(big, prev / _BIG, prev), np.where(big, curr / _BIG, curr)
            count = count + big
        yield k, curr, count


def _log_factorials(top: int) -> np.ndarray:
    return np.fromiter((math.lgamma(k + 1.0) for k in range(top + 1)), float, top + 1)


def _log_probabilities(mu, d, gamma, mant, count, log_fact):
    """log P of lanes (mu, d, gamma), -inf where P = 0, from log_fact[k] = log k!.

    Accumulated in place, so large blocks hold few temporaries. Rounding can
    lift a P of 1 just above 1, so log P is capped at 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(np.abs(mant))
        log_p += count * _LOG_BIG
        log_p *= 2.0
        log_p += np.where(d > 0, d * np.log(gamma), 0.0) - gamma   # 0 log 0 = 0
    if not log_p.max() < math.inf:
        raise NumericalError("the Laguerre recurrence left the float range")
    log_p += log_fact[mu]
    log_p -= log_fact[mu + d]
    return np.minimum(log_p, 0.0)


def _lane(mu: int, d: int, gamma: float):
    """log P_mn and the Laguerre mantissa (whose sign L has) of one lane."""
    for _, mant, count in _laguerre(d, gamma, mu):
        pass
    log_fact = {k: math.lgamma(k + 1.0) for k in (mu, mu + d)}   # the two log k! it needs
    return _log_probabilities(mu, d, gamma, mant, count, log_fact), mant


def _ground(gamma: float, probs, ns) -> list:
    """probs of the lanes mu = 0, d = n (n ascending), replaced by the literal
    Poisson mass e^-gamma gamma^n / n! wherever every factor is a normal float."""
    head, out = math.exp(-gamma), list(probs)
    for i, n in enumerate(ns):
        if n > _FACTORIAL_MAX or head < sys.float_info.min:
            break
        try:
            out[i] = head * gamma ** n / math.factorial(n)
        except OverflowError:   # gamma^n, and so every later n
            break
    return out


def transition_probability(m: int, n: int, gamma: float) -> float:
    """Probability of the Fock transition m -> n at excitation parameter gamma.

    m = 0 or n = 0 reproduces the Poisson mass function bit for bit wherever
    e^-gamma, gamma^n and n! are floats.
    """
    m, n = _check_level("m", m), _check_level("n", n)
    gamma = _check_gamma(gamma)
    mu, d = min(m, n), abs(n - m)
    p = float(np.exp(_lane(mu, d, gamma)[0]))
    return _ground(gamma, [p], [d])[0] if mu == 0 else p


@dataclass(frozen=True)
class TransitionRow:
    """Truncated row of transition probabilities from one initial level."""

    initial_level: int
    gamma: float
    probs: np.ndarray
    tail_bound: float


def _row(m: int, gamma: float, size: int) -> np.ndarray:
    # lane n of a block has d = |n - m| and degree min(n, m), rising with n:
    # lanes n < m are read at step n, the rest after the last step
    log_fact = _log_factorials(max(m, size))
    probs = np.empty(size)
    for lo in range(0, size, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, size))
        mu, d = np.minimum(n, m), np.abs(n - m)
        below = max(0, min(m - lo, len(n)))
        mant, count = np.empty((2, len(n)))
        for k, lane_mant, lane_count in _laguerre(d, gamma, int(mu[-1])):
            if lo <= k < lo + below:
                mant[k - lo], count[k - lo] = lane_mant[k - lo], lane_count[k - lo]
        mant[below:], count[below:] = lane_mant[below:], lane_count[below:]
        probs[n] = np.exp(_log_probabilities(mu, d, gamma, mant, count, log_fact))
    ground = 1 if m else min(size, _FACTORIAL_MAX + 1)   # lanes with mu = 0 and a literal
    probs[:ground] = _ground(gamma, probs[:ground], [m] if m else range(ground))
    return probs


def transition_row(m: int, gamma: float, tail_epsilon: float = 1e-8) -> TransitionRow:
    """Row P_m,0..N* truncated where the remaining mass drops below tail_epsilon.

    The initial window comes from a Poisson-style estimate (rows are
    concentrated near gamma + m with sub-Poissonian tails) and is extended
    until row completeness certifies the remainder.
    """
    m = _check_level("m", m)
    if not (0.0 < tail_epsilon <= 1e-3):
        raise ValueError(f"tail_epsilon must lie in (0, 1e-3], got {tail_epsilon!r}")
    gamma = _check_gamma(gamma)
    mean = gamma + m
    size, total = int(math.ceil(mean + 10.0 * math.sqrt(mean + 1.0) + 20.0)) + 1, 0.0
    while 1.0 - total >= tail_epsilon:
        if size > ROW_LIMIT:
            raise NumericalError(
                f"transition row for m={m}, gamma={gamma} does not reach the "
                f"tail target within {ROW_LIMIT} levels", residual=1.0 - total)
        probs = _row(m, gamma, size)
        total, size = math.fsum(probs), 2 * size
    return TransitionRow(m, gamma, probs, max(0.0, 1.0 - total))


@dataclass(frozen=True)
class TransitionTable:
    """Dense P_mn matrix up to max_level with per-row truncated-tail bounds."""

    gamma: float
    max_level: int
    probs: np.ndarray
    tail_bounds: np.ndarray


def _tables(gammas, max_level: int) -> np.ndarray:
    # P_mn, m, n <= max_level, per gamma: lane d = n - m gives (k, k + d) at
    # degree k, written to the upper triangle and mirrored, so symmetry is exact
    size = max_level + 1
    d = np.arange(size)
    gammas = np.asarray(gammas, dtype=float)[:, None]
    log_fact = _log_factorials(2 * size)
    probs = np.empty((len(gammas), size, size))
    rows = max(1, _BLOCK // (len(gammas) * size))   # degrees assembled at once
    mant, count = np.empty((2, rows, len(gammas), size))
    for k, lane_mant, lane_count in _laguerre(d, gammas, max_level):
        mant[k % rows], count[k % rows] = lane_mant, lane_count
        if k % rows == rows - 1 or k == max_level:   # the block of degrees top..k is full
            top = k - k % rows
            ks, width = np.arange(top, k + 1), size - top   # lanes d < width reach them
            grid = np.exp(_log_probabilities(ks[:, None, None], d[:width], gammas,
                                             mant[:len(ks), :, :width], count[:len(ks), :, :width],
                                             log_fact))
            if top == 0:   # degree 0 holds the lanes with mu = 0
                for axis, gamma in enumerate(gammas[:, 0].tolist()):
                    grid[0, axis] = _ground(gamma, grid[0, axis], range(width))
            for row, j in zip(grid, ks.tolist()):
                probs[:, j, j:] = probs[:, j:, j] = row[:, :size - j]
    return probs


def transition_table(gamma: float, max_level: int) -> TransitionTable:
    """All P_mn for m, n <= max_level; symmetry holds exactly by construction."""
    max_level = _check_level("max_level", max_level)
    gamma = _check_gamma(gamma)
    probs = _tables([gamma], max_level)[0]
    tails = np.maximum(0.0, 1.0 - np.array([math.fsum(row) for row in probs]))
    return TransitionTable(gamma, max_level, probs, tails)


def coherent_amplitude(alpha: complex, beta: complex, u: complex, phi: float) -> complex:
    """Overlap of the driven coherent state alpha with the co-moving state beta.

    exp[alpha beta* + alpha u - beta* u* - (|alpha|^2 + |beta|^2)/2
        - |u|^2/2 - i phi].
    """
    for name, z in (("alpha", alpha), ("beta", beta), ("u", u)):
        if not (math.isfinite(complex(z).real) and math.isfinite(complex(z).imag)):
            raise ValueError(f"{name} must be finite, got {z!r}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    alpha, beta, u = complex(alpha), complex(beta), complex(u)
    exponent = (
        alpha * beta.conjugate()
        + alpha * u
        - beta.conjugate() * u.conjugate()
        - 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)
        - 0.5 * abs(u) ** 2
        - 1j * phi
    )
    return cmath.exp(exponent)


def transition_amplitude(m: int, n: int, u: complex, phi: float = 0.0) -> complex:
    """Complex amplitude A_mn whose squared modulus is P_mn(|u|^2).

    Extracted from the coherent-state generating function: for n >= m,
    A_mn = sqrt(m!/n!) (-u*)^{n-m} L_m^{(n-m)}(gamma) e^{-gamma/2 - i phi},
    and the m > n case follows from the same series with u in place of -u*.
    The modulus is sqrt(P_mn), the sign that of L.
    """
    m, n = _check_level("m", m), _check_level("n", n)
    u = complex(u)
    mu, d = min(m, n), abs(n - m)
    gamma = abs(u) ** 2
    log_p, mant = _lane(mu, d, gamma)
    amp = math.copysign(math.exp(0.5 * log_p), mant) * cmath.exp(-1j * phi)
    if amp and d:
        core = -u.conjugate() if n >= m else u
        amp *= (core / abs(core)) ** d
    return amp


def multi_axis_probability(m, n, per_axis_gamma) -> float:
    """Product of per-axis transition probabilities for Cartesian Fock states."""
    m, n, gammas = tuple(m), tuple(n), tuple(per_axis_gamma)
    if not (len(m) == len(n) == len(gammas)):
        raise ValueError(
            f"length mismatch: m has {len(m)}, n has {len(n)}, "
            f"gammas has {len(gammas)}"
        )
    return math.prod(transition_probability(mi, ni, gi) for mi, ni, gi in zip(m, n, gammas))


@dataclass(frozen=True)
class DegenerateSpec:
    """Per-axis excitation parameters |u_i|^2 of an isotropic oscillator."""

    axis_gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "axis_gammas", tuple(float(g) for g in self.axis_gammas))
        if len(self.axis_gammas) == 0:
            raise ValueError("need at least one axis")
        for g in self.axis_gammas:
            if not (math.isfinite(g) and g >= 0.0):
                raise ValueError(f"axis parameters must be finite and >= 0, got {g!r}")

    @property
    def w(self) -> float:
        """Total excitation parameter, the sum over axes."""
        return math.fsum(self.axis_gammas)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # coefficients of a(x, y) b(x, y) up to the degrees of a, by one direct
    # convolution; rows padded to 2 cols - 1 keep powers of y from carrying
    rows, cols = a.shape
    padded = np.zeros((2, rows, 2 * cols - 1))
    padded[0, :, :cols], padded[1, :, :cols] = a, b
    flat = np.convolve(padded[0].ravel(), padded[1].ravel())[:padded[0].size]
    return flat.reshape(rows, -1)[:, :cols]


def degenerate_probability(m_level: int, n_level: int, spec: DegenerateSpec, *,
                           convention: str = "sum") -> float:
    """Total transition probability between degenerate energy levels.

    The sum of the product-form probabilities over every multi-index pair
    with level sums m_level and n_level: the x^m_level y^n_level coefficient
    of the product over axes of sum_mn P_mn x^m y^n. ``convention`` selects
    how the degenerate *initial* multiplet is handled:

    * ``"sum"`` adds the contributions of every initial substate (the form
      usually quoted for low levels, e.g. the 2-D closed forms in w);
    * ``"average"`` divides by the initial multiplicity, giving a transition
      probability from an unpolarized mixture.

    The two agree for m_level = 0. The result depends only on the total w
    for transitions out of the ground level; for excited initial levels the
    per-axis split matters only through w as well, but the w-dependence does
    not coincide with the one-dimensional formula.
    """
    m_level, n_level = _check_level("m_level", m_level), _check_level("n_level", n_level)
    if convention not in ("sum", "average"):
        raise ValueError(f"convention must be 'sum' or 'average', got {convention!r}")
    N = len(spec.axis_gammas)
    blocks = _tables(spec.axis_gammas, max(m_level, n_level))[:, :m_level + 1, :n_level + 1]
    # the last axis only adds to the x^m_level y^n_level coefficient
    acc = functools.reduce(_product, blocks[1:-1], blocks[0])
    total = float(acc[-1, -1] if N == 1 else np.sum(acc * blocks[-1][::-1, ::-1]))
    if convention == "average":
        total /= math.comb(m_level + N - 1, N - 1)
    return total
