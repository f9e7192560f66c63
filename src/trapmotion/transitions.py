"""Fock-state transition probabilities and coherent-state amplitudes.

For a ground- or excited-state oscillator driven so that the excitation
parameter is gamma, the level-to-level transition probabilities are

    P_mn = (mu! / nu!) * gamma^|m-n| * e^{-gamma} * [L_mu^{(|m-n|)}(gamma)]^2,

with mu = min(m, n), nu = max(m, n) and L the associated Laguerre polynomial.
Rows are complete (sum over n is 1) and the matrix is symmetric; the m = 0
row is the Poisson distribution with mean gamma.

Multi-axis probabilities are products of the per-axis factors. Total
probabilities between degenerate energy levels of an isotropic N-dimensional
oscillator are obtained by explicit enumeration over the degenerate
multiplets; no closed form exists in general (substituting the total
excitation w for gamma in P_mn is wrong already for the 1 -> 2 transition in
two dimensions).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError

# Direct (non-log) evaluation limits: largest falling factorial that stays a
# float, and the exponent range where gamma^d * e^{-gamma} cannot flush.
_DIRECT_NU_MAX = 170
_DIRECT_GAMMA_MAX = 700.0

#: Hard cap on the truncation search in transition_row.
ROW_LIMIT = 1_000_000


def laguerre_assoc(n: int, alpha: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^{(alpha)}(x) for integer n, alpha >= 0.

    Uses the stable three-term recurrence
    L_k = [(2k - 1 + alpha - x) L_{k-1} - (k - 1 + alpha) L_{k-2}] / k,
    and raises NumericalError when it leaves the float range.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"degree must be a non-negative integer, got {n!r}")
    if not (isinstance(alpha, (int, np.integer)) and alpha >= 0):
        raise ValueError(f"alpha must be a non-negative integer, got {alpha!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    if n == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, curr = curr, ((2.0 * k - 1.0 + alpha - x) * curr - (k - 1.0 + alpha) * prev) / k
    # once a term overflows the rest are inf or NaN, so checking the last suffices
    if not math.isfinite(curr):
        raise NumericalError(f"L_{n}^({alpha})({x!r}) overflows a float")
    return curr


def _check_level(name: str, value: int) -> int:
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def transition_probability(m: int, n: int, gamma: float) -> float:
    """Probability of the Fock transition m -> n at excitation parameter gamma.

    Small cases are evaluated directly (the m = 0 row then reproduces the
    Poisson mass function bit for bit); large factorials or extreme gamma
    switch to log-space assembly.
    """
    m = _check_level("m", m)
    n = _check_level("n", n)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma!r}")
    if gamma == 0.0:
        return 1.0 if m == n else 0.0
    mu, nu = (m, n) if m <= n else (n, m)
    d = nu - mu
    lag = laguerre_assoc(mu, d, gamma)
    if lag == 0.0:
        return 0.0
    if nu <= _DIRECT_NU_MAX and gamma <= _DIRECT_GAMMA_MAX:
        try:
            falling = math.factorial(nu) // math.factorial(mu)
            return math.exp(-gamma) * gamma ** d * (lag * lag) / falling
        except OverflowError:
            pass
    log_p = (
        math.lgamma(mu + 1)
        - math.lgamma(nu + 1)
        + d * math.log(gamma)
        - gamma
        + 2.0 * math.log(abs(lag))
    )
    return math.exp(log_p)


@dataclass(frozen=True)
class TransitionRow:
    """Truncated row of transition probabilities from one initial level."""

    initial_level: int
    gamma: float
    probs: np.ndarray
    tail_bound: float


def transition_row(m: int, gamma: float, tail_epsilon: float = 1e-8) -> TransitionRow:
    """Row P_m,0..N* truncated where the remaining mass drops below tail_epsilon.

    The initial window comes from a Poisson-style estimate (rows are
    concentrated near gamma + m with sub-Poissonian tails) and is extended
    until row completeness certifies the remainder.
    """
    m = _check_level("m", m)
    if not (0.0 < tail_epsilon <= 1e-3):
        raise ValueError(f"tail_epsilon must lie in (0, 1e-3], got {tail_epsilon!r}")
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma!r}")
    mean = gamma + m
    guess = int(math.ceil(mean + 10.0 * math.sqrt(mean + 1.0) + 20.0))
    if guess > ROW_LIMIT:
        raise NumericalError(
            f"transition row for m={m}, gamma={gamma} would need more than "
            f"{ROW_LIMIT} levels"
        )
    probs = [transition_probability(m, n, gamma) for n in range(guess + 1)]
    total = math.fsum(probs)
    while 1.0 - total >= tail_epsilon:
        extend_to = 2 * len(probs)
        if extend_to > ROW_LIMIT:
            raise NumericalError(
                f"transition row for m={m}, gamma={gamma} did not reach the "
                f"tail target within {ROW_LIMIT} levels",
                residual=1.0 - total,
            )
        probs.extend(transition_probability(m, n, gamma) for n in range(len(probs), extend_to))
        total = math.fsum(probs)
    return TransitionRow(m, gamma, np.asarray(probs), max(0.0, 1.0 - total))


@dataclass(frozen=True)
class TransitionTable:
    """Dense P_mn matrix up to max_level with per-row truncated-tail bounds."""

    gamma: float
    max_level: int
    probs: np.ndarray
    tail_bounds: np.ndarray


def transition_table(gamma: float, max_level: int) -> TransitionTable:
    """All P_mn for m, n <= max_level; symmetry holds exactly by construction."""
    max_level = _check_level("max_level", max_level)
    size = max_level + 1
    probs = np.zeros((size, size))
    for m in range(size):
        for n in range(m, size):
            p = transition_probability(m, n, gamma)
            probs[m, n] = p
            probs[n, m] = p
    row_sums = np.array([math.fsum(probs[m]) for m in range(size)])
    tails = np.maximum(0.0, 1.0 - row_sums)
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
    alpha = complex(alpha)
    beta = complex(beta)
    u = complex(u)
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
    """
    m = _check_level("m", m)
    n = _check_level("n", n)
    u = complex(u)
    gamma = abs(u) ** 2
    mu, nu = (m, n) if m <= n else (n, m)
    d = nu - mu
    lag = laguerre_assoc(mu, d, gamma)
    root = math.exp(0.5 * (math.lgamma(mu + 1) - math.lgamma(nu + 1)))
    core = (-u.conjugate()) ** d if n >= m else u ** d
    return root * core * lag * cmath.exp(-0.5 * gamma - 1j * phi)


def multi_axis_probability(m, n, per_axis_gamma) -> float:
    """Product of per-axis transition probabilities for Cartesian Fock states."""
    m = tuple(m)
    n = tuple(n)
    gammas = tuple(per_axis_gamma)
    if not (len(m) == len(n) == len(gammas)):
        raise ValueError(
            f"length mismatch: m has {len(m)}, n has {len(n)}, "
            f"gammas has {len(gammas)}"
        )
    p = 1.0
    for mi, ni, gi in zip(m, n, gammas):
        p *= transition_probability(mi, ni, gi)
    return p


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


def _compositions(total: int, parts: int):
    # all ordered splits of `total` into `parts` non-negative integers
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


#: Enumeration guard: product of the two multiplet sizes must stay below this.
ENUMERATION_LIMIT = 10_000_000


def degenerate_probability(m_level: int, n_level: int, spec: DegenerateSpec,
                           dimension: int | None = None,
                           convention: str = "sum") -> float:
    """Total transition probability between degenerate energy levels.

    Enumerates every multi-index with level sums m_level and n_level and adds
    up the product-form probabilities. ``convention`` selects how the
    degenerate *initial* multiplet is handled:

    * ``"sum"`` adds the contributions of every initial substate (the form
      usually quoted for low levels, e.g. the 2-D closed forms in w);
    * ``"average"`` divides by the initial multiplicity, giving a transition
      probability from an unpolarized mixture.

    The two agree for m_level = 0. The result depends only on the total w
    for transitions out of the ground level; for excited initial levels the
    per-axis split matters only through w as well, but the w-dependence does
    not coincide with the one-dimensional formula.
    """
    m_level = _check_level("m_level", m_level)
    n_level = _check_level("n_level", n_level)
    if convention not in ("sum", "average"):
        raise ValueError(f"convention must be 'sum' or 'average', got {convention!r}")
    N = len(spec.axis_gammas) if dimension is None else int(dimension)
    if N != len(spec.axis_gammas):
        raise ValueError(
            f"dimension {N} does not match the {len(spec.axis_gammas)} axis "
            "parameters supplied"
        )
    m_count = math.comb(m_level + N - 1, N - 1)
    n_count = math.comb(n_level + N - 1, N - 1)
    if m_count * n_count > ENUMERATION_LIMIT:
        raise ResourceError(
            f"degenerate enumeration would visit {m_count * n_count} index "
            f"pairs (limit {ENUMERATION_LIMIT})"
        )
    gammas = spec.axis_gammas
    total = math.fsum(
        multi_axis_probability(mvec, nvec, gammas)
        for mvec in _compositions(m_level, N)
        for nvec in _compositions(n_level, N)
    )
    if convention == "average":
        total /= m_count
    return total
