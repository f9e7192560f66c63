"""Excitation amplitude of the moving trap and its closed-form special cases.

The central object is the dimensionless complex amplitude

    u(t) = -i sqrt(M / (2 hbar omega)) * integral_0^t b''(tau) e^{-i omega tau} d tau,

the Fourier component of the center acceleration at the trap frequency. Its
squared magnitude gamma = |u|^2 is the mean number of quanta excited from the
ground state in the frame moving with the trap, and feeds the Fock transition
probabilities in :mod:`trapmotion.transitions`.

The fixed-frame counterpart

    delta(t) = -i (2 M hbar omega)^{-1/2} * integral_0^t f(tau) e^{+i omega tau} d tau,

with effective force f = M omega^2 b, measures excitation relative to the
non-moving oscillator center; |delta|^2 and gamma agree whenever the moving
and fixed centers coincide (b = b' = 0), and disagree otherwise - the classic
pitfall of applying the forced-oscillator formula to a moving trap.

The phase

    phi(t) = integral_0^t { Im[u'(tau) u*(tau)] + M b(tau) b''(tau) / hbar } d tau

completes the coherent-state transition amplitude; it is only meaningful for
trajectories starting from the origin at rest and is reported as None
otherwise.

An axis built from a piece table (``Axis.pieces``: every built-in 1-D
family) gets all three in closed form: on each piece b is a polynomial plus
at most one harmonic of a linear phase, so every integral above is a finite
sum of exponential-polynomial moments. Other axes (``make_axis`` wrappers and
the circle, whose ramps turn a quintic phase) go through the Filon quadrature
of :mod:`trapmotion.quadrature`, which the tests also use as the independent
cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Axis, OscillatorParams, Trajectory
from .quadrature import QuadratureConfig, running_integrals
from .errors import NumericalError, ResonanceError

#: Relative detuning below which the sinusoidal/circular closed forms are
#: treated as singular and the resonance expression must be used instead.
RESONANCE_DETUNING = 1e-9


@dataclass(frozen=True)
class ExcitationResult:
    """Amplitude u(t), excitation parameter gamma = |u|^2, and phase phi.

    ``phi`` is None when the trajectory does not start from the origin at
    rest (the phase formula does not apply) or when the caller skipped the
    phase integral.
    """

    u: complex
    gamma: float
    phi: float | None
    t: float


def _resolve_axis(traj) -> tuple[Axis, float | None]:
    """The one axis of ``traj`` and the duration its times must not pass."""
    if isinstance(traj, Trajectory):
        if traj.dimension != 1:
            raise ValueError("a 2-D trajectory is two oscillators: pass each of its split()")
        return traj.axes[0], traj.duration
    if isinstance(traj, Axis):
        return traj, None
    raise TypeError(f"expected Trajectory or Axis, got {type(traj).__name__}")


def _check_time(t: float, duration: float | None) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if duration is not None and t > duration * (1.0 + 1e-12):
        raise ValueError(f"time {t!r} exceeds trajectory duration {duration!r}")


def _prefactors(params: OscillatorParams) -> dict[str, complex]:
    """The factors that make amplitudes of the "u" and "delta" integrals."""
    omega, mass = params.omega, params.mass
    return {"u": -1j * math.sqrt(mass / (2.0 * params.hbar * omega)),
            "delta": -1j * mass * omega ** 2 / math.sqrt(2.0 * mass * params.hbar * omega)}


def excitation_amplitude(traj, params: OscillatorParams, t: float,
                         cfg: QuadratureConfig | None = None, *,
                         with_phase: bool = True) -> ExcitationResult:
    """Moving-frame excitation amplitude u(t), in closed form from the
    axis's piece table or else by oscillatory quadrature.

    ``traj`` is a 1-D :class:`Trajectory` or a bare :class:`Axis`; a 2-D
    trajectory raises ValueError (take its axes from ``traj.split()``). Set
    ``with_phase=False`` to skip the cumulative phase integral when only
    gamma is needed; a quadrature then samples only b''. Neither computes
    delta.
    """
    _, got, _, _ = _excite(traj, params, (t,), cfg, ("u", "phi") if with_phase else ("u",))
    phi = float(got["phi"][0]) if "phi" in got else None
    return ExcitationResult(complex(got["u"][0]), float(got["gamma"][0]), phi, t)


def fixed_frame_delta(traj, params: OscillatorParams, t: float,
                      cfg: QuadratureConfig | None = None) -> complex:
    """Fixed-frame amplitude delta(t) from the effective force M omega^2 b;
    only b is sampled. ``traj`` is a 1-D Trajectory or a bare Axis."""
    _, got, _, _ = _excite(traj, params, (t,), cfg, ("delta",))
    return complex(got["delta"][0])


# --- time profiles ------------------------------------------------------------

@dataclass(frozen=True)
class ExcitationProfile:
    """u, gamma, phi and the fixed-frame delta at a list of instants.

    Arrays follow the order of the requested instants, duplicates included.
    ``phi`` is None when the trajectory does not start from the origin at
    rest. ``level`` is the refinement level the profile converged at and
    ``n_intervals`` the quadrature intervals it used there (both 0 when no
    instant lies after t = 0, and on the closed-form path of an axis with a
    piece table).
    """

    t: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray | None
    delta: np.ndarray
    level: int
    n_intervals: int


def _integrate(ax: Axis, params: OscillatorParams, instants: np.ndarray,
               cfg: QuadratureConfig, kernels: tuple[str, ...]):
    """Converged running integrals of ``kernels`` at the sorted, unique
    ``instants`` by quadrature: a subsequence of ("u", "phi", "delta"), where
    "u" and "delta" are the integrals before their prefactors and "phi" needs
    "u". Only the evaluators the kernels need are sampled: b'' for u, b for
    delta, both for phi. Returns ``(level, values, n_intervals)`` as
    :func:`running_integrals` does, with a row per kernel.
    """
    omega = params.omega
    pref_sq = params.mass / (2.0 * params.hbar * omega)
    mass_over_hbar = params.mass / params.hbar
    phase = "phi" in kernels

    def batch(grid, te, carried):
        wt = omega * te
        c, s = np.cos(wt), np.sin(wt)
        values, scales = [], []     # in kernel order: u, phi, delta
        if "u" in kernels:
            acc = np.asarray(ax.bddot(te), dtype=float)
            kernel = acc * (c - 1j * s)         # acc e^{-i omega t}
            if phase:
                cum = grid.cumulative(kernel, -omega)
            values.append(cum[grid.ends] if phase else grid.integral(kernel, -omega))
            scales.append(grid.trapezoid(np.abs(acc)))
        if phase or "delta" in kernels:
            pos = np.asarray(ax.b(te), dtype=float)
        if phase:
            # Im[u' u*] = |pref|^2 Im[kernel * conj(running kernel integral)]
            cum += carried[0]
            g = (pref_sq * (kernel.imag * cum.real - kernel.real * cum.imag)
                 + mass_over_hbar * pos * acc)
            values.append(grid.integral(g))
            scales.append(grid.trapezoid(np.abs(g)))
        if "delta" in kernels:
            values.append(grid.integral(pos * (c + 1j * s), omega))
            scales.append(grid.trapezoid(np.abs(pos)))
        return values, scales

    return running_integrals(batch, len(kernels), instants, cfg, "excitation quadrature",
                             omega=omega, feature_time=ax.feature_time,
                             breakpoints=ax.breakpoints)


# --- moments: the same integrals of a piece table in closed form -------------
# On piece k, in its own time sigma = t - s_k, b and b'' are sums of terms
# c(sigma) e^{i lambda sigma} with c a polynomial: lambda = 0 for the
# polynomial and +-Omega_k for the harmonic's two exponentials. Each piece is
# integrated in x = sigma / H_k on [0, 1], H_k the span of the piece in use.


def _series_terms(r: float) -> int:
    """Terms of the power series of e^{i z} that, for |z| <= r, leave out
    less than 1e-18 of it beyond its largest term."""
    n, term = 1, 1.0
    while term > 1e-18 or n <= r:
        term *= r / n
        n += 1
    return n


def _moments(nu, x, degree: int) -> np.ndarray:
    """``M[m] = integral_0^x y^m e^{i nu y} dy`` for m = 0..degree, at each
    entry of the broadcast ``nu`` and ``x`` (0 <= x <= 1).

    Where |nu x| <= max(2, 0.4 degree) the power series in nu x is summed,
    elsewhere the recurrence of integration by parts,
    M[m] = (x^m e^{i nu x} - m M[m-1]) / (i nu); each loses fewest digits on
    its side. The choice and the truncation read nu x only, so the moments
    do not depend on the coefficients that multiply them.
    """
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    shape, nu, x = x.shape, nu.ravel(), x.ravel()
    z = nu * x
    out = np.empty((degree + 1, z.size), complex)
    near = np.abs(z) <= max(2.0, 0.4 * degree)
    if near.any():
        xs, zs = x[near], 1j * z[near]
        n = _series_terms(float(np.abs(zs).max()))
        powers = np.empty((n, zs.size), complex)
        powers[0] = 1.0
        for k in range(1, n):
            powers[k] = powers[k - 1] * zs / k
        m = np.arange(degree + 1.0)[:, None]
        out[:, near] = xs ** (m + 1.0) * ((1.0 / (m + np.arange(1.0, n + 1.0))) @ powers)
    far = ~near
    if far.any():
        xf = x[far]
        wave, inv = np.exp(1j * z[far]), 1.0 / (1j * nu[far])
        out[0, far] = acc = (wave - 1.0) * inv
        for m in range(1, degree + 1):
            out[m, far] = acc = (xf ** m * wave - m * acc) * inv
    return out.reshape((degree + 1,) + shape)


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative along the last axis (lowest power first)."""
    return c[..., 1:] * np.arange(1.0, c.shape[-1]) if c.shape[-1] > 1 else 0.0 * c


def _scaled(c: np.ndarray, h) -> np.ndarray:
    """Coefficients of c(h x) from those of c(sigma)."""
    return c * np.asarray(h, dtype=float)[..., None] ** np.arange(c.shape[-1])


def _integral(terms, x: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """``integral_0^x`` of the sum of c(y) e^{i nu y} over ``terms``, with
    ``nu`` an array over pieces and ``c`` coefficients (..., piece, power),
    at each point ``x`` of piece ``piece``. Where every |nu x| <= 2 the
    terms' Taylor coefficients at y = 0 are summed before they are
    integrated, so that terms which cancel there (b(0) = 0 as a polynomial
    plus a harmonic) cancel to the rounding of each power, not of the terms.
    Elsewhere the terms are integrated one by one, by :func:`_moments`."""
    reach = np.max([np.abs(nu[piece]) for nu, _ in terms], axis=0) * x
    near = reach <= 2.0
    lead = np.broadcast_shapes(*(c.shape[:-2] for _, c in terms))
    out = np.zeros(lead + x.shape, complex)
    if near.any():
        n = _series_terms(float(reach[near].max()))
        width = max(c.shape[-1] for _, c in terms) + n
        taylor = np.zeros(lead + (len(terms[0][0]), width), complex)
        for nu, c in terms:
            rate = np.cumprod(np.concatenate(
                (np.ones((len(nu), 1)), 1j * nu[:, None] / np.arange(1.0, n)), axis=1), axis=1)
            for m in range(c.shape[-1]):
                taylor[..., m:m + n] += c[..., m, None] * rate
        power = np.arange(1.0, width + 1.0)
        out[..., near] = np.einsum("...qp,qp->...q", taylor[..., piece[near], :],
                                   x[near, None] ** power / power)
    far = ~near
    if far.any():
        for nu, c in terms:
            out[..., far] += np.einsum("...qm,mq->...q", c[..., piece[far], :],
                                       _moments(nu[piece[far]], x[far], c.shape[-1] - 1))
    return out


def _piece_integral(terms, x: np.ndarray) -> np.ndarray:
    """:func:`_integral` of one piece's terms (nu, c), each nu a float."""
    if not terms:
        return np.zeros(len(x), complex)
    return _integral([(np.array([nu]), c[None]) for nu, c in terms], x, np.zeros(len(x), int))


def _antiderivative(terms, X: float):
    """``integral_0^x`` of the terms' sum, as terms again, for x in [0, X]:
    a power series where |nu| X <= 2, else by parts, [e^{i nu y} q(y)]_0^x
    with q = sum_j (-1)^j c^(j) / (i nu)^(j+1)."""
    out = []
    for nu, c in terms:
        if abs(nu) * X <= 2.0:
            n = _series_terms(abs(nu) * X)
            rate = np.cumprod(np.append(1.0 + 0j, 1j * nu / np.arange(1.0, n)))
            series = np.zeros(len(c) + n, complex)
            for m, cm in enumerate(c):
                series[m + 1:m + 1 + n] += cm * rate / np.arange(m + 1.0, m + 1.0 + n)
            out.append((0.0, series))
        else:
            q, d, step = np.zeros(len(c), complex), c, -1.0 / (1j * nu)
            for j in range(len(c)):
                q[:len(d)] -= step ** (j + 1) * d
                d = _derivative(d)
            out += [(nu, q), (0.0, -q[:1])]
    return out


def _product(left, right):
    """Terms of (sum of left) times conj(sum of right), one per frequency."""
    out = {}
    for nu, c in left:
        for mu, d in right:
            p, q = np.convolve(c, d.conj()), out.get(nu - mu)
            if q is not None:
                p, q = (p, q) if len(p) >= len(q) else (q, p)
                p = p + 0j      # a complex copy
                p[:len(q)] += q
            out[nu - mu] = p
    return list(out.items())


def _closed_form(pieces, params: OscillatorParams, instants: np.ndarray,
                 kernels: tuple[str, ...]) -> np.ndarray:
    """The rows of :func:`_integrate` from ``Axis.pieces``, in closed form.

    ``pieces`` may stack several coefficient tables on leading axes of its
    rows (same edges, no harmonic) for "u" and "delta"; the rows then carry
    those axes before the instants'. u and delta are linear in the
    coefficients and summed over every piece and instant at once; phi,
    quadratic, runs piece by piece: on piece k, with K(tau) the piece's own
    part of the u integral,
    phi = phi_k + |pref|^2 Im[conj(U_k) U(t) + integral_0^tau K' conj(K)]
    + (M / hbar) integral_0^tau b b''.
    """
    omega = params.omega
    starts, rows, harmonics = pieces
    t_max = instants[-1]
    used = int(np.searchsorted(starts, t_max))     # pieces that start before t_max
    s = np.asarray(starts[:used], dtype=float)
    H = np.append(s[1:], t_max) - s
    k_of = np.maximum(np.searchsorted(s, instants, side="right") - 1, 0)
    x = (instants - s[k_of]) / H[k_of]
    pk = np.concatenate((k_of, np.arange(used)))       # instants, then piece ends
    px = np.concatenate((x, np.ones(used)))
    poly = np.asarray(rows, dtype=float)[..., :used, :]
    position = [(np.zeros(used), poly)]
    accel = [(np.zeros(used), _derivative(_derivative(poly)))]
    if harmonics:
        r, rate, theta, odd = np.array(harmonics[:used], dtype=float).T
        # r cos(Omega sigma + theta) = h e^{i Omega sigma} + c.c. with h = r e^{i theta} / 2,
        # and r sin(...) the same with h = -i r e^{i theta} / 2
        h = (0.5 * r * np.where(odd, -1j, 1.0) * np.exp(1j * theta))[:, None]
        curvature = -(rate ** 2)[:, None]
        position += [(rate, h), (-rate, h.conj())]
        accel += [(rate, curvature * h), (-rate, curvature * h.conj())]

    def running(terms, shift):
        """Values at the instants and at every piece start, then t_max."""
        local = _integral([((lam + shift) * H, _scaled(c, H)) for lam, c in terms], px, pk)
        local = local * H[pk] * np.exp(1j * shift * s[pk])
        ends = np.cumsum(local[..., len(instants):], axis=-1)
        at = np.concatenate((np.zeros_like(ends[..., :1]), ends), axis=-1)
        return at[..., k_of] + local[..., :len(instants)], at

    out = {}
    if "u" in kernels:
        out["u"], u_at = running(accel, -omega)
    if "delta" in kernels:
        out["delta"] = running(position, omega)[0]
    if "phi" in kernels:
        pref_sq = params.mass / (2.0 * params.hbar * omega)
        mass_over_hbar = params.mass / params.hbar
        phi, carried = np.zeros(len(instants)), 0.0
        for k, h in enumerate(H.tolist()):
            lo, hi = np.searchsorted(k_of, (k, k + 1))
            xs = np.append(x[lo:hi], 1.0)
            b_k, a_k = ([(lam[k] * h, _scaled(c[k], h)) for lam, c in terms
                         if c[k].any()] for terms in (position, accel))
            drive = [(nu - omega * h, c) for nu, c in a_k]
            # near the piece start the by-parts form cancels: sum every series there
            head = xs * max((abs(nu) for nu, _ in drive), default=0.0) <= 2.0
            area = np.zeros(len(xs), complex)
            for group, reach in ((head, xs[head].max(initial=0.0)), (~head, 1.0)):
                if group.any():
                    area[group] = _piece_integral(
                        _product(drive, _antiderivative(drive, reach)), xs[group])
            cross = (np.conj(u_at[k]) * np.append(out["u"][lo:hi], u_at[k + 1])).imag
            values = (carried + pref_sq * (cross + h * h * area.imag)
                      + mass_over_hbar * h * _piece_integral(_product(b_k, a_k), xs).real)
            phi[lo:hi], carried = values[:-1], values[-1]
        out["phi"] = phi
    return np.array([out[k] for k in kernels])


def _excite(traj, params: OscillatorParams, times, cfg: QuadratureConfig | None,
            kernels: tuple[str, ...]):
    """Resolve ``traj``, check ``times`` and compute ``kernels`` at their
    unique instants (all but "phi" where phi is undefined), in closed form
    where the axis has pieces, else by quadrature. Returns the times, each
    kernel's prefactored values in request order (phi real, gamma beside u),
    the level and the interval count (both 0 if all t = 0 or in closed form).
    A value that is not finite raises NumericalError."""
    ax, duration = _resolve_axis(traj)
    t_req = np.array([float(t) for t in times], dtype=float)
    for t in t_req:
        _check_time(t, duration)
    if not (ax.starts_at_zero and ax.starts_at_rest):
        kernels = tuple(k for k in kernels if k != "phi")
    # a sorted set, not np.unique: 2 us against 9 us for one instant
    instants = np.array(sorted(set(t_req.tolist())))
    where = np.searchsorted(instants, t_req)
    level, values, n_intervals = 0, np.zeros((len(kernels), len(instants))), 0
    if len(instants) and instants[-1] > 0.0:
        if ax.pieces is not None:
            values = _closed_form(ax.pieces, params, instants, kernels)
        else:
            level, values, n_intervals = _integrate(ax, params, instants,
                                                    cfg or QuadratureConfig(), kernels)
    prefactors = _prefactors(params)
    got = {k: prefactors[k] * row[where] if k in prefactors else row.real[where]
           for k, row in zip(kernels, values)}
    if "u" in got:
        got["gamma"] = got["u"].real ** 2 + got["u"].imag ** 2
    for k, row in got.items():
        bad = ~np.isfinite(row)
        if bad.any():
            raise NumericalError(f"excitation {k} is {row[bad][0]} at t = {t_req[bad][0]}")
    return t_req, got, level, n_intervals


def excitation_profile(traj, params: OscillatorParams, times,
                       cfg: QuadratureConfig | None = None) -> ExcitationProfile:
    """u, gamma, phi and delta at every instant of ``times`` from one pass.

    An axis with a piece table gets them in closed form. Otherwise all
    instants are prefixes of the same cumulative integrals, so one grid
    over [0, max(times)] serves them all: it is split at the acceleration
    breakpoints (sampled one-sidedly) and at each instant (a plain node), and
    doubled until every instant's u, phi (when defined) and delta each change
    by at most ``cfg.tol`` times their own L1 scale up to that instant.
    Instants may repeat, come in any order, and include t = 0. ``traj`` is a
    1-D Trajectory or a bare Axis. Fails with :class:`NumericalError` like
    :func:`excitation_amplitude`.
    """
    t_req, got, level, n_intervals = _excite(traj, params, times, cfg, ("u", "phi", "delta"))
    return ExcitationProfile(t=t_req, u=got["u"], gamma=got["gamma"], phi=got.get("phi"),
                             delta=got["delta"], level=level, n_intervals=n_intervals)


# --- closed forms -----------------------------------------------------------

def closed_form_constant_accel(a: float, params: OscillatorParams, t: float) -> float:
    """gamma(t) for b'' = a: (2 M a^2 / hbar omega^3) sin^2(omega t / 2).

    Vanishes at every full period, so uniform acceleration never heats the
    oscillator permanently.
    """
    w = params.omega
    return (2.0 * params.mass * a * a / (params.hbar * w ** 3)) * math.sin(0.5 * w * t) ** 2


def closed_form_kick_G(v: float, params: OscillatorParams) -> float:
    """Steady excitation G = M v^2 / (2 hbar omega) after a short velocity ramp.

    Holds for any ramp profile once the ramp time is well under one trap
    period.
    """
    return params.mass * v * v / (2.0 * params.hbar * params.omega)


def closed_form_kick_stop(v: float, params: OscillatorParams, T: float) -> float:
    """Excitation 4 G sin^2(omega T / 2) after a sudden stop at time T."""
    return 4.0 * closed_form_kick_G(v, params) * math.sin(0.5 * params.omega * T) ** 2


def _guard_resonance(Omega: float, params: OscillatorParams) -> None:
    if abs(Omega - params.omega) < RESONANCE_DETUNING * params.omega:
        raise ResonanceError(
            "drive frequency is at the trap resonance; the generic closed form "
            "is singular there - use closed_form_sinusoidal_resonance for the "
            "return-instant value"
        )


def closed_form_sinusoidal(R: float, Omega: float, params: OscillatorParams, t: float) -> float:
    """gamma(t) for b = R (1 - cos(Omega t)), away from resonance.

    At return instants t = 2 pi s / Omega this reduces to
    4 G (Omega omega)^2 / (Omega^2 - omega^2)^2 * sin^2(s pi omega / Omega)
    with G = M (R Omega)^2 / (2 hbar omega).
    """
    _guard_resonance(Omega, params)
    w = params.omega
    G = params.mass * (R * Omega) ** 2 / (2.0 * params.hbar * w)
    wm = w - Omega
    wp = w + Omega
    sm = math.sin(0.5 * wm * t)
    sp = math.sin(0.5 * wp * t)
    bracket = (sm / wm) ** 2 + (sp / wp) ** 2 + 2.0 * math.cos(Omega * t) * sm * sp / (wm * wp)
    return G * Omega ** 2 * bracket


def closed_form_sinusoidal_resonance(R: float, params: OscillatorParams, s: float) -> float:
    """Resonant drive (Omega = omega) after s full drive periods: G (pi s)^2."""
    G = params.mass * (R * params.omega) ** 2 / (2.0 * params.hbar * params.omega)
    return G * (math.pi * s) ** 2


def closed_form_circular(R: float, Omega: float, params: OscillatorParams, s: float) -> float:
    """Total excitation w_s after s revolutions of a circularly driven 2-D trap.

    w_s = 2 M (R Omega omega)^2 (omega^2 + Omega^2)
          / [hbar omega (omega^2 - Omega^2)^2] * sin^2(s pi omega / Omega),
    assuming the rotation starts and stops over windows much shorter than the
    trap period.
    """
    _guard_resonance(Omega, params)
    w = params.omega
    num = 2.0 * params.mass * (R * Omega * w) ** 2 * (w ** 2 + Omega ** 2)
    den = params.hbar * w * (w ** 2 - Omega ** 2) ** 2
    return (num / den) * math.sin(s * math.pi * w / Omega) ** 2


def closed_form_circular_G(R: float, Omega: float, params: OscillatorParams) -> float:
    """Slow-rotation excitation scale G = 2 M R^2 Omega^2 / (hbar omega)."""
    return 2.0 * params.mass * R * R * Omega * Omega / (params.hbar * params.omega)


def closed_form_circular_slow(R: float, Omega: float, params: OscillatorParams, s: float) -> float:
    """Slow-rotation (Omega << omega) limit: w_s = G sin^2(s pi omega / Omega)."""
    return closed_form_circular_G(R, Omega, params) * math.sin(s * math.pi * params.omega / Omega) ** 2


def uniform_motion_gamma(v: float, params: OscillatorParams, t: float) -> float:
    """Fixed-frame gamma(t) for a uniformly moving center b = v t.

    Grows without bound: the t^2 term is just the potential energy of the
    displaced fixed-frame origin in units of hbar omega, which is why the
    fixed-frame formula must not be read as trap heating.
    """
    w = params.omega
    wt = w * t
    bracket = wt ** 2 + 4.0 * math.sin(0.5 * wt) ** 2 - 2.0 * wt * math.sin(wt)
    return params.mass * v * v / (2.0 * params.hbar * w) * bracket
