"""Excitation of a harmonic trap with a moving center.

Library layout:

* :mod:`trapmotion.model` - oscillator parameters and trajectory families;
* :mod:`trapmotion.excitation` - the excitation amplitude u(t), the
  fixed-frame amplitude delta(t), one-pass time profiles of both, and all
  closed-form special cases;
* :mod:`trapmotion.transitions` - one Laguerre kernel for Fock transition
  probabilities, coherent-state amplitudes, degenerate-level sums;
* :mod:`trapmotion.oracle` - split-step grid propagation for independent
  verification of every analytic probability;
* :mod:`trapmotion.transport` - trajectory optimization for excitation-free
  transport;
* :mod:`trapmotion.cli` - the ``trapmotion`` command-line front end.
"""

from .errors import (
    ConfigError,
    NumericalError,
    ResonanceError,
    ResourceError,
    TrapmotionError,
    TruncationWarning,
)
from .model import (
    HBAR_SI,
    Axis,
    OscillatorParams,
    Trajectory,
    make_axis,
    make_circular,
    make_constant_acceleration,
    make_kick,
    make_polynomial,
    make_sinusoidal,
)
from .excitation import (
    ExcitationProfile,
    ExcitationResult,
    QuadratureConfig,
    closed_form_circular,
    closed_form_circular_G,
    closed_form_circular_slow,
    closed_form_constant_accel,
    closed_form_kick_G,
    closed_form_kick_stop,
    closed_form_sinusoidal,
    closed_form_sinusoidal_resonance,
    excitation_amplitude,
    excitation_profile,
    fixed_frame_delta,
    uniform_motion_gamma,
)
from .transitions import (
    DegenerateSpec,
    TransitionRow,
    TransitionTable,
    coherent_amplitude,
    degenerate_probability,
    multi_axis_probability,
    transition_amplitude,
    transition_probability,
    transition_row,
    transition_table,
)
from .oracle import (
    Grid,
    GridState,
    coherent_state,
    fock_state,
    load_snapshot,
    make_grid,
    measure_transitions,
    moving_frame_coherent_state,
    overlap,
    propagate,
    save_snapshot,
)
from .transport import (
    PiecewiseAccelerationFamily,
    PolynomialFamily,
    TransportProblem,
    TransportSolution,
    objective,
    optimize,
)

__version__ = "0.1.0"
