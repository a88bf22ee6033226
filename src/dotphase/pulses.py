"""Pulse-level gate physics for the double-dot charge qubit.

Single-qubit pulses act on {|g>, |e>}; the qubit-cavity pulse acts on the
ordered basis {|g0>, |g1>, |e0>, |e1>}. Pulse dynamics depend only on the
dimensionless Rabi angle (Omega * t) and the laser phase, so those are the
stored quantities; absolute frequencies and times enter only the
feasibility arithmetic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ValidationError, finite_result
from .statevector import _unitary_deviation


def _check_finite(rabi_angle: float, phase: float) -> None:
    """The one rule for pulse parameters, for PulseSpec and fit_pulse's
    objective alike."""
    if not (math.isfinite(rabi_angle) and math.isfinite(phase)):
        raise ValidationError("pulse parameters must be finite")


@dataclass(frozen=True)
class PulseSpec:
    """Rabi angle (Omega*t) and laser phase of one resonant pulse, radians."""

    rabi_angle: float
    phase: float

    def __post_init__(self):
        _check_finite(self.rabi_angle, self.phase)

    @property
    def canonical_rabi_angle(self) -> float:
        return self.rabi_angle % math.tau


class Quantity(NamedTuple):
    """A number with an explicit unit tag."""

    value: float
    unit: str


@dataclass
class PhysicalParams:
    """Device constants for the feasibility arithmetic.

    Energies in meV, cavity coupling in MHz, times in seconds.
    """

    # no formula reads omega1; it stays because existing configs and reports
    # send it (the feasibility subcommand's omega1_mev key)
    omega1: float = 1e-4          # meV
    omega2: float = 0.1           # meV
    omega_c: float = 300.0        # MHz
    delta: float = 1.0            # meV, laser detuning
    tunneling_t: float = 0.01     # meV
    level_split_delta: float = 10.0  # meV, E_e - E_i
    coherence_time: float = 10.0  # s
    single_gate_time: float = 3e-7  # s
    two_gate_time: float = 1e-4   # s

    def __post_init__(self):
        for name in (
            "omega1", "omega2", "omega_c", "delta", "tunneling_t",
            "level_split_delta", "coherence_time", "single_gate_time",
            "two_gate_time",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.delta == 0:
            raise ValidationError("detuning delta must be nonzero")
        for name in ("coherence_time", "single_gate_time", "two_gate_time"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


@dataclass
class FeasibilityReport:
    gamma: float
    omega_eff: Quantity
    single_gate_time: float
    two_gate_time: float
    protocol_time: float
    max_qubits: int
    requested_qubits: int
    warnings: list = field(default_factory=list)


def single_pulse_unitary(p: PulseSpec) -> np.ndarray:
    """2x2 evolution of one resonant pulse.

    |g> -> -i e^{-i phi} sin(theta) |g> + cos(theta) |e>
    |e> ->    cos(theta) |g> - i e^{i phi} sin(theta) |e>

    The entries are ``_pulse_parts``'s, put into one array.
    """
    parts = _pulse_parts(p.rabi_angle, p.phase)
    return np.array([complex(re, im) for re, im in parts],
                    dtype=np.complex128).reshape(2, 2)


def _pulse_parts(th: float, ph: float) -> list[tuple[float, float]]:
    """(re, im) of each entry of single_pulse_unitary, in C order.

    Each entry is a Python scalar (cmath.exp rounds as np.exp does on a
    scalar, signed zeros included); the real off-diagonal entry cos(theta)
    has the +0.0 imaginary part that numpy gives a float cast to complex.
    """
    s, c = math.sin(th), math.cos(th)
    a = -1j * cmath.exp(-1j * ph) * s
    d = -1j * cmath.exp(1j * ph) * s
    return [(a.real, a.imag), (c, 0.0), (c, 0.0), (d.real, d.imag)]


def cavity_pulse_unitary(p: PulseSpec) -> np.ndarray:
    """4x4 qubit-cavity evolution on {g0, g1, e0, e1}.

    |g0> and |e1> are exact fixed points; {|g1>, |e0>} undergo a Rabi
    rotation by the effective angle with laser phase p.phase.
    """
    th, ph = p.rabi_angle, p.phase
    s, c = math.sin(th), math.cos(th)
    u = np.eye(4, dtype=np.complex128)
    u[1, 1] = c
    u[2, 1] = -1j * np.exp(1j * ph) * s
    u[1, 2] = -1j * np.exp(-1j * ph) * s
    u[2, 2] = c
    return u


def hadamard_pulse_params() -> PulseSpec:
    """Prescribed pulse for the Hadamard step: theta = pi/4, phi = pi/2."""
    return PulseSpec(rabi_angle=math.pi / 4, phase=math.pi / 2)


def phase_gate_pulse_params(phi: float) -> PulseSpec:
    """Prescribed pulse for a phi phase gate: theta = pi/2, phase = phi + pi/2.

    The generated matrix is diag(-e^{-i phi}, e^{i phi}).
    """
    if not math.isfinite(phi):
        raise ValidationError("phi must be finite")
    return PulseSpec(rabi_angle=math.pi / 2, phase=phi + math.pi / 2)


def gate_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance minimized over a global phase.

    sqrt(2*dim - 2*|trace(a^dag b)|); zero iff a = e^{i alpha} b.

    Computed on Python floats, one entry at a time in C order: the trace
    from float products and sums on real and imaginary parts, its modulus
    from math.hypot, and the Frobenius residual at the optimal phase the same
    way. No BLAS call and no numpy loop touches a value, so the bits do not
    depend on the host's BLAS kernel or SIMD level, and on a 2x2 gate this
    costs less than numpy's per-call overhead would.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape}, {b.shape}")
    return _distance(_parts(a), _parts(b), a.shape[0])


def _parts(a: np.ndarray) -> list[tuple[float, float]]:
    """(re, im) of each entry of a complex array, in C order."""
    return [(x.real, x.imag) for x in a.ravel().tolist()]


def _distance(a: list[tuple[float, float]], b: list[tuple[float, float]],
              dim: int) -> float:
    """gate_distance on two dim x dim gates given as (re, im) pairs in C order."""
    tr_re = tr_im = 0.0
    for (xr, xi), (yr, yi) in zip(a, b):
        tr_re += xr * yr + xi * yi
        tr_im += xr * yi - xi * yr
    r = math.hypot(tr_re, tr_im)
    if r < 1e-300:
        return math.sqrt(2.0 * dim)
    # evaluate at the optimal phase z = conj(tr) / |tr| directly; the
    # sqrt(2*dim - 2*|tr|) form loses half the significant digits near zero
    z_re, z_im = tr_re / r, -tr_im / r
    sq = 0.0
    for (xr, xi), (yr, yi) in zip(a, b):
        d_re = xr - (z_re * yr - z_im * yi)
        d_im = xi - (z_re * yi + z_im * yr)
        sq += d_re * d_re + d_im * d_im
    return math.sqrt(sq)


# fit_pulse's coarse grid of rabi angles and of phases: 512 points over
# [0, 2pi), read-only
FIT_GRID = np.arange(512) * (math.tau / 512)
FIT_GRID.flags.writeable = False

# |sin| and |cos| of FIT_GRID, the factors of fit_pulse's row bounds,
# read-only
_GRID_ABS_SIN = np.abs(np.sin(FIT_GRID))
_GRID_ABS_COS = np.abs(np.cos(FIT_GRID))
_GRID_ABS_SIN.flags.writeable = False
_GRID_ABS_COS.flags.writeable = False

# fit_pulse skips a grid row only when its bound plus this stays below the
# best overlap found. A grid value or bound is a few roundings of terms of
# modulus at most ~1, so each lies within ~1e-15 of its exact value; a
# margin this far above that keeps every row that could hold the best
# value, and still drops all but a handful of the 512.
ROW_BOUND_SLACK = 1e-9


def _pulse_overlap_grid(target: np.ndarray, thetas: np.ndarray, phis: np.ndarray):
    """|trace(U(theta,phi)^dag target)| for each theta row and phi column.

    The trace is the sum of each U entry's conjugate times the matching
    target entry, built in one pass over the given rows: in-place operations
    in the order and on the broadcast shapes of the whole-grid expression,
    so every value has that expression's bits, at less cost on the few rows
    fit_pulse passes. Each value is elementwise in its own theta and phi, so
    a row has the same bits whichever other rows are passed beside it:
    fit_pulse calls this on subsets of its grid's rows.
    """
    th = thetas[:, None]
    ph = phis[None, :]
    s, c = np.sin(th), np.cos(th)
    a = np.multiply(-1j * np.exp(-1j * ph), s)
    np.conjugate(a, out=a)
    a *= target[0, 0]
    a += c * target[1, 0]
    a += c * target[0, 1]
    b = np.multiply(-1j * np.exp(1j * ph), s)
    np.conjugate(b, out=b)
    b *= target[1, 1]
    a += b
    return np.abs(a)


def fit_pulse(target: np.ndarray) -> tuple[PulseSpec, float]:
    """Best single-pulse parameters reproducing ``target`` up to global phase.

    Deterministic coarse grid (``FIT_GRID`` for both angles) followed by
    Nelder-Mead refinement; the start is the first flat argmax of the grid's
    overlap, so ties go to the smallest rabi angle, then phase. Only the
    rows that can hold that maximum are evaluated: each row's overlap is
    bounded by the triangle inequality, the first row of largest bound gives
    a best value, and every row whose bound reaches it within
    ``ROW_BOUND_SLACK`` (2 to 8 rows for most unitary targets; all 512 for
    one whose bound is flat, such as Y) is evaluated in ascending order,
    each call one pass of ``_pulse_overlap_grid``. A row left out holds no
    value near the maximum, so the start is the full grid's.
    Always returns the best point found, even when the residual is large.
    The refinement is ``dotphase._simplex``, one fixed algorithm (scipy
    1.17.1's), so the result does not depend on which scipy, if any, is
    installed. Its objective is ``_distance`` of ``_pulse_parts`` and the
    target's (re, im) pairs, taken once a fit: ``gate_distance`` of
    ``single_pulse_unitary`` bit for bit, with no array made per call. A
    non-finite vertex raises ``ValidationError`` as ``PulseSpec`` does.
    """
    from ._simplex import nelder_mead

    target = np.asarray(target, dtype=np.complex128)
    if target.shape != (2, 2):
        raise DimensionError("target must be 2x2")
    if not np.all(np.isfinite(target)):
        raise ValidationError("target has a non-finite entry")
    dev = _unitary_deviation(target)
    # written so that a NaN deviation fails too
    if not dev <= 1e-10:
        raise ValidationError(f"target is not unitary (deviation {dev:.3e})")

    grid = FIT_GRID
    # both diagonal entries of a pulse have modulus 1 and both off-diagonal
    # ones are cos(theta), so no overlap in row r exceeds bound[r]
    t = np.abs(target)
    bound = (_GRID_ABS_SIN * (t[0, 0] + t[1, 1])
             + _GRID_ABS_COS * abs(target[1, 0] + target[0, 1]))
    top = int(np.argmax(bound))
    best = _pulse_overlap_grid(target, grid[top:top + 1], grid).max()
    rows = np.flatnonzero(bound + ROW_BOUND_SLACK >= best)
    tr = _pulse_overlap_grid(target, grid[rows], grid)
    # argmax of |tr| = argmin of distance; rows keep their order, so the
    # first flat index wins, which is the smallest theta then smallest phi
    i, j = np.unravel_index(int(np.argmax(tr)), tr.shape)
    x0 = np.array([grid[rows[i]], grid[j]])
    target_parts = _parts(target)

    # gate_distance(single_pulse_unitary(PulseSpec(th, ph)), target), bit
    # for bit, on Python floats alone
    def objective(x):
        th, ph = x
        _check_finite(th, ph)
        return _distance(_pulse_parts(th, ph), target_parts, 2)

    # x0 is the first vertex and no step drops the best one, so x is never
    # worse than x0, and fx is the objective at x
    x, fx = nelder_mead(objective, x0, xatol=1e-10, fatol=1e-12, maxiter=2000)
    return PulseSpec(x[0] % math.tau, x[1] % math.tau), fx


def effective_rabi(pp: PhysicalParams) -> Quantity:
    """Effective two-photon Rabi frequency Omega_c * (Omega_2 / delta).

    Omega_2 and delta share the meV unit, so the ratio is dimensionless and
    the result carries the unit of Omega_c (MHz).
    """
    return Quantity(finite_result("effective Rabi frequency",
                                  lambda: pp.omega_c * (pp.omega2 / pp.delta)), "MHz")


def separation_factor(pp: PhysicalParams) -> float:
    """Spatial separation factor t^2 / (Delta^2 + t^2), in [0, 1]."""
    t, d = pp.tunneling_t, pp.level_split_delta
    return finite_result("separation factor", lambda: t * t / (d * d + t * t))


def protocol_time(n: int, two_gate_time: float) -> float:
    """Total two-qubit-gate time n(n-1)/2 * tau for an n-qubit run."""
    if n < 1:
        raise DomainError(f"qubit count must be >= 1, got {n}")
    return finite_result("protocol time", lambda: n * (n - 1) / 2 * two_gate_time)


def max_qubits(coherence_time: float, two_gate_time: float) -> int:
    """Largest n whose protocol time fits inside the coherence budget."""
    if coherence_time <= 0 or two_gate_time <= 0:
        raise DomainError("times must be positive")
    ratio = 8 * coherence_time / two_gate_time
    # written so that NaN fails too; an infinite ratio has no integer n
    if not ratio < math.inf:
        raise DomainError(
            f"coherence time {coherence_time:g} s over two-qubit gate time "
            f"{two_gate_time:g} s is too large a ratio to count qubits"
        )

    def fits(n: int) -> bool:
        # a protocol time past the float range is past any finite budget
        try:
            return protocol_time(n, two_gate_time) <= coherence_time
        except DomainError:
            return False

    # protocol_time is non-decreasing in n, but near 2**53 and above a unit
    # step can leave it unchanged, so bisect from the float estimate: lo
    # fits, hi does not
    lo, hi = 1, 2 * int((1 + math.sqrt(1 + ratio)) / 2) + 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def feasibility_report(pp: PhysicalParams, n: int | None = None) -> FeasibilityReport:
    """Feasibility arithmetic for an n-qubit protocol on this device."""
    gamma = separation_factor(pp)
    omega_eff = effective_rabi(pp)
    cap = max_qubits(pp.coherence_time, pp.two_gate_time)
    if n is None:
        n = cap
    t_protocol = protocol_time(n, pp.two_gate_time)
    warnings = [
        "effective Rabi frequency carries the unit of the cavity coupling "
        f"(here {omega_eff.value:g} {omega_eff.unit}); kHz-scale figures "
        "sometimes quoted for these defaults are inconsistent with the "
        "ratio formula omega_c * omega2 / delta"
    ]
    if t_protocol > pp.coherence_time:
        warnings.append(
            f"protocol time {t_protocol:g} s exceeds the coherence budget "
            f"{pp.coherence_time:g} s for n = {n}"
        )
    return FeasibilityReport(
        gamma=gamma,
        omega_eff=omega_eff,
        single_gate_time=pp.single_gate_time,
        two_gate_time=pp.two_gate_time,
        protocol_time=t_protocol,
        max_qubits=cap,
        requested_qubits=n,
        warnings=warnings,
    )
