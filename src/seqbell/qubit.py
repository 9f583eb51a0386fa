"""Two-level quantum state, Bloch geometry, and projective measurement.

A measurement setting is a unit 3-vector.  A pure state is stored by its
amplitude pair (s, sqrt(1-s^2) e^{i phi}) against the +1/-1 eigenbasis of a
reference direction e.  Every sequential-measurement probability reduces to
a dot product between the state's Bloch vector and a measurement direction,
so all statistics here are frame independent; the amplitude representation
is kept so that eigenstate decompositions can be checked directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Unit-norm bookkeeping: vectors are accepted if within RENORM_ATOL of unit
# norm (then renormalized); constructed objects are unit within UNIT_ATOL.
UNIT_ATOL = 1e-12
RENORM_ATOL = 1e-9


class Outcome(IntEnum):
    """Dichotomic measurement result; exactly the two values +1 and -1."""

    PLUS = 1
    MINUS = -1

    def flipped(self) -> "Outcome":
        return Outcome.MINUS if self is Outcome.PLUS else Outcome.PLUS


OUTCOMES = (Outcome.PLUS, Outcome.MINUS)


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector measurement setting.

    Inputs within 1e-9 of unit norm are renormalized; anything farther off
    is rejected.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"direction components must be finite, got {(x, y, z)}")
        norm = math.sqrt(x * x + y * y + z * z)
        if abs(norm - 1.0) > RENORM_ATOL:
            raise ValueError(f"direction must be a unit vector, |v| = {norm!r}")
        if abs(norm - 1.0) > UNIT_ATOL:
            x, y, z = x / norm, y / norm, z / norm
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_array(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __neg__(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)


Z_AXIS = Direction(0.0, 0.0, 1.0)


def direction_from_spherical(theta: float, phi: float) -> Direction:
    """Build the unit vector with polar angle theta and azimuth phi."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"angles must be finite, got theta={theta!r}, phi={phi!r}")
    st = math.sin(theta)
    return Direction(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def dot(d1: Direction, d2: Direction) -> float:
    """Scalar product of two settings, clamped into [-1, 1]."""
    value = d1.x * d2.x + d1.y * d2.y + d1.z * d2.z
    return min(1.0, max(-1.0, value))


@lru_cache(maxsize=1024)
def _frame_components(e: Direction):
    """Transverse axes of e as two float triples; (u, v, e) right-handed.

    For e along +z this is exactly (x-hat, y-hat), which fixes the phase
    gauge used by the canonical state representation.
    """
    if abs(e.x) <= 0.9:
        hx, hy, hz = 1.0, 0.0, 0.0
    else:
        hx, hy, hz = 0.0, 1.0, 0.0
    d = hx * e.x + hy * e.y + hz * e.z
    ux, uy, uz = hx - d * e.x, hy - d * e.y, hz - d * e.z
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / n, uy / n, uz / n
    vx = e.y * uz - e.z * uy
    vy = e.z * ux - e.x * uz
    vz = e.x * uy - e.y * ux
    return (ux, uy, uz), (vx, vy, vz)


def azimuth_about(x: Direction, e: Direction) -> float:
    """Azimuth of x around e in e's canonical frame, in [0, 2*pi).

    Zero when x is (anti)parallel to e, where the azimuth is a pure gauge.
    """
    u, v = _frame_components(e)
    tu = x.x * u[0] + x.y * u[1] + x.z * u[2]
    tv = x.x * v[0] + x.y * v[1] + x.z * v[2]
    if tu == 0.0 and tv == 0.0:
        return 0.0
    return math.atan2(tv, tu) % TWO_PI


@dataclass(frozen=True)
class PureState:
    """Pure qubit state s|e+> + sqrt(1-s^2) e^{i phi} |e->.

    s is the real amplitude on the +1 eigenstate of the reference direction
    e, so the squared amplitudes sum to one by construction.  The overall
    phase is fixed by keeping s real and non-negative.
    """

    s: float
    phi: float
    e: Direction

    def __post_init__(self):
        s, phi = float(self.s), float(self.phi)
        if not (math.isfinite(s) and math.isfinite(phi)):
            raise ValueError(f"state parameters must be finite, got s={s!r}, phi={phi!r}")
        if not -UNIT_ATOL <= s <= 1.0 + UNIT_ATOL:
            raise ValueError(f"amplitude s must lie in [0, 1], got {s!r}")
        object.__setattr__(self, "s", min(1.0, max(0.0, s)))
        object.__setattr__(self, "phi", phi % TWO_PI)


def amplitudes(state: PureState) -> tuple[complex, complex]:
    """Amplitudes of the state on |e+> and |e-> of its reference direction."""
    minus = math.sqrt(max(0.0, 1.0 - state.s * state.s))
    return complex(state.s), minus * cmath.exp(1j * state.phi)


def overlap(s1: PureState, s2: PureState) -> complex:
    """Inner product <s1|s2> for two states sharing a reference direction."""
    if s1.e != s2.e:
        raise ValueError("overlap requires both states in the same reference frame")
    a1, b1 = amplitudes(s1)
    a2, b2 = amplitudes(s2)
    return a1.conjugate() * a2 + b1.conjugate() * b2


@lru_cache(maxsize=4096)
def _bloch_components(state: PureState):
    u, v = _frame_components(state.e)
    s = state.s
    transverse = 2.0 * s * math.sqrt(max(0.0, 1.0 - s * s))
    longitudinal = 2.0 * s * s - 1.0
    tc = transverse * math.cos(state.phi)
    ts = transverse * math.sin(state.phi)
    return (
        tc * u[0] + ts * v[0] + longitudinal * state.e.x,
        tc * u[1] + ts * v[1] + longitudinal * state.e.y,
        tc * u[2] + ts * v[2] + longitudinal * state.e.z,
    )


def bloch_vector(state: PureState) -> np.ndarray:
    """Unit Bloch vector r with P(x, +1) = (1 + r.x)/2 for every setting x."""
    return np.array(_bloch_components(state))


def _state_from_components(rx: float, ry: float, rz: float, e: Direction) -> PureState:
    c = min(1.0, max(-1.0, rx * e.x + ry * e.y + rz * e.z))
    u, v = _frame_components(e)
    tu = rx * u[0] + ry * u[1] + rz * u[2]
    tv = rx * v[0] + ry * v[1] + rz * v[2]
    phi = 0.0 if (tu == 0.0 and tv == 0.0) else math.atan2(tv, tu)
    return PureState(math.sqrt((1.0 + c) / 2.0), phi % TWO_PI, e)


def state_from_bloch(r, e: Direction = Z_AXIS) -> PureState:
    """Represent the pure state with Bloch vector r against reference e."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if abs(norm - 1.0) > RENORM_ATOL:
        raise ValueError(f"Bloch vector must be unit, |r| = {norm!r}")
    return _state_from_components(r[0] / norm, r[1] / norm, r[2] / norm, e)


def eigenstate(
    x: Direction, outcome: Outcome, e: Direction, phase: float | None = None
) -> PureState:
    """Eigenstate of setting x with the given eigenvalue, written over e's basis.

    The +1 eigenstate has amplitudes (sqrt((1+c)/2), sqrt((1-c)/2) e^{i phase})
    with c = x.e; the -1 eigenstate is the orthogonal combination, carrying a
    minus sign on its |e-> amplitude.  When phase is omitted it defaults to
    the geometric azimuth of x around e, which makes the Bloch vector of the
    result equal +x or -x; an explicit phase selects a rotated gauge instead.
    """
    c = dot(x, e)
    if phase is None:
        phase = azimuth_about(x, e)
    elif not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    plus_amp = math.sqrt((1.0 + c) / 2.0)
    minus_amp = math.sqrt((1.0 - c) / 2.0)
    if outcome is Outcome.PLUS or outcome == 1:
        return PureState(plus_amp, phase % TWO_PI, e)
    return PureState(minus_amp, (phase + math.pi) % TWO_PI, e)


def born_prob(state: PureState, x: Direction, outcome: Outcome) -> float:
    """Probability of the given outcome when measuring the state along x."""
    rx, ry, rz = _bloch_components(state)
    p = 0.5 * (1.0 + int(outcome) * (rx * x.x + ry * x.y + rz * x.z))
    return min(1.0, max(0.0, p))


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform random unit vector."""
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return Direction.from_array(v / norm)


def random_state(rng: np.random.Generator, e: Direction = Z_AXIS) -> PureState:
    """Haar-uniform random pure state represented against e."""
    c = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, TWO_PI)
    return PureState(math.sqrt((1.0 + c) / 2.0), phi, e)
