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


Z_AXIS = Direction(0.0, 0.0, 1.0)


def _unit(theta: float, phi: float) -> tuple[float, float, float]:
    """direction_from_spherical's components; Direction keeps them, as they
    are unit to about 1e-16 for any finite angles."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"angles must be finite, got theta={theta!r}, phi={phi!r}")
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def direction_from_spherical(theta: float, phi: float) -> Direction:
    """Build the unit vector with polar angle theta and azimuth phi."""
    return Direction(*_unit(theta, phi))


# Each formula is written once on plain floats, a vector as an (x, y, z)
# triple and a state as (s, phi) against e; the object functions call it.


def _dot(u, v) -> float:
    if u == v:  # x.x can land an ulp below 1: a setting measured twice is certain
        return 1.0
    return min(1.0, max(-1.0, u[0] * v[0] + u[1] * v[1] + u[2] * v[2]))


def dot(d1: Direction, d2: Direction) -> float:
    """Scalar product of two settings, clamped into [-1, 1]."""
    return _dot((d1.x, d1.y, d1.z), (d2.x, d2.y, d2.z))


def _frame(ex: float, ey: float, ez: float):
    """Transverse axes of e as two float triples; (u, v, e) right-handed.

    For e along +z this is exactly (x-hat, y-hat), which fixes the phase
    gauge used by the canonical state representation.
    """
    if abs(ex) <= 0.9:
        hx, hy, hz = 1.0, 0.0, 0.0
    else:
        hx, hy, hz = 0.0, 1.0, 0.0
    d = hx * ex + hy * ey + hz * ez
    ux, uy, uz = hx - d * ex, hy - d * ey, hz - d * ez
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / n, uy / n, uz / n
    vx = ey * uz - ez * uy
    vy = ez * ux - ex * uz
    vz = ex * uy - ey * ux
    return (ux, uy, uz), (vx, vy, vz)


def _azimuth(x, u, v) -> float:
    tu = x[0] * u[0] + x[1] * u[1] + x[2] * u[2]
    tv = x[0] * v[0] + x[1] * v[1] + x[2] * v[2]
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
        object.__setattr__(self, "phi", phi % TWO_PI % TWO_PI)  # a tiny negative phi % 2pi is 2pi


def _amplitudes(s: float, phi: float) -> tuple[complex, complex]:
    minus = math.sqrt(max(0.0, 1.0 - s * s))
    return complex(s), minus * cmath.exp(1j * phi)


def amplitudes(state: PureState) -> tuple[complex, complex]:
    """Amplitudes of the state on |e+> and |e-> of its reference direction."""
    return _amplitudes(state.s, state.phi)


def _inner(s1: float, phi1: float, s2: float, phi2: float) -> complex:
    a1, b1 = _amplitudes(s1, phi1)
    a2, b2 = _amplitudes(s2, phi2)
    return a1.conjugate() * a2 + b1.conjugate() * b2


def overlap(s1: PureState, s2: PureState) -> complex:
    """Inner product <s1|s2> for two states sharing a reference direction."""
    if s1.e != s2.e:
        raise ValueError("overlap requires both states in the same reference frame")
    return _inner(s1.s, s1.phi, s2.s, s2.phi)


def _bloch(s: float, phi: float, e):
    u, v = _frame(*e)
    transverse = 2.0 * s * math.sqrt(max(0.0, 1.0 - s * s))
    longitudinal = 2.0 * s * s - 1.0
    tc = transverse * math.cos(phi)
    ts = transverse * math.sin(phi)
    return (
        tc * u[0] + ts * v[0] + longitudinal * e[0],
        tc * u[1] + ts * v[1] + longitudinal * e[1],
        tc * u[2] + ts * v[2] + longitudinal * e[2],
    )


def bloch_vector(state: PureState) -> np.ndarray:
    """Unit Bloch vector r with P(x, +1) = (1 + r.x)/2 for every setting x."""
    e = state.e
    return np.array(_bloch(state.s, state.phi, (e.x, e.y, e.z)))


def state_from_bloch(r, e: Direction = Z_AXIS) -> PureState:
    """Represent the pure state with Bloch vector r against reference e: the
    +1 eigenstate of the setting r."""
    r = np.asarray(r, dtype=float)
    norm = math.sqrt(r.dot(r))  # np.linalg.norm's steps
    if not abs(norm - 1.0) <= RENORM_ATOL:  # a NaN component fails here too
        raise ValueError(f"Bloch vector must be finite and unit, |r| = {norm!r}")
    return PureState(*_eigen([v / norm for v in r.tolist()], (e.x, e.y, e.z), True), e)


def _eigen(x, e, plus: bool, phase: float | None = None) -> tuple[float, float]:
    c = min(1.0, max(-1.0, x[0] * e[0] + x[1] * e[1] + x[2] * e[2]))
    if phase is None:
        phase = _azimuth(x, *_frame(*e))
    if plus:
        return math.sqrt((1.0 + c) / 2.0), phase % TWO_PI
    return math.sqrt((1.0 - c) / 2.0), (phase + math.pi) % TWO_PI


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
    if phase is not None and not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    plus = outcome is Outcome.PLUS or outcome == 1
    return PureState(*_eigen((x.x, x.y, x.z), (e.x, e.y, e.z), plus, phase), e)


def _born(r, x, sign: int) -> float:
    p = 0.5 * (1.0 + sign * (r[0] * x[0] + r[1] * x[1] + r[2] * x[2]))
    return min(1.0, max(0.0, p))


def born_prob(state: PureState, x: Direction, outcome: Outcome) -> float:
    """Probability of the given outcome when measuring the state along x."""
    e = state.e
    return _born(_bloch(state.s, state.phi, (e.x, e.y, e.z)), (x.x, x.y, x.z), int(outcome))


def _random_unit(rng: np.random.Generator) -> tuple[float, float, float]:
    """random_direction's draws and components; Direction would keep them,
    as they are unit to about 1e-16."""
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's steps
        if norm > 1e-6:
            x, y, z = v.tolist()
            return x / norm, y / norm, z / norm


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform random unit vector."""
    return Direction(*_random_unit(rng))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """rng.uniform(low, high) for low = 0 or -high, at a fifth of its cost.
    numpy returns low + (high - low) * u from one rng.random() draw; for these
    bounds that rounds the same whether or not it is a fused multiply-add."""
    return low + (high - low) * rng.random()


def _random_amplitude(rng: np.random.Generator) -> tuple[float, float]:
    """random_state's draws, and the (s, phi) its PureState keeps."""
    c = _uniform(rng, -1.0, 1.0)
    phi = _uniform(rng, 0.0, TWO_PI)
    return math.sqrt((1.0 + c) / 2.0), phi % TWO_PI


def random_state(rng: np.random.Generator, e: Direction = Z_AXIS) -> PureState:
    """Haar-uniform random pure state represented against e."""
    return PureState(*_random_amplitude(rng), e)
