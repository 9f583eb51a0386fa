"""Maximization of the violation expressions over triples of unit directions.

Directions are parametrized by spherical angles (theta, phi); both
objectives are smooth polynomials in the pairwise dot products, so the
gradient is analytic.  The local search is plain gradient ascent with a
backtracking line search, run from many random starts; an exhaustive
gauge-fixed grid scan serves as an independent oracle for the global
maximum.  Objectives depend only on the pairwise dot products, hence are
invariant under any common rotation of the three directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import lhs16, lhs18
from .qubit import Direction, direction_from_spherical

TWO_PI = 2.0 * math.pi
OBJECTIVE_KINDS = ("EQ16", "EQ18")
POLE_EPSILON = 1e-6  # below this |sin theta| the azimuth is re-seeded


def _normalize_kind(kind: str) -> str:
    k = str(kind).upper()
    if k not in OBJECTIVE_KINDS:
        raise ValueError(f"objective must be one of {OBJECTIVE_KINDS}, got {kind!r}")
    return k


@dataclass(frozen=True)
class TripleConfiguration:
    """Six spherical angles defining the direction triple (a, b, c)."""

    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float
    theta_c: float
    phi_c: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.theta_a, self.phi_a, self.theta_b, self.phi_b, self.theta_c, self.phi_c]
        )

    @classmethod
    def from_array(cls, angles) -> "TripleConfiguration":
        t = np.asarray(angles, dtype=float)
        if t.shape != (6,):
            raise ValueError(f"expected 6 angles, got shape {t.shape}")
        return cls(*(float(v) for v in t))

    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (
            direction_from_spherical(self.theta_a, self.phi_a),
            direction_from_spherical(self.theta_b, self.phi_b),
            direction_from_spherical(self.theta_c, self.phi_c),
        )


@dataclass(frozen=True)
class SearchConfig:
    """Search and grid-oracle settings, checked when built; objective upper-case."""

    objective: str = "EQ16"
    n_starts: int = 20
    step_tolerance: float = 1e-10
    max_iterations: int = 500
    seed: int = 0
    grid_resolution: float = math.pi / 180

    def __post_init__(self):
        object.__setattr__(self, "objective", _normalize_kind(self.objective))
        self.validate()

    def validate(self) -> None:
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if not (math.isfinite(self.step_tolerance) and self.step_tolerance > 0):
            raise ValueError(f"step_tolerance must be finite and > 0, got {self.step_tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_grid_resolution(self.grid_resolution)


@dataclass(frozen=True)
class SearchResult:
    """One local search: its final configuration and value, and the value
    after every accepted step."""

    configuration: TripleConfiguration
    value: float
    gradient_norm: float
    converged: bool
    trajectory: tuple[float, ...]


def objective(kind: str, config: TripleConfiguration) -> float:
    kind = _normalize_kind(kind)
    a, b, c = config.directions()
    return lhs16(a, b, c) if kind == "EQ16" else lhs18(a, b, c)


def _sph_and_jacobian(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    d = np.array([st * cp, st * sp, ct])
    d_theta = np.array([ct * cp, ct * sp, -st])
    d_phi = np.array([-st * sp, st * cp, 0.0])
    return d, d_theta, d_phi


def gradient(kind: str, config: TripleConfiguration) -> np.ndarray:
    """Exact partial derivatives of the objective with respect to the six angles."""
    kind = _normalize_kind(kind)
    t = config.as_array()
    a, da_t, da_p = _sph_and_jacobian(t[0], t[1])
    b, db_t, db_p = _sph_and_jacobian(t[2], t[3])
    c, dc_t, dc_p = _sph_and_jacobian(t[4], t[5])
    if kind == "EQ16":
        ga = b - c
        gb = a + c
        gc = b - a
    else:
        ab = float(a @ b)
        bc = float(b @ c)
        ga = b * (1.0 + bc) - 2.0 * c
        gb = a * (1.0 + bc) + c * (1.0 + ab)
        gc = b * (1.0 + ab) - 2.0 * a
    return np.array(
        [ga @ da_t, ga @ da_p, gb @ db_t, gb @ db_p, gc @ dc_t, gc @ dc_p]
    )


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Map any real angle pair onto theta in [0, pi], phi in [0, 2*pi),
    preserving the direction each pair denotes."""
    out = angles.copy()
    for i in (0, 2, 4):
        theta = out[i] % TWO_PI
        phi = out[i + 1]
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
        out[i] = theta
        out[i + 1] = phi % TWO_PI
    return out


def _reseed_poles(angles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Replace the azimuth of any near-pole direction with a fresh draw.

    At the poles the azimuth gradient vanishes identically, which can lock a
    search onto one escape great-circle; a re-seeded azimuth randomizes it.
    """
    out = angles
    for i in (0, 2, 4):
        if abs(math.sin(out[i])) < POLE_EPSILON:
            if out is angles:
                out = angles.copy()
            out[i + 1] = rng.uniform(0.0, TWO_PI)
    return out


def _random_start(rng: np.random.Generator) -> np.ndarray:
    angles = np.empty(6)
    for i in (0, 2, 4):
        angles[i] = math.acos(rng.uniform(-1.0, 1.0))
        angles[i + 1] = rng.uniform(0.0, TWO_PI)
    return angles


def local_search(
    search: SearchConfig, start: TripleConfiguration, rng: np.random.Generator
) -> SearchResult:
    """Backtracking gradient ascent on search.objective from one starting
    configuration.

    Candidates are accepted only on strict improvement, so the value
    trajectory is non-decreasing; the search stops once the remaining
    step times the gradient norm falls below search.step_tolerance.
    """
    kind = search.objective
    x = _wrap_angles(start.as_array())
    f = objective(kind, TripleConfiguration.from_array(x))
    trajectory = [f]
    converged = False
    for _ in range(search.max_iterations):
        g = gradient(kind, TripleConfiguration.from_array(x))
        g_norm = float(np.linalg.norm(g))
        if g_norm == 0.0:
            converged = True
            break
        step = 0.5
        accepted = False
        while step * g_norm >= search.step_tolerance:
            candidate = _reseed_poles(_wrap_angles(x + step * g), rng)
            f_cand = objective(kind, TripleConfiguration.from_array(candidate))
            if f_cand > f:
                x, f = candidate, f_cand
                trajectory.append(f)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
    final = TripleConfiguration.from_array(x)
    return SearchResult(
        configuration=final,
        value=f,
        gradient_norm=float(np.linalg.norm(gradient(kind, final))),
        converged=converged,
        trajectory=tuple(trajectory),
    )


def maximize(search: SearchConfig, initial: TripleConfiguration | None = None) -> SearchResult:
    """The best of n_starts local searches from random starts.

    When an initial configuration is supplied it replaces the first random
    start.  Ties on value break by lexicographically smallest angles, so
    the reduction over starts is order independent.
    """
    best: SearchResult | None = None
    for start_index in range(search.n_starts):
        rng = np.random.default_rng(
            np.random.SeedSequence(search.seed, spawn_key=(start_index,))
        )
        if start_index == 0 and initial is not None:
            start = initial
        else:
            start = TripleConfiguration.from_array(_random_start(rng))
        result = local_search(search, start, rng)
        if (
            best is None
            or result.value > best.value
            or (
                result.value == best.value
                and tuple(result.configuration.as_array()) < tuple(best.configuration.as_array())
            )
        ):
            best = result
    return best


def check_grid_resolution(resolution: float) -> None:
    """The grid oracle's angular step: at least 0.005 rad to bound the runtime."""
    if not (math.isfinite(resolution) and resolution >= 0.005):
        raise ValueError(f"resolution must be >= 0.005 rad, got {resolution!r}")


def grid_oracle(kind: str, resolution: float) -> float:
    """Exhaustive gauge-fixed scan; returns the maximum objective on the grid.

    The global-rotation gauge pins a to the north pole and b to azimuth
    zero, leaving theta_b, theta_c, phi_c on a uniform grid of the given
    angular resolution (radians, see `check_grid_resolution`).
    """
    kind = _normalize_kind(kind)
    check_grid_resolution(resolution)
    n_theta = int(round(math.pi / resolution)) + 1
    n_phi = max(1, int(round(TWO_PI / resolution)))
    theta_b = np.linspace(0.0, math.pi, n_theta)
    theta_c = np.linspace(0.0, math.pi, n_theta)
    ab = np.cos(theta_b)[:, None]
    ac = np.cos(theta_c)[None, :]
    cos_cos = np.cos(theta_b)[:, None] * np.cos(theta_c)[None, :]
    sin_sin = np.sin(theta_b)[:, None] * np.sin(theta_c)[None, :]
    best = -math.inf
    for k in range(n_phi):
        bc = cos_cos + sin_sin * math.cos(k * TWO_PI / n_phi)
        if kind == "EQ16":
            values = ab - ac + bc
        else:
            values = ab + bc - 2.0 * ac + ab * bc
        best = max(best, float(values.max()))
    return best


def reference_configuration(kind: str) -> TripleConfiguration:
    """The reference violating configuration for each objective.

    EQ16: b and c orthogonal, a along b - c (value sqrt(2)).
    EQ18: a and c orthogonal, b along a + c (value sqrt(2) + 1/2).
    """
    kind = _normalize_kind(kind)
    half_pi = math.pi / 2
    if kind == "EQ16":
        return TripleConfiguration(
            theta_a=half_pi,
            phi_a=-math.pi / 4 % TWO_PI,
            theta_b=half_pi,
            phi_b=0.0,
            theta_c=half_pi,
            phi_c=half_pi,
        )
    return TripleConfiguration(
        theta_a=half_pi,
        phi_a=0.0,
        theta_b=half_pi,
        phi_b=math.pi / 4,
        theta_c=half_pi,
        phi_c=half_pi,
    )
