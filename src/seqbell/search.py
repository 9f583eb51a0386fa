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
from typing import NamedTuple

import numpy as np

from .inequalities import _lhs
from .qubit import TWO_PI, Direction, _dot, _uniform, _unit, direction_from_spherical

OBJECTIVE_KINDS = ("EQ16", "EQ18")
POLE_EPSILON = 1e-6  # below this |sin theta| the azimuth is re-seeded


def _normalize_kind(kind: str) -> str:
    k = str(kind).upper()
    if k not in OBJECTIVE_KINDS:
        raise ValueError(f"objective must be one of {OBJECTIVE_KINDS}, got {kind!r}")
    return k


class TripleConfiguration(NamedTuple):
    """Six spherical angles defining the direction triple (a, b, c)."""

    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float
    theta_c: float
    phi_c: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, angles) -> "TripleConfiguration":
        t = np.asarray(angles, dtype=float)
        if t.shape != (6,):
            raise ValueError(f"expected 6 angles, got shape {t.shape}")
        return cls(*t.tolist())

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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a non-negative 64-bit integer, got {self.seed}")
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


def objective(kind: str, angles) -> float:
    """lhs16 or lhs18 of the directions at six angles (a TripleConfiguration
    or any sequence in its order), with the float steps of qubit.dot."""
    kind = _normalize_kind(kind)
    ta, pa, tb, pb, tc, pc = angles
    a, b, c = _unit(ta, pa), _unit(tb, pb), _unit(tc, pc)
    return _lhs(kind, _dot(a, b), _dot(a, c), _dot(b, c))


def _stacked_dots(left, right) -> np.ndarray:
    """Row-by-row dot products, rounded as numpy's 3-vector `@` rounds them
    (a plain or einsum sum differs in the last bit)."""
    return np.matmul(np.array(left)[:, None, :], np.array(right)[:, :, None]).ravel()


def gradient(kind: str, angles) -> np.ndarray:
    """Exact partial derivatives of the objective with respect to the six angles."""
    kind = _normalize_kind(kind)
    points, partials = [], []
    for theta, phi in zip(angles[::2], angles[1::2]):
        st, ct = math.sin(theta), math.cos(theta)
        sp, cp = math.sin(phi), math.cos(phi)
        points.append((st * cp, st * sp, ct))
        partials += [(ct * cp, ct * sp, -st), (-st * sp, st * cp, 0.0)]
    a, b, c = points
    # the partials of lhs with respect to a.b, a.c and b.c
    if kind == "EQ16":
        d_ab, d_ac, d_bc = 1.0, -1.0, 1.0
    else:
        one_ab, one_bc = (1.0 + v for v in _stacked_dots([a, b], [b, c]).tolist())
        d_ab, d_ac, d_bc = one_bc, -2.0, one_ab
    ga = [d_ab * y + d_ac * z for y, z in zip(b, c)]
    gb = [d_ab * x + d_bc * z for x, z in zip(a, c)]
    gc = [d_ac * x + d_bc * y for x, y in zip(a, b)]
    return _stacked_dots([ga, ga, gb, gb, gc, gc], partials)


def _wrap_angles(angles) -> list[float]:
    """Map any real angle pair onto theta in [0, pi], phi in [0, 2*pi),
    preserving the direction each pair denotes."""
    out = []
    for theta, phi in zip(angles[::2], angles[1::2]):
        theta %= TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
        out += (theta, phi % TWO_PI)
    return out


def _reseed_poles(angles: list[float], rng: np.random.Generator) -> list[float]:
    """Replace, in place, the azimuth of any near-pole direction with a fresh draw.

    At the poles the azimuth gradient vanishes identically, which can lock a
    search onto one escape great-circle; a re-seeded azimuth randomizes it.
    """
    for i in (0, 2, 4):
        if abs(math.sin(angles[i])) < POLE_EPSILON:
            angles[i + 1] = _uniform(rng, 0.0, TWO_PI)
    return angles


def _random_start(rng: np.random.Generator) -> list[float]:
    angles = []
    for _ in range(3):
        angles += (math.acos(_uniform(rng, -1.0, 1.0)), _uniform(rng, 0.0, TWO_PI))
    return angles


def local_search(search: SearchConfig, start, rng: np.random.Generator) -> SearchResult:
    """Backtracking gradient ascent on search.objective from one starting
    configuration (six angles in TripleConfiguration order).

    Candidates are accepted only on strict improvement, so the value
    trajectory is non-decreasing; the search stops once the remaining
    step times the gradient norm falls below search.step_tolerance.
    """
    kind = search.objective
    x = _wrap_angles(start)
    f = objective(kind, x)
    trajectory = [f]
    converged = False
    for _ in range(search.max_iterations):
        g = gradient(kind, x)
        # np.linalg.norm's own steps
        g_norm = math.sqrt(g.dot(g))
        g = g.tolist()
        step = 0.5
        # step_tolerance > 0, so a zero gradient converges without a draw
        while step * g_norm >= search.step_tolerance:
            candidate = _reseed_poles(_wrap_angles([v + step * d for v, d in zip(x, g)]), rng)
            f_cand = objective(kind, candidate)
            if f_cand > f:
                x, f = candidate, f_cand
                trajectory.append(f)
                break
            step *= 0.5
        else:
            converged = True
            break
    g = gradient(kind, x)
    return SearchResult(
        configuration=TripleConfiguration(*x),
        value=f,
        gradient_norm=math.sqrt(g.dot(g)),
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
            start = _random_start(rng)
        result = local_search(search, start, rng)
        if (
            best is None
            or result.value > best.value
            or (result.value == best.value and result.configuration < best.configuration)
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

    For fixed theta_b and theta_c both objectives are non-decreasing in
    b.c (with coefficient 1 and 1 + a.b >= 0), and b.c is largest at
    phi_c = 0, since sin theta >= 0 on [0, pi].  So every azimuth is
    scanned only at the points within 1e-12 of the phi_c = 0 maximum (the
    rounding error is about 1e-15), with the same elementwise expressions:
    the result is the exhaustive scan's to the bit.
    """
    kind = _normalize_kind(kind)
    check_grid_resolution(resolution)
    n_theta = int(round(math.pi / resolution)) + 1
    n_phi = max(1, int(round(TWO_PI / resolution)))
    theta = np.linspace(0.0, math.pi, n_theta)
    ab, ac = np.meshgrid(np.cos(theta), np.cos(theta), indexing="ij")
    cos_cos = ab * ac
    sin_sin = np.multiply.outer(np.sin(theta), np.sin(theta))
    at_zero = _lhs(kind, ab, ac, cos_cos + sin_sin)  # cos(0) = 1.0: sin_sin * 1.0 is sin_sin
    best = float(at_zero.max())
    near = at_zero >= best - 1e-12
    cos_k = np.array([math.cos(k * TWO_PI / n_phi) for k in range(1, n_phi)])
    bc = cos_cos[near] + sin_sin[near] * cos_k[:, None]
    if bc.size:
        best = max(best, float(_lhs(kind, ab[near], ac[near], bc).max()))
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
