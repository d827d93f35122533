"""Three-element rank-1 qubit POVMs from weights and Euler angles.

A weight triple (mu1, mu2, mu3) with mu1+mu2+mu3 = 1 and strict
triangle inequalities fixes the pairwise angles between the three
measurement directions; the directions close a triangle in a plane
(completeness sum(mu_k * m_k) = 0). The plane is oriented by an Euler
rotation R = R_psi R_theta R_phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError

TRIANGLE_MARGIN = 1e-9
SUM_TOL = 1e-12
ANGLE_SUM_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
UNIT_TOL = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PovmWeights:
    """Weight triple in the open triangle-inequality region.

    Each weight must exceed the difference of the other two and fall
    short of their sum by at least 1e-9; edge triples degenerate to
    fewer than three effective outcomes.
    """

    mu1: float
    mu2: float
    mu3: float

    def __post_init__(self):
        mus = (self.mu1, self.mu2, self.mu3)
        if not all(math.isfinite(m) for m in mus):
            raise ValueError(f"non-finite weights {mus}")
        if abs(sum(mus) - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {sum(mus)!r}, expected 1")
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            if mus[j] + mus[k] - mus[i] < TRIANGLE_MARGIN:
                raise DegenerateError(f"weights {mus} violate mu_{i+1} < sum of others")
            if mus[i] - abs(mus[j] - mus[k]) < TRIANGLE_MARGIN:
                raise DegenerateError(f"weights {mus} violate mu_{i+1} > difference of others")

    def as_array(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2, self.mu3])


@dataclass(frozen=True)
class TriangleAngles:
    """Pairwise angles between the three POVM directions.

    Interior weight triples give angles strictly inside (0, pi); the
    closed endpoint pi is admitted so antipodal direction pairs (one
    angle flat) remain expressible.
    """

    theta12: float
    theta23: float
    theta13: float

    def __post_init__(self):
        ths = (self.theta12, self.theta23, self.theta13)
        if not all(0.0 < t <= math.pi for t in ths):
            raise ValueError(f"angles {ths} not all in (0, pi]")
        if abs(sum(ths) - TWO_PI) > ANGLE_SUM_TOL:
            raise ValueError(f"angles {ths} sum to {sum(ths)!r}, expected 2*pi")


@dataclass(frozen=True)
class EulerAngles:
    """Rotation triple (psi, theta, phi), each reduced mod 2*pi."""

    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        for name in ("psi", "theta", "phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite Euler angle {name}={v!r}")
            object.__setattr__(self, name, v % TWO_PI)


@dataclass(frozen=True)
class Povm3:
    """Complete 3-element POVM: weights plus unit directions (rows of dirs)."""

    weights: PovmWeights
    dirs: np.ndarray = field(repr=False)

    def __post_init__(self):
        dirs = np.array(self.dirs, dtype=float)
        if dirs.shape != (3, 3):
            raise ValueError(f"dirs must be 3x3, got {dirs.shape}")
        norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):  # NaN fails too
            raise ValueError(f"direction norms {norms} deviate from 1")
        mus = self.weights.as_array()
        closure = mus @ dirs
        if not np.linalg.norm(closure) <= COMPLETENESS_TOL:  # NaN fails too
            raise ValueError(f"completeness sum mu_k m_k = {closure}, expected 0")
        dirs.setflags(write=False)
        object.__setattr__(self, "dirs", dirs)


def tan2_half_angle(mu_a, mu_b, mu_c):
    """tan^2(alpha/2) for the interior angle alpha opposite side mu_c in
    the triangle with sides mu_a, mu_b, mu_c summing to 1.

    This is the quantity of Kahan's needle-triangle formula
    ("Miscalculating Area and Angles of a Needle-like Triangle"),
    (s - a)(s - b) / (s (s - c)) with semi-perimeter s. A weight triple
    has s = 1/2, so each factor 2 (s - mu) = 1 - 2 mu is exact for
    mu >= 1/4 (Sterbenz) and within half an ulp below: the result is
    accurate to a few ulps however thin the triangle (for the
    perimeter-1 triangle within an ulp of the given sides), without
    Kahan's sorting and branches, so it works unchanged on arrays. The
    law-of-cosines arccos loses half its digits there and rounds to the
    edge of its domain. With x the result, cos(alpha) = (1 - x) / (1 + x)
    and sin(alpha) = 2 sqrt(x) / (1 + x).
    """
    return (1.0 - 2.0 * mu_a) * (1.0 - 2.0 * mu_b) / (1.0 - 2.0 * mu_c)


def angles_from_weights(w: PovmWeights) -> TriangleAngles:
    """Pairwise direction angles of the POVM with weights w.

    Completeness makes the weighted directions mu_k m_k close a
    triangle with sides mu1, mu2, mu3, so theta_ij is pi less the
    interior angle opposite mu_k, taken from tan2_half_angle; it stays
    exact up to the edge of the weight region, where the law of cosines
    does not.
    """
    m1, m2, m3 = w.mu1, w.mu2, w.mu3

    def theta(a, b, c):
        return math.pi - 2.0 * math.atan(math.sqrt(tan2_half_angle(a, b, c)))

    return TriangleAngles(theta(m1, m2, m3), theta(m2, m3, m1), theta(m1, m3, m2))


def planar_directions(t: TriangleAngles) -> np.ndarray:
    """Reference triangle in the XY plane, rows n1, n2, n3."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [math.cos(t.theta12), math.sin(t.theta12), 0.0],
            [math.cos(t.theta13), -math.sin(t.theta13), 0.0],
        ]
    )


def rotation_matrix(e: EulerAngles) -> np.ndarray:
    """Product R_psi R_theta R_phi (rotations about y, x, z in that order)."""
    cps, sps = math.cos(e.psi), math.sin(e.psi)
    cth, sth = math.cos(e.theta), math.sin(e.theta)
    cph, sph = math.cos(e.phi), math.sin(e.phi)
    r_psi = np.array([[cps, 0.0, sps], [0.0, 1.0, 0.0], [-sps, 0.0, cps]])
    r_theta = np.array([[1.0, 0.0, 0.0], [0.0, cth, -sth], [0.0, sth, cth]])
    r_phi = np.array([[cph, -sph, 0.0], [sph, cph, 0.0], [0.0, 0.0, 1.0]])
    return r_psi @ r_theta @ r_phi


def build_povm3(w: PovmWeights, e: EulerAngles) -> Povm3:
    """Rotate the weight triple's planar triangle into orientation e."""
    dirs = planar_directions(angles_from_weights(w)) @ rotation_matrix(e).T
    return Povm3(weights=w, dirs=dirs)

