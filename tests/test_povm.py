import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import EDGE_WEIGHTS
from oracles import povm_elements, sample_weights
from xdiscord.errors import DegenerateError
from xdiscord.povm import (
    EulerAngles,
    Povm3,
    PovmWeights,
    TriangleAngles,
    angles_from_weights,
    build_povm3,
    planar_directions,
    rotation_matrix,
)

TRINE = PovmWeights(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
WITNESS_RHO1 = PovmWeights(0.4209, 0.2938, 0.2853)


def closed_form_dirs(t12, t13, psi, theta, phi):
    """Hand transcription of the rotated direction-vector closed forms."""
    cps, sps = math.cos(psi), math.sin(psi)
    cth, sth = math.cos(theta), math.sin(theta)
    m1 = (
        math.cos(phi) * cps + math.sin(phi) * sps * sth,
        cth * math.sin(phi),
        math.sin(phi) * cps * sth - math.cos(phi) * sps,
    )
    a2 = t12 + phi
    m2 = (
        math.cos(a2) * cps + math.sin(a2) * sps * sth,
        math.sin(a2) * cth,
        -math.cos(a2) * sps + math.sin(a2) * cps * sth,
    )
    a3 = t13 - phi
    m3 = (
        math.cos(a3) * cps - math.sin(a3) * sps * sth,
        -math.sin(a3) * cth,
        -math.cos(a3) * sps - math.sin(a3) * cps * sth,
    )
    return np.array([m1, m2, m3])


class TestPovmWeights:
    def test_trine_valid(self):
        assert_allclose(TRINE.as_array().sum(), 1.0, atol=1e-15)

    def test_sum_violation(self):
        with pytest.raises(ValueError):
            PovmWeights(0.4, 0.4, 0.4)

    def test_edge_triple_degenerate(self):
        with pytest.raises(DegenerateError):
            PovmWeights(0.5, 0.25, 0.25)

    def test_outside_region_degenerate(self):
        with pytest.raises(DegenerateError):
            PovmWeights(0.7, 0.2, 0.1)

    def test_just_inside_margin_accepted(self):
        m = (1.0 - 1e-8) / 2.0
        PovmWeights(m, m, 1.0 - 2.0 * m)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PovmWeights(math.inf, -math.inf, 1.0)


class TestTriangleAngles:
    def test_flat_angle_allowed(self):
        t = TriangleAngles(math.pi / 2.0, math.pi, math.pi / 2.0)
        assert t.theta23 == math.pi

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            TriangleAngles(1.0, 1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TriangleAngles(-1.0, math.pi, math.pi + 1.0)


class TestAnglesFromWeights:
    def test_trine_gives_symmetric_angles(self):
        t = angles_from_weights(TRINE)
        assert_allclose(
            [t.theta12, t.theta23, t.theta13],
            [2.0 * math.pi / 3.0] * 3,
            atol=1e-14,
        )

    def test_witness_weights_sum_to_two_pi(self):
        t = angles_from_weights(WITNESS_RHO1)
        assert_allclose(t.theta12 + t.theta23 + t.theta13, 2.0 * math.pi, atol=1e-10)

    @pytest.mark.parametrize("mus", EDGE_WEIGHTS.values(), ids=EDGE_WEIGHTS.keys())
    def test_edge_weights_rebuild(self, mus):
        w = PovmWeights(*mus)
        t = angles_from_weights(w)
        assert abs(t.theta12 + t.theta23 + t.theta13 - 2.0 * math.pi) <= 1e-15
        # Povm3 checks completeness on construction
        build_povm3(w, EulerAngles(0.3, 1.2, 2.1))

    def test_law_of_cosines_inversion(self, rng):
        for _ in range(1000):
            w = sample_weights(rng)
            t = angles_from_weights(w)
            mu3 = math.sqrt(
                w.mu1**2 + w.mu2**2 + 2.0 * w.mu1 * w.mu2 * math.cos(t.theta12)
            )
            mu1 = math.sqrt(
                w.mu2**2 + w.mu3**2 + 2.0 * w.mu2 * w.mu3 * math.cos(t.theta23)
            )
            mu2 = math.sqrt(
                w.mu1**2 + w.mu3**2 + 2.0 * w.mu1 * w.mu3 * math.cos(t.theta13)
            )
            assert_allclose([mu1, mu2, mu3], [w.mu1, w.mu2, w.mu3], atol=1e-10)

    def test_angle_sum_on_random_triples(self, rng):
        for _ in range(10_000):
            t = angles_from_weights(sample_weights(rng))
            assert abs(t.theta12 + t.theta23 + t.theta13 - 2.0 * math.pi) <= 1e-10


class TestPlanarDirections:
    def test_trine(self):
        dirs = planar_directions(angles_from_weights(TRINE))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [-0.5, math.sqrt(3.0) / 2.0, 0.0],
                [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
            ]
        )
        assert_allclose(dirs, expected, atol=1e-14)

    def test_orthogonal_pair(self):
        dirs = planar_directions(TriangleAngles(math.pi / 2.0, math.pi, math.pi / 2.0))
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        assert_allclose(dirs, expected, atol=1e-14)

    def test_witness_weights_completeness(self):
        dirs = planar_directions(angles_from_weights(WITNESS_RHO1))
        closure = WITNESS_RHO1.as_array() @ dirs
        assert np.linalg.norm(closure) <= 1e-10


class TestEulerAngles:
    def test_reduced_mod_two_pi(self):
        e = EulerAngles(2.0 * math.pi + 0.5, -0.5, 7.0)
        assert_allclose(e.psi, 0.5, atol=1e-12)
        assert_allclose(e.theta, 2.0 * math.pi - 0.5, atol=1e-12)
        assert_allclose(e.phi, 7.0 - 2.0 * math.pi, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EulerAngles(math.nan, 0.0, 0.0)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert_allclose(rotation_matrix(EulerAngles(0.0, 0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_pure_z_rotation(self):
        r = rotation_matrix(EulerAngles(0.0, 0.0, math.pi / 2.0))
        assert_allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_special_orthogonal_on_random_angles(self, rng):
        for _ in range(10_000):
            e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            r = rotation_matrix(e)
            assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)


class TestBuildPovm3:
    def test_trine_zero_euler_stays_planar(self):
        p = build_povm3(TRINE, EulerAngles(0.0, 0.0, 0.0))
        assert_allclose(p.dirs, planar_directions(angles_from_weights(TRINE)), atol=1e-14)

    @pytest.mark.criterion(7)
    def test_completeness_on_random_draws(self, rng):
        for _ in range(10_000):
            w = sample_weights(rng)
            e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            p = build_povm3(w, e)
            closure = w.as_array() @ p.dirs
            assert np.linalg.norm(closure) <= 1e-10

    @pytest.mark.criterion(7)
    def test_elements_positive_and_complete(self, rng):
        for _ in range(300):
            w = sample_weights(rng)
            e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            p = build_povm3(w, e)
            elements = povm_elements(p)
            total = sum(elements)
            assert_allclose(total, np.eye(2), atol=1e-10)
            for mu, op in zip(w.as_array(), elements):
                lams = np.linalg.eigvalsh(op)
                assert_allclose(sorted(lams), [0.0, 2.0 * mu], atol=1e-12)

    def test_pairwise_angles_preserved(self, rng):
        for _ in range(1000):
            w = sample_weights(rng)
            t = angles_from_weights(w)
            e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            d = build_povm3(w, e).dirs
            assert_allclose(math.acos(np.clip(d[0] @ d[1], -1, 1)), t.theta12, atol=1e-10)
            assert_allclose(math.acos(np.clip(d[1] @ d[2], -1, 1)), t.theta23, atol=1e-10)
            assert_allclose(math.acos(np.clip(d[0] @ d[2], -1, 1)), t.theta13, atol=1e-10)

    def test_matches_closed_form_direction_vectors(self, rng):
        for _ in range(1000):
            w = sample_weights(rng)
            t = angles_from_weights(w)
            psi, theta, phi = rng.uniform(0.0, 2.0 * math.pi, size=3)
            got = build_povm3(w, EulerAngles(psi, theta, phi)).dirs
            expected = closed_form_dirs(t.theta12, t.theta13, psi, theta, phi)
            assert_allclose(got, expected, atol=1e-12)

    def test_closed_form_at_theta_half_pi(self, rng):
        for _ in range(200):
            w = sample_weights(rng)
            t = angles_from_weights(w)
            psi, phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
            got = build_povm3(w, EulerAngles(psi, math.pi / 2.0, phi)).dirs
            expected = closed_form_dirs(t.theta12, t.theta13, psi, math.pi / 2.0, phi)
            assert_allclose(got, expected, atol=1e-12)


class TestPovm3Validation:
    def test_bad_norms_rejected(self):
        dirs = planar_directions(angles_from_weights(TRINE)) * 1.001
        with pytest.raises(ValueError):
            Povm3(weights=TRINE, dirs=dirs)

    def test_broken_completeness_rejected(self):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            Povm3(weights=TRINE, dirs=dirs)

    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_dirs_rejected(self, row):
        # NaN compares false with every tolerance
        dirs = planar_directions(angles_from_weights(TRINE))
        dirs[row] = math.nan
        with pytest.raises(ValueError, match="norms"):
            Povm3(weights=TRINE, dirs=dirs)

    def test_dirs_read_only(self):
        p = build_povm3(TRINE, EulerAngles(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            p.dirs[0, 0] = 2.0

