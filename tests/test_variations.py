"""Analytic variations of the kinetic form against finite-difference oracles."""

import numpy as np
import pytest

from innershape import (
    Immersion,
    assemble,
    kinetic_adjoint_covectors,
    kinetic_surface_gradient,
)

from .conftest import random_field
from .test_metric import perturbed_torus

ALPHA = 0.6


def pairing(cov: np.ndarray, direction: np.ndarray) -> float:
    return float(np.vdot(cov, direction))


def min_rel_fd_error(value, f_of_h, steps=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7)):
    best = np.inf
    for h in steps:
        plus, minus = f_of_h(h)
        fd = (plus - minus) / (2.0 * h)
        scale = max(abs(value), abs(fd), 1e-30)
        best = min(best, abs(value - fd) / scale)
    return best


class TestSurfaceGradient:
    def test_fd_oracle_twenty_draws(self, rng):
        from .oracles import kinetic_form

        worst = 0.0
        for _ in range(20):
            q = perturbed_torus(rng)
            op = assemble(q, ALPHA)
            u = random_field(rng, q.mesh)
            v = random_field(rng, q.mesh)
            dq = random_field(rng, q.mesh)
            value = pairing(kinetic_surface_gradient(op, u, v), dq)

            def at(h, q=q, u=u, v=v, dq=dq):
                return (
                    kinetic_form(q.displaced(h * dq), ALPHA, u, v),
                    kinetic_form(q.displaced(-h * dq), ALPHA, u, v),
                )

            worst = max(worst, min_rel_fd_error(value, at))
        assert worst <= 1e-7

    def test_translation_direction_vanishes(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        v = random_field(rng, q.mesh)
        cov = kinetic_surface_gradient(op, u, v)
        translation = np.broadcast_to([0.7, -0.3, 1.1], cov.shape)
        scale = float(np.max(np.abs(cov)))
        assert abs(pairing(cov, translation)) <= 1e-12 * max(scale, 1.0)

    def test_zero_fields_give_zero_covector(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        zero = np.zeros((q.mesh.n_nodes, 3))
        assert np.array_equal(kinetic_surface_gradient(op, zero, zero), zero)

    def test_symmetric_in_u_v(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        v = random_field(rng, q.mesh)
        a = kinetic_surface_gradient(op, u, v)
        b = kinetic_surface_gradient(op, v, u)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))

    def test_same_array_in_both_slots_equals_a_copy_bitwise(self, rng, any_shape):
        op = assemble(any_shape, ALPHA)
        for _ in range(5):
            u = random_field(rng, any_shape.mesh)
            same = kinetic_surface_gradient(op, u, u)
            assert np.array_equal(same, kinetic_surface_gradient(op, u, u.copy()))


class TestSurfaceHessian:
    def test_fd_oracle_against_first_variation(self, rng):
        worst = 0.0
        for _ in range(5):
            q = perturbed_torus(rng)
            op = assemble(q, ALPHA)
            u = random_field(rng, q.mesh)
            w = random_field(rng, q.mesh)
            dq = random_field(rng, q.mesh)
            value = pairing(kinetic_adjoint_covectors(op, u, w)[1], dq)

            def at(h, q=q, u=u, w=w, dq=dq):
                def first(qh):
                    return pairing(kinetic_surface_gradient(assemble(qh, ALPHA), u, u), w)

                return first(q.displaced(h * dq)), first(q.displaced(-h * dq))

            worst = max(worst, min_rel_fd_error(value, at))
        assert worst <= 1e-6

    def test_translation_dq_vanishes(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        w = random_field(rng, q.mesh)
        cov = kinetic_adjoint_covectors(op, u, w)[1]
        translation = np.broadcast_to([1.0, 0.5, -2.0], cov.shape)
        scale = float(np.max(np.abs(cov)))
        assert abs(pairing(cov, translation)) <= 1e-12 * max(scale, 1.0)

    def test_translation_w_gives_zero_covector(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        w = np.tile([0.2, -0.4, 0.9], (q.mesh.n_nodes, 1))
        cov = kinetic_adjoint_covectors(op, u, w)[1]
        assert np.max(np.abs(cov)) == 0.0

    def test_zero_velocity_gives_zero_covector(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        zero = np.zeros((q.mesh.n_nodes, 3))
        w = random_field(rng, q.mesh)
        assert np.array_equal(kinetic_adjoint_covectors(op, zero, w)[1], zero)


class TestCrossGradient:
    def test_identity_with_surface_gradient(self, rng):
        # the velocity-slot covector must reproduce the bilinear pairing
        # F(q, u, w) . du == ksg(q, u, du) . w for every direction du
        worst = 0.0
        for _ in range(5):
            q = perturbed_torus(rng)
            op = assemble(q, ALPHA)
            u = random_field(rng, q.mesh)
            w = random_field(rng, q.mesh)
            du = random_field(rng, q.mesh)
            left = pairing(kinetic_adjoint_covectors(op, u, w)[0], du)
            right = pairing(kinetic_surface_gradient(op, u, du), w)
            worst = max(worst, abs(left - right) / max(abs(right), 1e-30))
        assert worst <= 1e-12

    def test_fd_oracle_in_velocity(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        w = random_field(rng, q.mesh)
        du = random_field(rng, q.mesh)
        value = pairing(kinetic_adjoint_covectors(op, u, w)[0], du)

        def at(h):
            # d/dh of ksg(q, u + h du, u + h du) . w is twice the cross term
            return (
                0.5 * pairing(kinetic_surface_gradient(op, u + h * du, u + h * du), w),
                0.5 * pairing(kinetic_surface_gradient(op, u - h * du, u - h * du), w),
            )

        assert min_rel_fd_error(value, at) <= 1e-9

    def test_zero_direction_gives_zero_covector(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        zero = np.zeros((q.mesh.n_nodes, 3))
        assert np.max(np.abs(kinetic_adjoint_covectors(op, u, zero)[0])) == 0.0


class TestFieldValidation:
    @pytest.mark.parametrize(
        "variation",
        [
            kinetic_surface_gradient,
            # the kernel's two outputs, named for the covector each one is
            pytest.param(
                lambda op, u, w: kinetic_adjoint_covectors(op, u, w)[0],
                id="kinetic_cross_gradient",
            ),
            pytest.param(
                lambda op, u, w: kinetic_adjoint_covectors(op, u, w)[1],
                id="kinetic_surface_hessian",
            ),
        ],
    )
    def test_extra_rows_rejected_in_either_slot(self, variation, rng, cylinder_shape):
        q = cylinder_shape
        op = assemble(q, ALPHA)
        good = random_field(rng, q.mesh)
        long = rng.standard_normal((q.mesh.n_nodes + 5, 3))
        with pytest.raises(ValueError):
            variation(op, long, good)
        with pytest.raises(ValueError):
            variation(op, good, long)
        with pytest.raises(ValueError):
            variation(op, good, good[:, :2])


class TestBilinearity:
    def test_fused_sweep_term(self, rng):
        # the adjoint sweep evaluates 2 D(q; u, w) + dt D(q; u, u) as one call
        dt = 0.1
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        u = random_field(rng, q.mesh)
        w = random_field(rng, q.mesh)
        fused = kinetic_surface_gradient(op, u, 2.0 * w + dt * u)
        split = 2.0 * kinetic_surface_gradient(op, u, w) + dt * kinetic_surface_gradient(op, u, u)
        assert np.max(np.abs(fused - split)) <= 1e-13 * max(1.0, np.max(np.abs(split)))
