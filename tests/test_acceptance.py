"""End-to-end acceptance checks.

Each check prints one ``[PASS]``/``[FAIL]`` line straight to the terminal
(bypassing capture) so a full run shows the verdict per criterion.  The
16x16 bend registration backing criteria 5 and 6 is computed once; its
duration is excluded from the suite timing budget, which covers everything
else and is asserted by the final check (reordered to run last).
"""

import time

import numpy as np
import pytest

from innershape import (
    Immersion,
    MeanStatus,
    RegistrationConfig,
    Topology,
    assemble,
    backward_sweep,
    build_grid,
    cylinder_surface,
    energy,
    inner_product,
    karcher_mean,
    kinetic_surface_gradient,
    l2_matching,
    matching_covector,
    register,
    sharp,
    shoot,
    torus_surface,
    torus_triangle,
    triangle_experiment,
    vase_family,
)

from . import conftest as suite_state
from .conftest import count_calls
from .oracles import flat_mass_matrix, flat_stiffness_matrix, metric_inner_quadrature
from .test_geometry import flat_immersion

ALPHA = 0.6

FD_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _announce(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


@pytest.fixture(scope="module")
def bend_registration():
    """The 16x16 straight-to-bent-rippled cylinder registration.

    Shared by the integrator and registration checks; its wall-clock time
    has a dedicated budget and is excluded from the suite budget.  The run
    counts its calls (``count_calls``) for the cost pins.
    """
    mesh = build_grid(Topology.CYLINDER, 16, 16)
    q0 = cylinder_surface(mesh)
    target = cylinder_surface(mesh, bend_deg=90.0, ripples=5, ripple_amplitude=0.02)
    initial_match = l2_matching(q0, target)
    cfg = RegistrationConfig(
        sigma=0.05, n_steps=10, max_iters=250,
        tol_grad=1e-9, tol_match=0.0015 * initial_match,
    )
    op0 = assemble(q0, ALPHA)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch)
        start = time.monotonic()
        result = register(op0, target, cfg)
        elapsed = time.monotonic() - start
    suite_state.EXCLUDED_SECONDS["bend_registration_16x16"] = elapsed
    return q0, target, initial_match, result, elapsed, calls


def test_criterion_1_gradient_vs_finite_differences(capsys):
    start = time.monotonic()
    mesh = build_grid(Topology.CYLINDER, 8, 8)
    q0 = cylinder_surface(mesh)
    rng = np.random.default_rng(42)
    shape = (mesh.n_nodes, 3)
    u0 = 0.2 * rng.standard_normal(shape)
    q_target = q0.displaced(0.05 * rng.standard_normal(shape))
    cfg = RegistrationConfig(sigma=1.0, n_steps=5)

    op0 = assemble(q0, ALPHA)
    path = shoot(op0, u0, cfg.n_steps)
    grad = backward_sweep(path, matching_covector(path.final, q_target, cfg.sigma))

    worst = 0.0
    for _ in range(10):
        direction = rng.standard_normal(shape)
        pairing = inner_product(op0, grad, direction)
        errors = []
        for h in FD_STEPS:
            e_plus, _, _ = energy(shoot(op0, u0 + h * direction, cfg.n_steps), q_target, cfg.sigma)
            e_minus, _, _ = energy(shoot(op0, u0 - h * direction, cfg.n_steps), q_target, cfg.sigma)
            fd = (e_plus - e_minus) / (2.0 * h)
            scale = max(abs(pairing), abs(fd), 1e-30)
            errors.append(abs(pairing - fd) / scale)
        worst = max(worst, min(errors))
    elapsed = time.monotonic() - start

    passed = worst <= 1e-5 and elapsed <= 10.0
    _announce(capsys, 1, passed,
              f"adjoint gradient vs central differences, 10 directions, "
              f"worst min-over-h error {worst:.2e} (tol 1e-5), "
              f"{elapsed:.1f}s (limit 10s)")
    assert worst <= 1e-5
    assert elapsed <= 10.0


def test_criterion_2_flat_metric_reduction(capsys):
    mesh = build_grid(Topology.PLANE, 6, 6)
    q = flat_immersion(mesh)
    block = assemble(q, ALPHA).block.toarray()
    reference = flat_mass_matrix(mesh) + ALPHA**2 * flat_stiffness_matrix(mesh)
    error = np.max(np.abs(block - reference))

    passed = error <= 1e-12
    _announce(capsys, 2, passed,
              f"flat-sheet metric equals mass + alpha^2 stiffness, "
              f"max entry error {error:.2e} (tol 1e-12)")
    assert error <= 1e-12


def test_criterion_3_assembly_quadrature_oracle(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = []
    for topology in (Topology.PLANE, Topology.CYLINDER, Topology.TORUS):
        for nx, ny in ((3, 3), (4, 3), (3, 5)):
            cases.append((topology, nx, ny))
    # 20 instances: cycle the nine mesh shapes with fresh random data
    for k in range(20):
        topology, nx, ny = cases[k % len(cases)]
        mesh = build_grid(topology, nx, ny)
        if topology is Topology.PLANE:
            base = flat_immersion(mesh)
        elif topology is Topology.CYLINDER:
            base = cylinder_surface(mesh)
        else:
            base = torus_surface(mesh)
        q = Immersion(mesh, base.coords + 0.02 * rng.standard_normal((mesh.n_nodes, 3)))
        alpha = float(rng.uniform(0.2, 1.5))
        u = rng.standard_normal((mesh.n_nodes, 3))
        v = rng.standard_normal((mesh.n_nodes, 3))
        got = inner_product(assemble(q, alpha), u, v)
        want = metric_inner_quadrature(q, alpha, u, v)
        worst = max(worst, abs(got - want) / abs(want))

    passed = worst <= 1e-12
    _announce(capsys, 3, passed,
              f"operator inner product vs per-triangle quadrature, "
              f"20 instances, worst relative error {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_4_invariance_suite(capsys):
    rng = np.random.default_rng(4)
    mesh = build_grid(Topology.CYLINDER, 8, 8)
    q = cylinder_surface(mesh)
    shape = (mesh.n_nodes, 3)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)

    # rigid motion leaves the inner product unchanged
    angle = 0.7
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ \
        np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    shift = np.array([0.4, -1.1, 0.25])
    moved = Immersion(mesh, q.coords @ rot.T + shift)
    rigid_err = abs(
        inner_product(assemble(moved, ALPHA), u @ rot.T, v @ rot.T)
        - inner_product(assemble(q, ALPHA), u, v)
    )

    # relabeling a torus grid by cyclic shifts leaves it unchanged
    tmesh = build_grid(Topology.TORUS, 4, 4)
    tq = Immersion(
        tmesh,
        torus_surface(tmesh).coords + 0.02 * rng.standard_normal((tmesh.n_nodes, 3)),
    )
    tu = rng.standard_normal((tmesh.n_nodes, 3))
    tv = rng.standard_normal((tmesh.n_nodes, 3))
    base_ip = inner_product(assemble(tq, ALPHA), tu, tv)
    shift_err = 0.0
    for dx, dy in ((1, 0), (0, 1), (2, 3)):
        perm = np.empty(tmesh.n_nodes, dtype=int)
        for i in range(4):
            for j in range(4):
                perm[tmesh.grid_index(i, j)] = tmesh.grid_index((i + dx) % 4, (j + dy) % 4)
        moved_ip = inner_product(
            assemble(Immersion(tmesh, tq.coords[perm]), ALPHA), tu[perm], tv[perm]
        )
        shift_err = max(shift_err, abs(moved_ip - base_ip))

    # translating the surface does not change the metric: first variation 0
    op = assemble(q, ALPHA)
    covector = kinetic_surface_gradient(op, u, u)
    translation_err = max(
        abs(float(np.vdot(covector, np.tile(e, (mesh.n_nodes, 1)))))
        for e in np.eye(3)
    )

    # lowering then raising an index is the identity
    roundtrip_err = np.max(np.abs(sharp(op, op.block @ u) - u))

    passed = (rigid_err <= 1e-12 and shift_err <= 1e-12
              and translation_err <= 1e-12 and roundtrip_err <= 1e-10)
    _announce(capsys, 4, passed,
              f"invariances: rigid {rigid_err:.2e}, torus shift {shift_err:.2e}, "
              f"translation variation {translation_err:.2e} (tol 1e-12 each), "
              f"raise-lower roundtrip {roundtrip_err:.2e} (tol 1e-10)")
    assert rigid_err <= 1e-12
    assert shift_err <= 1e-12
    assert translation_err <= 1e-12
    assert roundtrip_err <= 1e-10


def test_criterion_5_integrator_consistency(bend_registration, capsys):
    q0, _, _, result, _, _ = bend_registration

    op0 = assemble(q0, ALPHA)
    zero_path = shoot(op0, np.zeros((q0.mesh.n_nodes, 3)), 10)
    stationary = all(
        np.array_equal(frame.coords, q0.coords) for frame in zero_path.immersions
    )

    drifts = {}
    for n_steps in (10, 20, 40):
        path = shoot(op0, result.u0, n_steps)
        e = path.kinetic
        drifts[n_steps] = float(np.max(np.abs(e - e[0])) / e[0])
    ratio_a = drifts[10] / drifts[20]
    ratio_b = drifts[20] / drifts[40]

    halves = 1.5 <= ratio_a <= 2.5 and 1.5 <= ratio_b <= 2.5
    passed = stationary and halves
    _announce(capsys, 5, passed,
              f"zero velocity stationary: {stationary}; kinetic drift "
              f"{drifts[10]:.2e} -> {drifts[20]:.2e} -> {drifts[40]:.2e}, "
              f"ratios {ratio_a:.2f}, {ratio_b:.2f} (need 2 +/- 0.5)")
    assert stationary
    assert 1.5 <= ratio_a <= 2.5
    assert 1.5 <= ratio_b <= 2.5


def test_criterion_6_bent_cylinder_registration(bend_registration, capsys):
    _, _, initial_match, result, elapsed, _ = bend_registration

    energies = [h.energy for h in result.history]
    monotone = all(b < a for a, b in zip(energies, energies[1:]))
    final_match = result.history[-1].match
    norm_ratio = float(np.sqrt(final_match / initial_match))

    passed = monotone and norm_ratio <= 0.05 and elapsed <= 300.0
    _announce(capsys, 6, passed,
              f"16x16 bend+ripples: monotone descent over {len(energies) - 1} "
              f"iterations: {monotone}; final L2 error {100 * norm_ratio:.2f}% "
              f"of initial (limit 5%); {elapsed:.1f}s (limit 300s)")
    assert monotone
    assert norm_ratio <= 0.05  # the squared-mismatch reading then holds too
    assert final_match <= 0.05 * initial_match
    assert elapsed <= 300.0


def test_bend_registration_cost_and_energy(bend_registration):
    # criterion 6 holds also for an L-BFGS that keeps no curvature pair
    # (preconditioned steepest descent: 9 iterations, E 0.41766), so the
    # descent's cost and result are pinned.  It takes 7 iterations to
    # E = 0.3923793707402035 on numpy 2; the pins leave one iteration and 1%
    # of the energy for the rounding of other numpy versions
    result = bend_registration[3]
    assert result.iterations <= 8
    assert abs(result.energy - 0.3923793707402035) <= 0.01 * 0.3923793707402035


def test_bend_registration_call_counts(bend_registration):
    # every count follows from N and the shoots, sweeps and iterations: on
    # numpy 2, 7 iterations, 9 shoots and 8 sweeps make 81 assembles, 153 D
    # calls, 80 kernel calls and 174 solves, 161 of them through sharp.  The
    # other 2 * iterations - 1 solves apply the preconditioner: once per
    # search direction, and once more to the newest curvature pair from the
    # second on, so an L-BFGS that keeps no pair fails the last pin
    _, _, _, result, _, calls = bend_registration
    n = 10
    shoots, sweeps = calls["shoot"], calls["backward_sweep"]
    assert sweeps == result.iterations + 1  # the rest path and each accepted trial
    assert calls["assemble"] == (n - 1) * shoots
    assert calls["kinetic_surface_gradient"] == (n - 1) * (shoots + sweeps)
    assert calls["kinetic_adjoint_covectors"] == n * sweeps
    assert calls["sharp"] == (n - 1) * shoots + n * sweeps
    assert calls["solve"] == (n - 1) * shoots + n * sweeps + (2 * result.iterations - 1)


def test_criterion_7_torus_triangle(capsys):
    mesh = build_grid(Topology.TORUS, 10, 10)
    qa, qb, qc = torus_triangle(mesh)
    cfg = RegistrationConfig(sigma=0.25, n_steps=8, max_iters=400, tol_grad=7e-4)
    report = triangle_experiment(assemble(qa, ALPHA), qb, qc, cfg)

    vertex_pairs = ((0, 1), (1, 2), (2, 0))  # endpoints of sides AB, BC, CA
    shrinking = all(
        report.midpoint_areas[k] < min(report.vertex_areas[i], report.vertex_areas[j])
        for k, (i, j) in enumerate(vertex_pairs)
    )
    passed = report.converged and report.angle_sum_deg < 180.0 and shrinking
    _announce(capsys, 7, passed,
              f"asymmetric tori: all registrations converged: {report.converged}; "
              f"angle sum {report.angle_sum_deg:.2f} deg (< 180); "
              f"midpoints shrink below both endpoints: {shrinking}")
    assert report.converged
    assert report.angle_sum_deg < 180.0
    assert shrinking


def test_criterion_8_karcher_means(capsys):
    mesh = build_grid(Topology.CYLINDER, 8, 8)
    vases = vase_family(mesh)
    cfg = RegistrationConfig(sigma=0.05, n_steps=4,
                             max_iters=200, tol_grad=2e-3)
    result = karcher_mean(vases, assemble(vases[0], ALPHA), cfg, mean_tol=2e-3, max_outer=6)
    norms = result.velocity_norms
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    within_six = len(norms) <= 6 and norms[-1] < 0.05 * norms[0]

    # one shape: one productive move, then immediate convergence
    pmesh = build_grid(Topology.PLANE, 8, 8)
    q0 = flat_immersion(pmesh)
    offset = np.tile(np.array([0.04, -0.03, 0.05]), (pmesh.n_nodes, 1))
    plus, minus = q0.displaced(offset), q0.displaced(-offset)
    ecfg = RegistrationConfig(
        sigma=0.15, n_steps=4, max_iters=60,
        tol_grad=1e-12, tol_match=1e-3 * l2_matching(q0, plus),
    )
    op = assemble(q0, ALPHA)
    single = karcher_mean([plus], op, ecfg, mean_tol=1e-2, max_outer=10)
    single_ok = (
        single.status is MeanStatus.CONVERGED
        and single.iterations == 2
        and float(np.max(np.abs(single.mean.coords - plus.coords))) <= 5e-3
    )

    # opposite translations: the averaged velocity cancels at once and the
    # mean stays at the center
    pair = karcher_mean([plus, minus], op, ecfg, mean_tol=1e-2, max_outer=10)
    smallest_part = min(
        float(np.sqrt(inner_product(op, u, u))) for u in pair.per_shape_velocities
    )
    pair_ok = (
        pair.status is MeanStatus.CONVERGED
        and pair.iterations == 1
        and pair.velocity_norms[0] <= 0.1 * smallest_part
        and float(np.max(np.abs(pair.mean.coords - q0.coords))) <= 1e-3
    )

    passed = monotone and within_six and single_ok and pair_ok
    _announce(capsys, 8, passed,
              f"5 vases: norms {' > '.join(f'{n:.3e}' for n in norms)}, "
              f"monotone: {monotone}, final/initial {norms[-1] / norms[0]:.4f} "
              f"(< 0.05 within 6): {within_six}; one-shape fixed point: "
              f"{single_ok}; symmetric pair stays centered: {pair_ok}")
    assert monotone
    assert within_six
    assert single_ok
    assert pair_ok


def test_criterion_9_suite_timing_budget(capsys):
    # conftest reorders this test to run after every other one
    excluded = sum(suite_state.EXCLUDED_SECONDS.values())
    elapsed = time.monotonic() - suite_state.SESSION_START - excluded

    passed = elapsed < 180.0
    _announce(capsys, 9, passed,
              f"suite runtime excluding the 16x16 registration: "
              f"{elapsed:.1f}s (limit 180s; excluded {excluded:.1f}s)")
    assert elapsed < 180.0
