"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.  Criterion 3 asserts the stated leapfrog energy-error band
1.25e-2 +/- 10% verbatim; the measured wobble of the staged scheme on
this oscillator is h^2/8 = 1.25e-3 (an exact derivation, confirmed
numerically), so that clause fails and is expected to keep failing.  The
table-3 emitter flags the same inconsistency in its note column.
"""

import math
import time

import numpy as np

from maniflow import control, experiments, infophase, manifold, planner, spins

_T0 = time.perf_counter()


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{tail}")
    return ok


def test_criterion_1_descent_table():
    t0 = time.perf_counter()
    runs = experiments.toy1_run()
    elapsed = time.perf_counter() - t0
    costs_ok = (
        abs(runs["linear"].cost - 3.4000) <= 1e-4
        and abs(runs["hjb_like"].cost - 1.6650) <= 1e-4
        and abs(runs["sssp"].cost - 1.0000) <= 1e-4
    )
    path_ok = runs["sssp"].path == (2.0, 0.0)
    ok = costs_ok and path_ok and elapsed < 1.0
    _verdict(
        1,
        "descent costs and shortest route",
        ok,
        f"costs {runs['linear'].cost:.5f}/{runs['hjb_like'].cost:.5f}/"
        f"{runs['sssp'].cost:.5f}, path {runs['sssp'].path}, {elapsed:.3f}s",
    )
    assert costs_ok, "descent path costs left the 1e-4 band"
    assert path_ok, f"shortest route {runs['sssp'].path} is not the direct hop"
    assert elapsed < 1.0


def test_criterion_2_refinement_table():
    t0 = time.perf_counter()
    runs = experiments.toy2_run()
    elapsed = time.perf_counter() - t0
    costs_ok = (
        abs(runs["hjb_only"].cost - 1.6406) <= 1e-4
        and abs(runs["ctm_style"].cost - 2.1204) <= 1e-4
    )
    finals_ok = (
        abs(runs["hjb_only"].path[-1] - 0.25) <= 1e-6
        and abs(runs["ctm_style"].path[-1] - 0.093312) <= 1e-6
    )
    ok = costs_ok and finals_ok and elapsed < 1.0
    _verdict(
        2,
        "refinement costs and endpoints",
        ok,
        f"costs {runs['hjb_only'].cost:.5f}/{runs['ctm_style'].cost:.5f}, "
        f"finals {runs['hjb_only'].path[-1]:.6f}/{runs['ctm_style'].path[-1]:.6f}, "
        f"{elapsed:.3f}s",
    )
    assert costs_ok and finals_ok and elapsed < 1.0


def test_criterion_3_leapfrog_accuracy():
    t0 = time.perf_counter()
    reports = {r.method: r for r in experiments.toy3_run()}
    elapsed = time.perf_counter() - t0
    leap = reports["leapfrog"]
    state_ok = abs(leap.eps_state - 0.042) <= 0.005
    energy_ok = abs(leap.eps_h_max - 1.25e-2) <= 0.1 * 1.25e-2
    ok = state_ok and energy_ok and elapsed < 1.0
    _verdict(
        3,
        "leapfrog state and energy bands",
        ok,
        f"eps_state {leap.eps_state:.5f} vs 0.042+/-0.005, "
        f"eps_h_max {leap.eps_h_max:.6f} vs 1.25e-2+/-10%, {elapsed:.3f}s",
    )
    assert elapsed < 1.0
    assert state_ok, f"state error {leap.eps_state} left the 0.042 +/- 0.005 band"
    # measured wobble is h^2/8 = 1.25e-3; the required 1.25e-2 band excludes it
    assert energy_ok, (
        f"energy error {leap.eps_h_max} is h^2/8 = 1.25e-3, an order of magnitude "
        "below the required 1.25e-2 +/- 10% band; the table note flags the same "
        "scale discrepancy in the reference values"
    )


def test_criterion_4_euler_divergence():
    reports = {r.method: r for r in experiments.toy3_run()}
    euler = reports["euler"]
    h, n = 0.1, 1000
    radius_ref = (1.0 + h * h) ** (n / 2.0)
    radius_ok = abs(euler.final_radius / radius_ref - 1.0) <= 1e-3
    final_ok = (
        abs(euler.final_y / 94.2 - 1.0) <= 1e-2
        and abs(euler.final_p / 110.0 - 1.0) <= 1e-2
    )
    derived = ((1.0 + h * h) ** n - 1.0) / 2.0
    energy_ok = abs(euler.eps_h_max / derived - 1.0) <= 1e-6
    flagged = "inconsistent" in euler.note
    ok = radius_ok and final_ok and energy_ok and flagged
    _verdict(
        4,
        "forward-Euler growth law",
        ok,
        f"radius {euler.final_radius:.4f} vs {radius_ref:.4f}, final "
        f"({euler.final_y:.2f}, {euler.final_p:.2f}), eps_h {euler.eps_h_max:.1f} "
        f"vs derived {derived:.1f}, note flagged: {flagged}",
    )
    assert radius_ok, "final radius left the 0.1% band around (1+h^2)^(N/2)"
    assert final_ok, "final state left the 1% band around (94.2, 110.0)"
    assert energy_ok, "energy error does not match ((1+h^2)^N - 1)/2"
    assert flagged, "the report should flag the reference energy-error inconsistency"


def test_criterion_5_damped_contraction():
    reports = {r.method: r for r in experiments.toy3_run()}
    damped = reports["damped"]
    state_ok = abs(damped.eps_state - 0.919) <= 0.01
    energy_ok = abs(damped.eps_h_max - 0.497) <= 0.01
    ok = state_ok and energy_ok
    _verdict(
        5,
        "damped-update error bands",
        ok,
        f"eps_state {damped.eps_state:.4f} vs 0.919+/-0.01, "
        f"eps_h_max {damped.eps_h_max:.4f} vs 0.497+/-0.01",
    )
    assert state_ok and energy_ok


def test_criterion_6_entropy_accounting():
    runs1 = experiments.toy1_run()
    runs2 = experiments.toy2_run()
    order1 = (
        runs1["linear"].efficiency
        <= runs1["hjb_like"].efficiency
        <= runs1["sssp"].efficiency
    )
    order2 = (
        runs2["ctm_style"].delta_u > runs2["hjb_only"].delta_u
        and runs2["hjb_only"].efficiency > runs2["ctm_style"].efficiency
    )
    dec = experiments.ToyDecoder()
    gaps = []
    for path in (experiments.LINEAR_PATH, experiments.HALVING_PATH_5, experiments.HALVING_PATH_3):
        por = infophase.portrait([dec.distribution(y) for y in path])
        gaps.append(abs(float(np.sum(por.e)) - (por.u[0] - por.u[-1])))
    telescoping_ok = max(gaps) <= 1e-12
    ok = order1 and order2 and telescoping_ok
    _verdict(
        6,
        "entropy orderings and telescoping",
        ok,
        f"toy1 efficiency ordering {order1}, toy2 trade-off {order2}, "
        f"max telescoping gap {max(gaps):.2e}",
    )
    assert order1, "efficiency should rise from linear to hjb-like to sssp"
    assert order2, "ctm-style should shed more entropy at lower efficiency"
    assert telescoping_ok


def _check_leapfrog_determinant():
    ham = experiments.HarmonicOscillator()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10):
        z0 = rng.normal(size=2)
        step = 1e-6
        jac = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            plus = manifold.leapfrog_step(
                ham, manifold.PhasePoint(z0[:1] + e[:1], z0[1:] + e[1:]), 0.1
            )
            minus = manifold.leapfrog_step(
                ham, manifold.PhasePoint(z0[:1] - e[:1], z0[1:] - e[1:]), 0.1
            )
            jac[0, i] = (plus.y[0] - minus.y[0]) / (2 * step)
            jac[1, i] = (plus.p[0] - minus.p[0]) / (2 * step)
        worst = max(worst, abs(np.linalg.det(jac) - 1.0))
    return worst <= 1e-8, f"max |det - 1| {worst:.2e}"


def _check_leapfrog_reversibility():
    ham = experiments.HarmonicOscillator()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        pt = manifold.PhasePoint(rng.normal(size=2)[:1], rng.normal(size=2)[:1])
        fwd = pt
        for _ in range(40):
            fwd = manifold.leapfrog_step(ham, fwd, 0.05)
        back = fwd
        for _ in range(40):
            back = manifold.leapfrog_step(ham, back, -0.05)
        worst = max(worst, float(np.max(np.abs(back.y - pt.y))), float(np.max(np.abs(back.p - pt.p))))
    return worst <= 1e-10, f"max return error {worst:.2e}"


def _check_spin_norms():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        n, d = 6, 3
        s = rng.normal(size=(n, d))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        sys0 = spins.SpinSystem(s, rng.normal(size=(n, n)))
        bath = spins.BathParams(eta=0.05, gamma=0.01)
        for _ in range(5):
            sys0 = spins.micro_step(sys0, bath)
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(sys0.spins, axis=1) - 1.0))))
    return worst <= 1e-9, f"max |norm - 1| {worst:.2e}"


def _check_gibbs_softmax():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(3, 8)), 4
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(n, d))
        j = spins.attention_couplings(q, k)
        # identical spins make every bond energy -J_ij
        s = np.tile(rng.normal(size=d), (n, 1))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        sys0 = spins.SpinSystem(s, j)
        beta = float(rng.uniform(0.2, 2.0))
        i = int(rng.integers(0, n))
        pi = spins.gibbs_attention(sys0, i, beta)
        logits = np.array([beta * (q[i] @ k[jj]) / np.sqrt(d) for jj in range(n) if jj != i])
        ref = np.exp(logits - np.max(logits))
        ref /= np.sum(ref)
        worst = max(worst, float(np.max(np.abs(np.delete(pi, i) - ref))))
    return worst <= 1e-12, f"max attention gap {worst:.2e}"


def _check_gradient_fd():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(5):
        n, d = 5, 3
        s = rng.normal(size=(n, d))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        j = rng.normal(size=(n, n))
        h = rng.normal(size=(n, d))
        grad = spins.energy_gradient(spins.SpinSystem(s, j, fields=h))
        step = 1e-6
        for i in range(n):
            for a in range(d):
                plus, minus = s.copy(), s.copy()
                plus[i, a] += step
                minus[i, a] -= step
                fd = (
                    spins.lattice_energy(j, plus, h) - spins.lattice_energy(j, minus, h)
                ) / (2 * step)
                worst = max(worst, abs(fd - grad[i, a]) / max(1.0, abs(fd)))
    return worst <= 1e-5, f"max relative gradient gap {worst:.2e}"


def _check_metric_spd():
    rng = np.random.default_rng(105)
    dec = manifold.Decoder.mlp_tanh(
        [rng.normal(size=(4, 2)), rng.normal(size=(4, 4))],
        [rng.normal(size=4) * 0.1, rng.normal(size=4) * 0.1],
    )
    mf = manifold.MetricField(dec)
    min_eig = np.inf
    for _ in range(100):
        y = rng.uniform(-2.0, 2.0, size=2)
        g = manifold.pullback_metric(mf, y)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g))))
    return min_eig > 0.0, f"min eigenvalue {min_eig:.2e} over 100 points"


def _check_dijkstra_brute_force():
    rng = np.random.default_rng(106)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        g = planner.WeightedDigraph()
        for _ in range(n):
            g.add_node()
        for _ in range(int(rng.integers(0, n * (n - 1) + 1))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                g.add_edge(u, v, 0.0 if rng.random() < 0.2 else float(rng.random() * 4.0))
        src = int(rng.integers(0, n))
        got = planner.dijkstra(g, src)
        want = [math.inf] * n
        want[src] = 0.0
        for _ in range(n):
            for a, b, w in g.edges():
                if want[a] + w < want[b]:
                    want[b] = want[a] + w
        if not np.allclose(got, want):
            return False, f"distance mismatch on trial {trial}"
    return True, "200 random graphs matched"


def _check_hjb_residual():
    mf = manifold.MetricField(manifold.Decoder.linear(np.eye(1)), eps_reg=0.0)
    cost = control.CostSpec(task_cost=lambda z: 0.5 * float(z @ z))
    vf = control.ValueFunction(
        grad=lambda y, t: np.asarray(y, dtype=float),
        time_partial=lambda y, t: 0.0,
    )
    worst = 0.0
    for y in np.linspace(-3.0, 3.0, 61):
        worst = max(worst, abs(control.hjb_residual(mf, cost, vf, np.array([y]))))
    return worst <= 1e-10, f"max |residual| {worst:.2e}"


def _check_divergence_score():
    rng = np.random.default_rng(0)
    portraits = experiments.rotation_portraits(150, 200, 0.05, rng)
    field = infophase.empirical_field(portraits, 12)
    score = infophase.divergence_score(field)
    return score <= 0.1, f"divergence score {score:.4f}"


def _check_jacobi_agreement():
    rng = np.random.default_rng(0)
    w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + 0.3 * rng.normal(size=(3, 2))
    w2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    dec = manifold.Decoder.mlp_tanh([w1, w2], [np.zeros(3), np.zeros(3)])
    mf = manifold.MetricField(dec)
    ham = manifold.GeodesicHamiltonian(mf)
    y0 = np.array([0.3, -0.2])
    p0 = manifold.pullback_metric(mf, y0) @ np.array([-0.35, 0.35])
    d0 = np.array([0.7, -0.3, 0.2, 0.5])
    k = 800
    traj = manifold.integrate(ham, manifold.PhasePoint(y0, p0), 1.0 / k, k)
    model = manifold.jacobi_propagate(ham, traj, d0)
    emp = manifold.empirical_deviations(ham, manifold.PhasePoint(y0, p0), d0, 1.0 / k, k)
    rel = float(np.linalg.norm(model[-1] - emp[-1]) / np.linalg.norm(emp[-1]))
    return rel <= 1e-3, f"relative deviation gap {rel:.2e} at s=1"


def test_criterion_7_property_suite():
    checks = {
        "leapfrog determinant": _check_leapfrog_determinant,
        "leapfrog reversibility": _check_leapfrog_reversibility,
        "spin norms": _check_spin_norms,
        "gibbs softmax": _check_gibbs_softmax,
        "gradient fd": _check_gradient_fd,
        "metric spd": _check_metric_spd,
        "dijkstra brute force": _check_dijkstra_brute_force,
        "hjb residual": _check_hjb_residual,
        "divergence score": _check_divergence_score,
        "jacobi agreement": _check_jacobi_agreement,
    }
    results = {name: fn() for name, fn in checks.items()}
    elapsed = time.perf_counter() - _T0
    runtime_ok = elapsed < 60.0
    failed = [name for name, (ok, _) in results.items() if not ok]
    ok = not failed and runtime_ok
    detail = "; ".join(f"{name}: {msg}" for name, (_, msg) in results.items())
    _verdict(7, "property suite", ok, detail + f"; suite {elapsed:.1f}s")
    assert not failed, f"property sub-checks failed: {failed}"
    assert runtime_ok, f"acceptance suite took {elapsed:.1f}s, over the 60s budget"
