"""Acceptance suite: one test per contract criterion, in contract order.

The 54-point (beta, eps, q0, cutoff) matrix is computed once, inside the
criterion that owns the runtime budget, and shared by the criteria that
reuse it.  Tolerances are the contract values, never measured slack.
"""

import json
import time
from dataclasses import asdict, replace

import numpy as np
from scipy.integrate import quad

import spinbath as sb
from spinbath.constants_ledger import constants_c1_c2, delta0_threshold
from spinbath.spectral_density import default_grid

BETAS = (0.5, 1.0, 2.0)
EPSES = (0.25, 0.5, 1.0)
Q0S = (0.5, 1.0, 2.0)
CUTOFFS = (
    ("exponential", sb.power_exp(-0.5, "exponential")),
    ("gaussian", sb.power_exp(-0.5, "gaussian")),
)

_TABLES = {}
_MATRIX = {}


def _matrix_results():
    """Level-shift matrices at all 54 points, tables keyed by (beta, cutoff).

    Kernel tables do not depend on eps or q0, so one table per (beta, h)
    serves nine matrix points.  The horizon is computed at the weakest
    damping (smallest q0) so every point is covered.
    """
    if _MATRIX:
        return _MATRIX
    for name, h in CUTOFFS:
        for beta in BETAS:
            probe = sb.BathSpec(beta=beta, eps=min(EPSES), delta=0.2,
                                q0=min(Q0S), h=h)
            t_max = sb.default_time_horizon(probe)
            _TABLES[beta, name] = sb.tabulate_kernels(probe, t_max, 400,
                                                      tol=1e-9)
            for eps in EPSES:
                for q0 in Q0S:
                    spec = sb.BathSpec(beta=beta, eps=eps, delta=0.2,
                                       q0=q0, h=h)
                    _MATRIX[beta, eps, q0, name] = (
                        spec, sb.lso_matrix(spec, _TABLES[beta, name]))
    return _MATRIX


def test_criterion_01_closed_form_kernels():
    source = sb.JSource(j=lambda w: w * np.exp(-w), omega_max=45.0,
                        ir_exponent=1.0, beta=1e6)
    start = time.perf_counter()
    worst_q1 = worst_q2 = 0.0
    for t in (0.1, 1.0, 10.0):
        value, _ = sb.q1(source, t)
        exact = np.arctan(t)
        worst_q1 = max(worst_q1, abs(value - exact) / abs(exact))
        value, _ = sb.q2(source, t)
        exact = 0.5 * np.log1p(t * t)
        worst_q2 = max(worst_q2, abs(value - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    assert worst_q1 <= 1e-8
    assert worst_q2 <= 1e-6
    assert elapsed < 1.0
    print("[criterion 1] PASS: q1 rel %.2e, q2 rel %.2e, %.2f s"
          % (worst_q1, worst_q2, elapsed))


def test_criterion_02_detailed_balance_matrix():
    start = time.perf_counter()
    results = _matrix_results()
    elapsed = time.perf_counter() - start
    assert len(results) == 54
    worst = max(m.db_residual for _, m in results.values())
    assert worst <= 1e-5
    assert elapsed < 60.0
    print("[criterion 2] PASS: worst db residual %.2e over 54 points, %.1f s"
          % (worst, elapsed))


def test_criterion_03_trace_identity():
    results = _matrix_results()
    worst = max(m.trace_gap for _, m in results.values())
    assert worst <= 1e-5
    print("[criterion 3] PASS: worst relative trace gap %.2e" % worst)


def test_criterion_04_gibbs_kernel_and_second_eigenvalue():
    results = _matrix_results()
    worst_kernel = worst_eig = 0.0
    for (beta, eps, q0, name), (spec, m) in results.items():
        norm = np.linalg.norm(m.matrix, 2)
        worst_kernel = max(worst_kernel, m.kernel_residual / norm)
        tau0_inv = sb.gamma_rate(spec, _TABLES[beta, name]).tau0_inv
        lam = np.linalg.eigvals(m.matrix)
        second = lam[np.argmax(np.abs(lam))]
        worst_eig = max(worst_eig, abs(second - 1j * tau0_inv))
    assert worst_kernel <= 1e-5
    assert worst_eig <= 1e-5
    print("[criterion 4] PASS: kernel residual %.2e of ||matrix||, "
          "second eigenvalue off by %.2e" % (worst_kernel, worst_eig))


def test_criterion_05_glueing_identities():
    smooth = (sb.power_exp(1.0, "exponential"),
              sb.power_exp(0.5, "gaussian"),
              sb.power_exp(3.5, "exponential"))
    worst_sign = worst_norm = 0.0
    for h in smooth:
        for beta in BETAS:
            g = sb.glue(h, beta, default_grid(h, beta))
            worst_sign = max(worst_sign, g.sign_relation_residual())
            oracle = quad(lambda u: 4.0 * np.pi * u ** 2 * h(u) ** 2
                          / np.tanh(beta * u / 2.0), 0.0, np.inf,
                          limit=500)[0]
            worst_norm = max(worst_norm, abs(g.norm_sq() - oracle) / oracle)
    assert worst_sign < 1e-12
    assert worst_norm <= 1e-6

    h1 = sb.power_exp(1.0, "exponential")
    h2 = sb.power_exp(0.5, "gaussian")
    beta = 1.3

    def f1(u):
        return 1j * h1(u)

    g1 = sb.glue(f1, beta, default_grid(h1, beta))
    g2 = sb.glue(h2, beta, g1.grid_spec)
    oracle = quad(lambda u: 4.0 * np.pi * u ** 2
                  * np.imag(np.conj(f1(u)) * h2(u)), 0.0, np.inf,
                  limit=500)[0]
    sym = abs(np.imag(g1.inner(g2)) - oracle) / abs(oracle)
    assert sym <= 1e-6
    print("[criterion 5] PASS: sign %.2e, norm %.2e, symplectic %.2e"
          % (worst_sign, worst_norm, sym))


def test_criterion_06_finite_model_structure(operator_matrix):
    start = time.perf_counter()
    spec, trunc = sb.standard_test_bath()
    f_beta = sb.coupling_function(spec)
    v_sq = {}
    comm_ratio = {}
    ulu = {}
    for n_max in (2, 3, 4):
        tr = replace(trunc, n_max=n_max)
        bath = sb.discretize(f_beta, tr)
        model = sb.build_model(bath, spec, tr)
        cal_V = operator_matrix(model, "cal_V")
        eye = np.eye(cal_V.shape[0])
        v_sq[n_max] = float(np.abs(cal_V @ cal_V - eye).max())
        if n_max == 3:
            # the one ratio asserted and printed; its 2-norms are SVDs
            V, JVJ = operator_matrix(model, "V"), operator_matrix(model, "JVJ")
            comm = V @ JVJ - JVJ @ V
            comm_ratio[n_max] = float(np.linalg.norm(comm, 2)
                                      / np.linalg.norm(V, 2) ** 2)
        ulu[n_max] = sb.check_unitary_equivalence(model)
    assert comm_ratio[3] <= 1e-8
    assert v_sq[3] <= 1e-6
    assert (all(v <= 1e-12 for v in v_sq.values())
            or v_sq[4] < v_sq[3] < v_sq[2])
    assert ulu[4] < ulu[3] < ulu[2]

    free = replace(spec, q0=0.0)
    bath0 = sb.discretize(sb.coupling_function(free), trunc)
    residual0 = sb.check_unitary_equivalence(sb.build_model(bath0, free,
                                                            trunc))
    assert residual0 < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("[criterion 6] PASS: [V,JVJ] %.2e, V^2-1 %.2e, ULU* %s, "
          "decoupled %.1e, %.0f s"
          % (comm_ratio[3], v_sq[3],
             "/".join("%.3f" % ulu[n] for n in (2, 3, 4)), residual0,
             elapsed))


def test_criterion_07_oracle_matches_continuum():
    start = time.perf_counter()
    spec = sb.standard_oracle_bath()
    report = sb.run_oracle_schedule(spec)
    assert all(report.monotone.values())

    t_max = sb.default_time_horizon(spec)
    table = sb.tabulate_kernels(spec, t_max, 400, tol=1e-9)
    x_plus, x_minus, z, _ = sb.lso_entries(spec, table)
    continuum = {"x_plus": x_plus, "x_minus": x_minus, "z": z}
    worst = 0.0
    for key, target in continuum.items():
        worst = max(worst, abs(report.extrapolated[key] - target)
                    / abs(target))
    assert worst < 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print("[criterion 7] PASS: extrapolation within %.2f%% of continuum, "
          "%.0f s" % (100.0 * worst, elapsed))


def test_criterion_08_kms_vector():
    spec, trunc = sb.standard_test_bath()
    decoupled = replace(spec, delta=0.0)
    bath = sb.discretize(sb.coupling_function(decoupled), trunc)
    _, residual = sb.kms_vector(sb.build_model(bath, decoupled, trunc))
    assert residual < 1e-12

    coupled = replace(spec, delta=0.05)
    f_beta = sb.coupling_function(coupled)
    ladder = []
    for m_pos, n_max in ((1, 2), (2, 3), (2, 4)):
        tr = replace(trunc, m_pos=m_pos, n_max=n_max)
        b = sb.discretize(f_beta, tr)
        ladder.append(sb.kms_vector(sb.build_model(b, coupled, tr))[1])
    assert ladder[1] < ladder[0] and ladder[2] < ladder[1]
    print("[criterion 8] PASS: decoupled residual %.1e, refinement %s"
          % (residual, "/".join("%.2e" % r for r in ladder)))


def test_criterion_09_condition_a_verdicts():
    base = sb.BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0,
                       h=sb.power_exp(3.5, "exponential"))
    verdict_exp, _ = sb.check_condition_A(base, 2.2)
    verdict_gauss, _ = sb.check_condition_A(
        replace(base, h=sb.power_exp(0.5, "gaussian")), 2.2)
    verdict_rough, report = sb.check_condition_A(
        replace(base, h=sb.power_exp(-0.5, "exponential")), 2.2)
    assert verdict_exp == "pass"
    assert verdict_gauss == "pass"
    assert verdict_rough == "fail"
    print("[criterion 9] PASS: smooth pass/pass, rough fail "
          "(rel changes %s)" % report["rel_changes"])


def test_criterion_10_constants_contract():
    spec = sb.BathSpec(beta=1.0, eps=2.0, delta=0.1, q0=1.0,
                       h=sb.power_exp(0.5, "gaussian"))
    f_beta = sb.coupling_function(spec)
    c1, c2 = constants_c1_c2(f_beta, 2.2)
    assert c2 == c1 * (1.0 + f_beta.norm()) / np.sqrt(2.0)

    inputs = {"c_kms": 1.0, "c3": 0.5, "c5": 3.0, "tau0": 0.25}
    assert delta0_threshold(spec, inputs) == 1.0 / 16.0

    report = sb.constants_report(spec, 2.2, c_kms=1.0, c5=3.0, tau0=0.25,
                                 allow_heuristics=True)
    assert report.inputs_used["c3"]["provenance"] == "heuristic_default"
    again = sb.constants_report(spec, 2.2, c_kms=1.0, c5=3.0, tau0=0.25,
                                allow_heuristics=True)
    assert (json.dumps(asdict(report), sort_keys=True)
            == json.dumps(asdict(again), sort_keys=True))

    run_spec = sb.BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0,
                           h=sb.power_exp(-0.5, "exponential"))
    bytes_out = []
    for _ in range(2):
        t_max = sb.default_time_horizon(run_spec)
        table = sb.tabulate_kernels(run_spec, t_max, 200, tol=1e-8)
        rate = sb.gamma_rate(run_spec, table)
        lso = sb.lso_matrix(run_spec, table)
        bytes_out.append(json.dumps(sb.report_dict(run_spec, rate, lso),
                                    sort_keys=True))
    assert bytes_out[0] == bytes_out[1]
    print("[criterion 10] PASS: c2 identity exact, delta0 = 1/16 bit-exact, "
          "heuristic flagged, reports byte-stable")
