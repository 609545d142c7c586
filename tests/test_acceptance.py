"""Release gate: every shipping criterion at its stated tolerance.

Each test prints one `criterion NN: PASS/FAIL` line (bypassing capture)
and then asserts, so a plain pytest run shows the full scorecard.  The
reference figures in the two table-reproduction gates are asserted
exactly as published; see the failure messages for the cells whose
recomputed values sit outside the stated band.
"""

import csv
import math
import time

import numpy as np
import pytest

from maxdeficit import (
    DeficitFunctional,
    PathState,
    Tolerance,
    brent_root,
    choquet_empirical,
    critical_threshold,
    identity,
    line_from_ruin_constants,
    method1_exponential,
    method2_generic,
    method2_two_line,
    premium_lower_bound,
    proportional_hazard,
    proportional_measure,
    rho2_two_line,
    rolling_requirement,
    ruin_constants,
    simulate_max_loss,
    supermartingale_check,
    tvar,
    ultimate_ruin,
    var_step,
)
from maxdeficit.cli import main
from tests.conftest import LINE1, LINE2, LINE3

LINES = (LINE1, LINE2, LINE3)


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")

    return _announce


def test_criterion_01_line_constants(announce):
    published = [(0.8333, 0.1667), (0.6667, 0.0333), (0.5000, 0.0050)]
    start = time.perf_counter()
    got = [ruin_constants(line) for line in LINES]
    elapsed = time.perf_counter() - start
    worst = max(
        max(abs(k.a - a), abs(k.b - b)) for k, (a, b) in zip(got, published)
    )
    ok = worst <= 5e-5 and elapsed < 1e-3
    announce(1, ok, f"(a, b) to 4 dp, worst dev {worst:.1e}, {elapsed * 1e3:.2f} ms")
    assert ok, f"worst constant deviation {worst:.2e}, runtime {elapsed * 1e3:.3f} ms"


def test_criterion_02_three_line_allocation_table(announce):
    published = {
        100.0: (5.31, 19.82, 74.87),
        40.0: (3.78, 12.22, 24.00),
        10.0: (2.78, 7.22, 0.00),
        1.0: (1.00, 0.00, 0.00),
    }
    start = time.perf_counter()
    results = {
        total: method1_exponential(LINES, total)
        for total in published
    }
    elapsed = time.perf_counter() - start
    misses = []
    for total, expected in published.items():
        for k, (want, got) in enumerate(zip(expected, results[total].reserves)):
            if abs(got - want) > 0.01:
                misses.append(
                    f"budget {total:g} line {k + 1}: published {want:.2f}, "
                    f"recomputed {got:.4f} (|Δ| = {abs(got - want):.4f})"
                )
    ok = not misses and elapsed < 0.010
    announce(
        2,
        ok,
        f"{12 - len(misses)}/12 published allocations within ±0.01, "
        f"{elapsed * 1e3:.1f} ms",
    )
    assert ok, "; ".join(misses) or f"runtime {elapsed * 1e3:.1f} ms"


def test_criterion_03_penalized_allocation(announce):
    published = (2.37, 5.16, 92.47)
    res = method1_exponential(LINES, 100.0, (1.0, 1.0, 2.0))
    misses = [
        f"line {k + 1}: published {want:.2f}, recomputed {got:.4f} "
        f"(|Δ| = {abs(got - want):.4f})"
        for k, (want, got) in enumerate(zip(published, res.reserves))
        if abs(got - want) > 0.01
    ]
    ok = not misses
    announce(3, ok, f"{3 - len(misses)}/3 penalized allocations within ±0.01")
    assert ok, "; ".join(misses)


def test_criterion_04_two_line_method_comparison(announce):
    fast = line_from_ruin_constants(0.9, 0.05)
    slow = line_from_ruin_constants(0.9, 0.01)
    published = {
        30.0: ((5.00, 25.00), (0.00, 30.00)),
        60.0: ((10.00, 50.00), (3.08, 56.92)),
        120.0: ((20.00, 100.00), (16.03, 103.97)),
    }
    worst = 0.0
    for total, (marginal_ref, aggregate_ref) in published.items():
        marginal = method1_exponential((fast, slow), total).reserves
        aggregate = method2_two_line(fast, slow, total).reserves
        for got, want in zip(list(marginal) + list(aggregate),
                             list(marginal_ref) + list(aggregate_ref)):
            worst = max(worst, abs(got - want))
    ok = worst <= 0.01
    announce(4, ok, f"12/12 method-comparison values, worst dev {worst:.4f}")
    assert ok, f"worst deviation {worst:.4f} exceeds 0.01"


def test_criterion_05_closed_forms_vs_quadrature(announce):
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        line = line_from_ruin_constants(
            rng.uniform(0.1, 0.95), rng.uniform(0.01, 0.5)
        )
        kind = rng.integers(3)
        if kind == 0:
            g, closed = identity(), DeficitFunctional.closed_form_ph(line)
        elif kind == 1:
            p = rng.uniform(0.3, 1.0)
            g = proportional_hazard(p)
            closed = DeficitFunctional.closed_form_ph(line, p)
        else:
            alpha = rng.uniform(0.01, 0.5)
            g = tvar(alpha)
            closed = DeficitFunctional.closed_form_tvar(line, alpha)
        u = rng.uniform(0.0, 3.0 / ruin_constants(line).b)
        quad = DeficitFunctional.quadrature(
            g, lambda v, ln=line: ultimate_ruin(ln, v)
        )
        d = closed(u)
        worst = max(worst, abs(d - quad(u)) / max(1.0, d))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    announce(
        5, ok, f"100 closed-vs-quadrature cases, worst 1e-6-scaled dev "
        f"{worst:.2e}, {elapsed:.2f} s"
    )
    assert ok, f"worst scaled deviation {worst:.2e}, runtime {elapsed:.2f} s"


def test_criterion_06_lambert_vs_bracketed_root(announce):
    rng = np.random.default_rng(606)
    tight = Tolerance(abs_tol=1e-12, rel_tol=1e-12)
    worst_gap = worst_resid = 0.0
    for _ in range(50):
        line = line_from_ruin_constants(
            rng.uniform(0.1, 0.95), rng.uniform(0.01, 0.5)
        )
        p = float(rng.choice([1.0, rng.uniform(0.3, 1.0)]))
        d = DeficitFunctional.closed_form_ph(line, p)
        margin = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        res = proportional_measure(d, margin)
        hi = 1.0
        while d(hi) - margin * hi > 0.0:
            hi *= 2.0
        ref = brent_root(lambda u: d(u) - margin * u, 0.0, hi, tight)
        worst_gap = max(worst_gap, abs(res.value - ref))
        worst_resid = max(worst_resid, res.residual)
    ok = worst_gap <= 1e-8 and worst_resid <= 1e-8
    announce(
        6, ok, f"50 cases: |u*_W − u*_root| ≤ {worst_gap:.1e}, "
        f"residual ≤ {worst_resid:.1e}"
    )
    assert ok, f"gap {worst_gap:.2e}, residual {worst_resid:.2e}"


def test_criterion_07_threshold_infima(announce):
    line = line_from_ruin_constants(1.0 - 1e-4, 1e-4)
    ph_star = critical_threshold(DeficitFunctional.closed_form_ph(line, 0.5))
    tv_star = critical_threshold(DeficitFunctional.closed_form_tvar(line, 0.01))
    ph_limit = math.exp(-1.0)
    tv_limit = 1.0 / (math.e * (1.0 - math.log(0.01)))
    ph_dev = abs(ph_star - ph_limit) / ph_limit
    tv_dev = abs(tv_star - tv_limit) / tv_limit
    ok = ph_dev <= 1e-3 and tv_dev <= 1e-3
    announce(
        7, ok, f"limits 36.79% / 6.56% approached to {ph_dev:.1e} and {tv_dev:.1e}"
    )
    assert ok, f"ph dev {ph_dev:.2e}, tvar dev {tv_dev:.2e}"


def test_criterion_08_simulated_ruin_vs_closed_form(announce):
    start = time.perf_counter()
    worst_sigmas = 0.0
    for line in LINES:
        k = ruin_constants(line)
        batch = simulate_max_loss(line, 200.0, 100_000, seed=808)
        for u in (0.0, 5.0, 10.0, 20.0):
            p = float(np.count_nonzero(batch.samples > u)) / batch.n
            exact = k.a * math.exp(-k.b * u)
            se = math.sqrt(exact * (1.0 - exact) / batch.n)
            worst_sigmas = max(worst_sigmas, abs(p - exact) / se)
    elapsed = time.perf_counter() - start
    ok = worst_sigmas <= 3.0 and elapsed < 60.0
    announce(
        8, ok, f"12 ruin levels within {worst_sigmas:.2f} binomial SE, "
        f"{elapsed:.1f} s"
    )
    assert ok, f"worst deviation {worst_sigmas:.2f} SE, runtime {elapsed:.1f} s"


def test_criterion_09_requirement_supermartingale(announce):
    start = time.perf_counter()
    rho0_ph, mean_ph, se_ph = supermartingale_check(
        LINE1, proportional_hazard(0.5), t=20.0, r=5.0,
        n_outer=200, n_inner=2000, seed=909,
    )
    rho0_id, mean_id, se_id = supermartingale_check(
        LINE1, identity(), t=20.0, r=5.0, n_outer=200, n_inner=2000, seed=909
    )
    elapsed = time.perf_counter() - start
    ph_ok = mean_ph <= rho0_ph + 3.0 * se_ph
    id_ok = abs(rho0_id - mean_id) <= 3.0 * se_id
    ok = ph_ok and id_ok and elapsed < 60.0
    announce(
        9, ok, f"mean ρ_r − ρ_0 = {mean_ph - rho0_ph:+.4f} (3·SE = "
        f"{3 * se_ph:.4f}); identity gap {abs(rho0_id - mean_id):.2e}; "
        f"{elapsed:.1f} s"
    )
    assert ok, (
        f"ph gap {mean_ph - rho0_ph:+.4f} vs 3·SE {3 * se_ph:.4f}, "
        f"identity gap {abs(rho0_id - mean_id):.2e}, runtime {elapsed:.1f} s"
    )


def test_criterion_10_rolling_identity(announce):
    rng = np.random.default_rng(1010)
    cases = [(-3.0, 5.0, 2.0), (7.0, 5.0, 12.0)]
    exact = all(
        rolling_requirement(
            PathState(time=1.0, realized_loss=l, running_max=max(0.0, l)), rho
        )
        == want
        for l, rho, want in cases
    )
    for _ in range(50):
        loss = float(rng.uniform(-40.0, 40.0))
        rho = float(rng.uniform(0.0, 60.0))
        state = PathState(time=2.0, realized_loss=loss, running_max=abs(loss))
        exact = exact and rolling_requirement(state, rho) == loss + rho
    announce(10, exact, "ρ_s = L_s + ρ^(t) bit-exact on 52 states")
    assert exact


def test_criterion_11_premium_bound(announce):
    flat = premium_lower_bound(LINE1, identity(), 10_000, seed=1111)
    bent = premium_lower_bound(LINE1, proportional_hazard(0.5), 10_000, seed=1111)
    rate = LINE1.lam * LINE1.mu
    id_ok = abs(flat.value - rate) <= 3.0 * flat.std_error
    ph_ok = bent.value - rate > 3.0 * bent.std_error
    ok = id_ok and ph_ok
    announce(
        11, ok, f"identity {flat.value:.3f} ≈ λμ = {rate:g} "
        f"(±{3 * flat.std_error:.3f}); ph margin "
        f"{bent.value - rate:+.3f} > {3 * bent.std_error:.3f}"
    )
    assert ok, (
        f"identity dev {abs(flat.value - rate):.3f} vs {3 * flat.std_error:.3f}; "
        f"ph excess {bent.value - rate:.3f} vs {3 * bent.std_error:.3f}"
    )


def test_criterion_12_axioms_on_empirical_measures(announce):
    rng = np.random.default_rng(1212)
    gs = [proportional_hazard(0.5), proportional_hazard(0.8), tvar(0.1), tvar(0.25)]
    slack = 1e-9
    failures = []
    for case in range(20):
        g = gs[case % len(gs)]
        line = line_from_ruin_constants(
            rng.uniform(0.3, 0.9), rng.uniform(0.05, 0.4)
        )
        x = simulate_max_loss(line, 30.0, 400, seed=3000 + case).samples
        y = simulate_max_loss(line, 30.0, 400, seed=4000 + case).samples
        scale = float(rng.uniform(0.5, 3.0))
        shift = float(rng.uniform(0.1, 5.0))
        cx, cy = choquet_empirical(g, x), choquet_empirical(g, y)
        if choquet_empirical(g, x + y) > cx + cy + slack:
            failures.append(f"case {case}: subadditivity")
        if abs(choquet_empirical(g, scale * x) - scale * cx) > slack * (1 + cx):
            failures.append(f"case {case}: homogeneity")
        if abs(choquet_empirical(g, x + shift) - (cx + shift)) > slack * (1 + cx):
            failures.append(f"case {case}: translation")
        if choquet_empirical(g, np.maximum(x, y)) < max(cx, cy) - slack:
            failures.append(f"case {case}: monotonicity")
    step = var_step(0.6)
    ones = np.array([1.0, 0.0])
    swap = np.array([0.0, 1.0])
    violated = choquet_empirical(step, ones + swap) > choquet_empirical(
        step, ones
    ) + choquet_empirical(step, swap)
    if not violated:
        failures.append("varstep counterexample did not violate subadditivity")
    ok = not failures
    announce(
        12, ok, "4 axioms × 20 scenarios in-sample exact; step distortion "
        "violates subadditivity as constructed"
    )
    assert ok, "; ".join(failures)


def test_criterion_13_requirement_curves_figure(announce, tmp_path):
    out = tmp_path / "curves.csv"
    code = main(
        [
            "figure", "--r-grid", "0.02:0.88:12", "--format", "csv",
            "--precision", "17", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    for row in rows:
        r = float(row["R"])
        for tag in ("identity", "ph:0.5", "tvar:0.01"):
            coherent = float(row[f"coherent_{tag}"])
            for margin in ("0.05", "0.01"):
                if float(row[f"prop_{tag}_d{margin}"]) <= coherent:
                    failures.append(f"R={r:g}: prop_{tag} δ={margin} not above coherent")
        gap = float(row["convex_identity_A5"]) - float(row["convex_identity_A20"])
        if not math.isclose(gap, math.log(4.0) / r, rel_tol=1e-12):
            failures.append(f"R={r:g}: convex gap {gap!r} != ln4/R")
    ok = not failures
    announce(
        13, ok, f"{len(rows)}-point grid: proportional curves dominate "
        "coherent; convex A-gap equals ln(4)/R to float precision"
    )
    assert ok, "; ".join(failures)


def test_criterion_14_uniform_distortion_invariance(announce):
    from maxdeficit import invariance_check

    rng = np.random.default_rng(1414)
    all_ok = True
    for case in range(20):
        lines = tuple(
            line_from_ruin_constants(rng.uniform(0.2, 0.95), rng.uniform(0.01, 0.5))
            for _ in range(3)
        )
        g = proportional_hazard(float(rng.uniform(0.25, 0.95)))
        total = float(rng.uniform(1.0, 200.0))
        all_ok = all_ok and invariance_check(lines, g, total)
    announce(14, all_ok, "20 random 3-line problems invariant to 1e-6 per component")
    assert all_ok


def test_criterion_15_generic_solver_vs_closed_form(announce):
    fast = line_from_ruin_constants(0.9, 0.05)
    slow = line_from_ruin_constants(0.9, 0.01)
    # 1e-6 slack in objective covers exact grid ties at the corner
    # without masking a real miss
    obj_slack = 1e-6
    worst_component = 0.0
    grid_ok = True
    for total in (30.0, 60.0, 120.0):
        closed = method2_two_line(fast, slow, total)
        numeric = method2_generic([fast, slow], identity(), total)
        worst_component = max(
            worst_component,
            float(np.max(np.abs(closed.reserves - numeric.reserves))),
        )
        achieved = rho2_two_line(fast, slow, *numeric.reserves)
        axis = np.linspace(0.0, total, 50)
        for u1 in axis:
            for u2 in axis:
                if u1 + u2 <= total + 1e-12:
                    if achieved > rho2_two_line(fast, slow, u1, u2) + obj_slack:
                        grid_ok = False
    ok = worst_component <= 1e-3 and grid_ok
    announce(
        15, ok, f"active-set Newton within {worst_component:.1e} of closed "
        "form; beats all feasible 50×50 grid points"
    )
    assert ok, f"component gap {worst_component:.2e}, grid dominance {grid_ok}"
