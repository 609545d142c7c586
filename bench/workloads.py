"""The four workloads: fixed lists of requests with their answer checks.

A workload is built from a seed as a list of Request objects.  The seed
picks parameter values only where a request's cost does not depend on
them (closed forms, simulation seeds); it never picks the number or the
kind of requests.  Where cost depends on the instance (quadrature and
aggregate-min), the instances are fixed and the seed only orders them.

Requests reach maxdeficit only through maxdeficit.cli.main and the names
the package exports, looked up at call time so the traced run sees them.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import maxdeficit as md
import maxdeficit.cli as md_cli
import oracle as ref
from oracle import close, require


class RequestFailed(RuntimeError):
    """The CLI answered with a nonzero exit code."""


@dataclass
class Request:
    label: str
    run: object  # () -> output
    check: object  # (output) -> None, raises CheckError


STANDARD = ((10.0, 1.0, 12.0), (1.0, 10.0, 15.0), (0.1, 100.0, 20.0))
FOURTH = (2.0, 2.0, 5.0)


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = md_cli.main(argv)
    if code != 0:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_request(label, argv, check):
    argv = list(argv) + ["--precision", "17"]
    return Request(label, lambda: cli(argv), check)


def line_args(lines):
    args = []
    for lam, mu, c in lines:
        args += ["--line", f"{lam!r},{mu!r},{c!r}"]
    return args


def table(text):
    """Rows of a CLI table as lists of tokens, header dropped, plus any
    key=value summary fields printed after the table."""
    rows, summary = [], {}
    for raw in text.strip().splitlines()[1:]:
        if "=" in raw:
            summary.update(tok.split("=") for tok in raw.split())
        else:
            rows.append(raw.split())
    return rows, {k: float(v) for k, v in summary.items()}


def check_echo(row, line, what):
    require(
        tuple(float(x) for x in row[:3]) == tuple(line),
        f"{what}: echoed line {row[:3]} is not {line}",
    )


def ab_of(lines):
    return [ref.ruin_ab(*line) for line in lines]


# -- closed-cli -------------------------------------------------------------


def _random_line(rng):
    lam = round(math.exp(rng.uniform(math.log(0.1), math.log(10.0))), 3)
    mu = round(math.exp(rng.uniform(math.log(0.5), math.log(50.0))), 3)
    c = round(lam * mu * rng.uniform(1.15, 2.5), 3)
    return (lam, mu, c)


def _budget(rng, lines, gammas):
    """A total reserve of 0.1 to 3 decay lengths sum(gamma_k / b_k).  Far
    larger budgets are left out: there method1_exponential cannot bracket
    its level and method2_two_line stops far from the optimum."""
    scale = sum(gam / ref.ruin_ab(*line)[1] for line, gam in zip(lines, gammas))
    return round(scale * rng.uniform(0.1, 3.0), 3)


def _measure_check(target, spec, lines, param):
    def check(text):
        rows, _ = table(text)
        require(len(rows) == len(lines), f"measure {target}: {len(rows)} rows")
        for row, line in zip(rows, lines):
            check_echo(row, line, f"measure {target}")
            want = ref.requirement(target, spec, line, param)
            close(float(row[3]), want, f"measure {target} {spec} on {line}")

    return check


def _marginal_check(lines, gammas, total):
    def check(text):
        rows, summary = table(text)
        for row, line in zip(rows, lines):
            check_echo(row[1:], line, "allocate")
        u = [float(row[4]) for row in rows]
        require(len(u) == len(lines), "allocate: one row per line")
        for x, row in zip(u, rows):
            require((row[5] == "yes") == (x > 0.0), f"allocate: active flag of {row}")
        ab = ab_of(lines)
        ref.check_marginal_split(ab, gammas, total, u, "allocate", summary["threshold"])
        close(summary["objective"], ref.marginal_objective(ab, gammas, u), "allocate objective")

    return check


def _aggregate_check(spec, lines, total, rng_seed):
    def check(text):
        rows, summary = table(text)
        require(len(rows) == len(lines), "aggregate-min: one row per line")
        for row, line in zip(rows, lines):
            check_echo(row[1:], line, "aggregate-min")
        u = [float(row[4]) for row in rows]
        ref.check_aggregate_split(
            spec, ab_of(lines), total, u, summary["objective"], "aggregate-min",
            np.random.default_rng(rng_seed),
        )

    return check


def _check_table(n):
    def check(text):
        rows, _ = table(text)
        std = ab_of(STANDARD)
        if n == 1:
            require(len(rows) == 3, "table 1: three rows")
            for row, line, (a, b) in zip(rows, STANDARD, std):
                check_echo(row, line, "table 1")
                close(float(row[3]), a, "table 1: a")
                close(float(row[4]), b, "table 1: b")
        elif n == 2:
            require([float(r[0]) for r in rows] == [100.0, 40.0, 10.0, 1.0], "table 2 budgets")
            for row in rows:
                vals = [float(x) for x in row]
                ref.check_marginal_split(std, [1.0] * 3, vals[0], vals[1:], "table 2")
        elif n == 3:
            require(len(rows) == 2, "table 3: two rows")
            for row in rows:
                vals = [float(x) for x in row]
                ref.check_marginal_split(std, vals[:3], 100.0, vals[3:], "table 3")
        else:
            pair = [(0.9, 0.05), (0.9, 0.01)]
            require([float(r[0]) for r in rows] == [30.0, 60.0, 120.0], "table 4 budgets")
            for row in rows:
                vals = [float(x) for x in row]
                ref.check_marginal_split(pair, [1.0, 1.0], vals[0], vals[1:3], "table 4")
                u = vals[3:5]
                ref.check_aggregate_split(
                    ("identity",), pair, vals[0], u, ref.pooled_identity(pair, u),
                    "table 4", np.random.default_rng(4),
                )

    return check


def _figure_check(grid, budgets, margins, alpha):
    specs = [("identity",), ("ph", 0.5), ("tvar", alpha)]

    def check(text):
        lines = text.strip().splitlines()
        header = lines[0].split()
        require(len(lines) - 1 == len(grid), "figure: one row per grid point")
        for raw, r in zip(lines[1:], grid):
            vals = dict(zip(header, (float(x) for x in raw.split())))
            close(vals["R"], r, "figure R")
            a, b = 1.0 - r, r  # mu = c = 1
            for spec in specs:
                tag = "identity" if spec[0] == "identity" else f"{spec[0]}:{spec[1]:g}"
                close(vals[f"coherent_{tag}"], ref.deficit(spec, a, b, 0.0), f"figure coherent {tag}")
                for A in budgets:
                    close(vals[f"convex_{tag}_A{A:g}"], ref.convex_reserve(spec, a, b, A),
                          f"figure convex {tag} A={A}")
                for m in margins:
                    close(vals[f"prop_{tag}_d{m:g}"], ref.proportional_reserve(spec, a, b, m),
                          f"figure proportional {tag} d={m}")
            for A in budgets:
                close(vals[f"ear_A{A:g}"], ref.ear_reserve(a, 1.0, 1.0, A), f"figure ear A={A}")

    return check


def closed_cli(seed):
    """Closed-form requests through the CLI; the seed draws every value."""
    rng = random.Random(seed)
    reqs = []
    for target in ("coherent", "convex", "proportional", "ear"):
        for g in ("identity", "ph", "tvar"):
            for k in (1, 2, 3):
                lines = [_random_line(rng) for _ in range(k)]
                if g == "identity":
                    spec = ("identity",)
                elif g == "ph":
                    spec = ("ph", round(rng.uniform(0.3, 1.0), 3))
                else:
                    spec = ("tvar", round(rng.uniform(0.005, 0.3), 3))
                gtext = "identity" if g == "identity" else f"{spec[0]}:{spec[1]!r}"
                argv = ["measure", target] + line_args(lines)
                param = None
                if target == "ear":
                    param = round(rng.uniform(0.1, 10.0), 4)
                    argv += ["--A", repr(param)]
                    spec = None
                else:
                    argv += ["--g", gtext]
                if target == "convex":
                    # the budget stays below every D(0), where the curve
                    # and the closed-form branch agree
                    d0 = min(ref.deficit(spec, *ref.ruin_ab(*ln), 0.0) for ln in lines)
                    param = float(f"{d0 * rng.uniform(0.05, 0.9):.6g}")
                    argv += ["--A", repr(param)]
                elif target == "proportional":
                    param = round(rng.uniform(0.01, 0.2), 4)
                    argv += ["--delta", repr(param)]
                label = f"measure {target} {gtext if spec else ''} x{k}"
                reqs.append(cli_request(label, argv, _measure_check(target, spec, lines, param)))
    for k in (2, 3, 4, 5, 6):
        for with_gamma in (False, True):
            lines = [_random_line(rng) for _ in range(k)]
            gammas = [round(rng.uniform(1.0, 3.0), 3) if with_gamma else 1.0 for _ in lines]
            total = _budget(rng, lines, gammas)
            argv = ["allocate"] + line_args(lines) + ["--u", repr(total)]
            if with_gamma:
                argv += ["--gamma", ",".join(repr(x) for x in gammas)]
            reqs.append(cli_request(f"allocate x{k}", argv, _marginal_check(lines, gammas, total)))
    for i in range(4):
        lines = [_random_line(rng) for _ in range(2)]
        total = _budget(rng, lines, [1.0, 1.0])
        argv = ["allocate", "--method", "aggregate-min"] + line_args(lines) + ["--u", repr(total)]
        reqs.append(cli_request("aggregate-min x2", argv,
                                _aggregate_check(("identity",), lines, total, i)))
    for n in (1, 2, 3, 4):
        reqs.append(cli_request(f"table {n}", ["table", str(n)], _check_table(n)))
    for _ in range(2):
        lo = round(rng.uniform(0.02, 0.2), 3)
        hi = round(rng.uniform(0.4, 0.8), 3)
        grid = np.linspace(lo, hi, 3)
        alpha = round(rng.uniform(0.005, 0.1), 3)
        specs = [("identity",), ("ph", 0.5), ("tvar", alpha)]
        d0 = min(ref.deficit(s, 1.0 - r, r, 0.0) for s in specs for r in grid)
        budgets = [float(f"{d0 * f:.4g}") for f in (0.2, 0.7)]
        margins = [round(rng.uniform(0.01, 0.2), 3) for _ in range(2)]
        argv = [
            "figure", "--r-grid", f"{lo!r}:{hi!r}:3", "--alpha", repr(alpha),
            "--A", ",".join(repr(x) for x in budgets),
            "--delta", ",".join(repr(x) for x in margins),
        ]
        reqs.append(cli_request("figure", argv, _figure_check(grid, budgets, margins, alpha)))
    return reqs


# -- quad-curves ------------------------------------------------------------


def _library_measure(line, gtext, rule, param):
    g = md.parse_distortion(gtext)
    model_line = md.ExponentialLine(*line)

    def run():
        d = md.DeficitFunctional.quadrature(g, lambda v: md.ultimate_ruin(model_line, v))
        if rule == "coherent":
            return md.coherent_measure(d).value
        if rule == "convex":
            return md.convex_measure(d, param).value
        if rule == "proportional":
            return md.proportional_measure(d, param).value
        return md.critical_threshold(d)

    want = ref.requirement(rule, ref.parse_g(gtext), line, param)

    def check(value):
        close(value, want, f"quadrature {rule} {gtext} on {line}")

    return Request(f"quadrature {rule} {gtext}", run, check)


def _generic_split(gtext, total):
    lines = [md.ExponentialLine(*line) for line in STANDARD]
    g = md.parse_distortion(gtext)

    def run():
        marginals = [lambda u, ln=ln: g(md.ultimate_ruin(ln, u)) for ln in lines]
        return md.method1_generic(marginals, total)

    def check(res):
        # (a*exp(-b*u))**p is the level of a ph line; as a penalty, gamma = 1/p
        spec = ref.parse_g(gtext)
        gammas = [1.0 / spec[1]] * len(STANDARD)
        ab = ab_of(STANDARD)
        ref.check_marginal_split(ab, gammas, total, res.reserves, "method1_generic", res.threshold)
        close(res.objective, ref.marginal_objective(ab, gammas, res.reserves),
              "method1_generic objective")

    return Request(f"method1_generic {gtext}", run, check)


def _invariance(gtext, total):
    lines = [md.ExponentialLine(*line) for line in STANDARD]
    g = md.parse_distortion(gtext)

    def check(same):
        require(same is True, f"invariance_check {gtext} at {total} returned {same!r}")

    return Request(f"invariance_check {gtext}", lambda: md.invariance_check(lines, g, total), check)


def quad_curves(seed):
    """Single-curve quadrature requests on fixed instances; the seed only
    orders them."""
    reqs = []
    for line, alpha, budget, margin in (
        (STANDARD[0], 0.4, 2.0, 0.05),
        (STANDARD[1], 0.1, 5.0, 0.05),
    ):
        spec = ("varstep", alpha)
        for target, extra, param in (
            ("coherent", [], None),
            ("convex", ["--A", repr(budget)], budget),
            ("proportional", ["--delta", repr(margin)], margin),
        ):
            argv = (["measure", target] + line_args([line])
                    + ["--g", f"varstep:{alpha!r}"] + extra)
            reqs.append(cli_request(f"measure {target} varstep", argv,
                                    _measure_check(target, spec, [line], param)))
    for gtext, budget in (("identity", 2.0), ("ph:0.5", 2.0), ("tvar:0.01", 10.0)):
        for rule, param in (("coherent", None), ("convex", budget),
                            ("proportional", 0.05), ("critical", None)):
            reqs.append(_library_measure(STANDARD[0], gtext, rule, param))
    reqs.append(_generic_split("ph:0.5", 40.0))
    reqs.append(_generic_split("ph:0.8", 100.0))
    reqs.append(_invariance("ph:0.5", 40.0))
    reqs.append(_invariance("identity", 100.0))
    random.Random(seed).shuffle(reqs)
    return reqs


# -- aggregate-min ----------------------------------------------------------

# Fixed 3- and 4-line instances.  Every ph exponent is at least 0.7: below
# about 0.62 one solve runs for hours (see the benchmark README).
AGGREGATE_INSTANCES = (
    (STANDARD, "identity", 100.0),
    (STANDARD, "tvar:0.1", 100.0),
    (STANDARD, "ph:0.8", 100.0),
    (STANDARD + (FOURTH,), "identity", 100.0),
    (STANDARD + (FOURTH,), "ph:0.7", 40.0),
)


def aggregate_min(seed):
    reqs = []
    for i, (lines, gtext, total) in enumerate(AGGREGATE_INSTANCES):
        argv = (["allocate", "--method", "aggregate-min", "--g", gtext]
                + line_args(lines) + ["--u", repr(total)])
        check = _aggregate_check(ref.parse_g(gtext), lines, total, i)
        reqs.append(cli_request(f"aggregate-min x{len(lines)} {gtext}", argv, check))
    random.Random(seed).shuffle(reqs)
    return reqs


# -- monte-carlo ------------------------------------------------------------


def _simulate(line, t, n, sim_seed, levels):
    argv = (["simulate"] + line_args([line])
            + ["--t", repr(t), "--n", str(n), "--seed", str(sim_seed),
               "--u", ",".join(repr(u) for u in levels)])

    def check(text):
        rows, _ = table(text)
        a, b = ref.ruin_ab(*line)
        require([float(r[0]) for r in rows] == list(levels), "simulate: one row per level")
        for row in rows:
            u, est, half = (float(x) for x in row)
            p = ref.psi(a, b, u)
            ref.within_se(est, p, math.sqrt(p * (1.0 - p) / n), 4.0, f"ruin at u={u}")
            close(half, 1.96 * math.sqrt(est * (1.0 - est) / n), "simulate half width")

    return cli_request(f"simulate lam*t={line[0] * t:g}", argv, check)


def _empirical(target, line, gtext, t, n, sim_seed, param):
    flag = "--A" if target == "convex" else "--delta"
    argv = (["measure", target] + line_args([line])
            + ["--g", gtext, "--t", repr(t), "--n", str(n), "--seed", str(sim_seed),
               flag, repr(param)])
    spec = ref.parse_g(gtext)

    def check(text):
        rows, _ = table(text)
        check_echo(rows[0], line, "empirical measure")
        value = float(rows[0][3])
        samples = md.simulate_max_loss(md.ExponentialLine(*line), t, n, sim_seed).samples
        residual = ref.choquet_sum(spec, samples, shift=value)
        want = param if target == "convex" else param * value
        close(residual, want, f"empirical {target} {gtext}: D(value)")

    return cli_request(f"measure {target} --t {gtext}", argv, check)


def _premium(line, gtext, n, sim_seed):
    argv = (["measure", "premium-bound"] + line_args([line])
            + ["--g", gtext, "--n", str(n), "--seed", str(sim_seed)])
    spec = ref.parse_g(gtext)
    lam, mu, _ = line

    def check(text):
        rows, _ = table(text)
        value, se = float(rows[0][3]), float(rows[0][4])
        claims = md.simulate_aggregate_claims(md.ExponentialLine(*line), 1.0, n, sim_seed)
        close(value, ref.choquet_sum(spec, claims), f"premium bound {gtext}")
        require(se > 0.0, "premium bound: standard error must be positive")
        if spec[0] == "identity":
            # compound Poisson claims: mean lam*mu, variance 2*lam*mu**2
            ref.within_se(value, lam * mu, math.sqrt(2.0 * lam * mu * mu / n), 4.0,
                          "identity premium bound")
        else:
            require(value >= float(np.mean(claims)),
                    f"premium bound {gtext} below the identity bound")

    return cli_request(f"premium-bound {gtext}", argv, check)


def _supermartingale(gtext, sim_seed):
    line = md.ExponentialLine(*STANDARD[0])
    g = md.parse_distortion(gtext)

    def run():
        return md.supermartingale_check(line, g, 20.0, 5.0, n_outer=20, n_inner=200,
                                        seed=sim_seed)

    def check(out):
        rho0, mean_r, se = out
        require(se > 0.0, "supermartingale: standard error must be positive")
        if gtext == "identity":
            require(abs(rho0 - mean_r) <= 3.0 * se, f"identity martingale gap {rho0 - mean_r}")
        else:
            require(mean_r <= rho0 + 3.0 * se, f"mean rho_r {mean_r} above rho_0 {rho0} + 3 SE")

    return Request(f"supermartingale {gtext}", run, check)


def _round_trip(out_dir, sim_seed):
    line = md.ExponentialLine(*STANDARD[0])
    g = md.proportional_hazard(0.5)
    path = os.path.join(out_dir, "round-trip.batch")

    def run():
        batch = md.simulate_max_loss(line, 50.0, 2000, sim_seed)
        md.save_batch(batch, path)
        loaded = md.load_batch(path)
        return batch, loaded, md.choquet_empirical(g, loaded.samples)

    def check(out):
        batch, loaded, price = out
        require(loaded.samples.dtype == batch.samples.dtype
                and loaded.samples.tobytes() == batch.samples.tobytes(),
                "load_batch did not restore the samples bit for bit")
        require((loaded.line, loaded.t, loaded.n, loaded.seed)
                == (batch.line, batch.t, batch.n, batch.seed), "load_batch header")
        again = md.simulate_max_loss(line, 50.0, 2000, sim_seed)
        require(again.samples.tobytes() == batch.samples.tobytes(),
                "a rerun with the same seed gave other samples")
        close(price, ref.choquet_sum(("ph", 0.5), loaded.samples), "empirical price")

    return Request("simulate, save, load, price", run, check)


def monte_carlo(seed, out_dir):
    """Simulation requests with fixed path counts and horizons; the seed
    only draws the simulation seeds."""
    rng = random.Random(seed)
    s = [rng.randrange(1, 2**31) for _ in range(9)]
    line1, line2 = STANDARD[0], STANDARD[1]
    return [
        _simulate(line1, 200.0, 1000, s[0], (0.0, 10.0, 20.0)),
        _simulate(line2, 2000.0, 1000, s[1], (0.0, 30.0, 60.0)),
        _empirical("convex", line1, "ph:0.5", 50.0, 2000, s[2], 2.0),
        _empirical("proportional", line1, "tvar:0.05", 50.0, 2000, s[3], 0.05),
        _empirical("convex", line2, "identity", 200.0, 1000, s[4], 5.0),
        _premium(line1, "identity", 5000, s[5]),
        _premium(line1, "ph:0.5", 5000, s[5]),
        _supermartingale("ph:0.5", s[6]),
        _supermartingale("identity", s[7]),
        _round_trip(out_dir, s[8]),
    ]


def build(name, seed, out_dir):
    if name == "closed-cli":
        return closed_cli(seed)
    if name == "quad-curves":
        return quad_curves(seed)
    if name == "aggregate-min":
        return aggregate_min(seed)
    return monte_carlo(seed, out_dir)


WORKLOADS = ("closed-cli", "quad-curves", "aggregate-min", "monte-carlo")
