"""Command-line interface.

Exit codes: 0 on success, 2 for usage problems (unreadable or
unwritable files included), 3 for domain errors, 4 for convergence
failures.  A flat key=value config file, keyed by the long flag names,
is parsed and checked exactly like flags; a flag on the command line
replaces its key from the file.  The MAXDEFICIT_SEED environment
variable serves as the seed of last resort.
"""

import argparse
import math
import os
import sys

import numpy as np

from .allocate import (
    aggregate_min,
    method1_exponential,
    method2_generic,
    method2_two_line,
)
from .deficit import DeficitFunctional
from .distortion import identity, parse_distortion, proportional_hazard, tvar, var_step
from .errors import ConvergenceError, DomainError
from .measures import (
    coherent_measure,
    convex_measure,
    ear_convex_measure,
    premium_lower_bound,
    proportional_measure,
)
from .model import ExponentialLine, line_from_ruin_constants, ruin_constants, ultimate_ruin
from .simulate import estimate_finite_ruin, save_batch, simulate_max_loss

STANDARD_LINES = (
    ExponentialLine(10.0, 1.0, 12.0),
    ExponentialLine(1.0, 10.0, 15.0),
    ExponentialLine(0.1, 100.0, 20.0),
)


def _parse_line(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--line expects lam,mu,c, got {text!r}")
    lam, mu, c = (float(p) for p in parts)
    return ExponentialLine(lam=lam, mu=mu, c=c)


def _parse_floats(text):
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _parse_digits(text):
    try:
        digits = int(text)
    except ValueError:
        digits = -1
    if digits < 0:
        raise argparse.ArgumentTypeError(f"expects an integer >= 0, got {text!r}")
    return digits


def _flag_named(token):
    """The flag a --name[=value] token names, found as argparse finds it:
    the exact name, else the one flag that the name abbreviates."""
    name = token.split("=", 1)[0]
    if name in _OPTIONS:
        return name
    found = [flag for flag in _OPTIONS if flag.startswith(name)]
    return found[0] if len(found) == 1 else None


def _config_tokens(path, argv):
    """The entries of a flat key=value file as --key=value tokens.

    An entry whose flag also appears in argv, in full or abbreviated, is
    dropped, so a flag replaces its key from the file, repeated line and
    g keys included.
    """
    given = {_flag_named(tok) for tok in argv if tok.startswith("--")}
    tokens = []
    with open(path) as fh:
        for raw in fh:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"config line is not key=value: {raw.rstrip()!r}")
            key, value = text.split("=", 1)
            flag = "--" + key.strip()
            if flag not in given:
                tokens.append(f"{flag}={value.strip()}")
    return tokens


def _parse(parser, argv):
    args = parser.parse_args(argv)
    if args.config:
        # file entries go right after the subcommand, whose parser reads them
        at = argv.index(args.command) + 1
        args = parser.parse_args(
            argv[:at] + _config_tokens(args.config, argv) + argv[at:]
        )
    if args.seed is None:
        env = os.environ.get("MAXDEFICIT_SEED")
        if env is not None:
            args.seed = int(env)
    return args


def _format_cell(value, precision):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    if value is None:
        return ""
    return str(value)


def _emit(columns, rows, cfg):
    cells = [[_format_cell(v, cfg.precision) for v in row] for row in rows]
    if cfg.fmt == "csv":
        out = [",".join(columns)]
        out.extend(",".join(row) for row in cells)
    else:
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(columns)
        ]
        out = ["  ".join(name.ljust(w) for name, w in zip(columns, widths)).rstrip()]
        out.extend(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
        )
    text = "\n".join(out) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _single(values, flag):
    if values is None or len(values) != 1:
        raise ValueError(f"exactly one {flag} value is required")
    return values[0]


def _distortion_or_identity(cfg):
    if not cfg.distortions:
        return identity()
    if len(cfg.distortions) > 1:
        raise ValueError("exactly one --g is expected here")
    return cfg.distortions[0]


def _paths(cfg):
    """--n and --seed of a simulated route, 10000 paths and seed 0 unless given."""
    n = cfg.n if cfg.n is not None else 10000
    return n, cfg.seed if cfg.seed is not None else 0


def cmd_measure(cfg):
    if not cfg.lines:
        raise ValueError("at least one --line is required")
    which = cfg.target
    g = _distortion_or_identity(cfg)
    rows = []
    if which == "premium-bound":
        n, seed = _paths(cfg)
        for line in cfg.lines:
            bound = premium_lower_bound(line, g, n, seed)
            if not bound.concave:
                sys.stderr.write(
                    "warning: distortion is not concave; the premium reading "
                    "of this bound is not supported\n"
                )
            rows.append(
                [line.lam, line.mu, line.c, bound.value, bound.std_error, bound.concave]
            )
        _emit(
            ["lam", "mu", "c", "value", "std_error", "concave"], rows, cfg
        )
        return 0
    if which == "ear":
        budget = _single(cfg.budgets, "--A")
        for line in cfg.lines:
            res = ear_convex_measure(line, budget)
            rows.append([line.lam, line.mu, line.c, res.value, res.method, res.residual])
        _emit(["lam", "mu", "c", "value", "method", "residual"], rows, cfg)
        return 0
    for line in cfg.lines:
        d = DeficitFunctional.for_line(line, g, cfg.t, *_paths(cfg))
        if which == "coherent":
            res = coherent_measure(d)
        elif which == "convex":
            res = convex_measure(d, _single(cfg.budgets, "--A"))
        else:
            res = proportional_measure(d, _single(cfg.margins, "--delta"))
        rows.append(
            [line.lam, line.mu, line.c, res.value, res.method, res.residual, res.branch]
        )
    _emit(["lam", "mu", "c", "value", "method", "residual", "branch"], rows, cfg)
    return 0


def cmd_allocate(cfg):
    if not cfg.lines:
        raise ValueError("at least one --line is required")
    total_u = _single(cfg.u_levels, "--u")
    # each method reads one of --g and --gamma; the other is refused, not dropped
    if cfg.method == "marginal-sum":
        if cfg.distortions:
            raise ValueError("--g is not read by --method marginal-sum")
        result = method1_exponential(cfg.lines, total_u, cfg.gammas)
    else:
        if cfg.gammas is not None:
            raise ValueError("--gamma is not read by --method aggregate-min")
        result = aggregate_min(cfg.lines, _distortion_or_identity(cfg), total_u)
    rows = [
        [i, line.lam, line.mu, line.c, float(result.reserves[i]), i in result.active]
        for i, line in enumerate(cfg.lines)
    ]
    _emit(["index", "lam", "mu", "c", "reserve", "active"], rows, cfg)
    summary = (
        f"threshold={_format_cell(result.threshold, cfg.precision)} "
        f"objective={_format_cell(result.objective, cfg.precision)}\n"
    )
    if not cfg.out:
        sys.stdout.write(summary)
    return 0


def _table_one(cfg):
    rows = []
    for line in STANDARD_LINES:
        k = ruin_constants(line)
        rows.append([line.lam, line.mu, line.c, k.a, k.b])
    _emit(["lam", "mu", "c", "a", "b"], rows, cfg)


def _table_two(cfg):
    budgets = [100.0, 40.0, 10.0, 1.0]
    columns = ["total_u", "u1", "u2", "u3"]
    rows = []
    for total in budgets:
        res = method1_exponential(STANDARD_LINES, total)
        rows.append([total] + [float(v) for v in res.reserves])
    _emit(columns, rows, cfg)


def _table_three(cfg):
    rows = []
    for gammas in [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)]:
        res = method1_exponential(STANDARD_LINES, 100.0, gammas)
        rows.append(list(gammas) + [float(v) for v in res.reserves])
    _emit(["gamma1", "gamma2", "gamma3", "u1", "u2", "u3"], rows, cfg)


def _table_four(cfg):
    line1 = line_from_ruin_constants(0.9, 0.05)
    line2 = line_from_ruin_constants(0.9, 0.01)
    rows = []
    for total in [30.0, 60.0, 120.0]:
        marginal = method1_exponential((line1, line2), total)
        joint = method2_two_line(line1, line2, total)
        rows.append(
            [total]
            + [float(v) for v in marginal.reserves]
            + [float(v) for v in joint.reserves]
        )
    _emit(
        ["total_u", "marginal_u1", "marginal_u2", "aggregate_u1", "aggregate_u2"],
        rows,
        cfg,
    )


_TABLES = {"1": _table_one, "2": _table_two, "3": _table_three, "4": _table_four}


def cmd_table(cfg):
    _TABLES[cfg.target](cfg)
    return 0


def _parse_r_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--r-grid expects start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("--r-grid count must be >= 1")
    return np.linspace(start, stop, count)


def cmd_figure(cfg):
    if cfg.r_grid is None:
        raise ValueError("--r-grid is required")
    grid = _parse_r_grid(cfg.r_grid)
    budgets = cfg.budgets or [20.0, 5.0]
    margins = cfg.margins or [0.05, 0.01]
    alpha = cfg.alpha if cfg.alpha is not None else 0.01
    gs = cfg.distortions or [identity(), proportional_hazard(0.5), tvar(alpha)]
    columns = ["R"]
    for g in gs:
        columns.append(f"coherent_{g.label()}")
        for budget in budgets:
            columns.append(f"convex_{g.label()}_A{budget:g}")
        for margin in margins:
            columns.append(f"prop_{g.label()}_d{margin:g}")
    for budget in budgets:
        columns.append(f"ear_A{budget:g}")
    rows = []
    for r in grid:
        if not 0.0 < r < 1.0 / cfg.mu:
            raise DomainError(
                f"decay rate {r} outside (0, {1.0 / cfg.mu}) for mu={cfg.mu}"
            )
        line = line_from_ruin_constants(1.0 - cfg.mu * r, r, cfg.c)
        row = [float(r)]
        for g in gs:
            d = DeficitFunctional.for_line(line, g, cfg.t, *_paths(cfg))
            row.append(coherent_measure(d).value)
            for budget in budgets:
                row.append(convex_measure(d, budget).value)
            for margin in margins:
                row.append(proportional_measure(d, margin).value)
        for budget in budgets:
            row.append(ear_convex_measure(line, budget).value)
        rows.append(row)
    _emit(columns, rows, cfg)
    return 0


def cmd_simulate(cfg):
    if not cfg.lines:
        raise ValueError("at least one --line is required")
    if len(cfg.lines) != 1:
        raise ValueError("simulate works on exactly one --line")
    if cfg.t is None or cfg.n is None:
        raise ValueError("--t and --n are required")
    if cfg.seed is None:
        raise ValueError("a seed is required (--seed, config, or MAXDEFICIT_SEED)")
    line = cfg.lines[0]
    batch = simulate_max_loss(line, cfg.t, cfg.n, cfg.seed)
    if cfg.out:
        save_batch(batch, cfg.out)
        cfg.out = None  # --out holds the batch; the ruin summary goes to stdout
    rows = []
    for u in cfg.u_levels or [0.0]:
        est, half = estimate_finite_ruin(batch, u)
        rows.append([u, est, half])
    _emit(["u", "ruin_estimate", "half_width"], rows, cfg)
    return 0


def _run_checks(seed):
    """Print PASS or FAIL for each invariant and return the failure count.
    Each check holds a result against an independent route to it and
    yields (error, bound) pairs; it passes where every error is within
    its bound, and the first that is not ends it."""
    from .numerics import brent_root, lambert_w0, tail_integral
    from .simulate import (
        PathState,
        max_loss_from_events,
        path_events,
        rolling_requirement,
    )

    rng = np.random.default_rng(seed)

    def quad(line, g):
        return DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(line, v))

    def check_lambert():
        for y in (-math.exp(-1) + 1e-9, -0.2, 0.5, 1.0, math.e, 10.0, 1e6):
            w = lambert_w0(y)
            yield abs(w * math.exp(w) - y), 1e-12 * max(1.0, abs(y))

    def check_brent():
        # with c1, c3 > 0 the planted root r is the cubic's only real root
        for _ in range(10):
            root = rng.uniform(-2.0, 2.0)
            c1, c3 = rng.uniform(0.5, 3.0, size=2)
            f = lambda x, r=root, c1=c1, c3=c3: c1 * (x - r) + c3 * (x - r) ** 3
            yield abs(brent_root(f, root - 3.0, root + 4.0) - root), 1e-8

    def check_tail():
        for _ in range(10):
            a = rng.uniform(0.1, 1.0)
            b = rng.uniform(1e-3, 1.0)
            u = rng.uniform(0.0, 50.0)
            exact = a / b * math.exp(-b * u)
            # the doubling panels, and the exp-sinh stage that curves take
            for scale in (None, 1.0 / b):
                got = tail_integral(lambda v: a * np.exp(-b * v), u, scale=scale)
                yield abs(got - exact), 1e-6 * max(1.0, exact)

    def check_deficit_routes():
        for line in STANDARD_LINES:
            for g in (identity(), proportional_hazard(0.5), tvar(0.01), var_step(0.01)):
                closed, numeric = DeficitFunctional.for_line(line, g), quad(line, g)
                # 1000 is past every line's edge, up to 782 on the third
                for u in (0.0, 2.0, 17.0, 1000.0):
                    yield abs(closed(u) - numeric(u)), 1e-6 * max(1.0, closed(u))

    def check_measures():
        # budget 2 and margin 0.05 put every tvar:0.01 root past the edge
        for g in (proportional_hazard(0.7), tvar(0.01)):
            for line in STANDARD_LINES:
                closed, numeric = DeficitFunctional.for_line(line, g), quad(line, g)
                for rule, param in ((convex_measure, 2.0), (proportional_measure, 0.05)):
                    lw, br = rule(closed, param), rule(numeric, param)
                    yield abs(lw.value - br.value), 1e-8
                    yield lw.residual, 1e-8

    def check_allocation():
        res = method1_exponential(STANDARD_LINES, 40.0)
        yield abs(float(res.reserves.sum()) - 40.0), 1e-8
        yield res.kkt_residual, 1e-8
        pair = [line_from_ruin_constants(0.9, b) for b in (0.05, 0.01)]
        closed = method2_two_line(*pair, 60.0)
        numeric = method2_generic(pair, identity(), 60.0)
        yield float(np.max(np.abs(closed.reserves - numeric.reserves))), 1e-3

    def check_simulation():
        # every sample of a batch is its path regenerated alone
        line = STANDARD_LINES[0]
        batch = simulate_max_loss(line, 5.0, 300, seed)
        for i, sample in enumerate(batch.samples):
            times, sizes = path_events(line, 5.0, seed, i)
            yield abs(sample - max_loss_from_events(times, sizes, line.c, 5.0)), 0.0
        state = PathState(time=5.0, realized_loss=-3.25, running_max=1.5)
        yield abs(rolling_requirement(state, 7.0) - (-3.25 + 7.0)), 0.0

    checks = [
        ("lambert-w round trip", check_lambert),
        ("brent vs bisection", check_brent),
        ("tail integral vs closed form", check_tail),
        ("deficit closed forms vs quadrature", check_deficit_routes),
        ("proportional lambert vs bracketed", check_measures),
        ("allocation identities", check_allocation),
        ("simulation reproducibility", check_simulation),
    ]
    failures = 0
    for name, fn in checks:
        ok = all(err <= bound for err, bound in fn())
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")
        failures += 0 if ok else 1
    return failures


def cmd_check(cfg):
    seed = cfg.seed if cfg.seed is not None else 0
    failures = _run_checks(seed)
    return 0 if failures == 0 else 1


# the flags every command takes, by long name; a config file's keys are
# these names without the dashes.  The appended flags default to None, not
# to a list, so no call can see a list that another call appended to
_OPTIONS = {
    "--config": dict(help="flat key=value file; keys are long flag names, "
                     "and a flag replaces its key"),
    "--line": dict(dest="lines", action="append", type=_parse_line, default=None,
                   metavar="LAM,MU,C"),
    "--g": dict(dest="distortions", action="append", type=parse_distortion,
                default=None, metavar="SPEC",
                help="identity | ph:<p> | tvar:<alpha> | varstep:<alpha>"),
    "--A": dict(dest="budgets", type=_parse_floats, default=None),
    "--delta": dict(dest="margins", type=_parse_floats, default=None),
    "--alpha": dict(type=float, default=None),
    "--gamma": dict(dest="gammas", type=_parse_floats, default=None),
    "--method": dict(choices=["marginal-sum", "aggregate-min"],
                     default="marginal-sum"),
    "--u": dict(dest="u_levels", type=_parse_floats, default=None),
    "--t": dict(type=float, default=None),
    "--n": dict(type=int, default=None),
    "--seed": dict(type=int, default=None),
    "--r-grid": dict(dest="r_grid", default=None, metavar="START:STOP:COUNT"),
    "--mu": dict(type=float, default=1.0),
    "--c": dict(type=float, default=1.0),
    "--out": dict(default=None),
    "--format": dict(dest="fmt", choices=["table", "csv"], default="table"),
    "--precision": dict(type=_parse_digits, default=6),
}

# name: (help, handler, choices of the target positional or None)
_COMMANDS = {
    "measure": ("evaluate one requirement", cmd_measure,
                ["coherent", "convex", "proportional", "ear", "premium-bound"]),
    "allocate": ("split a reserve budget", cmd_allocate, None),
    "table": ("regenerate a standard table", cmd_table, _TABLES),
    "figure": ("requirement curves over a decay-rate grid (CSV)", cmd_figure, None),
    "simulate": ("sample running maxima", cmd_simulate, None),
    "check": ("run the invariant suite", cmd_check, None),
}


def build_parser(command=None):
    """The argument parser, with only `command`'s subparser when it names
    one and with all of them otherwise (help, a missing or unknown command).

    Building a subparser is most of a closed-form request's time, so a
    call builds only the one it runs.  The parser is built per call, not
    kept: a cached parser runs more requests per second, and the benchmark
    keeps one float per request, so its peak RSS grows past the 5 % bound
    until that store changes (ROADMAP item 1).  The pinned usage and the
    subparsers' prog keep every usage line as the full parser prints it.
    """
    parser = argparse.ArgumentParser(
        prog="maxdeficit",
        usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description="Risk measures and reserve allocation for compound "
        "Poisson maximum-deficit models",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="maxdeficit")
    for name, (text, func, targets) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=text)
        for flag, spec in _OPTIONS.items():
            p.add_argument(flag, **spec)
        if targets is not None:
            p.add_argument("target", choices=targets)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 4
    except (ValueError, OSError) as exc:
        # OSError: a config, output or batch file that cannot be opened
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
