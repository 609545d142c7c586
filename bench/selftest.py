"""Show that every workload's checker rejects a deliberately wrong answer.

    python3 bench/selftest.py

Run from the checkout root.  Each case runs one real request, confirms
that its true answer passes, then corrupts the answer and confirms that
the check raises.  Exits 1 if any corrupted answer is accepted.
"""

import os
import sys

import run

run.import_package()

import numpy as np

import maxdeficit as md
import workloads
from oracle import CheckError

failures = []


def pick(reqs, label):
    return next(r for r in reqs if r.label.startswith(label))


def expect(name, req, out, corrupt):
    req.check(out)  # the true answer must pass
    try:
        req.check(corrupt(out))
    except CheckError as exc:
        print(f"rejected  {name}: {str(exc)[:110]}")
    else:
        print(f"ACCEPTED  {name}")
        failures.append(name)


def edit(text, row, col, fn):
    """Apply fn to one numeric cell of a CLI table (row 0 is the first
    line below the header)."""
    lines = text.strip().splitlines()
    toks = lines[row + 1].split()
    toks[col] = repr(float(fn(float(toks[col]))))
    lines[row + 1] = "  ".join(toks)
    return "\n".join(lines) + "\n"


def swap(text, col):
    """Swap the smallest and the largest value of one column."""
    lines = text.strip().splitlines()
    rows = [i for i, raw in enumerate(lines) if i and "=" not in raw]
    vals = [float(lines[i].split()[col]) for i in rows]
    r1, r2 = rows[vals.index(min(vals))], rows[vals.index(max(vals))]
    a, b = lines[r1].split(), lines[r2].split()
    a[col], b[col] = b[col], a[col]
    lines[r1], lines[r2] = "  ".join(a), "  ".join(b)
    return "\n".join(lines) + "\n"


def main():
    reqs = workloads.closed_cli(7)
    req = pick(reqs, "measure convex ph")
    expect("closed-cli: convex reserve moved by 1e-4", req, req.run(),
           lambda t: edit(t, 0, 3, moved))
    req = pick(reqs, "measure proportional tvar")
    expect("closed-cli: proportional reserve moved by 1e-4", req, req.run(),
           lambda t: edit(t, 0, 3, moved))
    req = pick(reqs, "allocate x3")
    expect("closed-cli: two allocation entries swapped", req, req.run(),
           lambda t: swap(t, 4))
    req = pick(reqs, "aggregate-min x2")
    expect("closed-cli: two-line aggregate split moved by 1e-2", req, req.run(),
           lambda t: edit(edit(t, 0, 4, lambda v: v + 1e-2), 1, 4, lambda v: v - 1e-2))
    req = pick(reqs, "table 3")
    expect("closed-cli: table 3 entries swapped", req, req.run(),
           lambda t: swap(t, 4))
    req = pick(reqs, "figure")
    expect("closed-cli: figure cell moved by 1e-4", req, req.run(),
           lambda t: edit(t, 1, 5, moved))

    reqs = workloads.quad_curves(7)
    req = pick(reqs, "quadrature convex tvar")
    expect("quad-curves: quadrature reserve moved by 1e-4", req, req.run(), moved)
    req = pick(reqs, "measure proportional varstep")
    expect("quad-curves: varstep reserve moved by 1e-4", req, req.run(),
           lambda t: edit(t, 0, 3, moved))

    def swapped(res):
        return md.AllocationResult(res.reserves[[1, 0, 2]], res.active, res.threshold,
                                   res.objective, res.kkt_residual)

    req = pick(reqs, "method1_generic ph:0.5")
    expect("quad-curves: method1_generic entries swapped", req, req.run(), swapped)
    req = pick(reqs, "invariance_check ph")
    expect("quad-curves: invariance reported as broken", req, req.run(), lambda same: False)

    reqs = workloads.aggregate_min(7)
    req = pick(reqs, "aggregate-min x3 tvar")
    out = req.run()
    expect("aggregate-min: two allocation entries swapped", req, out,
           lambda t: swap(t, 4))
    expect("aggregate-min: objective moved by 1e-4 relative", req, out,
           lambda t: _scale_objective(t, 1.0001))

    reqs = workloads.monte_carlo(7, run.OUT)
    req = pick(reqs, "simulate lam*t=2000")
    out = req.run()
    expect("monte-carlo: ruin estimate 5 SE off", req, out, lambda t: _five_se_off(t, 1000))
    req = pick(reqs, "premium-bound identity")
    expect("monte-carlo: identity premium bound 5 SE off", req, req.run(),
           lambda t: edit(t, 0, 3, lambda v: v + 5.0 * (2.0 * 10.0 / 5000) ** 0.5))
    req = pick(reqs, "measure convex --t ph")
    expect("monte-carlo: empirical reserve moved by 1e-4", req, req.run(),
           lambda t: edit(t, 0, 3, moved))
    req = pick(reqs, "supermartingale ph")
    expect("monte-carlo: time-r mean 4 SE above rho_0", req, req.run(),
           lambda o: (o[0], o[0] + 4.0 * o[2], o[2]))
    req = pick(reqs, "simulate, save, load")
    batch, loaded, price = req.run()
    path = os.path.join(run.OUT, "truncated.batch")
    md.save_batch(batch, path)
    with open(path) as fh:
        rows = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(rows[:-1])
    try:
        md.load_batch(path)
    except md.DomainError as exc:
        print(f"rejected  monte-carlo: load_batch on a truncated file: {exc}"[:120])
    else:
        failures.append("load_batch on a truncated file")
    os.remove(path)
    cut = md.SimBatch(loaded.line, loaded.t, loaded.n - 1, loaded.seed, loaded.samples[:-1])
    expect("monte-carlo: truncated batch after a round trip", req, (batch, loaded, price),
           lambda o: (o[0], cut, o[2]))
    expect("monte-carlo: one sample changed in the last bit", req, (batch, loaded, price),
           lambda o: (o[0], _nudged(o[1]), o[2]))

    if failures:
        sys.exit(f"{len(failures)} wrong answers were accepted: {failures}")
    print("every corrupted answer was rejected")


def moved(v):
    """A reserve moved by 1e-4, scaled like the checks' tolerance."""
    return v + 1e-4 * max(1.0, abs(v))


def _five_se_off(text, n):
    """Move the u-row-1 ruin estimate by 5 binomial SE at the true value
    and restate its half width, so only the SE test can catch it."""
    a, b = 10.0 / 12.0, 1.0 / 6.0
    u = float(text.strip().splitlines()[2].split()[0])
    p = a * np.exp(-b * u)
    est = p + 5.0 * (p * (1.0 - p) / n) ** 0.5
    text = edit(text, 1, 1, lambda _: est)
    return edit(text, 1, 2, lambda _: 1.96 * (est * (1.0 - est) / n) ** 0.5)


def _scale_objective(text, factor):
    head, _, value = text.rpartition("objective=")
    return f"{head}objective={float(value) * factor!r}\n"


def _nudged(batch):
    samples = batch.samples.copy()
    samples[0] = np.nextafter(samples[0], np.inf)
    return md.SimBatch(batch.line, batch.t, batch.n, batch.seed, samples)


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    main()
