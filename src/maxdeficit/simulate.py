"""Reproducible simulation of the compound Poisson net-loss process.

A batch draws every variate from one PCG64DXSM stream seeded with its
seed, as inverse-CDF transforms of its uniform doubles, one stream step
each.  With block = _block_size(line, t), path i owns the window of
draws [2*block*i, 2*block*(i+1)): its arrival gaps, then, when the gaps
pass t, its k claim sizes.  A path whose first block of gaps stays
within t draws its further gaps, then its sizes, from its own spill
window at draw 2**127 + i*2**40.  As block <= 2**22 and i < 2**64, main
windows end below 2**87, and a path would need 2**40 draws (8 TB of
doubles) to leave its spill window, so no path reads another's draws.  Batches are
bit-identical for a given (line, t, n, seed), and path_events
regenerates any path alone by advancing a fresh stream to its window.

Between claim arrivals the net loss drifts downward at the premium
rate, so the running maximum over a horizon is attained at a claim
epoch (or is zero); paths are reduced to their arrival epochs and
claim sizes with no time discretisation.

A batch draws consecutive paths as the rows of small chunks, one draw
per chunk, and reduces them row-wise in numpy; a row that would read a
spill window is redone by path_events.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distortion import choquet_empirical
from .errors import DomainError, not_nan, positive_finite, real, whole


def derive_seed(seed, *tags):
    """Deterministic 64-bit child seed for an auxiliary stream.

    Mixes the base seed with integer tags through SeedSequence so
    nested experiments (outer paths, per-path inner batches, bootstrap)
    never reuse a batch's stream.  The seed and every tag must be
    nonnegative integers.
    """
    text = "seed and tags must be nonnegative integers"
    keys = [whole(x, lambda x: x >= 0, text) for x in (seed, *tags)]
    return int(np.random.SeedSequence(keys).generate_state(1, dtype=np.uint64)[0])


# Uniforms per chunk of batch rows: 128 KB per array, so a batch adds
# almost nothing to peak memory however many paths it draws.
_CHUNK_ELEMENTS = 1 << 14


# Arrival gaps per block at most, so that a row of a block's gaps and
# claim sizes takes 64 MB; 2,000 times the largest lam * t of the tests
# and the benchmark.
_MAX_BLOCK = 1 << 22


def _block_size(line, t):
    """Arrival gaps drawn per block over [0, t]: the mean count plus six
    standard deviations, so one block almost always passes t.  A block
    past _MAX_BLOCK, or not finite, raises DomainError."""
    mean_count = line.lam * t
    block = mean_count + 6.0 * math.sqrt(mean_count) + 16.0
    if not block <= _MAX_BLOCK:
        raise DomainError(
            f"horizon {t!r} at claim rate {line.lam!r} asks for {block:.3g} "
            f"arrival gaps per path, more than {_MAX_BLOCK}"
        )
    return int(block)


# Paths per batch at most, so that a batch's samples take 32 MB and its
# path states about 640 MB; 42 times the largest batch of the tests and
# the benchmark (100,000 paths).
_MAX_PATHS = 1 << 22


def _check_path_count(n, text="path count"):
    if n > _MAX_PATHS:
        raise DomainError(f"{text} {n} is more than {_MAX_PATHS}")


def _window(seed, start):
    """A generator on the seed's stream, advanced to draw start."""
    bitgen = np.random.PCG64DXSM(seed)
    bitgen.advance(start)
    return np.random.Generator(bitgen)


def path_events(line, t, seed, index):
    """Arrival epochs and claim sizes of path index over [0, t].

    Arrivals come from exponential gaps drawn a block at a time from the
    path's window until the horizon is passed, and claim sizes follow
    from the same window (module docstring).  Returns (times, sizes) as
    ndarrays.
    """
    block, seed, index = _check_path_args(line, t, seed, index)
    if line.lam == 0.0:
        return np.empty(0), np.empty(0)
    rng = _window(seed, 2 * block * index)
    times = np.cumsum(-np.log1p(-rng.random(block)) / line.lam)
    if times[-1] <= t:
        rng = _window(seed, 2**127 + index * 2**40)  # its spill window
        parts = [times]
        while parts[-1][-1] <= t:
            gaps = -np.log1p(-rng.random(block)) / line.lam
            parts.append(parts[-1][-1] + np.cumsum(gaps))
        times = np.concatenate(parts)
    k = int(np.searchsorted(times, t, side="right"))
    sizes = -line.mu * np.log1p(-rng.random(k))
    return times[:k], sizes


def max_loss_from_events(times, sizes, c, t):
    """Running maximum of the net loss given one path's claim events.

    The loss only increases at claim epochs, so the supremum over the
    whole of [0, t] is the largest jump-epoch value, floored at the
    time-zero value 0.
    """
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if times.size == 0:
        return 0.0
    jump_values = np.cumsum(sizes) - c * times
    return max(0.0, float(jump_values.max()))


@dataclass(eq=False)
class SimBatch:
    """Samples of the running maximum M_t with their provenance."""

    line: object
    t: float
    n: int
    seed: int
    samples: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PathState:
    """Snapshot of one path: net loss and running maximum at a time, all
    finite."""

    time: float
    realized_loss: float
    running_max: float

    def __post_init__(self):
        for x in (self.time, self.realized_loss, self.running_max):
            real(x, math.isfinite, "path state must be finite")
        floor = max(0.0, self.realized_loss)
        if self.running_max < floor - 1e-9:
            raise DomainError("running maximum below the realized loss")


_KEY_MAX = int(np.iinfo(np.uint64).max)


def _in_key_range(x):
    return 0 <= x <= _KEY_MAX


def _check_path_args(line, t, seed, index):
    """(block, seed, index): the block size over [0, t] (_block_size)
    and the seed and index as Python ints, or DomainError unless t is
    positive and finite and seed and index are 64-bit integers."""
    t = real(t, positive_finite, "horizon must be positive and finite")
    seed = whole(seed, _in_key_range, "seed must be a nonnegative 64-bit integer")
    text = "path index must be a nonnegative 64-bit integer"
    return _block_size(line, t), seed, whole(index, _in_key_range, text)


def _check_run_args(line, t, n, seed):
    """The path count n as a Python int, or DomainError (see
    _check_path_args) unless it is in [1, _MAX_PATHS]."""
    _check_path_args(line, t, seed, 0)
    n = whole(n, lambda x: x > 0, "path count must be a positive integer")
    _check_path_count(n)
    return n


def _fill_paths(line, t, seed, maxima=None, totals=None):
    """Write path i's running maximum over [0, t] to maxima[i] and its
    claim total to totals[i], for every index of the given arrays.

    Row i holds path i's window of 2*block uniforms: the first block
    are the arrival gaps and, when they pass t, the next k are the k
    claim sizes.  Consecutive rows are consecutive windows of the seed's
    stream, so a chunk of rows is one draw.  Claim totals are summed
    over exactly those k sizes so numpy's pairwise order, and so every
    bit, matches path_events.
    """
    n = (maxima if maxima is not None else totals).size
    if line.lam == 0.0:
        for arr in (maxima, totals):
            if arr is not None:
                arr.fill(0.0)
        return
    block = _block_size(line, t)
    rows = max(1, _CHUNK_ELEMENTS // (2 * block))
    rng = _window(seed, 0)
    draws = np.empty((rows, 2 * block))
    jumps = np.empty((rows, block))
    for first in range(0, n, rows):
        m = min(rows, n - first)
        u = rng.random(out=draws[:m])
        np.negative(u, out=u)
        np.log1p(u, out=u)
        times, sizes = u[:, :block], u[:, block:]
        np.negative(times, out=times)
        np.divide(times, line.lam, out=times)
        np.cumsum(times, axis=1, out=times)
        np.multiply(sizes, -line.mu, out=sizes)
        within = times <= t
        if totals is not None:
            counts = within.sum(axis=1)
            for j in range(m):
                totals[first + j] = sizes[j, : counts[j]].sum()
        if maxima is not None:
            np.cumsum(sizes, axis=1, out=sizes)
            v = jumps[:m]
            np.multiply(times, line.c, out=v)
            np.subtract(sizes, v, out=v)
            peaks = maxima[first : first + m]
            np.max(v, axis=1, initial=0.0, where=within, out=peaks)
        for j in np.flatnonzero(times[:, -1] <= t).tolist():
            path_times, path_sizes = path_events(line, t, seed, first + j)
            if maxima is not None:
                maxima[first + j] = max_loss_from_events(
                    path_times, path_sizes, line.c, t
                )
            if totals is not None:
                totals[first + j] = path_sizes.sum()


def simulate_max_loss(line, t, n, seed):
    """n independent samples of the running maximum over [0, t], in
    path-index order."""
    _check_run_args(line, t, n, seed)
    m = np.empty(n)
    _fill_paths(line, t, seed, maxima=m)
    return SimBatch(line=line, t=t, n=n, seed=seed, samples=m)


def simulate_path_states(line, r, n, seed):
    """PathState snapshots of n paths observed at time r."""
    _check_run_args(line, r, n, seed)
    maxima, totals = np.empty(n), np.empty(n)
    _fill_paths(line, r, seed, maxima=maxima, totals=totals)
    return [
        PathState(r, float(total) - line.c * r, float(peak))
        for total, peak in zip(totals, maxima)
    ]


def simulate_aggregate_claims(line, t, n, seed):
    """n samples of the aggregate claim total over [0, t] (no premium)."""
    _check_run_args(line, t, n, seed)
    out = np.empty(n)
    _fill_paths(line, t, seed, totals=out)
    return out


def estimate_finite_ruin(batch, u):
    """P(M_t > u) estimated from a batch, with a 95% binomial half-width.

    Returns (estimate, half_width); u < 0 gives (1.0, 0.0) exactly since
    the maximum starts at zero, and u = inf gives (0.0, 0.0).
    """
    u = real(u, not_nan, "reserve level must not be NaN, and must be a real number")
    if u < 0.0:
        return 1.0, 0.0
    n = batch.n
    p = float(np.count_nonzero(batch.samples > u)) / n
    half = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return p, half


def conditional_max_samples(line, t, state, n_inner, seed):
    """Samples of M_t given the path position summarised by state at its
    time r.

    The process restarts after r with the same law, so conditionally
    M_t = max(M_r, L_r + M') with M' an independent fresh maximum over
    the remaining horizon t - r.
    """
    t = real(t, positive_finite, "horizon must be positive and finite")
    r = real(state.time, lambda x: 0.0 < x < t, f"need 0 < r < t = {t!r}")
    fresh = simulate_max_loss(line, t - r, n_inner, seed).samples
    return np.maximum(state.running_max, state.realized_loss + fresh)


def supermartingale_check(line, g, t, r, n_outer=200, n_inner=2000, seed=0):
    """Compare the time-0 requirement with the mean time-r requirement.

    Outer paths are advanced to r; each is continued by n_inner
    conditional maxima.  Pooling every conditional sample across outer
    paths yields unconditional M_t draws, so the same nested budget
    prices both sides.  Returns (rho_0, mean_rho_r, se) where se is the
    outer-level standard error of the per-path requirements, so n_outer
    must be at least 2.  Concave g only: the comparison is uninformative
    otherwise.
    """
    if not g.concave:
        raise DomainError("supermartingale comparison needs a concave distortion")
    n_outer = whole(n_outer, lambda x: x >= 2, "need an integer n_outer >= 2")
    n_inner = _check_run_args(line, t, n_inner, seed)
    _check_path_count(n_outer * n_inner, "nested path count n_outer * n_inner")
    r = real(r, lambda x: 0.0 < x < t, f"need 0 < r < t = {t!r}")
    states = simulate_path_states(line, r, n_outer, derive_seed(seed, 10))
    rho_r = np.empty(n_outer)
    pooled = np.empty(n_outer * n_inner)
    for j, state in enumerate(states):
        cond = conditional_max_samples(
            line, t, state, n_inner, derive_seed(seed, 11, j)
        )
        rho_r[j] = choquet_empirical(g, cond)
        pooled[j * n_inner : (j + 1) * n_inner] = cond
    rho_0 = choquet_empirical(g, pooled)
    se = float(np.std(rho_r, ddof=1)) / math.sqrt(n_outer)
    return rho_0, float(rho_r.mean()), se


def rolling_requirement(state, baseline_rho):
    """Time-s requirement for the loss over [s, s+t]: the reassessed
    capital is the realized loss plus the fixed-horizon baseline.

    This is the requirement for the cash-additive rules, coherent and
    convex, whose reserve for the loss shifted by L_s is L_s plus the
    baseline.  It is not for the proportional rule, whose margin scales
    with the reserve: for the line (10, 1, 12) under ph:0.5 with L_s = 5,
    the convex rule at budget 2 gives 25.40718 both ways, but at margin
    0.05 L_s + rho is 30.7108 while the root of D(u - 5) = 0.05 u is
    29.1885."""
    text = "baseline requirement must be finite"
    return state.realized_loss + real(baseline_rho, math.isfinite, text)


_HEADER_PREFIX = "# maxdeficit-batch"


def save_batch(batch, path):
    """Write a batch as text: one header line, then one sample per line.

    Floats are written with repr so a load restores them bit-exactly.
    """
    line = batch.line
    with open(path, "w") as fh:
        fh.write(
            f"{_HEADER_PREFIX} lam={line.lam!r} mu={line.mu!r} c={line.c!r} "
            f"t={batch.t!r} n={batch.n} seed={batch.seed}\n"
        )
        for v in batch.samples:
            fh.write(f"{float(v)!r}\n")


def load_batch(path):
    """Read a batch written by save_batch."""
    from .model import ExponentialLine

    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise DomainError(f"{path} is not a batch file")
        try:
            fields = dict(
                tok.split("=", 1) for tok in header[len(_HEADER_PREFIX) :].split()
            )
            lam, mu, c, t = (float(fields[key]) for key in ("lam", "mu", "c", "t"))
            n, seed = int(fields["n"]), int(fields["seed"])
            samples = np.array([float(row) for row in fh])
        except KeyError as exc:
            raise DomainError(f"batch file {path} has no {exc} in its header") from None
        except ValueError as exc:
            raise DomainError(f"batch file {path} is malformed: {exc}") from None
    if samples.size != n:
        raise DomainError(
            f"batch file {path} announces {n} samples but holds {samples.size}"
        )
    line = ExponentialLine(lam=lam, mu=mu, c=c)
    return SimBatch(line=line, t=t, n=n, seed=seed, samples=samples)
