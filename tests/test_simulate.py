"""Path simulation: reproducibility, exact reductions, and the restart
property that underwrites the conditional requirement machinery."""

import math
import warnings

import numpy as np
import pytest

from maxdeficit import simulate
from maxdeficit import (
    DomainError,
    ExponentialLine,
    PathState,
    conditional_max_samples,
    derive_seed,
    estimate_finite_ruin,
    identity,
    load_batch,
    max_loss_from_events,
    path_events,
    proportional_hazard,
    rolling_requirement,
    save_batch,
    simulate_aggregate_claims,
    simulate_max_loss,
    simulate_path_states,
    supermartingale_check,
    var_step,
)
from tests.conftest import LINE1, LINE3

QUIET = ExponentialLine(0.0, 1.0, 1.0)


def ks_two_sample(x, y):
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    cx = np.searchsorted(x, grid, side="right") / x.size
    cy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cx - cy).max())


class TestPathEvents:
    def test_sorted_within_horizon(self):
        times, sizes = path_events(LINE1, 5.0, seed=42, index=0)
        assert np.all(np.diff(times) > 0.0)
        assert times.size == sizes.size
        assert times.size == 0 or (times[0] > 0.0 and times[-1] <= 5.0)
        assert np.all(sizes > 0.0)

    def test_deterministic_per_index(self):
        a = path_events(LINE1, 5.0, seed=42, index=3)
        b = path_events(LINE1, 5.0, seed=42, index=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = path_events(LINE1, 5.0, seed=42, index=4)
        assert not np.array_equal(a[0], c[0])

    def test_rates_match_line(self):
        counts, total = [], []
        for i in range(2000):
            times, sizes = path_events(LINE1, 3.0, seed=9, index=i)
            counts.append(times.size)
            total.extend(sizes)
        assert np.mean(counts) == pytest.approx(30.0, abs=0.5)
        assert np.mean(total) == pytest.approx(1.0, abs=0.03)

    def test_quiet_line_has_no_events(self):
        times, sizes = path_events(QUIET, 10.0, seed=0, index=0)
        assert times.size == sizes.size == 0

    def test_rejects_bad_horizon(self):
        # lam * t of 1e16 and 1e309 would ask for a block of that many gaps:
        # refused before anything is allocated, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.0, -1.0, math.nan, math.inf, 1e15, 1e308):
                with pytest.raises(DomainError, match="horizon"):
                    path_events(LINE1, t, seed=0, index=0)
                with pytest.raises(DomainError, match="horizon"):
                    simulate_max_loss(LINE1, t, 10, seed=0)

    @pytest.mark.parametrize("bad", [-1, 1.5, 2**64, "3"])
    def test_rejects_bad_seed_and_index(self, bad):
        with pytest.raises(DomainError, match="seed"):
            path_events(LINE1, 5.0, seed=bad, index=0)
        with pytest.raises(DomainError, match="path index"):
            path_events(LINE1, 5.0, seed=0, index=bad)


class TestMaxFromEvents:
    def test_single_jump_less_drift(self):
        # one claim of 5 at time 1 under unit premium peaks at 4
        assert max_loss_from_events([1.0], [5.0], c=1.0, t=2.0) == 4.0

    def test_floors_at_zero(self):
        assert max_loss_from_events([3.0], [1.0], c=2.0, t=4.0) == 0.0
        assert max_loss_from_events([], [], c=1.0, t=1.0) == 0.0

    def test_interior_epoch_can_win(self):
        # first epoch value 4, second 5 - 3 = 2 + ... pick the larger
        times, sizes = [1.0, 3.0], [5.0, 1.0]
        assert max_loss_from_events(times, sizes, c=1.0, t=4.0) == 4.0

    def test_agrees_with_dense_grid(self):
        # the supremum sits at a claim epoch; a dense grid can lag it by
        # at most the premium drained over one step, in either direction
        step = 1e-3
        t = 6.0
        grid = np.arange(0.0, t + step, step)
        for i in range(60):
            times, sizes = path_events(LINE1, t, seed=77, index=i)
            exact = max_loss_from_events(times, sizes, LINE1.c, t)
            idx = np.searchsorted(times, grid, side="right")
            cums = np.concatenate([[0.0], np.cumsum(sizes)])
            on_grid = float(np.max(cums[idx] - LINE1.c * grid))
            on_grid = max(on_grid, 0.0)
            assert on_grid <= exact + 1e-12
            assert exact - on_grid <= LINE1.c * step + 1e-12


class TestBatches:
    def test_bit_exact_reproducibility(self):
        a = simulate_max_loss(LINE1, 3.0, 500, seed=123)
        b = simulate_max_loss(LINE1, 3.0, 500, seed=123)
        assert np.array_equal(a.samples, b.samples)
        c = simulate_max_loss(LINE1, 3.0, 500, seed=124)
        assert not np.array_equal(a.samples, c.samples)
        # sample i is path i, regenerated on its own
        for i in (0, 17, 499):
            times, sizes = path_events(LINE1, 3.0, seed=123, index=i)
            assert a.samples[i] == max_loss_from_events(times, sizes, LINE1.c, 3.0)

    def test_quiet_line_is_all_zero(self):
        batch = simulate_max_loss(QUIET, 5.0, 200, seed=0)
        assert np.all(batch.samples == 0.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            simulate_max_loss(LINE1, -1.0, 10, seed=0)
        with pytest.raises(DomainError):
            simulate_max_loss(LINE1, 1.0, 0, seed=0)
        with pytest.raises(DomainError):
            simulate_max_loss(LINE1, 1.0, 10, seed=-5)

    def test_rejects_non_finite_horizon_and_fractional_count(self):
        for t in (math.inf, math.nan):
            with pytest.raises(DomainError):
                simulate_max_loss(LINE1, t, 10, seed=0)
        with pytest.raises(DomainError):
            simulate_max_loss(LINE1, 1.0, 2.5, 1)
        with pytest.raises(DomainError):
            simulate_max_loss(LINE1, 1.0, 10, seed=2.5)

    def test_save_load_round_trip(self, tmp_path):
        batch = simulate_max_loss(LINE1, 2.0, 64, seed=55)
        target = tmp_path / "batch.txt"
        save_batch(batch, target)
        back = load_batch(target)
        assert np.array_equal(back.samples, batch.samples)
        assert (back.line, back.t, back.n, back.seed) == (
            batch.line,
            batch.t,
            batch.n,
            batch.seed,
        )

    def test_load_rejects_foreign_file(self, tmp_path):
        target = tmp_path / "junk.txt"
        target.write_text("not a batch\n1.0\n")
        with pytest.raises(DomainError):
            load_batch(target)

    def test_load_rejects_truncated_file(self, tmp_path):
        batch = simulate_max_loss(LINE1, 2.0, 10, seed=55)
        target = tmp_path / "batch.txt"
        save_batch(batch, target)
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DomainError):
            load_batch(target)


    @pytest.mark.parametrize(
        "header,row",
        [
            ("# maxdeficit-batch lam=10.0 mu=1.0 c=12.0 t=2.0 seed=1", "0.5"),
            ("# maxdeficit-batch lam=10.0 mu=1.0 c=12.0 t=2.0 n=1 seed=1", "abc"),
            ("# maxdeficit-batch lam=ten mu=1.0 c=12.0 t=2.0 n=1 seed=1", "0.5"),
        ],
        ids=["missing-key", "non-numeric-row", "non-numeric-header"],
    )
    def test_load_rejects_malformed_file_by_name(self, tmp_path, header, row):
        target = tmp_path / "broken.txt"
        target.write_text(f"{header}\n{row}\n")
        with pytest.raises(DomainError, match="broken.txt"):
            load_batch(target)


class TestFiniteRuin:
    def test_negative_reserve_is_certain(self):
        batch = simulate_max_loss(LINE1, 1.0, 100, seed=0)
        assert estimate_finite_ruin(batch, -0.5) == (1.0, 0.0)

    def test_infinite_reserve_never_ruins_and_nan_is_rejected(self):
        batch = simulate_max_loss(LINE1, 1.0, 100, seed=0)
        assert estimate_finite_ruin(batch, math.inf) == (0.0, 0.0)
        with pytest.raises(DomainError):
            estimate_finite_ruin(batch, math.nan)

    def test_tracks_ultimate_level_at_long_horizon(self):
        batch = simulate_max_loss(LINE1, 60.0, 2000, seed=31)
        p, half = estimate_finite_ruin(batch, 5.0)
        exact = 5.0 / 6.0 * math.exp(-5.0 / 6.0)
        assert half > 0.0
        assert abs(p - exact) < 2.0 * half + 0.005

    def test_quiet_line_never_ruins(self):
        batch = simulate_max_loss(QUIET, 5.0, 100, seed=0)
        assert estimate_finite_ruin(batch, 0.0) == (0.0, 0.0)


def single_path_route(line, t, n, seed):
    """Maxima and claim totals of paths 0..n-1, one path_events call each."""
    maxima, totals = np.empty(n), np.empty(n)
    for i in range(n):
        times, sizes = path_events(line, t, seed, i)
        maxima[i] = max_loss_from_events(times, sizes, line.c, t)
        totals[i] = float(sizes.sum())
    return maxima, totals


def batch_routes(line, t, n, seed):
    """Maxima, claim totals and path states of the three batch functions."""
    states = simulate_path_states(line, t, n, seed)
    return (
        simulate_max_loss(line, t, n, seed).samples,
        simulate_aggregate_claims(line, t, n, seed),
        np.array([(s.realized_loss, s.running_max) for s in states]),
    )


def assert_same_bits(routes, maxima, totals, line, t):
    batch_max, batch_total, states = routes
    assert batch_max.tobytes() == maxima.tobytes()
    assert batch_total.tobytes() == totals.tobytes()
    expected_states = np.column_stack([totals - line.c * t, maxima])
    assert states.tobytes() == expected_states.tobytes()


class TestChunkedKernel:
    """The batch functions draw paths in chunks of rows; every sample must
    equal the single-path route of path_events bit for bit."""

    CASES = [
        (LINE1, 1.0, 400),
        (LINE1, 15.0, 200),
        (LINE1, 200.0, 12),
        (LINE3, 30.0, 300),
    ]
    IDS = ["lam-t-10", "lam-t-150", "lam-t-2000", "third-line"]

    @pytest.mark.parametrize("line,t,n", CASES, ids=IDS)
    def test_matches_single_path_route(self, line, t, n):
        for seed in (0, 2**64 - 1):
            maxima, totals = single_path_route(line, t, n, seed)
            assert_same_bits(batch_routes(line, t, n, seed), maxima, totals, line, t)

    @pytest.mark.parametrize("line,t,n", CASES, ids=IDS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunk_size_changes_no_bit(self, monkeypatch, line, t, n, rows):
        default = batch_routes(line, t, n, seed=31)
        budget = rows * 2 * simulate._block_size(line, t)
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", budget)
        for got, want in zip(batch_routes(line, t, n, seed=31), default):
            assert got.tobytes() == want.tobytes()

    def test_rows_that_stay_within_t_fall_back(self, monkeypatch):
        # a 5-gap block passes t = 0.5 only when fewer than 5 claims
        # arrive (mean 5), so both the chunked and the fallback rows occur
        monkeypatch.setattr(simulate, "_block_size", lambda line, t: 5)
        line, t, n = LINE1, 0.5, 300
        maxima, totals = single_path_route(line, t, n, seed=4)
        counts = [path_events(line, t, 4, i)[0].size for i in range(n)]
        assert 0 < sum(k >= 5 for k in counts) < n
        assert_same_bits(batch_routes(line, t, n, seed=4), maxima, totals, line, t)


class TestRestartProperty:
    def test_post_restart_maxima_match_fresh_process(self):
        # increments after r form a fresh copy of the process, so their
        # running maxima and an independent fresh batch over the same
        # horizon must pass a two-sample KS comparison
        r, t, n = 1.0, 3.0, 10_000
        inc_max = np.empty(n)
        for i in range(n):
            times, sizes = path_events(LINE1, t, seed=2024, index=i)
            cums = np.concatenate([[0.0], np.cumsum(sizes)])
            k = int(np.searchsorted(times, r, side="right"))
            l_r = cums[k] - LINE1.c * r
            vals = cums[k + 1 :] - LINE1.c * times[k:]
            inc_max[i] = max(0.0, (vals - l_r).max() if vals.size else 0.0)
        fresh = simulate_max_loss(LINE1, t - r, n, seed=5050).samples
        stat = ks_two_sample(inc_max, fresh)
        assert stat < 1.628 * math.sqrt(2.0 / n)


class TestConditional:
    def test_floor_is_past_maximum(self):
        state = PathState(time=1.0, realized_loss=-2.0, running_max=3.5)
        cond = conditional_max_samples(LINE1, 3.0, state, 500, seed=8)
        assert np.all(cond >= 3.5)

    def test_loss_level_shifts_continuation(self):
        lo = PathState(time=1.0, realized_loss=-5.0, running_max=0.0)
        hi = PathState(time=1.0, realized_loss=5.0, running_max=5.0)
        a = conditional_max_samples(LINE1, 3.0, lo, 500, seed=8)
        b = conditional_max_samples(LINE1, 3.0, hi, 500, seed=8)
        assert b.mean() > a.mean()

    def test_rejects_degenerate_window(self):
        state = PathState(time=1.0, realized_loss=0.0, running_max=0.0)
        with pytest.raises(DomainError, match="need 0 < r < t"):
            conditional_max_samples(LINE1, 1.0, state, 10, seed=0)


class TestSupermartingale:
    def test_identity_prices_both_sides_equally(self):
        # pooling equal-sized inner batches makes the two identity
        # prices the same mean, not just statistically close
        rho_0, mean_r, se = supermartingale_check(
            LINE1, identity(), t=3.0, r=1.0, n_outer=40, n_inner=200, seed=17
        )
        assert rho_0 == pytest.approx(mean_r, rel=1e-10)
        assert se > 0.0

    def test_concave_requirement_shrinks_in_mean(self):
        rho_0, mean_r, _ = supermartingale_check(
            LINE1,
            proportional_hazard(0.5),
            t=3.0,
            r=1.0,
            n_outer=40,
            n_inner=200,
            seed=17,
        )
        # in-sample this is a pointwise Jensen inequality, hence exact
        assert rho_0 >= mean_r - 1e-9

    def test_rejects_nonconcave_distortion(self):
        with pytest.raises(DomainError):
            supermartingale_check(LINE1, var_step(0.4), t=3.0, r=1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(DomainError):
            supermartingale_check(LINE1, identity(), t=2.0, r=2.0)

    @pytest.mark.parametrize(
        "n_outer,seed",
        [(1, 0), (2.5, 0), (10, -1), (10, 1.5)],
        ids=["one-outer-path", "fractional-outer", "negative-seed", "float-seed"],
    )
    def test_rejects_bad_counts_and_seeds_before_drawing(
        self, monkeypatch, n_outer, seed
    ):
        def no_drawing(*args, **kwargs):
            raise AssertionError("paths drawn before validation")

        monkeypatch.setattr(simulate, "_fill_paths", no_drawing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                supermartingale_check(
                    LINE1, identity(), t=3.0, r=1.0, n_outer=n_outer, n_inner=50,
                    seed=seed,
                )


class TestRolling:
    def test_requirement_moves_with_realized_loss(self):
        down = PathState(time=1.0, realized_loss=-3.0, running_max=0.0)
        up = PathState(time=1.0, realized_loss=7.0, running_max=7.0)
        assert rolling_requirement(down, 5.0) == 2.0
        assert rolling_requirement(up, 5.0) == 12.0

    def test_state_validation(self):
        with pytest.raises(DomainError):
            PathState(time=1.0, realized_loss=2.0, running_max=1.0)
        with pytest.raises(DomainError):
            PathState(time=1.0, realized_loss=-1.0, running_max=-0.5)
        PathState(time=1.0, realized_loss=-1.0, running_max=0.0)


class TestAggregateClaims:
    def test_mean_matches_rate(self):
        totals = simulate_aggregate_claims(LINE1, 1.0, 3000, seed=77)
        assert np.all(totals >= 0.0)
        assert totals.mean() == pytest.approx(10.0, abs=0.25)

    def test_premium_free(self):
        # claims only: a quiet line accumulates exactly nothing
        assert np.all(simulate_aggregate_claims(QUIET, 1.0, 1500, seed=0) == 0.0)


class TestStateSnapshots:
    def test_states_consistent(self):
        states = simulate_path_states(LINE1, 2.0, 100, seed=6)
        assert len(states) == 100
        for s in states:
            assert s.time == 2.0
            assert s.running_max >= max(0.0, s.realized_loss)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 10) == derive_seed(5, 10)
        tags = {derive_seed(5, 10), derive_seed(5, 11), derive_seed(6, 10)}
        assert len(tags) == 3
        assert all(0 <= s <= np.iinfo(np.uint64).max for s in tags)

    @pytest.mark.parametrize("args", [(1.5, 2), (1, 2.7), (-1, 2), (1, -2), (1, 2, 0.5)])
    def test_rejects_non_integral_or_negative(self, args):
        with pytest.raises(DomainError):
            derive_seed(*args)
