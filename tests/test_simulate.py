import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cusumkit import detect, models, moments, rng, simulate
from cusumkit.errors import (
    DivergentMoment,
    HorizonExceeded,
    InsufficientReps,
    StateBudgetExceeded,
    TooLarge,
)

from _oracles import path_cusum_stats

BERN_LLR_P = 1.0 / (1.0 + math.e)
# unsorted support with a zero-probability atom
TABLE5 = models.DiscreteTable(
    (2.0, -1.0, 0.5, -3.0, 1.0), (0.1, 0.4, 0.0, 0.2, 0.3)
)
TABLE3 = models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25))
# log-ratio increments log(1/2), log(3/2): no coarse lattice holds them
IRRATIONAL = detect.DiscretePair((0.0, 1.0), (0.5, 0.5), (0.25, 0.75)).increment_model()


@pytest.fixture(scope="module")
def nllr():
    return models.NormalLLR(1.0)


class TestSubstreams:
    def test_offset_slices_are_consistent(self):
        whole = rng.uniform_block(seed=9, first_rep=0, reps=20, draws_per_rep=11)
        tail = rng.uniform_block(seed=9, first_rep=8, reps=12, draws_per_rep=11)
        np.testing.assert_array_equal(whole[8:], tail)

    def test_seeds_differ(self):
        a = rng.uniform_block(1, 0, 4, 16)
        b = rng.uniform_block(2, 0, 4, 16)
        assert not np.array_equal(a, b)

    def test_uniforms_in_open_interval(self):
        u = rng.uniform_block(3, 0, 100, 64)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_words_make_the_uniforms(self):
        for n in (1, 10, 12):
            words = rng.word_block(7, 3, 5, n)
            assert words.shape == (5, 4 * rng.blocks_per_rep(n))
            assert words.dtype == np.uint64 and words.flags.c_contiguous
            u = np.maximum((words >> np.uint64(11)) * 2.0**-53, rng.MIN_UNIFORM)
            np.testing.assert_array_equal(u[:, :n], rng.uniform_block(7, 3, 5, n))

    def test_substream_matches_block(self):
        block = rng.uniform_block(7, 0, 5, 10)
        gen = rng.substream(7, 3, 10)
        np.testing.assert_array_equal(
            np.maximum(gen.random(10), 2.0**-64), block[3]
        )


class TestDeterminism:
    def test_parallel_streams_bit_identical(self, nllr):
        r1 = simulate.simulate_cusum(simulate.SimConfig(nllr, 37, 500, seed=11))
        r4 = simulate.simulate_cusum(
            simulate.SimConfig(nllr, 37, 500, seed=11, parallel_streams=4)
        )
        np.testing.assert_array_equal(r1.w_final, r4.w_final)
        np.testing.assert_array_equal(r1.w_max, r4.w_max)

    def test_chunking_bit_identical(self, nllr, monkeypatch):
        cfg = simulate.SimConfig(nllr, 37, 500, seed=11)
        big = simulate.simulate_cusum(cfg)
        monkeypatch.setattr(simulate, "_TARGET_CHUNK_ELEMENTS", 100)
        small = simulate.simulate_cusum(cfg)
        np.testing.assert_array_equal(big.w_final, small.w_final)
        np.testing.assert_array_equal(big.w_max, small.w_max)

    @given(
        model=st.one_of(
            st.floats(0.05, 3.0).map(models.NormalLLR),
            st.builds(models.ShiftedNormal, st.floats(-2.0, 1.0), st.floats(0.1, 3.0)),
            st.floats(0.05, 0.95).map(models.BernoulliPM),
            st.sampled_from([TABLE3, TABLE5, IRRATIONAL]),
        ),
        n=st.integers(1, 60),
        reps=st.integers(1, 80),
        chunk_elements=st.integers(1, 400),
        streams=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_and_worker_invariance(self, model, n, reps, chunk_elements,
                                         streams):
        whole = simulate.simulate_cusum(simulate.SimConfig(model, n, reps, seed=17))
        with mock.patch.object(simulate, "_TARGET_CHUNK_ELEMENTS", chunk_elements):
            split = simulate.simulate_cusum(
                simulate.SimConfig(model, n, reps, seed=17, parallel_streams=streams))
        assert split.w_final.tobytes() == whole.w_final.tobytes()
        assert split.w_max.tobytes() == whole.w_max.tobytes()

    def test_discrete_sampling_deterministic(self):
        m = models.BernoulliPM(0.3)
        a = simulate.simulate_cusum(simulate.SimConfig(m, 20, 100, seed=5))
        b = simulate.simulate_cusum(simulate.SimConfig(m, 20, 100, seed=5))
        np.testing.assert_array_equal(a.w_final, b.w_final)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 10 replications at n = 7."""
    monkeypatch.setattr(simulate, "_TARGET_CHUNK_ELEMENTS", 70)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def _chunk_wrapper(monkeypatch, before):
    """Patch simulate._run_chunk to call before(first_rep) ahead of the
    real chunk."""
    run = simulate._run_chunk

    def chunk(config, first_rep, reps, w_final, w_max, /):
        before(first_rep)
        run(config, first_rep, reps, w_final, w_max)

    monkeypatch.setattr(simulate, "_run_chunk", chunk)


class TestStreams:
    """simulate_cusum runs its chunks on parallel_streams streams: the
    calling thread and up to parallel_streams - 1 helper threads, each
    taking the next chunk from one shared list."""

    # at n = 7: ten chunks with a partial last one, two chunks (fewer than
    # three streams) with a partial last one, and a single chunk
    @pytest.mark.parametrize("reps", [95, 15, 10])
    @pytest.mark.parametrize("model", [models.NormalLLR(1.0), models.BernoulliPM(0.3)],
                             ids=["normal", "lattice"])
    def test_bit_identical_across_streams(self, model, reps, monkeypatch):
        whole = simulate.simulate_cusum(simulate.SimConfig(model, 7, reps, seed=23))
        monkeypatch.setattr(simulate, "_TARGET_CHUNK_ELEMENTS", 70)
        for streams in (1, 2, 3):
            got = simulate.simulate_cusum(
                simulate.SimConfig(model, 7, reps, seed=23, parallel_streams=streams))
            assert got.w_final.tobytes() == whole.w_final.tobytes()
            assert got.w_max.tobytes() == whole.w_max.tobytes()

    @pytest.mark.parametrize("streams, reps, most", [
        (1, 95, 0), (2, 95, 1), (3, 95, 2), (3, 15, 1), (3, 10, 0), (5, 1, 0)])
    def test_at_most_one_helper_thread_per_extra_stream(
            self, nllr, small_chunks, started_threads, monkeypatch, streams, reps, most):
        # each chunk sleeps, so every stream gets chunks while others wait
        idents = set()
        _chunk_wrapper(monkeypatch, lambda _: (idents.add(threading.get_ident()),
                                               time.sleep(0.005)))
        simulate.simulate_cusum(
            simulate.SimConfig(nllr, 7, reps, seed=23, parallel_streams=streams))
        assert len(started_threads) <= most
        assert not any(t.is_alive() for t in started_threads)
        assert threading.get_ident() in idents  # the caller is a stream
        assert len(idents) <= min(streams, -(-reps // 10))

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_failing_chunk_stops_every_stream(
            self, nllr, small_chunks, started_threads, monkeypatch, where):
        # 50 chunks on 3 streams; a chunk of the named thread raises, and
        # the others hold their first chunk until it has
        caller = threading.get_ident()
        failed = threading.Event()
        ran = []

        def before(first_rep):
            if (threading.get_ident() == caller) == (where == "caller"):
                failed.set()
                raise RuntimeError(f"chunk at {first_rep} failed")
            assert failed.wait(timeout=30)
            ran.append(first_rep)

        _chunk_wrapper(monkeypatch, before)
        with pytest.raises(RuntimeError, match="failed"):
            simulate.simulate_cusum(
                simulate.SimConfig(nllr, 7, 500, seed=23, parallel_streams=3))
        assert 1 <= len(started_threads) <= 2
        assert not any(t.is_alive() for t in started_threads)
        # only chunks taken before the failure ran: one per other stream
        assert len(ran) <= 2

    def test_every_chunk_runs_once_under_contention(self, nllr, monkeypatch):
        # single-replication chunks on more streams than cores, with the
        # interpreter switching threads as often as it can
        whole = simulate.simulate_cusum(simulate.SimConfig(nllr, 7, 400, seed=23))
        monkeypatch.setattr(simulate, "_TARGET_CHUNK_ELEMENTS", 7)
        ran = []
        _chunk_wrapper(monkeypatch, ran.append)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate.simulate_cusum(
                simulate.SimConfig(nllr, 7, 400, seed=23, parallel_streams=6))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(400))
        assert got.w_final.tobytes() == whole.w_final.tobytes()
        assert got.w_max.tobytes() == whole.w_max.tobytes()


class TestAgainstAnalytic:
    def test_normal_mean_within_stderr(self, nllr):
        res = simulate.simulate_cusum(simulate.SimConfig(nllr, 50, 40_000, seed=3))
        exact = moments.cusum_mean(nllr, 50)[50]
        assert abs(res.mean - exact) <= 4 * res.mean_stderr

    def test_exp_moment_estimate(self):
        m = models.NormalLLR(0.5)
        res = simulate.simulate_cusum(
            simulate.SimConfig(m, 30, 40_000, seed=13), exp_lam=1.0
        )
        exact = moments.cusum_mgf_recursive(m, 1.0, 30).values[30]
        assert abs(res.exp_moment - exact) <= 4 * res.exp_moment_stderr

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_exp_lambda_refused(self, nllr, lam):
        with pytest.raises(ValueError, match=f"^lambda must be finite, got {lam}$"):
            simulate.simulate_cusum(simulate.SimConfig(nllr, 3, 5, seed=0), exp_lam=lam)

    def test_overflowing_exp_moment_refused(self, nllr):
        with pytest.raises(DivergentMoment, match="sample exp moment overflows"):
            simulate.simulate_cusum(simulate.SimConfig(nllr, 3, 5, seed=0), exp_lam=1e300)

    def test_invalid_config(self, nllr):
        with pytest.raises(ValueError):
            simulate.SimConfig(nllr, 10, 0, seed=0)
        with pytest.raises(ValueError):
            simulate.SimConfig(nllr, -1, 10, seed=0)
        for streams in (0, -3):
            with pytest.raises(ValueError, match="parallel_streams"):
                simulate.SimConfig(nllr, 10, 10, seed=0, parallel_streams=streams)


class TestChunkMemory:
    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("model", [models.NormalLLR(1.0), models.BernoulliPM(0.3)],
                             ids=["normal", "lattice"])
    def test_peak_is_about_one_philox_buffer(self, model, n):
        # each chunk holds one float64 array: its Philox block, which the
        # increments overwrite; the slices of the lattice transform are small
        chunk = simulate._TARGET_CHUNK_ELEMENTS // n
        philox_bytes = chunk * 4 * rng.blocks_per_rep(n) * 8
        config = simulate.SimConfig(model, n, 2 * chunk, seed=5)
        simulate.simulate_cusum(config)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            simulate.simulate_cusum(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results = 2 * config.reps * 8  # w_final and w_max
        assert peak - results <= 1.25 * philox_bytes


class TestQuantiles:
    def test_order_statistic_convention(self):
        samples = np.arange(1.0, 101.0)  # 1..100
        h, stderr = simulate._upper_quantile(samples, alpha=0.05)
        assert h == 95.0  # ceil(100*0.95) = 95th order statistic
        assert stderr > 0.0

    @staticmethod
    def _sorted_reference(samples, alpha):
        reps = samples.shape[0]
        srt = np.sort(samples)
        rank = int(np.ceil(reps * (1.0 - alpha)))
        spread = np.sqrt(reps * alpha * (1.0 - alpha))
        lo = max(int(np.floor(rank - spread)), 1)
        hi = min(int(np.ceil(rank + spread)), reps)
        return float(srt[rank - 1]), float((srt[hi - 1] - srt[lo - 1]) / 2.0), lo, hi

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize(
        "reps,alpha",
        [(1000, 0.05), (1000, 0.5), (7, 0.5), (12, 0.3), (5, 0.9), (3, 0.01)],
    )
    def test_partition_matches_full_sort(self, reps, alpha, ties):
        gen = np.random.default_rng(reps)
        samples = gen.exponential(size=reps) - 0.5
        if ties:
            # zero-inflated and rounded, like the maxima of a negative-drift walk
            samples = np.round(samples, 1).clip(0.0)
        h, se, lo, hi = self._sorted_reference(samples, alpha)
        assert simulate._upper_quantile(samples.copy(), alpha) == (h, se)

    def test_bracket_reaches_both_ends(self):
        # small reps put lo at the first and hi at the last order statistic
        samples = np.array([3.0, 1.0, 2.0, 2.0, 0.0])
        h, se, lo, hi = self._sorted_reference(samples, 0.5)
        assert (lo, hi) == (1, 5)
        assert simulate._upper_quantile(samples, 0.5) == (h, se) == (2.0, 1.5)

    def test_insufficient_reps_guard(self, nllr):
        with pytest.raises(InsufficientReps):
            simulate.mc_quantile_max(nllr, 10, 0.05, reps=100, seed=0)

    def test_quantile_reproducible(self, nllr):
        a = simulate.mc_quantile_max(nllr, 50, 0.05, 5000, seed=21)
        b = simulate.mc_quantile_max(nllr, 50, 0.05, 5000, seed=21)
        assert a == b


class TestExactEnumeration:
    @pytest.mark.filterwarnings("ignore::cusumkit.errors.FormulaMismatch")
    @pytest.mark.parametrize(
        "model",
        [
            models.BernoulliPM(BERN_LLR_P),
            models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25)),
        ],
        ids=["bernoulli", "table3"],
    )
    def test_matches_moment_engine(self, model):
        n = 10
        dist = simulate.exact_enumerate(model, n)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert dist.mean_w() == pytest.approx(
            moments.cusum_mean(model, n)[n], abs=1e-12
        )
        vars_, _ = moments.cusum_variance(model, n)
        assert dist.var_w() == pytest.approx(vars_[n], abs=1e-12)
        mgf = moments.cusum_mgf_recursive(model, 1.0, n).values[n]
        assert dist.mgf_w(1.0) == pytest.approx(mgf, rel=1e-12)

    @pytest.mark.parametrize("model, n", [(models.BernoulliPM(0.3), 100),
                                          (models.DiscreteTable((1.0, -0.5, -2.0),
                                                                (0.25, 0.5, 0.25)), 30)])
    def test_w_marginal_matches_atom_sums(self, model, n):
        dist = simulate.exact_enumerate(model, n)
        acc: dict[int, float] = {}
        for (kw, _), p in dist.atoms.items():
            acc[kw] = acc.get(kw, 0.0) + p
        keys = sorted(acc)
        vals, probs = dist.w_marginal()
        np.testing.assert_array_equal(vals, np.array(keys) * 1e-12)
        np.testing.assert_allclose(probs, [acc[k] for k in keys], rtol=1e-15, atol=0)

    def test_tail_against_simulation(self):
        m = models.BernoulliPM(0.3)
        n, h = 30, 3.0
        dist = simulate.exact_enumerate(m, n)
        p_exact = dist.prob_max_ge(h)
        p_hat, ci = simulate.mc_tail_max(m, n, h, reps=40_000, seed=17)
        assert abs(p_hat - p_exact) <= max(ci, 1e-3)

    def test_budget_guard(self):
        m = models.DiscreteTable((0.1, -0.317), (0.6, 0.4))
        with pytest.raises(StateBudgetExceeded):
            simulate.exact_enumerate(m, 40, state_budget=100)

    def test_negative_horizon_refused(self):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            simulate.exact_enumerate(models.BernoulliPM(0.3), -3)

    def test_continuous_rejected(self, nllr):
        with pytest.raises(TypeError, match="requires a finite-support model"):
            simulate.exact_enumerate(nllr, 5)

    def test_large_keys_up_to_int64(self):
        # a +-1 walk scaled by 4e4: keys +-4e16, and n * 4e16 < 2**63 up
        # to n = 230, although n * (hi - lo) passes 2**63 from n = 116
        table = models.DiscreteTable((4e4, -4e4), (0.4, 0.6))
        big = simulate.exact_enumerate(table, 150)
        unit = simulate.exact_enumerate(models.BernoulliPM(0.4), 150)
        assert len(big.atoms) == len(unit.atoms)
        for (kw, km), p in unit.atoms.items():
            assert big.atoms[kw * 40_000, km * 40_000] == pytest.approx(p, rel=1e-12)
        with pytest.raises(TooLarge):
            simulate.exact_enumerate(table, 231)


@st.composite
def _lattice_tables(draw):
    """Tables of 2-5 integer or half-integer atoms with a negative mean."""
    keys = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(keys),
                            max_size=len(keys)))
    if sum(k * w for k, w in zip(keys, weights)) >= 0:
        reject()
    scale = draw(st.sampled_from([1.0, 0.5]))
    probs = tuple(w / sum(weights) for w in weights)
    return models.DiscreteTable(tuple(k * scale for k in keys), probs)


def _enumerate_by(model, n, cells_per_candidate):
    with mock.patch.object(simulate, "_CELLS_PER_CANDIDATE", cells_per_candidate):
        return simulate.exact_enumerate(model, n)


class TestDenseMerge:
    """exact_enumerate's dense-index merge against the sort merge."""

    @given(model=_lattice_tables(), n=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_sort_merge_and_paths(self, model, n):
        dense = _enumerate_by(model, n, 2**62)  # every step by the dense index
        by_sort = _enumerate_by(model, n, 0)  # every step by sorting
        np.testing.assert_array_equal(dense.w_keys, by_sort.w_keys)
        np.testing.assert_array_equal(dense.max_keys, by_sort.max_keys)
        np.testing.assert_allclose(dense.probs, by_sort.probs, rtol=1e-14, atol=0)
        # the path oracle at n <= 8, for at most 16 000 paths
        small = min(n, 8, int(math.log(16_000) / math.log(len(model.support))))
        got = _enumerate_by(model, small, 2**62)
        want = {}
        for w, m, p in path_cusum_stats(model.support, model.probs, small):
            key = (round(w / 1e-12), round(m / 1e-12))
            want[key] = want.get(key, 0.0) + p
        assert got.atoms.keys() == want.keys()
        for key, p in want.items():
            assert got.atoms[key] == pytest.approx(p, rel=1e-12)

    def test_sparse_box_sorts(self):
        # y = 40; -1: the box of a step has 176 or more cells per
        # candidate state up to n = 30, so every step sorts
        model = models.DiscreteTable((40.0, -1.0), (0.02, 0.98))
        with mock.patch.object(simulate, "_merge_atoms",
                               wraps=simulate._merge_atoms) as sort_merge:
            dist = simulate.exact_enumerate(model, 30)
        assert sort_merge.call_count == 30
        dense = _enumerate_by(model, 30, 2**62)
        np.testing.assert_array_equal(dist.w_keys, dense.w_keys)
        np.testing.assert_array_equal(dist.max_keys, dense.max_keys)
        np.testing.assert_allclose(dist.probs, dense.probs, rtol=1e-14, atol=0)

    def test_bernoulli_merges_densely(self):
        with mock.patch.object(simulate, "_merge_atoms",
                               wraps=simulate._merge_atoms) as sort_merge:
            simulate.exact_enumerate(models.BernoulliPM(0.3), 100)
        assert sort_merge.call_count == 0


class TestEnumerationOracle:
    """The whole joint law of (W_n, max W) against exhaustive paths."""

    MODELS = [models.BernoulliPM(0.3), TABLE3, TABLE5, IRRATIONAL]
    IDS = ["bernoulli", "table3", "table5", "irrational"]

    @staticmethod
    def _joint(triples):
        # values rounded to 1e-9: far coarser than the 1e-12 key grid and
        # the rounding of n float additions, far finer than atom spacing
        law = {}
        for w, m, p in triples:
            key = (round(w, 9) + 0.0, round(m, 9) + 0.0)
            law[key] = law.get(key, 0.0) + p
        return law

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_every_atom(self, model, n):
        dist = simulate.exact_enumerate(model, n)
        got = self._joint(dist.items())
        want = self._joint(path_cusum_stats(model.support, model.probs, n))
        want = {k: p for k, p in want.items() if p > 0.0}
        assert set(got) == set(want)
        for key, p in want.items():
            assert got[key] == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_prob_max_ge(self, model):
        n = 8
        dist = simulate.exact_enumerate(model, n)
        triples = path_cusum_stats(model.support, model.probs, n)
        for h in (0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 3.5, 6.0):
            want = sum(p for _, m, p in triples if m >= h - 1e-9)
            assert dist.prob_max_ge(h) == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestStoppingStats:
    def test_requires_negative_drift(self):
        with pytest.raises(ValueError):
            simulate.stopping_stats(
                models.ShiftedNormal(0.2, 1.0), h=2.0, k_zeros=1, reps=10, seed=0
            )

    def test_estimates_are_sane(self):
        m = models.ShiftedNormal(-1.0, 1.0)
        stats = simulate.stopping_stats(m, h=3.0, k_zeros=3, reps=400, seed=5)
        assert 0.0 <= stats.p_hat <= 1.0
        assert stats.mean_tau1 >= 1.0
        assert stats.horizon_exceeded == 0

    @pytest.mark.parametrize("change, message", [
        ({"reps": 0}, "reps must be >= 1, got 0"),
        ({"max_steps": -5}, "max_steps must be >= 1, got -5"),
        ({"max_steps": 0}, "max_steps must be >= 1, got 0"),
        ({"k_zeros": 0}, "k_zeros must be >= 1, got 0"),
        ({"k_zeros": -3}, "k_zeros must be >= 1, got -3"),
        ({"h": math.nan}, "h must be >= 0, got nan"),
        ({"h": -1.0}, "h must be >= 0, got -1"),
    ], ids=["reps", "max-steps-neg", "max-steps-0", "k-zeros-0", "k-zeros-neg",
            "h-nan", "h-neg"])
    def test_bad_arguments_refused_before_any_draw(self, change, message):
        args = dict(h=2.0, k_zeros=1, reps=5, seed=1, max_steps=100)
        args.update(change)
        with mock.patch.object(rng, "substream", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                simulate.stopping_stats(models.ShiftedNormal(-0.5, 1.0), **args)

    def test_tail_threshold_checked_before_any_draw(self):
        # lattice models draw raw words, normal ones uniforms
        with mock.patch.object(rng, "uniform_block", side_effect=AssertionError("drew")), \
                mock.patch.object(rng, "word_block", side_effect=AssertionError("drew")):
            for model in (models.BernoulliPM(0.3), models.NormalLLR(1.0)):
                with pytest.raises(ValueError, match="^h must be >= 0, got nan$"):
                    simulate.mc_tail_max(model, 10, math.nan, 100, 1)
                # the patches sit on the path a valid threshold takes
                with pytest.raises(AssertionError, match="^drew$"):
                    simulate.mc_tail_max(model, 10, 1.0, 100, 1)

    def test_horizon_warning(self):
        m = models.ShiftedNormal(-0.01, 1.0)  # long excursions
        with pytest.warns(HorizonExceeded):
            simulate.stopping_stats(
                m, h=50.0, k_zeros=1, reps=20, seed=1, max_steps=50
            )


class TestGolden:
    """Seeds reproduce bit for bit across releases.

    Digests were recorded before the Monte Carlo pipeline was rebuilt
    around IncrementModel.quantile, with numpy 2.4.6 and scipy 1.17.1
    (Philox, Generator.random and ndtri fix the bits); a mismatch under
    those releases is a bug, not a re-pin.  Each case spans several
    chunks of _TARGET_CHUNK_ELEMENTS.
    """

    @pytest.mark.parametrize(
        "model,n,reps,seed,digest",
        [
            (models.NormalLLR(1.0), 37, 60_000, 101,
             "eb2624e136fe69b90393303c9ac9c9da9c60cd35a666e9c5ab6a5d16bb7781ff"),
            (models.NormalLLR(1.0), 1000, 2_500, 102,
             "91209e958bd741c6acb4b76a0a1ee5275b67f3ada6044376dfcff3db061cf320"),
            (models.BernoulliPM(0.3), 200, 12_000, 103,
             "abd4de2d59789656e2df91b641e71d37942d1b010570603ed5f50ac28ea5b79f"),
            (TABLE5, 50, 45_000, 104,
             "7883ec61f3a2359d76a8d2919fd21f307c65c1548b48a99019de463904da6637"),
        ],
        ids=["normal-n37", "normal-n1000", "bernoulli-n200", "table5-n50"],
    )
    def test_simulate_cusum_digest(self, model, n, reps, seed, digest):
        assert reps > simulate._TARGET_CHUNK_ELEMENTS // n
        res = simulate.simulate_cusum(simulate.SimConfig(model, n, reps, seed))
        got = hashlib.sha256(res.w_final.tobytes() + res.w_max.tobytes())
        assert got.hexdigest() == digest

    @pytest.mark.parametrize(
        "model,h,k_zeros,reps,seed,max_steps,want,capped",
        [
            (models.ShiftedNormal(-0.5, 1.0), 2.0, 3, 300, 7, 100_000,
             ("0x1.0369d0369d037p-3", "0x1.3a9da3be603c6p-6",
              "0x1.04b17e4b17e4bp+1", "0x1.13f4d7ea585bbp-3"), 0),
            (TABLE5, 4.0, 3, 300, 7, 100_000,
             ("0x1.7e4b17e4b17e5p-3", "0x1.709370eb4d28bp-6",
              "0x1.4eeeeeeeeeeefp+1", "0x1.0c5d8601a2330p-2"), 0),
            (models.BernoulliPM(0.3), 2.0, 1, 200, 11, 100_000,
             ("0x1.5c28f5c28f5c3p-4", "0x1.4317503483399p-6",
              "0x1.dc28f5c28f5c3p+0", "0x1.c7a61fc40e1e8p-3"), 0),
            (models.ShiftedNormal(-0.5, 1.0), 0.0, 2, 50, 3, 100_000,
             ("0x1.0000000000000p+0", "0x0.0p+0",
              "0x1.2e147ae147ae1p+1", "0x1.457a7307ec36ap-2"), 0),
            (models.ShiftedNormal(-0.01, 1.0), 50.0, 1, 20, 1, 50,
             ("0x0.0p+0", "0x0.0p+0",
              "0x1.2333333333333p+3", "0x1.ac8fa60d30fc3p+1"), 2),
            (models.ShiftedNormal(-0.001, 1.0), 1e9, 5, 20, 4, 300,
             ("0x0.0p+0", "0x0.0p+0",
              "0x1.ca66666666666p+4", "0x1.e03cbe08b2366p+3"), 5),
        ],
        ids=["normal", "table5", "bernoulli", "h0", "capped-50", "capped-300"],
    )
    def test_stopping_stats(self, model, h, k_zeros, reps, seed, max_steps, want,
                            capped):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = simulate.stopping_stats(model, h=h, k_zeros=k_zeros, reps=reps,
                                        seed=seed, max_steps=max_steps)
        assert [w.category for w in caught] == [HorizonExceeded] * (capped > 0)
        got = (s.p_hat, s.p_stderr, s.mean_tau1, s.tau1_stderr)
        assert tuple(x.hex() for x in got) == want
        assert s.horizon_exceeded == capped


@pytest.fixture(scope="module")
def increments():
    return np.random.default_rng(0).normal(-0.2, 1.0, size=(64, 48))


class TestLindleyKernel:
    def test_numpy_path_reference_values(self, increments):
        wf, wm = simulate.lindley_block(increments)
        # scalar re-trace of the first replication
        w, m = 0.0, 0.0
        for y in increments[0]:
            w = max(w + y, 0.0)
            m = max(m, w)
        assert wf[0] == w and wm[0] == m

    def test_zero_columns(self):
        wf, wm = simulate.lindley_block(np.zeros((3, 5)))
        np.testing.assert_array_equal(wf, 0.0)
        np.testing.assert_array_equal(wm, 0.0)
