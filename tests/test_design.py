import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpls import bases, design
from cpls.bases import HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST, eval_matrix, eval_rows
from cpls.design import DesignSystem, DimPair, build_design, build_prefix_designs, inv_opnorm, subsystem
from cpls.estimator import StabilityRule, stability_event
from cpls.simulate import GridSpec, PathSample

from conftest import forced_small_hull, make_sample
from oracles import design_pointwise, empirical_norm_sq, hermite_rows_unflushed

FAMILIES = [HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST]


class TestDimPair:
    def test_validation(self):
        assert DimPair(2, 3).total == 5
        assert DimPair(1, 1).total == 2
        for m1, m2 in [(1, 0), (0, 1), (0, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                DimPair(m1, m2)

    def test_exceeding_paths_rejected(self, small_sample):
        with pytest.raises(ValueError):
            build_design(small_sample, TRIG, TRIG, DimPair(4, 2))


class TestAssembleGram:
    def test_constant_path_laguerre(self):
        # X constant at c and Y at 0: the integrands l_0(X)^2, l_0(X) * 1 and
        # 1 are constant in time, so the gram is exactly
        # [[2 e^{-2c}, sqrt(2) e^{-c}], [sqrt(2) e^{-c}, 1]] (window
        # normalizer T - t0 cancels).
        c = 0.7
        grid = GridSpec(n_steps=6, dt=0.25, drop_first=0)
        sample = make_sample(grid, np.full((2, 7), c), np.zeros((2, 7)))
        gram = build_design(sample, LAGUERRE, TRIG, DimPair(1, 1)).gram
        cross = math.sqrt(2.0) * math.exp(-c)
        np.testing.assert_allclose(gram, [[2.0 * math.exp(-2 * c), cross], [cross, 1.0]], rtol=1e-12)

    def test_hand_computed_two_step_grid(self):
        # 2 paths, 3 grid points, drop_first = 0: left-point sums by hand
        grid = GridSpec(n_steps=2, dt=0.5, drop_first=0)
        x = np.array([[0.1, 0.4, 0.2], [0.8, 0.5, 0.9]])
        y = np.array([[0.3, 0.6, 0.1], [0.2, 0.7, 0.5]])
        sample = make_sample(grid, x, y)
        dims = DimPair(2, 1)
        gram = build_design(sample, TRIG, TRIG_NO_CONST, dims).gram
        t_norm = 2 * 0.5  # T - t0 = 1.0
        k = dims.total
        expected = np.zeros((k, k))
        for i in range(2):
            for ell in range(2):
                v = np.concatenate([
                    eval_matrix(TRIG, 2, x[i, ell]),
                    eval_matrix(TRIG_NO_CONST, 1, y[i, ell]),
                ])
                expected += np.outer(v, v) * 0.5
        expected /= 2 * t_norm
        np.testing.assert_allclose(gram, expected, atol=1e-14)

    def test_quadratic_form_equals_empirical_norm(self, small_sample):
        dims = DimPair(3, 2)
        gram = build_design(small_sample, TRIG, TRIG_NO_CONST, dims).gram
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = rng.standard_normal(dims.total)
            direct = empirical_norm_sq(small_sample, TRIG, TRIG_NO_CONST, coeffs, dims)
            assert coeffs @ gram @ coeffs == pytest.approx(direct, abs=1e-10, rel=1e-10)

    def test_symmetry_and_psd(self, small_sample):
        gram = build_design(small_sample, TRIG, TRIG_NO_CONST, DimPair(3, 3)).gram
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_nested_subblock_identity(self, small_sample):
        big = build_design(small_sample, TRIG, TRIG_NO_CONST, DimPair(3, 3))
        for m1, m2 in [(1, 1), (2, 3), (3, 1), (1, 2)]:
            sub = subsystem(big, DimPair(m1, m2))
            direct_gram = build_design(small_sample, TRIG, TRIG_NO_CONST, DimPair(m1, m2)).gram
            direct_z = build_design(small_sample, TRIG, TRIG_NO_CONST, DimPair(m1, m2)).zvec
            np.testing.assert_allclose(sub.gram, direct_gram, atol=1e-12)
            np.testing.assert_allclose(sub.zvec, direct_z, atol=1e-12)


class TestAssembleZ:
    def test_zero_increments_give_zero_vector(self):
        grid = GridSpec(n_steps=3, dt=0.5, drop_first=0)
        sample = make_sample(grid, np.full((2, 4), 0.3), np.random.default_rng(1).random((2, 4)))
        z = build_design(sample, TRIG, TRIG_NO_CONST, DimPair(2, 2)).zvec
        np.testing.assert_array_equal(z, np.zeros(4))

    def test_single_path_hand_sum(self):
        grid = GridSpec(n_steps=2, dt=0.5, drop_first=0)
        x = np.array([[0.2, 0.7, 0.4]])
        y = np.array([[0.5, 0.1, 0.9]])
        sample = make_sample(grid, x, y)
        z = build_design(sample, TRIG, TRIG_NO_CONST, DimPair(1, 1)).zvec
        t_norm = 1.0
        expected_x = (1.0 * (0.7 - 0.2) + 1.0 * (0.4 - 0.7)) / t_norm
        psi_1 = [math.sqrt(2.0) * math.cos(2 * math.pi * y_l) for y_l in (0.5, 0.1)]
        expected_y = (psi_1[0] * (0.7 - 0.2) + psi_1[1] * (0.4 - 0.7)) / t_norm
        assert z[0] == pytest.approx(expected_x, abs=1e-14)
        assert z[1] == pytest.approx(expected_y, abs=1e-14)

    def test_linear_in_increments(self, toy_grid):
        # bumping only the final observation changes only the last increment,
        # so the z-vector moves by basis(last left point) * bump / (N T0)
        rng = np.random.default_rng(3)
        base = 0.1 + 0.8 * rng.random((2, 5))
        y = 0.1 + 0.8 * rng.random((2, 5))
        bumped = base.copy()
        bumped[0, -1] += 0.05
        s1 = make_sample(toy_grid, base, y)
        s2 = make_sample(toy_grid, bumped, y)
        dims = DimPair(2, 1)
        z1 = build_design(s1, TRIG, TRIG_NO_CONST, dims).zvec
        z2 = build_design(s2, TRIG, TRIG_NO_CONST, dims).zvec
        t_norm = toy_grid.total_time - toy_grid.t0
        v_last = np.concatenate([
            eval_matrix(TRIG, 2, base[0, -2]),
            eval_matrix(TRIG_NO_CONST, 1, y[0, -2]),
        ])
        np.testing.assert_allclose(z2 - z1, v_last * 0.05 / (2 * t_norm), atol=1e-14)

    def test_unbiasedness_against_empirical_inner_product(self):
        # E(Z) equals the empirical inner products of the basis with the true
        # drift pair; the martingale part has conditional mean zero, so over
        # many small samples the average gap shrinks at the MC rate.
        from cpls.simulate import explanatory_by_name, generate_sample, make_model

        grid = GridSpec(n_steps=40, dt=0.05, drop_first=4)
        model = make_model(3)
        spec = explanatory_by_name("B")
        dims = DimPair(3, 2)
        n_rep = 1000
        gaps = np.zeros((n_rep, dims.total))
        for r in range(n_rep):
            s = generate_sample(model, spec, grid, 3, seed=10_000 + r)
            z = build_design(s, HERMITE, HERMITE, dims).zvec
            # inner product of each basis member with (a, b) under the same
            # left-point rule: sum_l v(s_l) (a(X_l) + b(Y_l)) dt / (N T0)
            lo, hi = grid.drop_first, grid.n_steps
            drift = model.a(s.x[:, lo:hi]) + model.b(s.y[:, lo:hi])
            vx = eval_matrix(HERMITE, dims.m1, s.x[:, lo:hi].ravel())
            vy = eval_matrix(HERMITE, dims.m2, s.y[:, lo:hi].ravel())
            v = np.hstack([vx, vy])
            ip = v.T @ (drift.ravel() * grid.dt) / (3 * (grid.total_time - grid.t0))
            gaps[r] = z - ip
        mean_gap = gaps.mean(axis=0)
        se = gaps.std(axis=0, ddof=1) / math.sqrt(n_rep)
        assert np.all(np.abs(mean_gap) <= 3 * se + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_paths=st.integers(1, 3 * design._PATH_BLOCK + 5),
    n_window=st.integers(1, 6),
    drop=st.integers(0, 2),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    phi=st.sampled_from(FAMILIES),
    psi=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_assembly_matches_pointwise_reference(n_paths, n_window, drop, m1, m2, phi, psi, seed):
    # Path counts below, at and between multiples of the block size; values
    # on both sides of every support's edges, so each family's zero
    # convention shows.
    m1, m2 = min(m1, n_paths), min(m2, n_paths)
    grid = GridSpec(n_steps=drop + n_window, dt=0.05, drop_first=drop)
    rng = np.random.default_rng(seed)
    shape = (n_paths, grid.n_steps + 1)
    sample = make_sample(grid, rng.uniform(-1.5, 3.0, shape), rng.uniform(-1.5, 3.0, shape))
    dims = DimPair(m1, m2)
    got = build_design(sample, phi, psi, dims)
    gram, zvec = design_pointwise(sample, phi, psi, dims, got.t_norm)
    np.testing.assert_array_equal(got.gram, got.gram.T)
    assert np.abs(got.gram - gram).max() <= 1e-13 * np.abs(gram).max()
    # The dX-sums may cancel, so their rounding is measured against the
    # Cauchy-Schwarz bound of the sum of |v_p dX| (over N T0), not against |z|.
    dx = np.diff(sample.x[:, drop:], axis=1)
    z_scale = np.sqrt(np.diag(gram).max() * np.sum(dx * dx) / (grid.dt * n_paths * got.t_norm))
    assert np.abs(got.zvec - zvec).max() <= 1e-13 * max(z_scale, 1e-300)


_COUNT = st.one_of(
    st.integers(1, design._PATH_BLOCK - 1),  # inside the first block
    st.sampled_from([design._PATH_BLOCK * j for j in (1, 2, 3)]),  # at a block boundary
    st.integers(design._PATH_BLOCK + 1, 3 * design._PATH_BLOCK + 5),  # inside a later block
)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(_COUNT, min_size=1, max_size=4, unique=True).map(sorted),
    extra=st.integers(0, design._PATH_BLOCK + 3),
    n_window=st.integers(1, 6),
    drop=st.integers(0, 2),
    m1=st.integers(1, 5),
    m2=st.integers(1, 5),
    phi=st.sampled_from(FAMILIES),
    psi=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_designs_equal_designs_of_prefix_samples(counts, extra, n_window, drop, m1, m2, phi, psi, seed):
    # One pass checkpointed at each count, below a block, at a block
    # boundary or inside a block, gives bitwise the design of the sample's
    # first n paths; paths after the last count are never read.
    m1, m2 = min(m1, counts[0]), min(m2, counts[0])
    grid = GridSpec(n_steps=drop + n_window, dt=0.05, drop_first=drop)
    rng = np.random.default_rng(seed)
    shape = (counts[-1] + extra, grid.n_steps + 1)
    sample = make_sample(grid, rng.uniform(-1.5, 3.0, shape), rng.uniform(-1.5, 3.0, shape))
    dims = DimPair(m1, m2)
    t_norm = grid.total_time
    got = build_prefix_designs(sample, phi, psi, dims, counts, t_norm)
    assert len(got) == len(counts)
    for n, system in zip(counts, got):
        prefix = make_sample(grid, sample.x[:n], sample.y[:n])
        ref = build_design(prefix, phi, psi, dims, t_norm)
        np.testing.assert_array_equal(system.gram, ref.gram)
        np.testing.assert_array_equal(system.zvec, ref.zvec)
        np.testing.assert_array_equal(system.dvec, ref.dvec)
        assert system.t_norm == ref.t_norm


def test_prefix_designs_at_the_benchmark_size():
    # The table1 case, N = 400 (a block boundary, 25 x 16) checkpointed in
    # the N = 1000 pass (62 x 16 + 8), and a count inside a block
    # (407 = 25 x 16 + 7), at the default 39 x 39 bound, where the BLAS
    # blocks its products.
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    sample = generate_sample(make_model(2), explanatory_by_name("A"), GridSpec(), 1000, seed=4)
    dims = DimPair(39, 39)
    counts = (64, 400, 407, 1000)
    for n, system in zip(counts, build_prefix_designs(sample, HERMITE, HERMITE, dims, counts)):
        prefix = generate_sample(make_model(2), explanatory_by_name("A"), GridSpec(), n, seed=4)
        ref = build_design(prefix, HERMITE, HERMITE, dims)
        np.testing.assert_array_equal(system.gram, ref.gram)
        np.testing.assert_array_equal(system.zvec, ref.zvec)


def test_trimmed_prefix_designs_are_standalone():
    # A model 3 x Y (B) pass trimmed after its first 128 paths, checkpointed
    # inside the block in flight at the decision (130), inside the first
    # trimmed block (150), at a block boundary (400) and at the end: each
    # design is bitwise the trimmed design of its prefix alone, and only the
    # one of at most 144 paths spans the full dimensions.
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    sample = generate_sample(make_model(3), explanatory_by_name("B"), GridSpec(), 1000, seed=4)
    dims = DimPair(39, 39)
    counts = (130, 150, 400, 1000)
    got = design.build_trimmed_designs(sample, HERMITE, HERMITE, dims, counts)
    assert got[0].dims == dims and len({d.dims for d in got[1:]}) == 1 and got[1].dims.m2 < dims.m2
    for n, system in zip(counts, got):
        prefix = make_sample(sample.grid, sample.x[:n], sample.y[:n])
        (ref,) = design.build_trimmed_designs(prefix, HERMITE, HERMITE, dims, (n,))
        assert system.dims == ref.dims
        np.testing.assert_array_equal(system.gram, ref.gram)
        np.testing.assert_array_equal(system.zvec, ref.zvec)
        np.testing.assert_array_equal(system.dvec, ref.dvec)
        full = subsystem(build_design(prefix, HERMITE, HERMITE, dims), system.dims)
        np.testing.assert_allclose(system.gram, full.gram, rtol=0, atol=1e-12 * np.abs(full.gram).max())
        np.testing.assert_allclose(system.zvec, full.zvec, rtol=0, atol=1e-12 * np.abs(full.zvec).max())


@pytest.mark.parametrize("forced_fallback", [False, True])
def test_stream_designs_equal_the_sample_designs(monkeypatch, forced_fallback):
    # The trimmed pass over a stream of 600 paths, checkpointed inside the
    # block in flight at the decision (130), at the first chunk's edge
    # (256), inside the first block of the second chunk (260), at the
    # second edge (512) and inside the short last chunk (600): each design
    # is bitwise that of the whole sample. With the hull forced too small,
    # every cut fails its certificate and the fallback pass simulates the
    # stream's chunks again.
    from cpls.simulate import CHUNK_PATHS, PathStream, explanatory_by_name, generate_sample, make_model

    assert CHUNK_PATHS == 256
    if forced_fallback:
        forced_small_hull(monkeypatch)
    model, spec = make_model(3), explanatory_by_name("B")
    sample = generate_sample(model, spec, GridSpec(), 600, seed=4)
    stream = PathStream(model, spec, GridSpec(), 600, seed=4)
    passes = []
    real_chunks = stream.chunks

    def counting_chunks(stop=None):
        passes.append(stop)
        return real_chunks(stop)

    stream.chunks = counting_chunks
    dims = DimPair(39, 39)
    counts = (130, 256, 260, 512, 600)
    want = design.build_trimmed_designs(sample, HERMITE, HERMITE, dims, counts)
    got = design.build_trimmed_designs(stream, HERMITE, HERMITE, dims, counts)
    assert passes == ([600, 600] if forced_fallback else [600])
    assert got[0].dims == dims and (got[-1].dims == dims) == forced_fallback
    for system, ref in zip(got, want):
        assert system.dims == ref.dims
        np.testing.assert_array_equal(system.gram, ref.gram)
        np.testing.assert_array_equal(system.zvec, ref.zvec)
        np.testing.assert_array_equal(system.dvec, ref.dvec)


@settings(max_examples=200, deadline=None)
@given(
    n_paths=st.integers(2, 10**9),
    m1=st.integers(1, 20),
    m2=st.integers(1, 20),
    exponent=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_default_practical_event_is_the_eigenvalue_floor(n_paths, m1, m2, exponent, seed):
    # The trimmed builder certifies its cut on the floor of inv_opnorm alone.
    # Under the default practical rule the stability event passes exactly
    # when the floor does, at every N, so the certificate decides as the
    # scan's event would. The smallest eigenvalue straddles the floor 1e-12 k.
    k = m1 + m2
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = np.concatenate([[1e-12 * k * 10.0**exponent], rng.uniform(1e-3, 10.0, k - 1)])
    gram = (q * lam) @ q.T
    system = DesignSystem(DimPair(m1, m2), 0.5 * (gram + gram.T), np.zeros(k), np.zeros(k), 1.0)
    passes = stability_event(system, n_paths, StabilityRule(), HERMITE, HERMITE)
    assert passes == math.isfinite(inv_opnorm(system.gram))


@pytest.mark.parametrize("model_id, y_type", [(1, "B"), (3, "A"), (3, "B")])
def test_trimmed_designs_fail_the_floor_at_the_cut(model_id, y_type):
    # Every cut design the builder returns fails the floor at its pairs
    # (E1, 1) if E1 < 39 and (1, E2) if E2 < 39, so, the floor's passing
    # pairs being a down-set, no pair past the cut is admissible.
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    dims = DimPair(39, 39)
    sides = 0
    for seed in range(3):
        sample = generate_sample(make_model(model_id), explanatory_by_name(y_type), GridSpec(), 1000, seed=seed)
        for system in design.build_trimmed_designs(sample, HERMITE, HERMITE, dims, (400, 1000)):
            e1, e2 = system.dims
            for cut, pair in [(e1 < dims.m1, DimPair(e1, 1)), (e2 < dims.m2, DimPair(1, e2))]:
                if cut:
                    assert inv_opnorm(subsystem(system, pair).gram) == math.inf, (seed, system.dims)
                    sides += 1
    assert sides > 0


def test_failed_certificate_gives_the_full_designs(monkeypatch):
    # With the hull forced too small, the pass cuts every design past its
    # first 144 paths to (10, 10), each fails the certificate, and the
    # builder returns instead the full design of each prefix, bit for bit.
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    forced_small_hull(monkeypatch)
    sample = generate_sample(make_model(3), explanatory_by_name("B"), GridSpec(), 1000, seed=4)
    dims = DimPair(39, 39)
    counts = (130, 150, 400, 1000)
    cut = design._designs(sample, HERMITE, HERMITE, dims, counts, None, trim=True)
    assert [d.dims for d in cut] == [dims] + [DimPair(10, 10)] * 3
    for n, system in zip(counts, design.build_trimmed_designs(sample, HERMITE, HERMITE, dims, counts)):
        ref = build_design(make_sample(sample.grid, sample.x[:n], sample.y[:n]), HERMITE, HERMITE, dims)
        assert system.dims == dims
        np.testing.assert_array_equal(system.gram, ref.gram)
        np.testing.assert_array_equal(system.zvec, ref.zvec)
        np.testing.assert_array_equal(system.dvec, ref.dvec)


def _design_in_block_order(sample, phi, psi, dims, t_norm, evaluate=eval_rows):
    # One thread, no reused buffer: each block's product added in block order.
    # The block has the pass's zero rows below the k + 1 it needs, as the
    # BLAS may sum an entry differently in a product of another row count.
    # ``evaluate(family, m, x)`` gives the basis rows.
    lo, hi, n = sample.grid.drop_first, sample.grid.n_steps, sample.n_paths
    k = dims.total
    padding = design._block_rows(k + 1) - (k + 1)
    sums = np.zeros((k + 1, k + 1))
    for start in range(0, n, design._PATH_BLOCK):
        rows = slice(start, start + design._PATH_BLOCK)
        x = sample.x[rows, lo:hi].ravel()
        block = np.vstack([
            evaluate(phi, dims.m1, x),
            evaluate(psi, dims.m2, sample.y[rows, lo:hi].ravel()),
            np.diff(sample.x[rows, lo : hi + 1], axis=1).ravel(),
            np.zeros((padding, x.size)),
        ])
        sums += (block @ block.T)[: k + 1, : k + 1]
    gram = sample.grid.dt * sums[:k, :k] / (n * t_norm)
    return 0.5 * (gram + gram.T), sums[:k, k] / (n * t_norm)


def _benchmark_sample(n_paths, seed):
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    return generate_sample(make_model(3), explanatory_by_name("B"), GridSpec(), n_paths, seed=seed)


def test_design_sums_blocks_in_order():
    # The helper thread's products are added in block order, so the design
    # has the bits of the one-thread loop; 200 = 12 x 16 + 8 ends in a
    # partial block.
    assert design._PATH_BLOCK == 16
    sample = _benchmark_sample(200, seed=6)
    dims = DimPair(39, 39)
    got = build_design(sample, HERMITE, HERMITE, dims)
    gram, zvec = _design_in_block_order(sample, HERMITE, HERMITE, dims, got.t_norm)
    np.testing.assert_array_equal(got.gram, gram)
    np.testing.assert_array_equal(got.zvec, zvec)


def test_hermite_zero_tail_keeps_the_design_bits():
    # About 30 % of a Y (A) sample lies beyond |y| = 26.6, where the plain
    # Hermite recurrence gives subnormal-sized values and cpls.bases gives
    # zeros; the 80-row design (79 rows padded) keeps the plain rows' bits.
    from cpls.simulate import explanatory_by_name, generate_sample, make_model

    sample = generate_sample(make_model(2), explanatory_by_name("A"), GridSpec(), 400, seed=7)
    lo, hi = sample.grid.drop_first, sample.grid.n_steps
    assert np.mean(np.abs(sample.y[:, lo:hi]) > bases._HERMITE_TAIL) > 0.2
    dims = DimPair(39, 39)
    assert design._block_rows(dims.total + 1) == 80
    got = build_design(sample, HERMITE, HERMITE, dims)
    gram, zvec = _design_in_block_order(
        sample, HERMITE, HERMITE, dims, got.t_norm, lambda family, m, x: hermite_rows_unflushed(m, x)
    )
    np.testing.assert_array_equal(got.gram, gram)
    np.testing.assert_array_equal(got.zvec, zvec)


def test_concurrent_designs_equal_lone_designs():
    # More calling threads than cores, each with its own helper, switching
    # often: every design keeps the bits of a call made alone.
    samples = [_benchmark_sample(40 + 9 * i, seed=i) for i in range(4)]
    dims = DimPair(12, 12)
    lone = [build_design(s, HERMITE, TRIG, dims) for s in samples]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(samples)) as pool:
            futures = [pool.submit(build_design, s, HERMITE, TRIG, dims) for s in samples for _ in range(3)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        ref = lone[i // 3]
        np.testing.assert_array_equal(got.gram, ref.gram)
        np.testing.assert_array_equal(got.zvec, ref.zvec)


@pytest.mark.parametrize("counts", [(), (5, 5), (6, 4), (4, 13)])
def test_prefix_counts_must_increase_within_the_sample(small_sample, counts):
    sample = make_sample(small_sample.grid, np.tile(small_sample.x, (4, 1)), np.tile(small_sample.y, (4, 1)))
    with pytest.raises(ValueError):
        build_prefix_designs(sample, TRIG, TRIG_NO_CONST, DimPair(1, 1), counts)


_DESIGN_CHILD = """
import hashlib
from cpls.bases import HERMITE
from cpls.design import DimPair, build_design
from cpls.simulate import GridSpec, explanatory_by_name, generate_sample, make_model

sample = generate_sample(make_model(3), explanatory_by_name("B"), GridSpec(), 1000, seed=5)
system = build_design(sample, HERMITE, HERMITE, DimPair(39, 39))
print(hashlib.sha256(system.gram.tobytes() + system.zvec.tobytes()).hexdigest())
"""


def test_design_independent_of_blas_threads():
    # One product per path block gives the Gram and the dX-sums; the BLAS
    # splits that product over its threads, and a thread count is read when
    # a process loads the BLAS, hence one child process per count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _DESIGN_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 1
    assert outputs[0] == outputs[1]


class TestEmpiricalNorm:
    def test_zero_coeffs(self, small_sample):
        assert empirical_norm_sq(small_sample, TRIG, TRIG_NO_CONST, np.zeros(3), DimPair(2, 1)) == 0.0

    def test_constant_function_norm_is_one(self):
        # tau = phi_1 = 1 on [0,1], nu = 0: the time average of 1 over the
        # window is exactly 1 under the window normalizer
        grid = GridSpec(n_steps=8, dt=0.125, drop_first=2)
        rng = np.random.default_rng(2)
        sample = make_sample(grid, rng.random((3, 9)), rng.random((3, 9)))
        val = empirical_norm_sq(sample, TRIG, TRIG_NO_CONST, np.array([1.0, 0.0]), DimPair(1, 1))
        assert val == pytest.approx(1.0, abs=1e-12)


class TestInvOpnorm:
    def test_identity(self):
        assert inv_opnorm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert inv_opnorm(np.diag([4.0, 0.25])) == pytest.approx(4.0)

    def test_random_spd_matches_explicit_inverse(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        spd = a @ a.T + 0.5 * np.eye(6)
        direct = np.linalg.norm(np.linalg.inv(spd), ord=2)
        assert inv_opnorm(spd) == pytest.approx(direct, rel=1e-8)

    def test_singular_sentinel(self):
        gram = np.zeros((3, 3))
        assert inv_opnorm(gram) == math.inf
        near = np.diag([1.0, 1.0, 1e-14])
        assert inv_opnorm(near) == math.inf
