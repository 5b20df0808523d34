"""Independent reference implementations used only by the test suite."""

import math

import numpy as np


def constrained_qp_nullspace(gram: np.ndarray, zvec: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    """Minimize theta' G theta - 2 theta' z subject to <theta, d> = 0.

    Null-space elimination: parameterize the constraint hyperplane by an
    orthonormal basis Q of null(d') from the SVD, solve the reduced
    unconstrained problem, and map back. Deliberately avoids the Lagrangian
    closed form so it can certify it.
    """
    gram = np.asarray(gram, dtype=float)
    zvec = np.asarray(zvec, dtype=float)
    dvec = np.asarray(dvec, dtype=float)
    k = gram.shape[0]
    if not np.any(dvec):
        return np.linalg.solve(gram, zvec)
    _, _, vt = np.linalg.svd(dvec[None, :])
    q = vt[1:].T  # columns span null(d')
    reduced = q.T @ gram @ q
    w = np.linalg.solve(reduced, q.T @ zvec)
    return q @ w


def riemann_gram_entry(x_paths, y_paths, f, g, dt, t_norm):
    """Brute-force left-point design entry: mean over paths of sum f*g*dt / t_norm."""
    total = 0.0
    for xs, ys in zip(x_paths, y_paths):
        for xv, yv in zip(xs, ys):
            total += f(xv, yv) * g(xv, yv) * dt
    return total / (len(x_paths) * t_norm)


def quadratic_objective(system, theta: np.ndarray) -> float:
    """The empirical contrast J(theta) = theta' G theta - 2 theta' z."""
    theta = np.asarray(theta, dtype=float)
    return float(theta @ (system.gram @ theta) - 2.0 * (theta @ system.zvec))


def solve_pair(gram: np.ndarray, zvec: np.ndarray, dvec: np.ndarray) -> tuple[np.ndarray, float]:
    """(theta, lambda) of the Lagrangian closed form by dense LU solves, refined once."""

    def solve(rhs):
        sol = np.linalg.solve(gram, rhs)
        return sol + np.linalg.solve(gram, rhs - gram @ sol)

    u = solve(zvec)
    if not np.any(dvec):
        return u, 0.0
    v = solve(dvec)
    ratio = float(dvec @ u) / float(dvec @ v)
    return u - ratio * v, -2.0 * ratio


def pair_residuals(gram, zvec, dvec, theta, lam) -> dict[str, float]:
    """Constraint, optimality and KKT residuals of one fit, as criterion 5 defines them."""
    tiny = 1e-300
    g_theta = gram @ theta
    r = g_theta - zvec
    norm = np.linalg.norm
    kkt_scale = max(2.0 * norm(g_theta), 2.0 * norm(zvec), abs(lam) * norm(dvec), tiny)
    return {
        "constraint": abs(float(theta @ dvec)) / max(float(norm(theta) * norm(dvec)), tiny),
        "optimality": abs(float(theta @ r))
        / max(abs(float(theta @ g_theta)), abs(float(theta @ zvec)), tiny),
        "kkt": float(norm(2.0 * r - lam * dvec)) / float(kkt_scale),
    }


def scan_pairwise(design, n_paths, phi, psi, config):
    """The dimension scan pair by pair: a stability event and a dense solve for every pair.

    Walks every (m1, m2) of ``design.dims`` and applies the definitions
    directly, with no use of the nesting between pairs. Returns
    ``(admissible, fits, max_residuals)``: ``admissible`` maps every pair to
    its event's outcome, so its True keys are the admissible set (the True
    entries of ``DimensionScan.admissible``); ``fits`` maps each admissible pair to
    ``(theta, lambda, gamma)``.
    """
    from cpls.design import DimPair, subsystem
    from cpls.estimator import stability_event

    big = design.dims
    pairs = [DimPair(m1, m2) for m1 in range(1, big.m1 + 1) for m2 in range(1, big.m2 + 1)]
    admissible, fits = {}, {}
    max_res = {"constraint": 0.0, "optimality": 0.0, "kkt": 0.0}
    for dims in pairs:
        sub = subsystem(subsystem(design, DimPair(dims.m1, big.m2)), dims)
        admissible[dims] = stability_event(sub, n_paths, config.stability, phi, psi)
        if not admissible[dims]:
            continue
        theta, lam = solve_pair(sub.gram, sub.zvec, sub.dvec)
        fits[dims] = (theta, lam, -float(theta @ (sub.gram @ theta)))
        res = pair_residuals(sub.gram, sub.zvec, sub.dvec, theta, lam)
        max_res = {key: max(max_res[key], res[key]) for key in max_res}
    return admissible, fits, max_res


def scan_from_fits(design, phi, psi, n_paths, config, fits):
    """A :class:`cpls.selection.DimensionScan` whose arrays hold ``fits``.

    ``fits`` maps pairs of ``design.dims`` to :class:`cpls.estimator.FitResult`,
    in any order; its pairs must form a down-set, as a scan's do. Each
    fit's coefficients go into the scan's ``coef`` row in the
    ``[a-part | 0 | b-part | 0]`` layout, its contrast and multiplier into
    ``gamma`` and ``lam``; the residual maxima are left empty.
    """
    from cpls.selection import DimensionScan

    big = design.dims
    frontier = np.zeros(big.m1, dtype=int)
    gamma = np.full((big.m1, big.m2), np.nan)
    lam = np.full((big.m1, big.m2), np.nan)
    coef = np.zeros((big.m1, big.m2, big.total))
    given = np.zeros((big.m1, big.m2), dtype=bool)
    for dims, fit in fits.items():
        i, j = dims.m1 - 1, dims.m2 - 1
        given[i, j] = True
        frontier[i] = max(frontier[i], dims.m2)
        gamma[i, j], lam[i, j] = fit.gamma_value, fit.lambda_multiplier
        coef[i, j, : dims.m1] = fit.theta[: dims.m1]
        coef[i, j, big.m1 : big.m1 + dims.m2] = fit.theta[dims.m1 :]
    scan = DimensionScan(design, phi, psi, n_paths, config, frontier, gamma, lam, coef, {})
    if not np.array_equal(scan.admissible, given):
        raise ValueError("the pairs of fits are not a down-set")
    return scan


def design_pointwise(sample, phi, psi, dims, t_norm):
    """(Gram, observation vector) by a plain loop over paths and window points.

    Each point's outer product is weighted by dt as it is added, and the
    dX-sums are accumulated point by point: none of the block layout or the
    deferred dt of :func:`cpls.design.build_design`.
    """
    from cpls.bases import eval_matrix

    lo, hi, dt = sample.grid.drop_first, sample.grid.n_steps, sample.grid.dt
    k = dims.total
    gram = np.zeros((k, k))
    zvec = np.zeros(k)
    for xs, ys in zip(sample.x, sample.y):
        values = np.hstack([eval_matrix(phi, dims.m1, xs[lo:hi]), eval_matrix(psi, dims.m2, ys[lo:hi])])
        for ell in range(hi - lo):
            v = values[ell]
            gram += dt * np.outer(v, v)
            zvec += v * (xs[lo + ell + 1] - xs[lo + ell])
    scale = sample.n_paths * t_norm
    return gram / scale, zvec / scale


def empirical_norm_sq(sample, phi, psi, coeffs, dims):
    """Squared empirical norm of the expansion with coefficients ``coeffs``, path by path.

    Sums (tau(X) + nu(Y))^2 dt over each path's window points and divides
    by N times the window length T - t0, with none of the block layout of
    :func:`cpls.design.build_design`, so it checks the Gram quadratic form.
    """
    from cpls.bases import eval_matrix

    lo, hi, dt = sample.grid.drop_first, sample.grid.n_steps, sample.grid.dt
    coeffs = np.asarray(coeffs, dtype=float)
    total = 0.0
    for xs, ys in zip(sample.x, sample.y):
        values = (eval_matrix(phi, dims.m1, xs[lo:hi]) @ coeffs[: dims.m1]
                  + eval_matrix(psi, dims.m2, ys[lo:hi]) @ coeffs[dims.m1 :])
        total += dt * float(values @ values)
    return total / (sample.n_paths * (sample.grid.total_time - sample.grid.t0))


def box_errors_by_quadrature(scan, truth, bounds):
    """Box-restricted squared errors (a-part, b-part) of every fitted pair, node by node.

    Evaluates each fitted curve on the Simpson nodes of the box and sums the
    weighted squared residuals, one matrix product per m1 and component: the
    direct definition that :func:`cpls.experiments.mse_box` reads off a
    QR factor instead. Returns two M1 x M2 arrays, NaN where a pair is not
    admissible.
    """
    from cpls.bases import eval_matrix, simpson_grid
    from cpls.experiments import MSE_NODES

    xg, wx = simpson_grid(bounds.a_x, bounds.b_x, MSE_NODES)
    yg, wy = simpson_grid(bounds.a_y, bounds.b_y, MSE_NODES)
    big = scan.dims
    bx = eval_matrix(scan.phi, big.m1, xg)
    by = eval_matrix(scan.psi, big.m2, yg)
    a_true = np.asarray(truth.a(xg), dtype=float)
    b_true = np.asarray(truth.b(yg), dtype=float)
    err_a = np.full((big.m1, big.m2), np.nan)
    err_b = np.full((big.m1, big.m2), np.nan)
    for m1, top in enumerate(scan.frontier.tolist(), 1):
        if top == 0:
            continue
        fits = [scan.fit_at(m1, m2) for m2 in range(1, top + 1)]
        theta_a = np.column_stack([fit.theta[:m1] for fit in fits])
        theta_b = np.zeros((big.m2, top))
        for j, fit in enumerate(fits):
            theta_b[: j + 1, j] = fit.theta[m1:]
        ra = bx[:, :m1] @ theta_a - a_true[:, None]
        rb = by @ theta_b - b_true[:, None]
        # einsum, not a BLAS product: its sums do not depend on the thread count
        err_a[m1 - 1, :top] = np.einsum("i,ij->j", wx, ra * ra)
        err_b[m1 - 1, :top] = np.einsum("i,ij->j", wy, rb * rb)
    return err_a, err_b


def hermite_rows_unflushed(m: int, x) -> np.ndarray:
    """Hermite functions h_0 ... h_{m-1} by the plain recurrence, with no zero tail.

    The operation order is that of ``cpls.bases``, so inside the tail cut the
    values agree bit for bit; far out they are tiny, and subnormal until the
    exponential underflows.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((m,) + x.shape)
    rows[0] = np.exp(-0.5 * x * x) * math.pi ** -0.25
    if m > 1:
        rows[1] = math.sqrt(2.0) * x * rows[0]
    for k in range(1, m - 1):
        rows[k + 1] = x * math.sqrt(2.0 / (k + 1)) * rows[k] - rows[k - 1] * math.sqrt(k / (k + 1))
    return rows


def hermite_log10_max(m: int, x) -> np.ndarray:
    """log10 of max_{k < m} |h_k(x)|, from a recurrence that cannot underflow.

    The pair (h_{k-1}, h_k) is carried in units of 10**scale and renormalized
    at every step, so no value leaves the normal range at any x.
    """
    x = np.asarray(x, dtype=float)
    scale = -0.5 * x * x / math.log(10.0) - 0.25 * math.log10(math.pi)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    best = scale.copy()
    with np.errstate(divide="ignore"):
        for k in range(m - 1):
            prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
            size = np.maximum(np.abs(prev), np.abs(cur))
            prev, cur, scale = prev / size, cur / size, scale + np.log10(size)
            best = np.maximum(best, np.log10(np.abs(cur)) + scale)
    return best
