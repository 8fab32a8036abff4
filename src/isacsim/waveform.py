"""Joint communication/sensing transmit waveform design.

Contains the weighted mutual-information covariance optimizer and three
constrained least-squares block designs: exact radar-covariance matching,
the Pareto trade-off under a total-energy constraint, and its per-antenna
and constant-modulus variants.
"""

import numpy as np

from .capacity import _LN2, _from_eigs, _logdet_bits, _psd_factor, _water_level, comm_capacity, require_psd
from .channel import NoiseSpec
from .sensing import _modes_capacity, _probing_modes

_RUNGS = 2  # line-search steps projected and scored together in each round of optimize_weighted_mi


class ConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap; `best` holds the last iterate."""

    def __init__(self, message, best=None, iterations=None, last_change=None):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.last_change = last_change


_UNREACHABLE = "energy target unreachable from a zero stationary solution"
_SETTLED = 1.0 + 2.0 * np.finfo(float).eps  # a secular Newton lane stops once psi / energy is at most this


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("trade-off weight must lie in [0, 1]")
    return rho


def interference_power(xc: np.ndarray, hc: np.ndarray, c: np.ndarray) -> float:
    """Residual power ||Hc Xc - C||_F^2 seen by the communication receiver."""
    xc, hc, c = (np.asarray(a, dtype=complex) for a in (xc, hc, c))
    if hc.shape[1] != xc.shape[0] or hc.shape[0] != c.shape[0] or xc.shape[1] != c.shape[1]:
        raise ValueError("channel, waveform and symbol block dimensions do not conform")
    return float(np.linalg.norm(hc @ xc - c, "fro") ** 2)


def _weighted_mi_terms(hc, f, rho, noise, t, n_s, comm_norm, sens_norm):
    """(objective, gradient) of the unchecked weighted objective, f the covariance factor (Q_h = F F^H),
    with the identities and conjugate transposes built once.  objective(q) -> (value, comm) for a
    covariance or a stack, comm = I + Hc Q Hc^H / sigma^2 (None at rho = 0); gradient(q, comm)."""
    m = hc.shape[1]
    hh, eye_c = hc.conj().T, np.eye(hc.shape[0])
    if rho > 0:
        comm_w = rho / (comm_norm * _LN2 * noise.variance)
    if rho < 1:
        fh, eye_s = f.conj().T, np.eye(f.shape[1])
        sens_w = (1.0 - rho) * n_s / (sens_norm * _LN2 * noise.variance)

    def objective(q):
        value, comm = 0.0, None
        if rho > 0:
            comm = eye_c + hc @ q @ hh / noise.variance
            value += rho / comm_norm * _logdet_bits(comm)
        if rho < 1:  # (N/T) log2 det(I + F^H (T Q) F / sigma^2), the sensing MI at X^H X = T Q
            value += (1.0 - rho) / sens_norm * (n_s / t * _logdet_bits(eye_s + fh @ (t * q) @ f / noise.variance))
        return value, comm

    def gradient(q, comm):
        g = np.zeros((m, m), dtype=complex)
        if rho > 0:
            g += comm_w * (hh @ np.linalg.inv(comm) @ hc)
        if rho < 1:  # t (F^H Q F), not F^H (t Q) F as in the objective: the two round differently
            g += sens_w * (f @ np.linalg.inv(eye_s + t * (fh @ q @ f) / noise.variance) @ fh)
        return (g + g.conj().T) / 2

    return objective, gradient


def _check_normalizers(rho, comm_norm, sens_norm):
    if rho > 0 and comm_norm <= 0:
        raise ValueError("communication normalizer must be > 0")
    if rho < 1 and sens_norm <= 0:
        raise ValueError("sensing normalizer must be > 0")


def weighted_mi_objective(
    q: np.ndarray,
    hc: np.ndarray,
    qh: np.ndarray,
    rho: float,
    noise: NoiseSpec,
    t: int,
    n_s: int,
    comm_norm: float,
    sens_norm: float,
) -> float:
    """Normalized weighted sum of communication and sensing mutual information.

    The single optimization variable is the transmit covariance Q; the sensing
    term identifies the probing Gram matrix as X^H X = T*Q so both terms are
    functions of Q.  `comm_norm` and `sens_norm` are the single-objective
    capacities used as normalizers, supplied explicitly by the caller.
    """
    rho = _check_rho(rho)
    q = np.asarray(q, dtype=complex)
    require_psd(q, "transmit covariance")
    _check_normalizers(rho, comm_norm, sens_norm)
    f = _psd_factor(qh, "channel covariance") if rho < 1 else None
    objective = _weighted_mi_terms(np.asarray(hc, dtype=complex), f, rho, noise, t, n_s, comm_norm, sens_norm)[0]
    return float(objective(q)[0])


def _project_psd_trace(q: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {Q Hermitian PSD, trace(Q) <= budget} of a matrix, or of each of a stack."""
    vals, vecs = np.linalg.eigh((q + q.conj().swapaxes(-2, -1)) / 2)
    clipped = np.maximum(vals, 0.0)
    over = clipped.sum(axis=-1) > budget
    if over.any():  # water-fill the floors -vals of the lanes over budget; a lane's level is its own
        filled = np.maximum(vals + _water_level(-vals[..., ::-1], budget)[..., None], 0.0)
        clipped = np.where(over[..., None], filled, clipped)
    return _from_eigs(vecs, clipped)


def optimize_weighted_mi(
    hc: np.ndarray,
    qh: np.ndarray,
    rho: float,
    budget: float,
    noise: NoiseSpec,
    t: int,
    n_s: int,
    max_iter: int = 10_000,
    grad_tol: float = 1e-6,
):
    """Maximize the weighted mutual-information objective over the covariance.

    Projected gradient ascent on the PSD trace-ball with backtracking line
    search.  Terminates when the projected-gradient mapping (unit probe step)
    has Frobenius norm below `grad_tol`; hitting the iteration cap first
    raises ConvergenceError with the last iterate attached.  The line search
    tries s, s/2, s/4, ... down to 1e-18 in rounds of _RUNGS steps, each round
    projected (with the unit step first) and scored as one stack, lane by lane,
    so the iterates are those of a one-step-at-a-time search to the bit.

    Returns (covariance, objective_value, normalizers) where normalizers is
    the (comm, sensing) capacity pair used for scaling.  Q_h is checked and
    decomposed once, for both the sensing normalizer and the factor F, and each
    gradient inverts the I + Hc Q Hc^H / sigma^2 that scored its iterate.
    """
    rho = _check_rho(rho)
    hc = np.asarray(hc, dtype=complex)
    qh = np.asarray(qh, dtype=complex)
    if not budget > 0:  # NaN too
        raise ValueError("power budget must be > 0")
    m = hc.shape[1]
    comm_norm = comm_capacity(hc, budget, noise).bits_per_symbol if rho > 0 else 1.0
    sens_norm, f = 1.0, None
    if rho < 1:
        vals, vecs = _probing_modes(qh, t)
        sens_norm = _modes_capacity(vals, n_s, t, budget, noise).bits_per_transmission
        f = vecs * np.sqrt(vals)  # _psd_factor's F from the same eigenpairs
    _check_normalizers(rho, comm_norm, sens_norm)
    terms, gradient = _weighted_mi_terms(hc, f, rho, noise, t, n_s, comm_norm, sens_norm)

    def objective(qs):  # one Python float per lane of the stack qs, and the lanes' comm matrices
        values, comms = terms(qs)
        return values.tolist(), (comms if rho > 0 else [None] * len(qs))

    def project(s, unit=False):  # the projections of q + r g for r = s, s/2, ... (after r = 1 if unit)
        rungs = np.array([1.0] * unit + [s * 0.5**k for k in range(_RUNGS)])[:, None, None]
        return _project_psd_trace(np.where(rungs == 1.0, q + g, q + rungs * g), budget)  # 1.0 * g may flip a -0.0

    def search(s, cands):  # (r, projection, objective, comm matrix) for r = s, s/2, s/4, ..., a stacked round at a time
        while True:
            yield from zip([s * 0.5**k for k in range(_RUNGS)], cands, *objective(cands))
            s *= 0.5**_RUNGS
            cands = project(s)

    q = budget / m * np.eye(m, dtype=complex)
    (obj,), (comm,) = objective(q[None])
    step = 1.0
    gap = np.inf
    for _ in range(max_iter):
        g = gradient(q, comm)
        cands = project(step, unit=step != 1.0)  # lane 0 is the unit step, the first rung itself at step 1
        gap = float(_norm(cands[0] - q))
        if gap < grad_tol:
            return q, obj, (comm_norm, sens_norm)
        for s, cand, cand_obj, cand_comm in search(step, cands[int(step != 1.0):]):
            if s < 1e-18:  # no step passed; step never starts below 1e-18
                break
            if cand_obj >= obj + 1e-4 * float(np.vdot(g, cand - q).real) and cand_obj > obj:
                q, obj, comm = cand, cand_obj, cand_comm
                break
        step = min(s * 2.0, 1e6)
    raise ConvergenceError(
        f"projected gradient ascent did not reach mapping norm {grad_tol:.1e} "
        f"within {max_iter} iterations (last gap {gap:.3e})",
        best=q,
        iterations=max_iter,
        last_change=gap,
    )


def solve_covariance_constrained(hc: np.ndarray, c: np.ndarray, rs: np.ndarray, t: int) -> np.ndarray:
    """Minimize ||Hc X - C||_F^2 subject to X X^H = T * Rs, exactly.

    Factor T*Rs = F F^H; every feasible X is F P with P row-orthonormal, and
    the best P is the orthogonal-Procrustes alignment obtained from the SVD of
    F^H Hc^H C.  The constraint therefore holds by construction.
    """
    hc, c = np.asarray(hc, dtype=complex), np.asarray(c, dtype=complex)
    rs = np.asarray(rs, dtype=complex)
    if hc.shape[1] != rs.shape[0] or c.shape[0] != hc.shape[0] or c.shape[1] != t:
        raise ValueError("channel, symbols and radar covariance dimensions do not conform")
    if c.shape[0] > hc.shape[1]:
        raise ValueError("cannot serve more symbol streams than transmit antennas")
    f = _psd_factor(t * rs, "radar covariance")
    g = f.shape[1]
    if g == 0:
        raise ValueError("radar covariance is zero")
    if t < g:
        raise ValueError(f"block length T={t} cannot carry a rank-{g} covariance")
    u, _, vh = np.linalg.svd(f.conj().T @ hc.conj().T @ c, full_matrices=False)
    return f @ u @ vh


def _min_on_sphere(a: np.ndarray, b: np.ndarray, energy: float):
    """Minimize tr(X^H A X) - 2 Re tr(X^H B) on ||X||_F^2 = energy: _min_in_basis in A's eigenbasis."""
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    return _min_in_basis(vals, vecs, vecs.conj().T @ np.reshape(b, (vals.size, -1)), energy, np.shape(b))


def _min_in_basis(vals, vecs, bt, energy, shape):
    """That minimizer X, in `shape`, for A = vecs diag(vals) vecs^H (vals = v ascending) and bt = vecs^H B,
    or for each lane of stacks vals[..., :], vecs and bt[..., :, :] at once: row i of bt times
    _secular_factors' factor i, the hard case's fill along u_0, then X = vecs @ coords, its norm
    and the scale to norm sqrt(energy).  None when X is zero in some lane.  Until that scale, bt, E
    and X are in units of a power of two 4^j near the lane's largest row energy, so no bit changes
    where nothing underflows and a small instance's row energies and norm are not subnormal
    (j = 0 where E / 4^j would not be a normal float)."""
    j = np.frexp(_sq_sum(bt, 1).max(axis=-1))[1] // 2
    with np.errstate(over="ignore", under="ignore"):
        units = np.ldexp(energy, -2 * j)
    normal = (units >= np.finfo(float).tiny) & (units < np.inf)
    bt = bt * np.ldexp(1.0, -j * normal)[..., None, None]
    units = np.where(normal, units, energy)
    factors, hard, _ = _secular_factors(vals, _sq_sum(bt, 1), units)
    with np.errstate(invalid="ignore", over="ignore"):  # a hard lane's 1 / gap_i overflows where A is tiny
        coords = bt * factors[..., None]
    if np.count_nonzero(hard):
        coords[..., 0, 0] += np.where(hard, np.sqrt(np.maximum(units - _sq_sum(coords), 0.0)), 0.0)
    x = vecs @ coords
    norm = np.sqrt(_sq_sum(x))
    if np.count_nonzero(norm == 0.0):
        return None
    x *= (np.sqrt(energy) / norm)[..., None, None]
    return np.reshape(x, shape)


def _secular_factors(vals, energies, energy):
    """The sphere solve's per-mode factors, the hard-case mask and the root's offset lam + v_0,
    from ascending vals and the energies e_i of B's rows in A's eigenbasis, lane by lane, for one
    energy or one per lane.  The factors are d_i = 1 / (v_i + lam) times lam + v_0 (so mode 0's is 1)
    on open lanes, 1 on flat ones and d_i itself, 0 on closed modes, on hard ones: the callers scale
    open and flat lanes to the sphere, and fill a hard lane's deficit along u_0 in energy's units.

    X(lam) = (A + lam I)^{-1} B has squared norm psi(lam) = sum_i e_i / (v_i + lam)^2;
    lam > -v_0 solves psi(lam) = energy by Newton's method on phi = psi^{-1/2} - energy^{-1/2},
    in ratio form over the weights w_i = e_i / energy: with t_i = (sqrt(w_i) / (v_i + lam))^2 and
    r = sum_i t_i = psi / energy, the step -phi/phi' is (sqrt(r) - 1) / sum_i (t_i / r) / (v_i + lam),
    and neither sum scales with the energy.  sqrt(w_i) is taken as sqrt(e_i) / sqrt(energy), finite
    where w_i itself would overflow.  Modes within the closed-mode gap 1e-12 * max|v_i| of v_0 sit at
    v_0 in these sums, so a repeated v_0 that rounding scattered solves its pooled modes' equation.
    phi is increasing and concave on (-v_0, inf), so from a start below the root the iterates rise to it
    without overshoot, until r <= 1 + 2 eps, tested before every step: a lane above that stop moves by
    at least an ulp (a step of at least eps / slope >= eps * offset).  The start is
    lam + v_0 = 1e-13 * max|v_i| or, if larger, max_j sqrt(sum_{i<=j} w_i) - (v_j - v_0): since
    psi >= sum_{i<=j} e_i / (v_j + lam)^2, each is below the root, and there each t_i is at most about
    4e26.  lam is held as its offset from the pole, for relative precision there.  Both starts and the
    gaps scale by c under (cA, cB), which gives the same X.  If psi falls short at the pole start (the
    hard case, B nearly orthogonal to u_0), the open modes take lam = -v_0, the closed ones 0, and the
    caller fills the deficit along u_0.  For A = 0, X lies along B.  A lane whose start sums are not
    finite (A below about 1e-295 started at the pole, sum_i e_i past the float range, or e_i / E past
    about 1e616) gets zero factors, which its caller refuses.  Every lane steps, stops and takes its
    case on its own, from its own arithmetic alone, so a lane's X does not depend on the other lanes.
    """
    scale = np.maximum(-vals[..., 0], vals[..., -1])  # max |v_i| of the ascending v_i
    flat = scale == 0.0  # A = 0: X(lam) lies along B for every lam > 0, so take lam = 1
    gaps = vals - vals[..., :1]
    gaps = np.where(gaps <= 1e-12 * scale[..., None], 0.0, gaps)

    def secular(offset):
        """r and the ratio slope at lam = offset - v_0."""
        shifted = gaps + offset[..., None]
        terms = np.square(roots / shifted)
        r = np.add.reduce(terms, -1)  # np.sum's reduction, without its dispatch
        return r, np.add.reduce(terms / shifted, -1) / r

    # stopped lanes and closed modes may divide by 0, and a lost lane's sums are inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(energy)[..., None]
        roots = np.sqrt(energies) / root
        pole = 1e-13 * scale
        lower = np.maximum.reduce(np.sqrt(np.add.accumulate(energies, -1)) / root - gaps, -1)
        offset = np.where(flat, 1.0, np.maximum(pole, lower))  # nan where lower is
        r, slope = secular(offset)
        hard = (r < 1.0) & (offset == pole)  # never flat: a flat lane's pole is 0, its offset 1
        active = np.isfinite(slope) > (flat | hard)  # slope is nan wherever r is not finite
        lost = ~(active | flat | hard) if np.count_nonzero(active | flat) < active.size else None
        active &= r > _SETTLED
        for _ in range(100):  # a backstop: each step gains at least (sqrt(r) - 1) * offset
            if not np.count_nonzero(active):
                break
            offset = np.where(active, offset + (np.sqrt(r) - 1.0) / slope, offset)  # ** 0.5 takes pow for a scalar
            r, slope = secular(offset)
            active &= r > _SETTLED
        if lost is not None:  # some lane hard or lost: a hard lane's open modes at lam = -v_0
            empty = lost[..., None] | hard[..., None] & (gaps == 0.0)  # and its closed modes
            offset = np.where(hard, 0.0, offset)
        factors = np.where(hard, 1.0, offset)[..., None] / (gaps + offset[..., None])
        return factors if lost is None else np.where(empty, 0.0, factors), hard, offset


def _sq_sum(z, axes=2):
    """Sum of |z|^2 over the last `axes` axes of complex z, lane by lane, in one pass over
    its float view; each sum depends on its own lane's values alone."""
    v = np.ascontiguousarray(z).view(np.float64)
    v = v.reshape(v.shape[:v.ndim - axes] + (-1,))
    return np.einsum("...i,...i->...", v, v)


def _norm(z):
    """np.linalg.norm(z) of a complex array (Frobenius for a matrix) by its own arithmetic,
    without its dispatch: the root of the dot products of the raveled real and imaginary parts."""
    z = z.ravel(order="K")
    re, im = z.real, z.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def _pareto_basis(hc, c, xs, total_energy):
    """Check a trade-off instance, or a stack hc[..., :, :], c, xs of them, once; return
    (s, U, [p; q]): the eigenpairs of G = Hc^H Hc (one stacked eigh), and p = U^H Hc^H C over
    q = U^H Xs in one array, each product written in place.

    Every A(rho) = rho G + (1-rho) I shares the eigenvectors U, with eigenvalues rho s + (1-rho)
    ascending with s, and U^H B(rho) = rho p + (1-rho) q, so these serve every rho.
    """
    hc, c, xs = (np.asarray(a, dtype=complex) for a in (hc, c, xs))
    if not 0 < total_energy < np.inf:
        raise ValueError("total energy must be finite and > 0")
    if hc.shape[-1] != xs.shape[-2] or c.shape[-2:] != (hc.shape[-2], xs.shape[-1]):
        raise ValueError("channel, symbols and reference waveform dimensions do not conform")
    if c.shape[-2] > hc.shape[-1]:
        raise ValueError("cannot serve more symbol streams than transmit antennas")
    m = hc.shape[-1]
    # the array the points keep, made first, where the sensing block's freed temporaries were
    pq = np.empty(hc.shape[:-2] + (2 * m, xs.shape[-1]), dtype=complex)
    p, q = pq[..., :m, :], pq[..., m:, :]
    hh = hc.conj().swapaxes(-2, -1)
    s, u = np.linalg.eigh(hh @ hc)
    uh = u.conj().swapaxes(-2, -1)
    np.matmul(hh, c, out=q)  # Hc^H C waits in q's rows, so no array of its own is made for it
    np.matmul(uh, q, out=p)
    np.matmul(uh, xs, out=q)
    return s, u, pq


def _pareto_scorer(hc, c, xs, total_energy):
    """Check a stack of trade-off instances once; return score(rho) -> (interference, distance),
    ||Hc X - C||_F^2 and ||X - Xs||_F^2 of each lane's design X at weight rho, never forming X.

    In U's basis, row i of X is g_i (rho p_i + (1-rho) q_i), with g_i = kappa d_i for
    _secular_factors' factors d_i and kappa = sqrt(E) / ||coords||, plus in the hard case the
    fill f on entry [0, 0], where mode 0 is closed.  So a point needs only the per-mode scalars
    a_i = ||p_i||^2, b_i = ||q_i||^2 and c_i = Re<p_i, q_i>, built here once:
    - row i's energy is rho^2 a_i + 2 rho (1-rho) c_i + (1-rho)^2 b_i, and
      ||coords||^2 = sum_i d_i^2 e_i + f^2;
    - ||X - Xs||^2 = sum_i ||gam_i p_i + (del_i - 1) q_i||^2, gam = rho g and del = (1-rho) g, is a
      2 x 2 quadratic form in (a_i, b_i, c_i), plus the fill's kappa f (kappa f - 2 Re q_00);
    - Hc X - C = [Hc U diag(gam) | Hc U diag(del)] [p; q] - C is one stacked product over the k
      range modes alone, plus the fill's kappa f Hc u_0: Hc has rank at most k, so the m - k lowest
      modes are null vectors of Hc.  Its Gram expansion would cancel toward rho = 1, where it is near 0.
    Those null modes share v_0 and so one factor, and every quadratic form above is linear in the
    scalars: they are pooled into one mode at s_0, so each point solves k + 1 modes (m when k = m).
    In the instance's units: the CLI draws Hc and C at variance 1 whatever E, so max a_i is O(1) or more.
    """
    s, u, pq = _pareto_basis(hc, c, xs, total_energy)
    hcu = hc @ u
    k, m = hcu.shape[-2:]
    hcu0 = hcu[..., 0].copy()  # Hc u_0 for the fill; the copies leave the points no view of hcu or pq
    hcu2 = np.concatenate((hcu[..., m - k:], hcu[..., m - k:]), axis=-1)
    pqr = np.concatenate((pq[..., m - k:m, :], pq[..., 2 * m - k:, :]), axis=-2)
    rows = pq.view(np.float64)
    norms = _sq_sum(pq, 1)
    cross = np.einsum("...i,...i->...", rows[..., :m, :], rows[..., m:, :])
    lo = max(m - k, 1)  # modes 0 .. lo - 1 pool into mode 0
    a, b, cross = (np.concatenate((x[..., :lo].sum(axis=-1, keepdims=True), x[..., lo:]), axis=-1)
                   for x in (*np.split(norms, 2, axis=-1), cross))
    s = np.concatenate((s[..., :1], s[..., lo:]), axis=-1)
    q00 = rows[..., m, 0].copy()
    root = np.sqrt(total_energy)

    def score(rho: float):
        rho = _check_rho(rho)
        energies = rho * rho * a + 2.0 * rho * (1.0 - rho) * cross + (1.0 - rho) ** 2 * b
        factors, hard, _ = _secular_factors(rho * s + (1.0 - rho), energies, total_energy)
        norm2 = np.add.reduce(factors * factors * energies, -1)
        if np.count_nonzero(hard):
            fill = np.where(hard, np.sqrt(np.maximum(total_energy - norm2, 0.0)), 0.0)
            norm2 += fill * fill
        if np.count_nonzero(norm2 == 0.0):
            raise ValueError(_UNREACHABLE)
        kappa = root / np.sqrt(norm2)
        gain = kappa[..., None] * factors
        gam, dlt = rho * gain, (1.0 - rho) * gain
        dm1 = dlt - 1.0
        # each mode's term is a squared norm, which rounding can take a hair below 0
        distance = np.add.reduce(np.maximum(gam * (gam * a + 2.0 * dm1 * cross) + dm1 * dm1 * b, 0.0), -1)
        resid = (hcu2 * np.concatenate((gam[..., -k:], dlt[..., -k:]), axis=-1)[..., None, :]) @ pqr
        resid -= c
        if np.count_nonzero(hard):
            kf = kappa * fill
            distance += kf * (kf - 2.0 * q00)
            resid[..., 0] += kf[..., None] * hcu0
        return _sq_sum(resid), distance

    return score


def solve_pareto_tradeoff(hc: np.ndarray, c: np.ndarray, xs: np.ndarray, rho: float, total_energy: float) -> np.ndarray:
    """Trade-off design: min rho*||Hc X - C||^2 + (1-rho)*||X - Xs||^2, ||X||_F^2 = E.

    Expanding the objective leaves tr(X^H A X) - 2 Re tr(X^H B) plus a
    constant, with A = rho Hc^H Hc + (1-rho) I and B = rho Hc^H C + (1-rho) Xs,
    so the design is the sphere minimizer, solved in the eigenbasis of Hc^H Hc (_pareto_basis).
    A stack of instances gives their designs, each computed as alone (_min_in_basis lane by lane).
    """
    s, u, pq = _pareto_basis(hc, c, xs, total_energy)
    rho = _check_rho(rho)
    p, q = np.split(pq, 2, axis=-2)
    bt = rho * p
    bt += (1.0 - rho) * q
    x = _min_in_basis(rho * s + (1.0 - rho), u, bt, total_energy, q.shape)
    if x is None:
        raise ValueError(_UNREACHABLE)
    return x


def _pareto_terms(hc, c, xs, x):
    """Interference ||Hc X - C||_F^2 and distance ||X - Xs||_F^2 of a trade-off design X,
    or of each design of a stack."""
    return _sq_sum(hc @ x - c), _sq_sum(x - xs)


def _pareto_objective(hc, c, xs, rho, x):
    interference, distance = _pareto_terms(hc, c, xs, x)
    return rho * interference + (1.0 - rho) * distance


def _cyclic_rows(hc, c, xs, rho, x, project, max_sweeps, settled):
    """Cyclic closed-form row updates of the trade-off objective from every start of a
    stack x (L x m x t) at once.

    With the other rows fixed and the row energy held by the constraint, the objective
    is linear in row i; `project(direction, row)` maps the lanes' descent directions
    (L x t) onto the row's feasible set, keeping `row` where it is zero.  Sweeps never
    increase the objective.  A lane stops once `settled(previous, objective)` holds for
    it, with that sweep's iterate; each step is lane by lane, so a lane ends as it would
    alone, to the bit.  Returns (x, objective, converged, last improvement), per lane.
    """
    # row i's column as 1 x k x 1, the lanes' ndim: NumPy rounds a one-entry product of
    # operands of unequal ndim in another loop than np.outer's, which breaks the bits.
    # Each row's column, conjugate row and pull are taken once, and rho as a complex
    # 0-d array: the same complex product as from the Python float, with less dispatch
    per_row = list(enumerate(zip(np.ascontiguousarray(hc.T)[:, None, :, None],
                                 np.ascontiguousarray(hc.conj().T), (1.0 - rho) * xs)))
    weight = np.asarray(rho, dtype=complex)
    lanes, cur = np.empty_like(x), x.copy()
    obj = _pareto_objective(hc, c, xs, rho, cur)
    change, converged = np.full(obj.shape, np.inf), np.zeros(obj.shape, dtype=bool)
    live, resid = np.arange(len(x)), c - hc @ cur
    for _ in range(max_sweeps):
        previous = obj[live]
        for i, (col, row_h, pull) in per_row:
            row = cur[:, i]
            # resid + col row and rho (row_h partial) + pull, in place in that operand order
            partial = col * row[:, None]
            np.add(resid, partial, out=partial)
            direction = row_h @ partial
            np.multiply(weight, direction, out=direction)
            new_row = project(np.add(direction, pull, out=direction), row)
            resid -= col * (new_row - row)[:, None]
            cur[:, i] = new_row
        now = _pareto_objective(hc, c, xs, rho, cur)
        obj[live], change[live] = now, previous - now
        done = settled(previous, now)
        if done.any():
            lanes[live], converged[live] = cur, done
            live, cur, resid = live[~done], cur[~done], resid[~done]
            if not live.size:
                break
    lanes[live] = cur
    return lanes, obj, converged, change


def solve_per_antenna(
    hc: np.ndarray,
    c: np.ndarray,
    xs: np.ndarray,
    rho: float,
    per_antenna_energy: float,
    max_sweeps: int = 1000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Trade-off design with every antenna row locked to the same energy.

    Starts from the row-rescaled total-energy Pareto solution and runs the
    cyclic row updates of _cyclic_rows; each row's conditional minimizer on
    its energy sphere is the scaled descent direction, so the objective is
    non-increasing at every step.  Converged when a sweep improves by less
    than `tol` relative to the objective (floored at 1).
    """
    rho = _check_rho(rho)
    hc, c, xs = (np.asarray(a, dtype=complex) for a in (hc, c, xs))
    if not 0 < per_antenna_energy < np.inf:
        raise ValueError("per-antenna energy must be finite and > 0")
    m, t = xs.shape
    x = solve_pareto_tradeoff(hc, c, xs, rho, m * per_antenna_energy)
    root = np.sqrt(per_antenna_energy)
    for i in range(m):
        norm = _norm(x[i])
        if norm > 1e-300:
            x[i] *= root / norm
        elif _norm(xs[i]) > 0:
            x[i] = root * xs[i] / _norm(xs[i])
        else:
            x[i] = np.full(t, root / np.sqrt(t), dtype=complex)

    def row_sphere(direction, row):  # one lane, so the 1 x t direction's norm is the row's
        norm = _norm(direction)
        return root * direction / norm if norm > 1e-300 else row

    x, _, converged, change = _cyclic_rows(
        hc, c, xs, rho, x[None], row_sphere, max_sweeps,
        lambda previous, obj: previous - obj < tol * np.maximum(1.0, np.abs(previous)),
    )
    if not converged[0]:
        raise ConvergenceError(f"per-antenna row sweeps did not settle within {max_sweeps} sweeps",
                               best=x[0], iterations=max_sweeps, last_change=change[0])
    return x[0]


def solve_constant_modulus(
    hc: np.ndarray,
    c: np.ndarray,
    xs: np.ndarray,
    rho: float,
    modulus: float,
    max_sweeps: int = 10_000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Trade-off design with every entry held at the given modulus.

    Cyclic coordinate descent on the entry phases (_cyclic_rows with an
    elementwise-modulus projection): with all other entries fixed, the
    objective is linear in each unit phasor and minimized by the phase of a
    closed-form inner product, so sweeps never increase the objective.  The
    problem is non-convex, so the descent runs from a few deterministic starts
    (the reference phases, the relaxed total-energy solution, and the
    regularized normal-equations target), swept as lanes of one _cyclic_rows call,
    and keeps the first lowest.  Converged when a full sweep improves by less than `tol`.
    """
    rho = _check_rho(rho)
    hc, c, xs = (np.asarray(a, dtype=complex) for a in (hc, c, xs))
    if not 0 < modulus < np.inf:
        raise ValueError("modulus must be finite and > 0")
    starts = [xs]
    if rho > 0:
        starts.append(solve_pareto_tradeoff(hc, c, xs, rho, modulus**2 * xs.size))
        starts.append(rho * (hc.conj().T @ c) + (1.0 - rho) * xs)

    scale = np.asarray(modulus, dtype=complex)  # as weight in _cyclic_rows

    def unit_modulus(direction, row):
        mag = np.abs(direction)
        return np.divide(np.multiply(scale, direction, out=direction), mag, out=row.copy(), where=mag > 1e-300)

    x, obj, converged, change = _cyclic_rows(
        hc, c, xs, rho, modulus * np.exp(1j * np.angle(np.stack(starts))), unit_modulus, max_sweeps,
        lambda previous, obj: previous - obj < tol,
    )
    best = min(range(len(starts)), key=obj.__getitem__)  # the first lowest, as a loop over starts
    if not converged[best]:
        raise ConvergenceError(f"constant-modulus phase sweeps did not settle within {max_sweeps} sweeps",
                               best=x[best], iterations=max_sweeps, last_change=change[best])
    return x[best]
