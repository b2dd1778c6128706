"""Dense-grid oracle for low-dimensional latent states.

Discretizing the latent state onto a regular grid and row-normalizing the
transition kernel turns the model into an ordinary finite HMM, so scaled
forward-backward recursions deliver exact filter/smoother marginals, exact
pairwise transition moments, and the exact observed-data log-likelihood of
the discretized model.  The continuous model is recovered as the grid is
refined.  Everything here is a test-side reference: it is never called by
the fitting path, and it is restricted to one or two latent components
where a dense grid is trustworthy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError
from .filtering import logsumexp
from .latent import require_valid
from .observation import loglik_many, make_slices
from .smoothing import SmoothedStats

# Bytes of the K x K float64 transition table: K ≤ 4096 nodes.
MAX_TABLE_BYTES = 128 << 20
BOUNDARY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LatentGrid:
    """Regular product grid over the latent space."""

    ranges: tuple  # ((lo, hi), ...) per component
    counts: tuple  # nodes per component

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple((float(a), float(b)) for a, b in self.ranges))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.ranges) != len(self.counts):
            raise ValueError("one range per component required")
        if len(self.ranges) > 2:
            raise ValueError("dense grid supports at most 2 components")
        if any(c < 16 for c in self.counts):
            raise ValueError("need at least 16 nodes per component")
        if any(hi <= lo for lo, hi in self.ranges):
            raise ValueError("empty grid range")
        if 8 * self.num_nodes ** 2 > MAX_TABLE_BYTES:
            raise ValueError(f"grid too large ({self.num_nodes} nodes: the transition "
                             f"table would exceed {MAX_TABLE_BYTES} bytes)")

    @property
    def p(self):
        return len(self.ranges)

    @property
    def num_nodes(self):
        return int(np.prod(self.counts))

    @property
    def axes(self):
        return tuple(
            np.linspace(lo, hi, c) for (lo, hi), c in zip(self.ranges, self.counts)
        )

    @property
    def nodes(self):
        """Flattened node list (num_nodes, p), first component outermost."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def boundary_mask(self):
        """Nodes on the outermost shell, used for coverage checks."""
        idx = np.meshgrid(
            *(np.arange(c) for c in self.counts), indexing="ij"
        )
        mask = np.zeros(self.num_nodes, dtype=bool)
        for axis, c in zip(idx, self.counts):
            flat = axis.ravel()
            mask |= (flat == 0) | (flat == c - 1)
        return mask


def make_grid(theta, n, count, width=8.0):
    """Grid sized to cover the drifted prior of an n-period run."""
    require_valid(theta)
    sd = theta.step_sd * np.sqrt(n)
    ranges = []
    for i in range(theta.p):
        centers = theta.nu0[i] + np.arange(1, n + 1) * theta.mu[i]
        ranges.append(
            (centers.min() - width * sd[i], centers.max() + width * sd[i])
        )
    counts = (count,) * theta.p if np.isscalar(count) else tuple(count)
    return LatentGrid(ranges=tuple(ranges), counts=counts)


@dataclass(frozen=True)
class GridResult:
    filter_marginals: np.ndarray  # (n, K)
    smoothed_marginals: np.ndarray  # (n, K)
    stats: SmoothedStats
    loglik: float
    grid: LatentGrid

    def filter_mean(self, t):
        return self.filter_marginals[t - 1] @ self.grid.nodes

    def smoothed_mean(self, t):
        return self.smoothed_marginals[t - 1] @ self.grid.nodes


def _transition_table(theta, nodes):
    """Row-normalized discretized transition kernel, plus the ν₀ row."""
    a = np.linalg.solve(theta.chol, (nodes - theta.mu).T).T
    b = np.linalg.solve(theta.chol, nodes.T).T
    qa = np.einsum("kp,kp->k", a, a)
    qb = np.einsum("kp,kp->k", b, b)
    logt = -(0.5) * (qb[:, None] + qa[None, :] - 2.0 * (b @ a.T))
    logt -= logsumexp(logt)[:, None]
    b0 = np.linalg.solve(theta.chol, theta.nu0)
    log0 = -0.5 * (b0 @ b0 + qa - 2.0 * (b0 @ a.T))
    log0 -= logsumexp(log0)
    return np.exp(logt), np.exp(log0)


def exact_forward_backward(panel, basis, theta, grid):
    """Exact filtering/smoothing of the grid-discretized model.

    Returns marginals, smoothed sufficient statistics aggregated the same
    way the particle smoother reports them, and the exact log-likelihood.
    """
    require_valid(theta)
    if theta.p != grid.p:
        raise ValueError("grid dimension does not match the parameters")
    slices = make_slices(panel, basis)
    n = len(slices)
    nodes = grid.nodes
    num = grid.num_nodes
    trans, init = _transition_table(theta, nodes)

    logemit = np.array([loglik_many(nodes, s) for s in slices])  # (n, K)
    shifts = logemit.max(axis=1)
    emit = np.exp(logemit - shifts[:, None])

    alpha = np.empty((n, num))
    scales = np.empty(n)
    loglik = 0.0
    for t in range(n):
        raw = (init if t == 0 else alpha[t - 1] @ trans) * emit[t]
        scales[t] = raw.sum()
        if scales[t] <= 0.0 or not np.isfinite(scales[t]):
            raise GridCoverageError(
                f"forward mass vanished at period {t + 1}; widen the grid"
            )
        alpha[t] = raw / scales[t]
        loglik += np.log(scales[t]) + shifts[t]

    beta = np.empty((n, num))
    beta[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = trans @ (emit[t + 1] * beta[t + 1]) / scales[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    boundary = grid.boundary_mask
    for name, marg in (("filter", alpha), ("smoothed", gamma)):
        mass = marg[:, boundary].sum(axis=1)
        worst = int(np.argmax(mass))
        if mass[worst] > BOUNDARY_TOLERANCE:
            raise GridCoverageError(
                f"{name} mass {mass[worst]:.2e} on the grid boundary at period "
                f"{worst + 1}; widen the grid"
            )

    means = gamma @ nodes  # (n, p)
    second = np.einsum("tk,ki,kj->tij", gamma, nodes, nodes)
    s_mat = np.zeros((grid.p, grid.p))
    s_vec = np.zeros(grid.p)
    for t in range(1, n):
        pair = alpha[t - 1][:, None] * trans * (emit[t] * beta[t])[None, :]
        pair /= scales[t]
        cross = nodes.T @ (pair @ nodes)  # Σ_{jk} ξ[j,k] x_j x_kᵀ
        s_mat += second[t] + second[t - 1] - cross - cross.T
        s_vec += means[t] - means[t - 1]
    e_mat = second[0]
    e_vec = means[0]
    stats = SmoothedStats(
        s_mat=0.5 * (s_mat + s_mat.T),
        s_vec=s_vec,
        e_mat=0.5 * (e_mat + e_mat.T),
        e_vec=e_vec,
        n=n,
        num_particles=num,
        num_backward=0,
    )
    return GridResult(
        filter_marginals=alpha,
        smoothed_marginals=gamma,
        stats=stats,
        loglik=float(loglik),
        grid=grid,
    )


def check_unimodal(density):
    """True iff the sequence rises to a single peak then falls.

    Wiggles no larger than 1e-12 are ignored, so discretization dust does
    not flag a false mode.
    """
    d = np.asarray(density, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("need a nonempty 1-D density")
    peak = int(np.argmax(d))
    rising = np.diff(d[: peak + 1])
    falling = np.diff(d[peak:])
    return bool(np.all(rising >= -1e-12) and np.all(falling <= 1e-12))
