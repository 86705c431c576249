"""Lowest eigenpairs of stacks of small symmetric matrices, solved in numpy.

A sweep needs, for each of thousands of cells, the lowest eigenpair of a few
blocks of size 1 to 5 and one more eigenvalue.  LAPACK pays a fixed cost per
matrix that is far above the few hundred flops such a solve takes, so here
each step runs once over the whole stack instead.  Stacks are laid out as
(d, d, n): every matrix entry, and every entry of the tridiagonal form, is a
contiguous row over the n cells.

The method is Laguerre's iteration on the tridiagonal form (Li & Zeng,
"Laguerre's iteration in solving the symmetric tridiagonal eigenproblem --
revisited", SIAM J. Sci. Comput. 15, 1994), with inverse iteration for the
vector.  Each matrix is one symmetry sector, stepped as a whole: a T that
splits needs no bookkeeping of its own, since a zero off-diagonal restarts
the pivot recurrence by itself.  Tolerances are in units of eps * ||T||,
||T|| being the Gershgorin bound max_i |t_ii| + |t_i,i-1| + |t_i,i+1| (1 for
a zero T).
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError, Record

EPS = np.finfo(float).eps
SPLIT_TOL = 8.0  # off-diagonals at or below this are set to zero
STEP_TOL = 4.0  # a Laguerre row ends once its next step is this small
LAGUERRE_ITERATIONS = 64
PIVOT_FLOOR = EPS  # times eps * ||T||: a pivot this small counts as negative
RESIDUAL_TOL = 64.0  # times eps * ||A||_F


class Tridiagonal(Record):
    """Householder reductions Q^T A Q = T of a (d, d, n) stack of symmetric
    matrices, read from the lower triangle as ``eigh`` reads it.

    ``diag`` (d, n) and ``off`` (d - 1, n) hold T, ``norm`` (n,) its
    Gershgorin bound ||T||, and ``reflectors`` the pairs
    (v, tau) with Q = prod_k (I - tau_k v_k v_k^T), v_k acting on rows k + 1
    and on.  An off-diagonal at or below SPLIT_TOL * eps * ||T|| is
    negligible, and is set to 0 so that the pivot recurrence restarts there,
    as LAPACK's dstebz does; that moves no eigenvalue by more than its size.
    """

    diag: np.ndarray
    off: np.ndarray
    norm: np.ndarray
    reflectors: tuple

    @classmethod
    def reduce(cls, a: np.ndarray) -> Tridiagonal:
        diag, off, reflectors = [], [], []
        while len(a) > 2:
            # The reflector that maps x = A[1:, 0] onto beta e_1, as in
            # LAPACK's dlarfg, with tau = 2 / v.v; a zero x gets v = e_1.
            x = a[1:, 0]
            alpha = x[0]
            tail = np.einsum("in,in->n", x[1:], x[1:])
            beta = np.copysign(np.sqrt(alpha * alpha + tail), -alpha)
            scale = alpha - beta
            scale += scale == 0.0
            v = x / scale
            v[0] = 1.0
            tau = 2.0 / (1.0 + tail / (scale * scale))
            # A[1:, 1:] - u - u^T, u = v w^T, w = p - (tau p.v / 2) v, p = tau A[1:, 1:] v
            s = a[1:, 1:]
            w = tau * np.einsum("ijn,jn->in", s, v)
            w -= (0.5 * tau * np.einsum("in,in->n", w, v)) * v
            u = v[:, None] * w
            diag.append(a[0, 0].copy())  # not a view that keeps all of a
            off.append(beta)
            reflectors.append((v, tau))
            a = s - u
            a -= u.transpose(1, 0, 2)
        if len(a) == 2:
            off.append(a[1, 0])
        diag = np.array(diag + [a[i, i] for i in range(len(a))])
        off = np.array(off).reshape(len(diag) - 1, diag.shape[1])
        size = np.abs(off)
        reach = _reach(size)
        norm = np.max(np.abs(diag) + reach, axis=0)
        norm += norm == 0.0
        off[size <= SPLIT_TOL * EPS * norm] = 0.0
        return cls(diag, off, norm, tuple(reflectors))

    def take(self, rows) -> Tridiagonal:
        """The reductions of the given rows (a slice or an index array)."""
        return Tridiagonal(self.diag[:, rows], self.off[:, rows], self.norm[rows],
                           tuple((v[:, rows], tau[rows]) for v, tau in self.reflectors))

    def _pivots(self, sigma: np.ndarray) -> list[np.ndarray]:
        """The LDL^T pivots of T - sigma I.  A pivot of magnitude at or below
        PIVOT_FLOOR * eps * ||T|| becomes minus that floor, as in LAPACK's
        dstebz: no step divides by zero, and the pivot counts as negative."""
        floor = PIVOT_FLOOR * EPS * self.norm
        pivots = []
        for i in range(len(self.diag)):
            delta = self.diag[i] - sigma
            if i:
                delta -= self.off[i - 1] ** 2 / pivots[-1]
            pivots.append(np.where(np.abs(delta) > floor, delta, -floor))
        return pivots

    def count_below(self, sigma: np.ndarray) -> np.ndarray:
        """Number of eigenvalues of each T below sigma (a Sturm count)."""
        return np.sum(np.array(self._pivots(sigma)) < 0.0, axis=0)

    def lowest(self) -> np.ndarray:
        """Lowest eigenvalue of each T.

        Laguerre's iteration from just below each Gershgorin lower bound
        moves monotonically up to the lowest eigenvalue.  It converges
        cubically, and linearly where blocks of a split T share the lowest
        eigenvalue (see ``_Laguerre.evaluate``).  A step is accepted only
        while every LDL^T pivot of T - x I stays positive, that is while x is
        still below the lowest eigenvalue: a step that rounding lands on or
        past it ends the row there, since from past it the iteration may head
        for the next eigenvalue.  A row also ends, after its next step, once
        that step is at most STEP_TOL * eps * ||T|| times its ratio to the
        step before, so that the one after is smaller still at any rate of
        convergence up to linear.  Raises InvariantError at the first row
        still moving after LAGUERRE_ITERATIONS steps.
        """
        if len(self.diag) == 1:
            return self.diag[0].copy()
        laguerre = _Laguerre(self.diag, self.off * self.off, self.norm)
        lowest = np.empty(self.norm.size)
        live = np.ones(lowest.size, dtype=bool)
        tol = STEP_TOL * EPS * self.norm
        x = np.min(self.diag - _reach(np.abs(self.off)), axis=0) - tol
        _, step = laguerre.evaluate(x)
        for _ in range(LAGUERRE_ITERATIONS):
            y = x + step
            positive, next_step = laguerre.evaluate(y)
            done = live & (~positive | (next_step * next_step <= tol * step))
            lowest[done] = np.where(positive, y + next_step, y)[done]
            live &= ~done
            if not live.any():
                return lowest
            x, step = y, next_step
        k = int(np.flatnonzero(live)[0])
        raise InvariantError(
            f"Laguerre iteration for the lowest eigenvalue still moving after "
            f"{LAGUERRE_ITERATIONS} steps (last step {step[k]:.3e})",
            index=k,
        )

    def vectors(self, lowest: np.ndarray) -> np.ndarray:
        """Unit eigenvectors (d, n) for ``lowest``, in the basis of the
        reduced matrices A: two steps of inverse iteration on T - sigma I =
        L D L^T, sigma = lowest - STEP_TOL * eps * ||T||, so that T - sigma I
        is positive definite with its smallest pivot of order eps * ||T||,
        then mapped back by Q."""
        d = len(self.diag)
        pivots = self._pivots(lowest - STEP_TOL * EPS * self.norm)
        ell = [self.off[i] / pivots[i] for i in range(d - 1)]
        # The start, 1 + frac(k * golden ratio), is orthogonal to no simple
        # rational pattern of eigenvector entries.
        start = 1.0 + np.modf(np.arange(d) * (1.0 + np.sqrt(5.0)) / 2.0)[0]
        x = np.broadcast_to(start[:, None], self.diag.shape)
        for _ in range(2):
            z = [x[0]]
            for i in range(1, d):
                z.append(x[i] - ell[i - 1] * z[i - 1])
            z[d - 1] = z[d - 1] / pivots[d - 1]
            for i in reversed(range(d - 1)):
                z[i] = z[i] / pivots[i] - ell[i] * z[i + 1]
            x = np.array(z)
            x /= np.sqrt(np.einsum("in,in->n", x, x))
        for k in reversed(range(len(self.reflectors))):
            v, tau = self.reflectors[k]
            x[k + 1 :] -= v * (tau * np.einsum("in,in->n", v, x[k + 1 :]))
        return x


class _Laguerre:
    """Laguerre steps over a stack of tridiagonals: ``diag`` (d, n), ``off2``
    (d - 1, n) the squared off-diagonals, ``norm`` (n,) each ||T||.

    Each step of the pivot recurrence is one numpy call per operation over
    all n columns, writing into buffers kept for the next evaluation.  Every
    column takes the step for the whole T, of degree d, split or not.
    """

    def __init__(self, diag: np.ndarray, off2: np.ndarray, norm: np.ndarray) -> None:
        self.diag, self.off2, self.norm = diag, off2, norm
        self.floor = PIVOT_FLOOR * EPS * norm
        # delta (then g^2), t (then c), 1 / delta, g, q (then s), G, H
        self.work = np.empty((7, norm.size))
        self.positive = np.empty(norm.size, dtype=bool)
        self.ok = np.empty(norm.size, dtype=bool)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether every pivot of T - x I is positive, and Laguerre's step from
        x toward the lowest eigenvalue, for each column.  The first is a
        buffer that the next call overwrites.

        With det(T - x I) = prod_i delta_i(x), G = sum_i delta_i' / delta_i =
        sum_j 1 / (x - lambda_j) and H = -dG/dx.  The recurrence carries
        g_i = delta_i' / delta_i and q_i = g_i^2 + s_i, s_i = -dg_i/dx; with
        c_i = off_{i-1}^2 / (delta_{i-1} delta_i), g_i = c_i g_{i-1} - 1 /
        delta_i and s_i = g_i^2 + c_i q_{i-1}.  A zero off-diagonal makes
        c_i = 0, so G and H stay exact where T splits.  The step is
        m / (sqrt((m - 1) (m H - G^2)) - G) with m = d.  It converges
        cubically to a simple lowest eigenvalue, and linearly to one that
        several blocks of a split T share.  A column whose pivot is not
        positive goes on with |pivot|, at least the floor, so that it stays
        finite; its step is discarded.
        """
        delta, t, r, g, q, big_g, big_h = self.work
        positive, ok = self.positive, self.ok
        positive[:] = True
        for i in range(len(self.diag)):
            np.subtract(self.diag[i], x, out=delta)
            if i:
                np.multiply(self.off2[i - 1], r, out=t)
                delta -= t
            np.greater(delta, self.floor, out=ok)
            positive &= ok
            np.maximum(np.abs(delta, out=delta), self.floor, out=delta)
            np.divide(1.0, delta, out=r)
            gg = delta
            if i:
                t *= r
                g *= t
                g -= r
                np.square(g, out=gg)
                q *= t
                q += gg
                big_g += g
                big_h += q
            else:
                np.negative(r, out=g)
                np.square(g, out=gg)
                q[:] = gg
                big_g[:] = g
                big_h[:] = q
            q += gg
        m = float(len(self.diag))
        root = np.sqrt(np.maximum((m - 1.0) * (m * big_h - big_g * big_g), 0.0))
        # G < 0 in every column whose pivots are all positive; elsewhere the
        # step is discarded, and the floor only keeps it finite.
        return positive, m / np.maximum(root - big_g, self.floor)


def _reach(size: np.ndarray) -> np.ndarray:
    """|t_i,i-1| + |t_i,i+1| of each row of each tridiagonal, from |off|."""
    reach = np.zeros((size.shape[0] + 1, size.shape[1]))
    reach[:-1] += size
    reach[1:] += size
    return reach


def checked_residuals(a: np.ndarray, x: np.ndarray, lowest: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """||(A - lowest) x|| of each unit vector x (d, n) against its (d, d, n)
    matrix A.  Raises InvariantError, naming the row from ``rows``, at the
    first residual above RESIDUAL_TOL * eps * ||A||_F (a backward-stable
    solve leaves a few eps * ||A||)."""
    r = np.einsum("ijn,jn->in", a, x) - lowest * x
    residual = np.sqrt(np.einsum("in,in->n", r, r))
    bound = RESIDUAL_TOL * EPS * np.sqrt(np.einsum("ijn,ijn->n", a, a))
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        k = int(bad[0])
        raise InvariantError(
            f"ground-state residual {residual[k]:.3e} exceeds {bound[k]:.3e}",
            index=int(rows[k]),
        )
    return residual
