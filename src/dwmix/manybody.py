"""Few-body bases and Hamiltonian assembly for 2 bosons + 2 fermions.

Everything is built inside explicit first-quantized product spaces: the
boson pair lives in the 4-dimensional space spanned by |m1 m2> with
m in {left=0, right=1}, the fermion pair in the 16-dimensional space
spanned by |o1 o2> with orbital o = 2*mode + spin (ordering
L-up < L-down < R-up < R-down).  Symmetrized basis states are stored as
vectors in those spaces, so every operator (mode transfer, contact
interaction, mirror) is a small dense matrix sandwiched between basis
vectors.  For two particles this is exactly equivalent to the
second-quantized forms, including fermionic signs, and it keeps one code
path for all basis variants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import COUPLING_NAMES, PAPER_FOUR_STATE
from .errors import ConfigError, InvariantError
from .modes import DoubletModes
from .overlaps import OverlapTensor
from .tridiagonal import Tridiagonal, checked_residuals

BOSONS = "bosons"
FERMIONS = "fermions"

HERMITICITY_TOL = 1.0e-12
NORM_TOL = 1.0e-10
DEGENERACY_GAP = 1.0e-12
COUPLING_WARN = 0.01

_SQRT_HALF = np.sqrt(0.5)

# Spatial coefficient matrices over (m1, m2) for the three boson states.
_B_LL = np.array([[1.0, 0.0], [0.0, 0.0]])
_B_SYM = np.array([[0.0, _SQRT_HALF], [_SQRT_HALF, 0.0]])
_B_RR = np.array([[0.0, 0.0], [0.0, 1.0]])

_SPIN_UU = np.array([[1.0, 0.0], [0.0, 0.0]])
_SPIN_DD = np.array([[0.0, 0.0], [0.0, 1.0]])
_SPIN_T0 = np.array([[0.0, _SQRT_HALF], [_SQRT_HALF, 0.0]])
_SPIN_SINGLET = np.array([[0.0, _SQRT_HALF], [-_SQRT_HALF, 0.0]])
_SPACE_ANTI = np.array([[0.0, _SQRT_HALF], [-_SQRT_HALF, 0.0]])

# Involutions of the boson (m1, m2) and fermion (m1, s1, m2, s2) product
# spaces: the left-right mirror of every particle, and the exchange of the
# two fermions' spins, (m1, s1, m2, s2) -> (m1, s2, m2, s1).
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_MIRROR = (np.kron(_SWAP, _SWAP), np.kron(np.kron(_SWAP, np.eye(2)), np.kron(_SWAP, np.eye(2))))
_SPIN_EXCHANGE = (
    np.eye(4),
    np.eye(16).reshape(2, 2, 2, 2, 16).transpose(0, 3, 2, 1, 4).reshape(16, 16),
)


def _product_vector(spatial: np.ndarray, spin: np.ndarray) -> np.ndarray:
    """16-vector for a (spatial 2x2) x (spin 2x2) two-fermion product."""
    return np.einsum("ik,jl->ijkl", spatial, spin).reshape(16)


def _det_vector(o1: int, o2: int) -> np.ndarray:
    """Normalized Slater determinant |o1 o2> with o1 < o2."""
    v = np.zeros(16)
    v[4 * o1 + o2] = _SQRT_HALF
    v[4 * o2 + o1] = -_SQRT_HALF
    return v


def _boson_basis() -> tuple[list[str], np.ndarray]:
    vectors = np.column_stack(
        [_B_LL.reshape(4), _B_SYM.reshape(4), _B_RR.reshape(4)]
    )
    return ["LL", "S", "RR"], vectors


def _fermion_basis(sector: int, variant: str) -> tuple[list[str], np.ndarray]:
    if variant == PAPER_FOUR_STATE:
        labels = ["As", "LLt", "St", "RRt"]
        vectors = np.column_stack(
            [
                _product_vector(_SPACE_ANTI, _SPIN_SINGLET),
                _product_vector(_B_LL, _SPIN_UU),
                _product_vector(_B_SYM, _SPIN_T0),
                _product_vector(_B_RR, _SPIN_DD),
            ]
        )
        return labels, vectors
    if sector == 0:
        d03 = _det_vector(0, 3)
        d12 = _det_vector(1, 2)
        labels = ["LLs", "Ss", "RRs", "T0"]
        vectors = np.column_stack(
            [
                _det_vector(0, 1),
                _SQRT_HALF * (d03 - d12),
                _det_vector(2, 3),
                _SQRT_HALF * (d03 + d12),
            ]
        )
        return labels, vectors
    label, orbitals = {1: ("LRuu", (0, 2)), -1: ("LRdd", (1, 3))}[sector]
    return [label], _det_vector(*orbitals).reshape(16, 1)


@dataclass(frozen=True, repr=False, eq=False)
class CompositeBasis:
    """Labeled product basis: boson pair states x fermion pair states.

    Composite ordering is boson-major, so :meth:`coefficient_matrices` views
    a state as its boson x fermion coefficient matrix; ``labels`` are
    "<boson>|<fermion>".
    """

    boson_labels: list[str]
    fermion_labels: list[str]
    boson_vectors: np.ndarray
    fermion_vectors: np.ndarray

    @property
    def boson_dim(self) -> int:
        return self.boson_vectors.shape[1]

    @property
    def fermion_dim(self) -> int:
        return self.fermion_vectors.shape[1]

    @property
    def dim(self) -> int:
        return self.boson_dim * self.fermion_dim

    @property
    def labels(self) -> list[str]:
        return [f"{b}|{f}" for b in self.boson_labels for f in self.fermion_labels]

    def index_of(self, boson_label: str, fermion_label: str) -> int:
        try:
            i = self.boson_labels.index(boson_label)
            j = self.fermion_labels.index(fermion_label)
        except ValueError as exc:
            raise ConfigError(
                f"basis has no state {boson_label!r}|{fermion_label!r}; "
                f"available: bosons {self.boson_labels}, fermions {self.fermion_labels}"
            ) from exc
        return i * self.fermion_dim + j

    def coefficient_matrices(self, coefficients: np.ndarray) -> np.ndarray:
        """Coefficients over this basis, shape (..., dim), as boson x fermion
        matrices, shape (..., boson_dim, fermion_dim): entry [..., i, j] is
        the coefficient of boson state i times fermion state j."""
        shape = np.shape(coefficients)[:-1] + (self.boson_dim, self.fermion_dim)
        return np.reshape(coefficients, shape)

    @cached_property
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """The fermion spin exchange and the left-right mirror, as matrices
        over this basis, each kept where the basis span is closed under it:
        the spin exchange always, the mirror in every basis but the literal
        four-state one."""
        operators = (_involution(self, *_SPIN_EXCHANGE), _involution(self, *_MIRROR))
        return tuple(o for o in operators if o is not None)

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Orthonormal column blocks, shape (dim, d_k), one per symmetry sector
        of the basis: the joint eigenspaces of ``symmetries``.  Largest first.

        Every Hamiltonian dwmix builds commutes with ``symmetries``, so it is
        block-diagonal over them; ``SectorBlocks`` checks that it is.
        """
        # The eigenvalues of sum_k 2^k O_k, each O_k being +-1, label the sectors.
        key = sum((2.0**k * o for k, o in enumerate(self.symmetries)),
                  np.zeros((self.dim, self.dim)))
        weights, vectors = np.linalg.eigh(key)
        labels = np.rint(weights)
        sectors = [vectors[:, labels == label] for label in np.unique(labels)]
        return tuple(sorted(sectors, key=lambda q: -q.shape[1]))


def enumerate_bases(sector: int, fermion_variant: str) -> CompositeBasis:
    """Deterministic labeled composite basis for the given spin sector."""
    b_labels, b_vecs = _boson_basis()
    f_labels, f_vecs = _fermion_basis(sector, fermion_variant)
    return CompositeBasis(
        boson_labels=b_labels,
        fermion_labels=f_labels,
        boson_vectors=b_vecs,
        fermion_vectors=f_vecs,
    )


def _mode_transfer(a: int, b: int) -> np.ndarray:
    e = np.zeros((2, 2))
    e[a, b] = 1.0
    return e


def _boson_one_body(op: np.ndarray) -> np.ndarray:
    """A 2x2 mode operator acting on each boson slot, summed over slots."""
    eye = np.eye(2)
    return np.kron(op, eye) + np.kron(eye, op)


def _fermion_one_body(op: np.ndarray) -> np.ndarray:
    """A 2x2 mode operator, diagonal in spin, acting on each fermion slot,
    summed over slots."""
    o = np.kron(op, np.eye(2))
    eye = np.eye(4)
    return np.kron(o, eye) + np.kron(eye, o)


def _boson_contact(u: np.ndarray) -> np.ndarray:
    """First-quantized contact matrix on the boson product space.

    C[(m1, m2), (m1', m2')] = U[m1, m1', m2, m2'].
    """
    return u.transpose(0, 2, 1, 3).reshape(4, 4)


def _fermion_contact(u: np.ndarray) -> np.ndarray:
    """Contact matrix on the fermion product space, diagonal in both spins.

    C[(m1, s1, m2, s2), (m1', s1', m2', s2')] = U[m1, m1', m2, m2'] when
    s1 = s1' and s2 = s2', else 0.
    """
    eye = np.eye(2)
    return np.einsum("acbd,ef,gh->aebgcfdh", u, eye, eye).reshape(16, 16)


def one_body_transition_matrix(basis: CompositeBasis, species: str) -> np.ndarray:
    """D[i, j, a, b]: matrix element of the a<-b mode-transfer operator.

    Returned over the species' own basis states (not the composite), with
    bosonic sqrt-occupancy factors and fermionic ordering signs arising
    automatically from the symmetrized vector representation.
    """
    if species == BOSONS:
        vecs = basis.boson_vectors
        one_body = _boson_one_body
    elif species == FERMIONS:
        vecs = basis.fermion_vectors
        one_body = _fermion_one_body
    else:
        raise ConfigError(f"species must be {BOSONS!r} or {FERMIONS!r}, got {species!r}")
    d = [[vecs.T @ one_body(_mode_transfer(a, b)) @ vecs for b in range(2)] for a in range(2)]
    return np.array(d).transpose(2, 3, 0, 1)


@dataclass(frozen=True, repr=False, eq=False)
class CouplingParams:
    """Contact coupling strengths, all repulsive (non-negative).  They come
    from config values ``RunConfig.validate`` checked, so only the
    strong-coupling warning is raised here."""

    lambda_bb: float = 0.0
    lambda_ff: float = 0.0
    lambda_bf: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value > COUPLING_WARN:
                warnings.warn(
                    f"{name} = {value} is above {COUPLING_WARN}; two-mode "
                    "truncation accuracy degrades at this strength",
                    stacklevel=3,  # past the generated __init__, to its caller
                )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COUPLING_NAMES}


@dataclass(frozen=True, repr=False, eq=False)
class OverlapSet:
    """The three contact tensors feeding assembly."""

    boson: OverlapTensor
    fermion: OverlapTensor
    cross: OverlapTensor


@dataclass(frozen=True, repr=False, eq=False)
class ManyBodyHamiltonian:
    """H at one coupling point: its model's sector projection and its row of
    couplings, ordered as COUPLING_NAMES.  No full matrix is composed."""

    basis: CompositeBasis
    sectors: SectorBlocks
    couplings: np.ndarray


@dataclass(frozen=True, repr=False, eq=False)
class HamiltonianBlocks:
    """Coupling-independent pieces of H.

    H(params) = h0 + lambda_bb * h_bb + lambda_ff * h_ff + lambda_bf * h_bf.
    The blocks are projected onto the basis's symmetry sectors once, on first
    use (:attr:`sectors`), and every solve reads that one projection: a sweep
    at each row of a chunk of couplings, a single H at its one row.
    """

    basis: CompositeBasis
    h0: np.ndarray
    h_bb: np.ndarray
    h_ff: np.ndarray
    h_bf: np.ndarray

    @cached_property
    def sectors(self) -> SectorBlocks:
        """The blocks projected onto the symmetry sectors of the basis."""
        return SectorBlocks.project(self.basis, self.h0, (self.h_bb, self.h_ff, self.h_bf))

    def compose(self, params: CouplingParams) -> ManyBodyHamiltonian:
        """H at one coupling point, on the shared projection."""
        row = np.array(list(params.as_dict().values()))
        return ManyBodyHamiltonian(basis=self.basis, sectors=self.sectors, couplings=row)


@dataclass(frozen=True, repr=False, eq=False)
class SectorBlocks:
    """H(c) = h0 + sum_k c_k h_k, projected once onto the symmetry sectors.

    ``base`` and each row of ``terms`` are flat rows, so H(c) is
    ``base + c @ terms``.  A flat row starts with the n_defect entries that
    vanish when H is symmetric and does not couple sectors: those of
    H - H^T, and those of R^T H R outside the diagonal sector blocks,
    R = [Q_1 ... Q_m].  Then come the sector blocks Q_k^T H Q_k, row-major,
    largest sector first.  Every entry is linear in c, so a sweep never
    builds a cell's full H, and it composes only the sector-block columns
    once one bound clears the defect columns of a whole chunk.  The blocks
    hold H - shift * I, shift being the mean diagonal of h0, so that their
    rounding scales with the spread of the spectrum, not its offset.

    Each model is projected once (:attr:`HamiltonianBlocks.sectors`), and
    every solve of its H goes through here: a single H takes every eigenpair
    of each block from LAPACK (:meth:`eigenpairs`), a sweep only each cell's
    ground pair and gap from the numpy solver of :mod:`dwmix.tridiagonal`
    (:meth:`ground_states`).  So does the one check (not an ``assert``) that H
    is symmetric and does not couple its sectors.
    """

    sectors: tuple[np.ndarray, ...]
    base: np.ndarray
    terms: np.ndarray
    n_defect: int
    shift: float

    @classmethod
    def project(cls, basis: CompositeBasis, h0: np.ndarray, terms) -> SectorBlocks:
        """Project h0 and each coupling term onto the symmetry sectors of the
        basis (``basis.sectors``).  A piece that couples them is not refused
        here: its leak lands in the defect entries, which every solve checks."""
        sectors = basis.sectors
        r = np.hstack(sectors)
        label = np.repeat(np.arange(len(sectors)), [q.shape[1] for q in sectors])
        upper = np.triu(np.ones((basis.dim, basis.dim), dtype=bool), 1)
        leak = upper & (label[:, None] != label[None, :])

        def flatten(h: np.ndarray) -> np.ndarray:
            blocks = [(q.T @ h @ q).ravel() for q in sectors]
            return np.concatenate([(h - h.T)[upper], (r.T @ h @ r)[leak], *blocks])

        shift = float(np.mean(np.diag(h0)))
        base = flatten(h0 - shift * np.eye(basis.dim))
        return cls(
            sectors=sectors,
            base=base,
            terms=np.array([flatten(h) for h in terms]),
            n_defect=int(upper.sum() + leak.sum()),
            shift=shift,
        )

    def _sector_stacks(self, couplings: np.ndarray) -> list[np.ndarray]:
        """The sector blocks of H - shift * I at each row of couplings (ordered
        as ``terms``), one (d, d, n) stack per sector: entry (i, j) of a block
        is a contiguous row over the n couplings.

        Raises InvariantError at the first row whose residue, the largest
        defect entry, is not below HERMITICITY_TOL.  Each defect entry is
        linear in c, so one bound clears every row of a batch; the per-row
        residues are computed only when it does not.
        """
        couplings = np.asarray(couplings, dtype=float)
        nd = self.n_defect
        bound = np.abs(self.base[:nd]) + np.max(
            np.abs(couplings), axis=0, initial=0.0) @ np.abs(self.terms[:, :nd])
        if not np.max(bound, initial=0.0) < HERMITICITY_TOL:
            residue = np.max(np.abs(self.base[:nd] + couplings @ self.terms[:, :nd]), axis=1)
            bad = np.flatnonzero(~(residue < HERMITICITY_TOL))
            if bad.size:
                k = int(bad[0])
                raise InvariantError(
                    "Hamiltonian is not symmetric or couples symmetry sectors "
                    f"(residue {residue[k]:.3e})",
                    index=k,
                )
        flat = self.terms[:, nd:].T @ couplings.T
        flat += self.base[nd:, None]
        stacks, start = [], 0
        for q in self.sectors:
            d = q.shape[1]
            stacks.append(flat[start : start + d * d].reshape(d, d, -1))
            start += d * d
        return stacks

    def eigenpairs(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of H - shift * I at one row of couplings, ordered by
        sector as ``sectors`` and ascending within each, and the eigenvectors
        in the full basis as columns, shape (dim, dim)."""
        pairs = [np.linalg.eigh(a[:, :, 0]) for a in self._sector_stacks(row[None])]
        return (np.concatenate([e for e, _ in pairs]),
                np.hstack([q @ u for q, (_, u) in zip(self.sectors, pairs)]))

    def ground_states(self, couplings: np.ndarray) -> tuple[np.ndarray, ...]:
        """Lowest eigenpairs of H at each row of couplings (ordered as ``terms``).

        Returns the energies, the gaps, the degenerate flags (gap below
        DEGENERACY_GAP, flagged rather than raised), the ground vectors in the
        full basis, shape (n, dim), and the residuals ||(A - E0) x|| of each
        ground pair in its sector block A.

        Each step runs once over all rows (see :mod:`dwmix.tridiagonal`).
        Every sector block is reduced to tridiagonal form T, and Laguerre's
        iteration finds its lowest eigenvalue.  The sector with the lowest
        energy wins (the first such sector on a tie); inverse iteration on
        its T gives the vector, mapped back through the reduction and the
        sector basis.  The gap's second eigenvalue is the runner-up sector's
        lowest, unless a Sturm count finds two eigenvalues of the winner's T
        below it; only those rows take the winner's own second eigenvalue,
        from ``eigvalsh``.  The vectors are signed by :func:`_oriented`.

        Raises InvariantError as :meth:`_sector_stacks` does, for a Laguerre
        row still moving after ``tridiagonal.LAGUERRE_ITERATIONS`` steps, and
        for a residual above ``tridiagonal.RESIDUAL_TOL`` * eps * ||A||_F,
        each naming its first row.
        """
        stacks = self._sector_stacks(couplings)
        n = stacks[0].shape[-1]
        reduced = [Tridiagonal.reduce(a) for a in stacks]
        lows = np.array([t.lowest() for t in reduced])
        winner = np.argmin(lows, axis=0)
        lowest = lows[winner, np.arange(n)]
        lows[winner, np.arange(n)] = np.inf
        second = lows.min(axis=0)
        wins = [np.flatnonzero(winner == k) for k in range(len(stacks))]
        reduced = [t if rows.size else None for t, rows in zip(reduced, wins)]  # free the rest
        residual = np.empty(n)
        v = np.empty((n, self.sectors[0].shape[0]))
        for a, q, t, rows in zip(stacks, self.sectors, reduced, wins):
            if not rows.size:
                continue
            take = slice(None) if rows.size == n else rows
            t, a = t.take(take), a[:, :, take]
            x = t.vectors(lowest[take])
            residual[take] = checked_residuals(a, x, lowest[take], rows)
            v[take] = x.T @ q.T
            own = t.count_below(second[take]) >= 2
            if own.any():
                second[rows[own]] = np.linalg.eigvalsh(np.moveaxis(a[:, :, own], -1, 0))[:, 1]
        gap = second - lowest
        return lowest + self.shift, gap, gap < DEGENERACY_GAP, _oriented(v), residual


def _single_particle_matrix(modes: DoubletModes) -> np.ndarray:
    eps = modes.mean_energy
    j = modes.tunneling_amplitude
    return np.array([[eps, -j], [-j, eps]])


def hamiltonian_blocks(
    modes_b: DoubletModes,
    modes_f: DoubletModes,
    overlaps: OverlapSet,
    basis: CompositeBasis,
) -> HamiltonianBlocks:
    """Project all Hamiltonian pieces onto the composite basis."""
    vb = basis.boson_vectors
    vf = basis.fermion_vectors
    dim_b, dim_f = basis.boson_dim, basis.fermion_dim

    h_b_sp = vb.T @ _boson_one_body(_single_particle_matrix(modes_b)) @ vb
    h_f_sp = vf.T @ _fermion_one_body(_single_particle_matrix(modes_f)) @ vf
    h0 = np.kron(h_b_sp, np.eye(dim_f)) + np.kron(np.eye(dim_b), h_f_sp)

    h_bb = np.kron(vb.T @ _boson_contact(overlaps.boson.values) @ vb, np.eye(dim_f))
    h_ff = np.kron(np.eye(dim_b), vf.T @ _fermion_contact(overlaps.fermion.values) @ vf)

    d_b = one_body_transition_matrix(basis, BOSONS)
    d_f = one_body_transition_matrix(basis, FERMIONS)
    h_bf = np.einsum(
        "abcd,ikab,jlcd->ijkl", overlaps.cross.values, d_b, d_f
    ).reshape(basis.dim, basis.dim)

    return HamiltonianBlocks(basis=basis, h0=h0, h_bb=h_bb, h_ff=h_ff, h_bf=h_bf)


def _check_unit_norms(coefficients: np.ndarray) -> None:
    """Raise InvariantError at the first row whose norm is not 1."""
    norms = np.linalg.norm(coefficients, axis=-1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    if bad.size:
        k = int(bad[0])
        raise InvariantError(f"state norm is {norms[k]:.12f}, not 1", index=k)


def _oriented(v: np.ndarray) -> np.ndarray:
    """Ground vectors (rows) with each largest-magnitude coefficient made
    positive, the lowest index winning an exact magnitude tie; norms checked."""
    k = np.argmax(np.abs(v), axis=1)
    v *= np.where(v[np.arange(len(v)), k] < 0.0, -1.0, 1.0)[:, None]
    _check_unit_norms(v)
    return v


@dataclass(frozen=True, repr=False, eq=False)
class GroundState:
    """``vector`` holds the real ground-state coefficients over the basis."""

    energy: float
    vector: np.ndarray


def ground_state(h: ManyBodyHamiltonian) -> GroundState:
    """Lowest eigenpair of one Hamiltonian from :meth:`SectorBlocks.eigenpairs`,
    picked and signed as :meth:`SectorBlocks.ground_states` picks and signs a
    sweep cell's: the energies run by sector, so the first sector wins a tie."""
    energies, vectors = h.sectors.eigenpairs(h.couplings)
    k = int(np.argmin(energies))
    return GroundState(energy=float(energies[k] + h.sectors.shift),
                       vector=_oriented(vectors[None, :, k])[0])


def _involution(
    basis: CompositeBasis, p_boson: np.ndarray, p_fermion: np.ndarray
) -> np.ndarray | None:
    """p_boson x p_fermion in the composite basis, or None if the basis span
    is not closed under it."""
    m = np.kron(
        basis.boson_vectors.T @ p_boson @ basis.boson_vectors,
        basis.fermion_vectors.T @ p_fermion @ basis.fermion_vectors,
    )
    if np.max(np.abs(m @ m.T - np.eye(basis.dim))) > 1.0e-10:
        return None
    return m

