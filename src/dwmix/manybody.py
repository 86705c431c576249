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
path for every spin sector: ``hamiltonian_terms`` builds the full terms of
H, and ``HamiltonianBlocks`` holds them projected onto the symmetry sectors.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import product

import numpy as np

from .config import COUPLING_NAMES
from .errors import ConfigError, InvariantError, Record
from .modes import DoubletModes
from .overlaps import OverlapTensor
from .tridiagonal import Tridiagonal, checked_residuals

BOSONS = "bosons"
FERMIONS = "fermions"

NORM_TOL = 1.0e-10
DEGENERACY_GAP = 1.0e-12
COUPLING_WARN = 0.01

_SQRT_HALF = np.sqrt(0.5)

# Spatial coefficient matrices over (m1, m2) for the three boson states.
_B_LL = np.array([[1.0, 0.0], [0.0, 0.0]])
_B_SYM = np.array([[0.0, _SQRT_HALF], [_SQRT_HALF, 0.0]])
_B_RR = np.array([[0.0, 0.0], [0.0, 1.0]])

# Involutions of the boson (m1, m2) and fermion (m1, s1, m2, s2) product
# spaces: the left-right mirror of every particle, and the exchange of the
# two fermions' spins, (m1, s1, m2, s2) -> (m1, s2, m2, s1).
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_MIRROR = (np.kron(_SWAP, _SWAP), np.kron(np.kron(_SWAP, np.eye(2)), np.kron(_SWAP, np.eye(2))))
_SPIN_EXCHANGE = (
    np.eye(4),
    np.eye(16).reshape(2, 2, 2, 2, 16).transpose(0, 3, 2, 1, 4).reshape(16, 16),
)


def _det_pattern(o1: int, o2: int) -> np.ndarray:
    """Slater determinant |o1 o2>, o1 < o2, unnormalized: entries 0 and +-1,
    so a pair vector built from these and scaled once is exact or rounded once."""
    v = np.zeros(16)
    v[4 * o1 + o2] = 1.0
    v[4 * o2 + o1] = -1.0
    return v


def _boson_states() -> tuple[list[str], np.ndarray]:
    vectors = np.column_stack(
        [_B_LL.reshape(4), _B_SYM.reshape(4), _B_RR.reshape(4)]
    )
    return ["LL", "S", "RR"], vectors


def _fermion_states(sector: int) -> tuple[list[str], np.ndarray]:
    if sector == 0:
        p03 = _det_pattern(0, 3)
        p12 = _det_pattern(1, 2)
        labels = ["LLs", "Ss", "RRs", "T0"]
        vectors = np.column_stack(
            [
                _SQRT_HALF * _det_pattern(0, 1),
                0.5 * (p03 - p12),
                _SQRT_HALF * _det_pattern(2, 3),
                0.5 * (p03 + p12),
            ]
        )
        return labels, vectors
    label, orbitals = {1: ("LRuu", (0, 2)), -1: ("LRdd", (1, 3))}[sector]
    return [label], _SQRT_HALF * _det_pattern(*orbitals).reshape(16, 1)


class CompositeBasis(Record):
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
    def symmetries(self) -> tuple[np.ndarray, np.ndarray]:
        """The fermion spin exchange and the left-right mirror, as matrices
        over this basis (every spin sector's span is closed under both)."""
        return _involution(self, *_SPIN_EXCHANGE), _involution(self, *_MIRROR)

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Orthonormal column blocks, shape (dim, d_k), one per symmetry sector
        of the basis: the joint eigenspaces of ``symmetries``.  Largest first.

        Each column is an orbit sum (I + s_1 O_1)(I + s_2 O_2) e_i, exact in
        integers, kept at the orbit's first state and normalized once: entries
        0, +-1, +-0.5 or one rounding of 1/sqrt(2), the same on every CPU.
        Every Hamiltonian dwmix builds commutes with the symmetries
        (``HamiltonianBlocks.project`` checks it), so it is block-diagonal.
        """
        eye = np.eye(self.dim)
        exchange, mirror = self.symmetries
        sectors = []
        for s_mirror, s_exchange in product((-1.0, 1.0), repeat=2):
            p = (eye + s_exchange * exchange) @ (eye + s_mirror * mirror)
            q = p[:, [i for i in range(self.dim) if p[i, i] and not p[:i, i].any()]]
            sectors.append(np.sign(q) * np.sqrt(1.0 / np.count_nonzero(q, axis=0)))
        return tuple(sorted((q for q in sectors if q.size), key=lambda q: -q.shape[1]))


def enumerate_bases(sector: int) -> CompositeBasis:
    """Deterministic labeled composite basis for the given spin sector."""
    b_labels, b_vecs = _boson_states()
    f_labels, f_vecs = _fermion_states(sector)
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


class CouplingParams(Record):
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
                    stacklevel=3,  # past Record.__init__, to its caller
                )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COUPLING_NAMES}


class OverlapSet(Record):
    """The three contact tensors feeding assembly."""

    boson: OverlapTensor
    fermion: OverlapTensor
    cross: OverlapTensor


class ManyBodyHamiltonian(Record):
    """H at one coupling point: its model's blocks and its row of couplings,
    ordered as COUPLING_NAMES.  No full matrix is composed."""

    blocks: HamiltonianBlocks
    couplings: np.ndarray


class HamiltonianBlocks(Record):
    """H(c) = h0 + sum_k c_k h_k, projected once onto the symmetry sectors of
    the basis (``basis.sectors``), with c = (lambda_bb, lambda_ff, lambda_bf).

    ``base`` and each row of ``terms`` are flat rows, so H(c) is
    ``base + c @ terms``.  A flat row holds the sector blocks Q_k^T H Q_k,
    row-major, in the order of ``basis.sectors``.  Every entry is linear in
    c, so a sweep never builds a cell's full H.  The blocks hold
    H - shift * I, shift being the mean diagonal of h0, so that their
    rounding scales with the spread of the spectrum, not its offset.

    Every solve of a model's H reads its one projection: a single H takes
    every eigenpair of each block from LAPACK (:meth:`eigenpairs`), a sweep
    only each cell's ground pair and gap from the numpy solver of
    :mod:`dwmix.tridiagonal` (:meth:`ground_states`).  :meth:`project`
    refuses a piece that is not symmetric or does not commute with the
    symmetries, so no H built from the blocks couples its sectors.
    """

    basis: CompositeBasis
    base: np.ndarray
    terms: np.ndarray
    shift: float

    @classmethod
    def project(cls, basis: CompositeBasis, h0: np.ndarray, terms) -> HamiltonianBlocks:
        """Project h0 and each coupling term (ordered as COUPLING_NAMES), full
        matrices over the basis, onto its symmetry sectors.  Raises
        InvariantError, naming the piece, unless each equals its transpose and
        commutes with both ``basis.symmetries`` bit for bit: those are signed
        permutations, so O h O^T rounds nothing, on any CPU."""
        names = ("h0", *COUPLING_NAMES)
        for k, h in enumerate((h0, *terms)):
            if not (np.array_equal(h, h.T)
                    and all(np.array_equal(o @ h @ o.T, h) for o in basis.symmetries)):
                raise InvariantError(f"{names[k]} is not symmetric or does not commute "
                                     "with the basis symmetries")

        def flatten(h: np.ndarray) -> np.ndarray:
            return np.concatenate([(q.T @ h @ q).ravel() for q in basis.sectors])

        shift = float(np.mean(np.diag(h0)))
        return cls(basis=basis, base=flatten(h0 - shift * np.eye(basis.dim)),
                   terms=np.array([flatten(h) for h in terms]), shift=shift)

    def compose(self, params: CouplingParams) -> ManyBodyHamiltonian:
        """H at one coupling point, on the shared projection."""
        row = np.array(list(params.as_dict().values()))
        return ManyBodyHamiltonian(blocks=self, couplings=row)

    def _sector_stacks(self, couplings: np.ndarray) -> list[np.ndarray]:
        """The sector blocks of H - shift * I at each row of couplings (ordered
        as ``terms``), one (d, d, n) stack per sector: entry (i, j) of a block
        is a contiguous row over the n couplings."""
        flat = self.terms.T @ np.asarray(couplings, dtype=float).T
        flat += self.base[:, None]
        stacks, start = [], 0
        for q in self.basis.sectors:
            d = q.shape[1]
            stacks.append(flat[start : start + d * d].reshape(d, d, -1))
            start += d * d
        return stacks

    def eigenpairs(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of H - shift * I at one row of couplings, ordered by
        sector as ``basis.sectors`` and ascending within each, and the
        eigenvectors in the full basis as columns, shape (dim, dim)."""
        pairs = [np.linalg.eigh(a[:, :, 0]) for a in self._sector_stacks(row[None])]
        return (np.concatenate([e for e, _ in pairs]),
                np.hstack([q @ u for q, (_, u) in zip(self.basis.sectors, pairs)]))

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

        Raises InvariantError for a Laguerre row still moving after
        ``tridiagonal.LAGUERRE_ITERATIONS`` steps, and for a residual above
        ``tridiagonal.RESIDUAL_TOL`` * eps * ||A||_F, each naming its first
        row.
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
        v = np.empty((n, self.basis.dim))
        for a, q, t, rows in zip(stacks, self.basis.sectors, reduced, wins):
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


def hamiltonian_terms(
    modes_b: DoubletModes,
    modes_f: DoubletModes,
    overlaps: OverlapSet,
    basis: CompositeBasis,
) -> tuple[np.ndarray, ...]:
    """h0, h_bb, h_ff and h_bf as full matrices over the composite basis."""
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

    return h0, h_bb, h_ff, h_bf


def hamiltonian_blocks(
    modes_b: DoubletModes,
    modes_f: DoubletModes,
    overlaps: OverlapSet,
    basis: CompositeBasis,
) -> HamiltonianBlocks:
    """The model's Hamiltonian terms, projected onto the sectors of the basis."""
    h0, *terms = hamiltonian_terms(modes_b, modes_f, overlaps, basis)
    return HamiltonianBlocks.project(basis, h0, terms)


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


class GroundState(Record):
    """``vector`` holds the real ground-state coefficients over the basis."""

    energy: float
    vector: np.ndarray


def ground_state(h: ManyBodyHamiltonian) -> GroundState:
    """Lowest eigenpair of one H from its blocks' ``eigenpairs``, picked and
    signed as ``ground_states`` picks and signs a sweep cell's: the energies
    run by sector, so the first sector wins a tie."""
    energies, vectors = h.blocks.eigenpairs(h.couplings)
    k = int(np.argmin(energies))
    return GroundState(energy=float(energies[k] + h.blocks.shift),
                       vector=_oriented(vectors[None, :, k])[0])


def _involution(
    basis: CompositeBasis, p_boson: np.ndarray, p_fermion: np.ndarray
) -> np.ndarray:
    """p_boson x p_fermion in the composite basis: a signed permutation.

    Raises InvariantError unless the projected operator lies within 1e-10 of
    one: otherwise the basis span is not closed under it, and the sectors it
    would key would not block-diagonalize H.
    """
    m = np.kron(
        basis.boson_vectors.T @ p_boson @ basis.boson_vectors,
        basis.fermion_vectors.T @ p_fermion @ basis.fermion_vectors,
    )
    signed = np.rint(m)  # integer entries, so signed @ signed.T is exact
    if not (np.max(np.abs(m - signed)) < 1.0e-10
            and np.array_equal(signed @ signed.T, np.eye(basis.dim))):
        raise InvariantError("basis span is not closed under an involution: "
                             "its projection is not a signed permutation")
    return signed
