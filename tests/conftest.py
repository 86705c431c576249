import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwmix
from dwmix.config import RunConfig
from dwmix.model import build_context


@pytest.fixture(scope="session")
def config_factory():
    """Build a validated RunConfig from flat key overrides."""

    def make(**flat):
        config = RunConfig.default()
        if flat:
            config = config.replace_values(**flat)
            config.validate()
        return config

    return make


@pytest.fixture(scope="session")
def default_context():
    """Full-resolution context; pinned regression values assume this one."""
    return build_context(RunConfig.default())


@pytest.fixture(scope="session")
def coarse_context(config_factory):
    """Cheaper grid for structural tests that do not rely on pinned numbers."""
    return build_context(config_factory(**{"grid.n_points": 801}))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def run_python():
    """Run a fresh interpreter that imports this dwmix and the test modules."""
    paths = [str(Path(dwmix.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    return run


def doctored(sectors):
    """Sector blocks whose last coupling term raises the strict upper triangle
    of the first sector's block only.  The symmetry check reads the full H,
    so it passes; the solver reads the lower triangle, so wherever that
    coupling is nonzero the ground pair's residual in the block is large."""
    d = sectors.sectors[0].shape[1]
    upper = sectors.n_defect + np.flatnonzero(np.triu(np.ones((d, d)), 1))
    terms = sectors.terms.copy()
    terms[-1, upper] += 1.0
    return dataclasses.replace(sectors, terms=terms)


def full_matrix(blocks, params):
    """h0 + sum_k c_k h_k composed in float64: the full H that src/dwmix never
    builds, kept here as the reference for oracles."""
    return (blocks.h0 + params.lambda_bb * blocks.h_bb + params.lambda_ff * blocks.h_ff
            + params.lambda_bf * blocks.h_bf)


def doctor_cached_projection(blocks):
    """Replace the projection ``blocks.sectors`` caches with its doctored copy."""
    blocks.__dict__["sectors"] = doctored(blocks.sectors)
    return blocks


# Eigenvalues at or below this are rounding of weights that sum to 1 and
# count as 0.  It is the value of ``observables.ENTROPY_FLOOR``, kept apart so
# that a change to that floor shows against this reference.
PARTIAL_TRACE_FLOOR = 4.0 * np.finfo(float).eps


def partial_trace_entropies(coefficients, basis):
    """Boson and fermion entropies from the eigenvalues of each species'
    reduced density matrix, M M^H and M^T M* of each row's boson x fermion
    coefficient matrix M: the two partial traces that ``species_entropies``
    replaces with one Schmidt spectrum, kept here as its reference."""
    m = np.asarray(coefficients).reshape(-1, basis.boson_dim, basis.fermion_dim)
    entropies = []
    for rho in (m @ m.conj().swapaxes(1, 2), m.swapaxes(1, 2) @ m.conj()):
        lam = np.linalg.eigvalsh(rho)
        lam = np.where(lam > PARTIAL_TRACE_FLOOR, lam, 1.0)
        entropies.append(np.maximum(-np.sum(lam * np.log2(lam), axis=1), 0.0))
    return tuple(entropies)
