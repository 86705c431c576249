import os
import subprocess
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dwmix
from dwmix.config import RunConfig, parse_config
from dwmix.manybody import HamiltonianBlocks, hamiltonian_terms
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


PRESETS = ("region1", "region2", "region3", "phase_maps")


def preset_config(name, overrides=None):
    """A shipped preset's validated config, with flat key overrides."""
    text = resources.files("dwmix").joinpath(f"presets/{name}.cfg").read_text()
    return parse_config(text, overrides)


@lru_cache(maxsize=None)
def preset_context(name, spin_sector=0):
    """The full-resolution model of a shipped preset in one spin sector."""
    return build_context(preset_config(name, {"model.spin_sector": spin_sector}))


def doctored(blocks, term=-1):
    """Blocks whose coupling term ``term`` (the last by default) raises the
    strict upper triangle of the first sector's block only.  They are built
    from projected blocks, so they have passed ``project``'s symmetry check;
    the solver reads the lower triangle, so wherever that coupling is nonzero
    the ground pair's residual in the block is large."""
    d = blocks.basis.sectors[0].shape[1]
    upper = np.flatnonzero(np.triu(np.ones((d, d)), 1))
    terms = blocks.terms.copy()
    terms[term, upper] += 1.0
    return HamiltonianBlocks(blocks.basis, blocks.base, terms, blocks.shift)


def doctor_cached_blocks(context):
    """Replace the blocks ``context`` caches with their doctored copy."""
    context.__dict__["blocks"] = doctored(context.blocks)
    return context.blocks


def model_terms(context):
    """h0, h_bb, h_ff and h_bf of a context's model as full dim x dim matrices,
    the pieces its blocks project: the reference for oracles."""
    return hamiltonian_terms(context.boson_modes, context.fermion_modes, context.overlaps,
                             context.basis)


def full_matrix(terms, params):
    """h0 + sum_k c_k h_k composed in float64 from ``model_terms``: the full H
    that src/dwmix never builds, kept here as the reference for oracles."""
    h0, h_bb, h_ff, h_bf = terms
    return h0 + params.lambda_bb * h_bb + params.lambda_ff * h_ff + params.lambda_bf * h_bf


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
