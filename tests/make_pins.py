"""Regenerate the 40-digit pins of the extended-precision tests.

Run from the repository root:

    PYTHONPATH=src python tests/make_pins.py          # print the pins as literals
    PYTHONPATH=src python tests/make_pins.py --check  # exit 1 if a pin is off

Each pin is recomputed with mpmath at 40 digits from the float64 model that
dwmix builds, by the procedure its test's comment states:

- ``test_dynamics.PROPAGATION_PINS``: P_RR of both species and the entropy
  along a 40-digit propagation of the region2 couplings on 801 points;
- ``test_dynamics.SMALL_ENTROPY_SAMPLES``: the Schmidt entropy of the float64
  coefficients ``evolve`` gives at one sample of each region preset's
  trajectory, the sample where either partial trace's eigvalsh misses it
  most (which sample that is changes with any rounding of the model, so
  ``--check`` holds the pinned value at the pinned sample, and prints the
  sample where eigvalsh misses most today);
- ``test_sweep.PHASE_MAPS_LINE_ENTROPIES``: ground-state entropies along the
  phase_maps line.

``--check`` compares each pinned constant with its regenerated value and
fails if one is off by more than its test's tolerance.  It also fails if,
at a pinned small-entropy sample, both partial traces' eigvalsh meet the
40-digit value within that test's tolerance: the test would then pass on
eigvalsh too, and no longer tell the Schmidt path from it.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np

from dwmix.config import RunConfig, parse_config
from dwmix.dynamics import default_time_grid, evolve, initial_state_rr
from dwmix.manybody import CouplingParams
from dwmix.model import build_context
from dwmix.observables import ENTROPY_FLOOR

sys.path.insert(0, str(Path(__file__).parent))
from conftest import partial_trace_entropies  # noqa: E402

mpmath.mp.dps = 40

# The tolerance each pin's test holds it to.
PROPAGATION_ATOL = 1.0e-13
SMALL_ENTROPY_ATOL = 5.0e-15
LINE_ENTROPY_ATOL = 1.0e-13


def exact_hamiltonian(blocks, params: CouplingParams) -> mpmath.matrix:
    """h0 + sum_k c_k h_k from the float64 blocks and couplings, composed and
    symmetrized at 40 digits."""
    terms = [(1.0, blocks.h0), (params.lambda_bb, blocks.h_bb),
             (params.lambda_ff, blocks.h_ff), (params.lambda_bf, blocks.h_bf)]
    n = blocks.basis.dim
    h = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            h[i, j] = sum(mpmath.mpf(c) * (mpmath.mpf(t[i, j]) + mpmath.mpf(t[j, i])) / 2
                          for c, t in terms)
    return h


def schmidt_entropy(coefficients, basis) -> mpmath.mpf:
    """-sum w log2 w over the eigenvalues w of M M^H above ENTROPY_FLOOR, M
    the state's boson x fermion coefficient matrix."""
    nb, nf = basis.boson_dim, basis.fermion_dim
    m = [[mpmath.mpmathify(coefficients[i * nf + j]) for j in range(nf)] for i in range(nb)]
    rho = mpmath.matrix(nb, nb)
    for i in range(nb):
        for k in range(nb):
            rho[i, k] = mpmath.fsum(m[i][j] * mpmath.conj(m[k][j]) for j in range(nf))
    weights = mpmath.eighe(rho, eigvals_only=True)
    return -mpmath.fsum(w * mpmath.log(w, 2) for w in weights if w > ENTROPY_FLOOR)


def propagation_pins() -> dict[str, list[float]]:
    context = build_context(RunConfig.default().replace_values(**{"grid.n_points": 801}))
    basis = context.basis
    h = exact_hamiltonian(context.blocks, CouplingParams(9e-4, 3.2e-4, 9e-4))
    energies, vectors = mpmath.eigsy(h)
    psi0 = initial_state_rr(basis).real
    a = vectors.T * mpmath.matrix([mpmath.mpf(c) for c in psi0])
    bosons = [basis.index_of("RR", f) for f in basis.fermion_labels]
    fermions = [basis.index_of(b, "RRs") for b in basis.boson_labels]
    pins = {"p_rr_bosons": [], "p_rr_fermions": [], "entropy": []}
    for t in default_time_grid(context.min_splitting, periods=3.0, n_samples=5)[1:]:
        phased = mpmath.matrix([a[n] * mpmath.expj(-energies[n] * mpmath.mpf(t))
                                for n in range(basis.dim)])
        psi = vectors * phased
        pins["p_rr_bosons"].append(mpmath.fsum(abs(psi[k]) ** 2 for k in bosons))
        pins["p_rr_fermions"].append(mpmath.fsum(abs(psi[k]) ** 2 for k in fermions))
        pins["entropy"].append(schmidt_entropy(psi, basis))
    return {key: [float(v) for v in values] for key, values in pins.items()}


def small_entropy_samples(pinned: dict[str, int | None]) -> dict[str, tuple[int, float, float]]:
    """Each preset's sample, its 40-digit entropy, and the larger of the two
    partial traces' eigvalsh misses of that entropy.  Every sample with a
    positive entropy is searched, and the one where eigvalsh misses most is
    printed; a preset pinned to None takes that sample."""
    pins = {}
    for name, k in pinned.items():
        text = resources.files("dwmix").joinpath(f"presets/{name}.cfg").read_text()
        config = parse_config(text)
        context = build_context(config)
        times = default_time_grid(context.min_splitting, periods=config.dynamics.periods,
                                  n_samples=config.dynamics.n_samples)
        states = evolve(context.hamiltonian(), initial_state_rr(context.basis), times)
        s_bosons, s_fermions = partial_trace_entropies(states, context.basis)

        def exact_and_miss(j):
            exact = schmidt_entropy(states[j], context.basis)
            return exact, max(abs(s_bosons[j] - exact), abs(s_fermions[j] - exact))

        found = {int(j): exact_and_miss(j) for j in np.flatnonzero(s_bosons > 0.0)}
        worst = max(found, key=lambda j: found[j][1])
        print(f"# {name}: eigvalsh misses most at sample {worst}, by {float(found[worst][1]):.2e}")
        k = worst if k is None else k
        exact, miss = found[k] if k in found else exact_and_miss(k)
        pins[name] = (k, float(exact), float(miss))
    return pins


def phase_maps_line_entropies() -> list[float]:
    context = build_context(RunConfig.default().replace_values(
        **{"potential.separation": 1.65, "potential.smoothing": 0.12}))
    entropies = []
    for lambda_ff in np.linspace(0.0, 3.0e-4, 4):
        h = exact_hamiltonian(context.blocks, CouplingParams(5.0e-4, float(lambda_ff), 5.0e-4))
        energies, vectors = mpmath.eigsy(h)
        ground = min(range(context.basis.dim), key=lambda n: energies[n])
        entropies.append(float(schmidt_entropy(vectors[:, ground], context.basis)))
    return entropies


def main(argv: list[str]) -> int:
    import test_dynamics
    import test_sweep

    check = "--check" in argv
    propagation = propagation_pins()
    # --check holds each pinned value at its pinned sample; printing pins
    # the sample found afresh.
    small = small_entropy_samples({name: k if check else None for name, (k, _) in
                                   test_dynamics.SMALL_ENTROPY_SAMPLES.items()})
    line = phase_maps_line_entropies()
    if not check:
        print("# tests/test_dynamics.py")
        print("PROPAGATION_PINS = {")
        for key, values in propagation.items():
            print(f"    {key!r}: {values!r},")
        print("}")
        print("SMALL_ENTROPY_SAMPLES = {")
        for name, (k, value, _) in small.items():
            print(f"    {name!r}: {(k, value)!r},")
        print("}")
        print("# tests/test_sweep.py")
        print(f"PHASE_MAPS_LINE_ENTROPIES = {line!r}")
        return 0

    checks = [(f"PROPAGATION_PINS[{key!r}]", test_dynamics.PROPAGATION_PINS[key],
               values, PROPAGATION_ATOL) for key, values in propagation.items()]
    checks += [(f"SMALL_ENTROPY_SAMPLES[{name!r}]", [test_dynamics.SMALL_ENTROPY_SAMPLES[name][1]],
                [value], SMALL_ENTROPY_ATOL) for name, (_, value, _) in small.items()]
    checks.append(("PHASE_MAPS_LINE_ENTROPIES", test_sweep.PHASE_MAPS_LINE_ENTROPIES,
                   line, LINE_ENTROPY_ATOL))
    failed = False
    for name, pinned, regenerated, atol in checks:
        off = max(abs(p - r) for p, r in zip(pinned, regenerated, strict=True))
        ok = off <= atol
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: off by {off:.2e} (tolerance {atol:.0e})")
    # The small-entropy test tells the Schmidt path from eigvalsh only where
    # eigvalsh misses by more than the test's tolerance.
    for name, (k, _, miss) in small.items():
        ok = miss > SMALL_ENTROPY_ATOL
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} SMALL_ENTROPY_SAMPLES[{name!r}]: eigvalsh misses "
              f"sample {k} by {miss:.2e} (must exceed {SMALL_ENTROPY_ATOL:.0e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
