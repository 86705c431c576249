"""Regenerate the 40-digit pins of the extended-precision tests.

Run from the repository root:

    PYTHONPATH=src python tests/make_pins.py          # print the pins as literals
    PYTHONPATH=src python tests/make_pins.py --check  # exit 1 if a pin is off

Each pin is recomputed with mpmath at 40 digits from the float64 model that
dwmix builds, by the procedure its test's comment states:

- ``test_dynamics.PROPAGATION_PINS``: P_RR of both species and the entropy
  along a 40-digit propagation of the region2 couplings on 801 points;
- ``test_dynamics.SMALL_ENTROPY_SAMPLES``: the Schmidt entropy of the float64
  coefficients ``evolve`` gives at SMALL_ENTROPY_SAMPLE_COUNT samples of each
  region preset's trajectory, those where either partial trace's eigvalsh
  misses it most (which samples those are changes with any rounding of the
  model, so ``--check`` holds the pinned values at the pinned samples, and
  prints the samples where eigvalsh misses most today);
- ``test_sweep.PHASE_MAPS_LINE_ENTROPIES``: ground-state entropies along the
  phase_maps line.

``--check`` compares each pinned constant with its regenerated value and
fails if one is off by more than its test's tolerance.  It also fails if,
at every pinned small-entropy sample of a preset, both partial traces'
eigvalsh meet the 40-digit value within that test's tolerance: the test
would then pass on eigvalsh too, and no longer tell the Schmidt path from it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

from dwmix.config import RunConfig
from dwmix.dynamics import default_time_grid, evolve, initial_state_rr
from dwmix.manybody import CouplingParams
from dwmix.model import build_context
from dwmix.observables import ENTROPY_FLOOR

sys.path.insert(0, str(Path(__file__).parent))
from conftest import model_terms, partial_trace_entropies, preset_config  # noqa: E402

mpmath.mp.dps = 40

# The tolerance each pin's test holds it to.
PROPAGATION_ATOL = 1.0e-13
SMALL_ENTROPY_ATOL = 5.0e-15
LINE_ENTROPY_ATOL = 1.0e-13

# eigvalsh's miss at one sample moves with the BLAS kernel's rounding (region3
# sample 4: 1.17e-14 on OpenBLAS's SkylakeX kernel, 2.26e-15 on Haswell), so
# one sample tells the Schmidt path from eigvalsh on some kernels only.  Of
# the six samples it misses most on any one of the SkylakeX, Haswell and
# Nehalem kernels, it misses at least one by 7.3e-15 or more on all three
# (6.3e-15 on Haswell with numpy held to its x86-64-v2 baseline).
SMALL_ENTROPY_SAMPLE_COUNT = 6


def exact_hamiltonian(context, params: CouplingParams) -> mpmath.matrix:
    """h0 + sum_k c_k h_k from the context's float64 terms (``model_terms``)
    and the couplings, composed and symmetrized at 40 digits."""
    h0, h_bb, h_ff, h_bf = model_terms(context)
    terms = [(1.0, h0), (params.lambda_bb, h_bb), (params.lambda_ff, h_ff),
             (params.lambda_bf, h_bf)]
    n = context.basis.dim
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
    h = exact_hamiltonian(context, CouplingParams(9e-4, 3.2e-4, 9e-4))
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


def small_entropy_samples(pinned: dict[str, list[int] | None]
                          ) -> dict[str, dict[int, tuple[float, float]]]:
    """Each preset's samples, each with its 40-digit entropy and the larger of
    the two partial traces' eigvalsh misses of that entropy.  Every sample
    with a positive entropy is searched, and the SMALL_ENTROPY_SAMPLE_COUNT
    where eigvalsh misses most are printed; a preset pinned to None takes
    those samples."""
    pins = {}
    for name, samples in pinned.items():
        config = preset_config(name)
        context = build_context(config)
        times = default_time_grid(context.min_splitting, periods=config.dynamics.periods,
                                  n_samples=config.dynamics.n_samples)
        states = evolve(context.hamiltonian(), initial_state_rr(context.basis), times)
        s_bosons, s_fermions = partial_trace_entropies(states, context.basis)

        def exact_and_miss(j):
            exact = schmidt_entropy(states[j], context.basis)
            return float(exact), float(max(abs(s_bosons[j] - exact), abs(s_fermions[j] - exact)))

        found = {int(j): exact_and_miss(j) for j in np.flatnonzero(s_bosons > 0.0)}
        worst = sorted(sorted(found, key=lambda j: -found[j][1])[:SMALL_ENTROPY_SAMPLE_COUNT])
        print(f"# {name}: eigvalsh misses most at samples {worst}, by "
              + ", ".join(f"{found[j][1]:.2e}" for j in worst))
        samples = worst if samples is None else samples
        pins[name] = {k: found[k] if k in found else exact_and_miss(k) for k in samples}
    return pins


def phase_maps_line_entropies() -> list[float]:
    context = build_context(RunConfig.default().replace_values(
        **{"potential.separation": 1.65, "potential.smoothing": 0.12}))
    entropies = []
    for lambda_ff in np.linspace(0.0, 3.0e-4, 4):
        h = exact_hamiltonian(context, CouplingParams(5.0e-4, float(lambda_ff), 5.0e-4))
        energies, vectors = mpmath.eigsy(h)
        ground = min(range(context.basis.dim), key=lambda n: energies[n])
        entropies.append(float(schmidt_entropy(vectors[:, ground], context.basis)))
    return entropies


def main(argv: list[str]) -> int:
    import test_dynamics
    import test_sweep

    check = "--check" in argv
    propagation = propagation_pins()
    # --check holds the pinned values at their pinned samples; printing pins
    # the samples found afresh.
    small = small_entropy_samples({name: list(samples) if check else None for name, samples in
                                   test_dynamics.SMALL_ENTROPY_SAMPLES.items()})
    line = phase_maps_line_entropies()
    if not check:
        print("# tests/test_dynamics.py")
        print("PROPAGATION_PINS = {")
        for key, values in propagation.items():
            print(f"    {key!r}: {values!r},")
        print("}")
        print("SMALL_ENTROPY_SAMPLES = {")
        for name, samples in small.items():
            print(f"    {name!r}: {{{', '.join(f'{k}: {v!r}' for k, (v, _) in samples.items())}}},")
        print("}")
        print("# tests/test_sweep.py")
        print(f"PHASE_MAPS_LINE_ENTROPIES = {line!r}")
        return 0

    checks = [(f"PROPAGATION_PINS[{key!r}]", test_dynamics.PROPAGATION_PINS[key],
               values, PROPAGATION_ATOL) for key, values in propagation.items()]
    checks += [(f"SMALL_ENTROPY_SAMPLES[{name!r}]",
                list(test_dynamics.SMALL_ENTROPY_SAMPLES[name].values()),
                [value for value, _ in samples.values()], SMALL_ENTROPY_ATOL)
               for name, samples in small.items()]
    checks.append(("PHASE_MAPS_LINE_ENTROPIES", test_sweep.PHASE_MAPS_LINE_ENTROPIES,
                   line, LINE_ENTROPY_ATOL))
    failed = False
    for name, pinned, regenerated, atol in checks:
        off = max(abs(p - r) for p, r in zip(pinned, regenerated, strict=True))
        ok = off <= atol
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: off by {off:.2e} (tolerance {atol:.0e})")
    # The small-entropy test tells the Schmidt path from eigvalsh only where
    # eigvalsh misses a pinned sample by more than the test's tolerance.
    for name, samples in small.items():
        k = max(samples, key=lambda j: samples[j][1])
        ok = samples[k][1] > SMALL_ENTROPY_ATOL
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} SMALL_ENTROPY_SAMPLES[{name!r}]: eigvalsh misses "
              f"pinned sample {k} most, by {samples[k][1]:.2e} "
              f"(must exceed {SMALL_ENTROPY_ATOL:.0e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
