"""Shared test registries, independent brute-force oracles, and random-state generators.

The oracles here deliberately avoid the package's Schmidt/predicate code
paths: separability at a cut is decided from the dense amplitude tensor via
eigenvalues of M M^dagger, comparing the top squared singular value against
the total weight.
"""

from __future__ import annotations

import itertools

import numpy as np

from superselect.charges import (
    GAUGED,
    ChargeComponentSpec,
    ChargeVector,
    Species,
    SpeciesRegistry,
)
from superselect.fock import BasisState, RegisterLabel, attained_sectors, sector_basis
from superselect.states import StateVector

ORACLE_TOL = 1e-9


# -- registries beyond the scenario factories ----------------------------------

def lepton_photon_registry() -> SpeciesRegistry:
    """e-/e+ plus a self-conjugate neutral photon, all spinless."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 1, "e+"),
            Species("e+", ChargeVector((1,)), 1, "e-"),
            Species("gamma", ChargeVector((0,)), 1, "gamma"),
        ],
    )


def two_family_registry() -> SpeciesRegistry:
    """Two charged lepton families sharing one gauged electric charge; local dim 4."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 1, "e+"),
            Species("e+", ChargeVector((1,)), 1, "e-"),
            Species("mu-", ChargeVector((-1,)), 1, "mu+"),
            Species("mu+", ChargeVector((1,)), 1, "mu-"),
        ],
    )


def dyon_registry() -> SpeciesRegistry:
    """Toy species carrying two independent gauged charges."""
    return SpeciesRegistry(
        charge_specs=[
            ChargeComponentSpec("electric", GAUGED, "e"),
            ChargeComponentSpec("magnetic", GAUGED, "g"),
        ],
        species=[
            Species("d+", ChargeVector((1, 1)), 1, "d-"),
            Species("d-", ChargeVector((-1, -1)), 1, "d+"),
            Species("w+", ChargeVector((1, -1)), 1, "w-"),
            Species("w-", ChargeVector((-1, 1)), 1, "w+"),
        ],
    )


# -- dense-tensor oracle --------------------------------------------------------

def support_alphabets(vec: StateVector) -> list[list[RegisterLabel]]:
    return [
        sorted({b.labels[r] for b in vec.terms}) for r in range(vec.n)
    ]


def dense_tensor(vec: StateVector, alphabets=None) -> np.ndarray:
    """Amplitudes as a dense tensor with one axis per register."""
    if alphabets is None:
        alphabets = support_alphabets(vec)
    index = [{label: i for i, label in enumerate(al)} for al in alphabets]
    tensor = np.zeros(tuple(len(al) for al in alphabets), dtype=complex)
    for state, amp in vec.terms.items():
        tensor[tuple(index[r][state.labels[r]] for r in range(vec.n))] = amp
    return tensor


def oracle_cut_is_product(tensor: np.ndarray, left_axes) -> bool:
    """Rank-one test: top squared singular value accounts for all the weight."""
    n = tensor.ndim
    left = sorted(left_axes)
    right = [r for r in range(n) if r not in left]
    mat = np.transpose(tensor, left + right).reshape(
        int(np.prod([tensor.shape[r] for r in left])), -1
    )
    gram = mat @ mat.conj().T
    eigs = np.linalg.eigvalsh(gram)
    total = float(np.real(np.trace(gram)))
    return total - float(eigs[-1]) <= ORACLE_TOL


def oracle_packaged_entangled(vec: StateVector) -> bool:
    """Brute force: non-factorizable across every canonical bipartition."""
    if vec.n < 2:
        return False
    tensor = dense_tensor(vec)
    rest = list(range(1, vec.n))
    for r in range(0, vec.n - 1):
        for extra in itertools.combinations(rest, r):
            if oracle_cut_is_product(tensor, [0, *extra]):
                return False
    return True


def oracle_entangled_somewhere(vec: StateVector) -> bool:
    if vec.n < 2:
        return False
    tensor = dense_tensor(vec)
    rest = list(range(1, vec.n))
    for r in range(0, vec.n - 1):
        for extra in itertools.combinations(rest, r):
            if not oracle_cut_is_product(tensor, [0, *extra]):
                return True
    return False


# -- loop reference for the cut reshape -------------------------------------------

def reference_amplitude_matrix(vec: StateVector, cut):
    """``amplitude_matrix`` built with dicts of label tuples, one term at a time.

    Rows and columns are the sorted distinct left and right label tuples of
    the support; the integer index plan in ``superselect.entangle`` must
    reproduce this element for element.
    """
    lidx = sorted(cut.left)
    ridx = sorted(cut.right)
    lkeys = sorted({tuple(b.labels[i] for i in lidx) for b in vec.terms})
    rkeys = sorted({tuple(b.labels[i] for i in ridx) for b in vec.terms})
    lmap = {k: i for i, k in enumerate(lkeys)}
    rmap = {k: i for i, k in enumerate(rkeys)}
    mat = np.zeros((len(lkeys), len(rkeys)), dtype=complex)
    for state, amp in vec.terms.items():
        mat[lmap[tuple(state.labels[i] for i in lidx)],
            rmap[tuple(state.labels[i] for i in ridx)]] = amp
    return mat, lkeys, rkeys


# -- random single-sector states --------------------------------------------------

def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    terms = {}
    for sa, va in a.terms.items():
        for sb, vb in b.terms.items():
            terms[BasisState(sa.labels + sb.labels)] = va * vb
    return StateVector(terms, n=a.n + b.n)


def random_sector_superposition(rng, registry, n, max_support=None) -> StateVector:
    """Random normalized state inside one randomly chosen charge sector."""
    sectors = attained_sectors(registry, n)
    sector = sectors[rng.integers(len(sectors))]
    basis = sector_basis(registry, n, sector)
    size = int(rng.integers(1, len(basis) + 1))
    if max_support is not None:
        size = min(size, max_support)
    picks = rng.choice(len(basis), size=size, replace=False)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    return StateVector({basis[i]: amps[j] for j, i in enumerate(picks)})


def random_single_sector_state(rng, registry, n, product_bias=0.4) -> StateVector:
    """Single-sector state; with probability ``product_bias`` a cross-register product.

    Products of single-sector factors are single-sector themselves and give
    the separability oracle genuinely factorizable inputs to detect.
    """
    if n > 1 and rng.random() < product_bias:
        split = int(rng.integers(1, n))
        left = random_single_sector_state(rng, registry, split, product_bias)
        right = random_single_sector_state(rng, registry, n - split, product_bias)
        return tensor_product(left, right)
    return random_sector_superposition(rng, registry, n)
