"""Projective spin measurements on a single register and seeded sampling.

Only external degrees of freedom (spin) are measurable per register; the
charge content of one register is never projected on its own, because a
species' charges form one indivisible block. The whole state's net gauged
charge can be read out instead, which is a sector lookup, not a projection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .charges import SpeciesRegistry
from .errors import ConfigurationError, DomainError
from .fock import BasisState, RegisterLabel, SectorIndex
from .states import (
    PRUNE_TOL,
    StateVector,
    amplitude_norm,
    require_normalized,
    require_indices,
    require_single_sector,
    scale_pairs,
)

UNITARITY_TOL = 1e-10
#: Largest spin multiplicity ``spin_z_observable`` accepts, the documented
#: spin-z limit; its bases are ints, so nothing of size m^2 is built at any m.
MAX_SPIN_BASIS_DIM = 4096


@dataclass
class SpinObservable:
    """A spin basis per species for one register.

    ``bases[species_id]`` is an (m x m) unitary whose *rows* are the outcome
    vectors in that species' spin space, or a positive ``int`` m: the
    computational basis, which needs no array. Outcome k projects, within each
    species block, onto row k of that species' basis; species with fewer than
    k+1 spin states simply do not contribute to outcome k.
    """

    register: int
    bases: dict[str, np.ndarray | int]

    def __post_init__(self):
        if not self.bases:
            raise ConfigurationError("observable bases is empty: it needs a spin basis per species")
        clean = {}
        for sid, mat in self.bases.items():
            if type(mat) is int and mat >= 0:
                if mat == 0:
                    raise ConfigurationError(f"spin basis for {sid!r} is empty (0x0)")
                clean[sid] = mat
                continue
            mat = np.asarray(mat, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ConfigurationError(f"spin basis for {sid!r} must be square")
            if mat.shape[0] == 0:
                raise ConfigurationError(f"spin basis for {sid!r} is empty (0x0)")
            if not np.all(np.isfinite(mat)):
                raise ConfigurationError(f"spin basis for {sid!r} has non-finite entries")
            gram = mat @ mat.conj().T
            if np.max(np.abs(gram - np.eye(mat.shape[0]))) > UNITARITY_TOL:
                raise ConfigurationError(f"spin basis for {sid!r} is not unitary")
            clean[sid] = mat
        self.bases = clean

    def outcome_count(self) -> int:
        return max(m if type(m) is int else len(m) for m in self.bases.values())


def spin_z_observable(registry: SpeciesRegistry, register: int) -> SpinObservable:
    """The computational spin basis, as its multiplicity m, for every registry
    species; a multiplicity above ``MAX_SPIN_BASIS_DIM`` is refused."""
    for s in registry.species:
        if s.spin_multiplicity > MAX_SPIN_BASIS_DIM:
            raise ConfigurationError(
                f"refusing to build a spin basis for species {s.id!r} "
                f"(multiplicity {s.spin_multiplicity}): the limit is {MAX_SPIN_BASIS_DIM}"
            )
    return SpinObservable(register=register, bases={s.id: s.spin_multiplicity for s in registry.species})


@dataclass
class MeasurementRecord:
    outcome: int
    probability: float
    post_state: StateVector


def _branches(registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable):
    """Admit ``vec`` and project it on every outcome of ``obs`` in one pass over its terms.

    Returns ``(outcome, probability, post_state)`` for every outcome whose
    projection survives pruning, in outcome order. A term reaches the nonzero
    entries of its spin's basis column, then those of each reached outcome's
    row (an int basis has a single 1 in each). Each outcome's projection is
    one dict keyed by the projected BasisState, filled in term order and then
    new-spin order, and pruned at ``PRUNE_TOL``; its probability is the
    squared norm of the kept amplitudes and its post state those amplitudes
    scaled by the inverse norm, as ``normalize`` scales a built branch.
    """
    require_normalized(vec)
    require_single_sector(registry, vec)
    n, r = vec.n, obs.register
    if not 0 <= r < n:
        raise DomainError(f"register {r} out of range for n={n}")

    lines: dict[tuple, list] = {}  # (species, 0, column) or (species, 1, row) -> nonzero (index, entry)

    def line(sid, basis, axis, index):
        key = (sid, axis, index)
        if key not in lines:
            if type(basis) is int:  # one entry 1 + 0j, conjugated to 1 - 0j in a column
                lines[key] = [(index, (1 + 0j).conjugate() if axis == 0 else 1 + 0j)]
            else:
                entries = (basis[:, index].conj() if axis == 0 else basis[index]).tolist()
                lines[key] = [(k, e) for k, e in enumerate(entries) if e != 0]
        return lines[key]

    projected: dict[int, dict[BasisState, complex]] = {}
    for state, amp in vec.terms.items():
        labels = state.labels
        sid, spin = labels[r]
        basis = obs.bases.get(sid)
        if basis is None:
            raise ConfigurationError(f"observable has no spin basis for species {sid!r}")
        m = basis if type(basis) is int else len(basis)
        if spin >= m:
            raise DomainError(f"spin index {spin} outside the {m}-dim basis for {sid!r}")
        for outcome, conj_entry in line(sid, basis, 0, spin):
            overlap = conj_entry * amp
            if overlap == 0:
                continue
            branch = projected.setdefault(outcome, {})
            for new_spin, entry in line(sid, basis, 1, outcome):
                coef = entry * overlap
                if coef == 0:
                    continue
                if new_spin == spin:
                    key = state
                else:
                    key = BasisState(labels[:r] + (RegisterLabel(sid, new_spin),) + labels[r + 1:])
                branch[key] = branch.get(key, 0j) + coef

    branches = []
    for outcome in sorted(projected):
        kept = [(state, amp) for state, amp in projected[outcome].items() if abs(amp) >= PRUNE_TOL]
        if kept:
            norm = amplitude_norm(amp for _, amp in kept)
            branches.append((outcome, norm ** 2, scale_pairs(1.0 / norm, kept, n)))
    return branches


def _distribution(registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable):
    """``vec``'s Born distribution under ``obs``: ``(branches, edges)``.

    ``branches`` is ``_branches``' list, every post state built with it, and
    ``edges`` the running sums of its probabilities. Both are kept on the
    vector (its one-entry ``_born`` slot), under a key that snapshots
    everything ``_branches`` reads besides the immutable vector: the
    registry's charge specs and species-by-id table, and the observable's
    register and bases, an int basis as ``(species, m)`` and an array basis as
    its species, shape, dtype and bytes. Registry lists and observable arrays
    can change in place, so the key is compared on every call, and an unequal
    key recomputes. A call that raises stores nothing. The entry holds no
    reference back to its vector, so it dies with it.
    """
    require_indices([obs.register], "register")  # before the key: True == 1
    key = (
        tuple(registry.charge_specs),
        tuple(registry._by_id.items()),
        obs.register,
        tuple(
            (sid, mat) if type(mat) is int else (sid, mat.shape, mat.dtype, mat.tobytes())
            for sid, mat in obs.bases.items()
        ),
    )
    born = vec._born
    if born is None or born[0] != key:
        branches = _branches(registry, vec, obs)
        born = vec._born = (key, branches, list(accumulate(prob for _, prob, _ in branches)))
    return born[1:]


def measure_spin(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable
) -> list[MeasurementRecord]:
    """Born-rule outcome distribution and collapsed states for one register's spin.

    The input must be normalized and confined to a single charge sector.
    Outcomes with zero projected weight are omitted; every post state is
    renormalized and stays in the input's sector exactly (projection never
    touches species labels).
    """
    branches, _ = _distribution(registry, vec, obs)
    return [MeasurementRecord(*branch) for branch in branches]


def sample_measurements(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable, seeds
) -> list[MeasurementRecord]:
    """One record per seed, drawn from the measure_spin distribution.

    The distribution is the one kept on the vector, so every record of one
    outcome shares that outcome's post state. Seed ``s`` draws
    ``u = default_rng(s).random() * total`` against the running sums of the
    probabilities and takes the first outcome whose sum exceeds ``u``.
    """
    branches, edges = _distribution(registry, vec, obs)
    records = []
    for seed in seeds:
        u = np.random.default_rng(seed).random() * edges[-1]
        idx = min(bisect_right(edges, u), len(branches) - 1)
        records.append(MeasurementRecord(*branches[idx]))
    return records


def sample_measurement(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable, seed: int
) -> MeasurementRecord:
    """Draw one record from the measure_spin distribution; deterministic per seed."""
    return sample_measurements(registry, vec, obs, [seed])[0]


def read_sector_charge(registry: SpeciesRegistry, vec: StateVector) -> SectorIndex:
    """Sector-level charge readout: the net gauged charge of the whole state."""
    return require_single_sector(registry, vec)
