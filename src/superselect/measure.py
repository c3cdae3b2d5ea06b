"""Projective spin measurements on a single register and seeded sampling.

Only external degrees of freedom (spin) are measurable per register; the
charge content of one register is never projected on its own, because a
species' charges form one indivisible block. The whole state's net gauged
charge can be read out instead, which is a sector lookup, not a projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charges import SpeciesRegistry
from .errors import ConfigurationError, DomainError
from .fock import BasisState, RegisterLabel, SectorIndex
from .states import StateVector, normalize, require_normalized, require_single_sector

UNITARITY_TOL = 1e-10


@dataclass
class SpinObservable:
    """A spin basis per species for one register.

    ``bases[species_id]`` is an (m x m) unitary whose *rows* are the outcome
    vectors in that species' spin space. Outcome k projects, within each
    species block, onto row k of that species' basis; species with fewer than
    k+1 spin states simply do not contribute to outcome k.
    """

    register: int
    bases: dict[str, np.ndarray]

    def __post_init__(self):
        clean = {}
        for sid, mat in self.bases.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ConfigurationError(f"spin basis for {sid!r} must be square")
            gram = mat @ mat.conj().T
            if np.max(np.abs(gram - np.eye(mat.shape[0]))) > UNITARITY_TOL:
                raise ConfigurationError(f"spin basis for {sid!r} is not unitary")
            clean[sid] = mat
        self.bases = clean

    def outcome_count(self) -> int:
        return max(mat.shape[0] for mat in self.bases.values())


def spin_z_observable(registry: SpeciesRegistry, register: int) -> SpinObservable:
    """The computational spin basis (identity matrix) for every registry species."""
    bases = {
        s.id: np.eye(s.spin_multiplicity, dtype=complex) for s in registry.species
    }
    return SpinObservable(register=register, bases=bases)


@dataclass
class MeasurementRecord:
    outcome: int
    probability: float
    post_state: StateVector


def measure_spin(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable
) -> list[MeasurementRecord]:
    """Born-rule outcome distribution and collapsed states for one register's spin.

    The input must be normalized and confined to a single charge sector.
    Outcomes with zero projected weight are omitted; every post state is
    renormalized and stays in the input's sector exactly (projection never
    touches species labels).
    """
    require_normalized(vec)
    require_single_sector(registry, vec)
    r = obs.register
    if not 0 <= r < vec.n:
        raise DomainError(f"register {r} out of range for n={vec.n}")

    records = []
    for outcome in range(obs.outcome_count()):
        projected: dict[BasisState, complex] = {}
        for state, amp in vec.terms.items():
            label = state.labels[r]
            basis = obs.bases.get(label.species_id)
            if basis is None:
                raise ConfigurationError(
                    f"observable has no spin basis for species {label.species_id!r}"
                )
            m = basis.shape[0]
            if label.spin >= m:
                raise DomainError(
                    f"spin index {label.spin} outside the {m}-dim basis for {label.species_id!r}"
                )
            if outcome >= m:
                continue  # this species block has no such outcome
            overlap = np.conj(basis[outcome, label.spin]) * amp
            if overlap == 0:
                continue
            for new_spin in range(m):
                coef = basis[outcome, new_spin] * overlap
                if coef == 0:
                    continue
                labels = list(state.labels)
                labels[r] = RegisterLabel(label.species_id, new_spin)
                key = BasisState(tuple(labels))
                projected[key] = projected.get(key, 0j) + coef
        branch = StateVector(projected, n=vec.n)
        if branch.is_zero():
            continue
        prob = branch.norm() ** 2
        records.append(
            MeasurementRecord(
                outcome=outcome, probability=prob, post_state=normalize(branch)
            )
        )
    return records


def sample_measurement(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable, seed: int
) -> MeasurementRecord:
    """Draw one record from the measure_spin distribution; deterministic per seed."""
    records = measure_spin(registry, vec, obs)
    probs = np.array([r.probability for r in records])
    edges = np.cumsum(probs)
    u = np.random.default_rng(seed).random() * edges[-1]
    idx = int(np.searchsorted(edges, u, side="right"))
    return records[min(idx, len(records) - 1)]


def read_sector_charge(registry: SpeciesRegistry, vec: StateVector) -> SectorIndex:
    """Sector-level charge readout: the net gauged charge of the whole state."""
    return require_single_sector(registry, vec)
