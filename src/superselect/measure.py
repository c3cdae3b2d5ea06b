"""Projective spin measurements on a single register and seeded sampling.

Only external degrees of freedom (spin) are measurable per register; the
charge content of one register is never projected on its own, because a
species' charges form one indivisible block. The whole state's net gauged
charge can be read out instead, which is a sector lookup, not a projection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
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
    require_single_sector,
    scale_pairs,
)

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
        if not self.bases:
            raise ConfigurationError("observable bases is empty: it needs a spin basis per species")
        clean = {}
        for sid, mat in self.bases.items():
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


def _branches(registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable):
    """Admit ``vec`` once and project it on every outcome of ``obs``.

    Returns ``(outcome, probability, post_state)`` for every outcome whose
    projection survives pruning, in outcome order. ``post_state()`` builds
    that branch's normalized StateVector, so a caller pays only for the
    branches it returns.

    Each term's basis and spin are checked once. Terms that differ only in
    register ``r``'s spin share a group, and a branch is keyed by group and
    new spin, so contributions to one key are summed in term order exactly as
    a dict keyed by the projected BasisState would sum them. The kept
    amplitudes, their ``norm() ** 2`` and the normalized post state are
    therefore bitwise those of the term-by-term projection.
    """
    require_normalized(vec)
    require_single_sector(registry, vec)
    r = obs.register
    if not 0 <= r < vec.n:
        raise DomainError(f"register {r} out of range for n={vec.n}")
    outcomes = obs.outcome_count()

    blocks: dict[str, tuple] = {}  # species -> rows, conjugated rows, m, diagonal?
    groups: dict[tuple, int] = {}
    members: list[dict[int, BasisState]] = []  # per group: spin at r -> its term's state
    terms = []
    for state, amp in vec.terms.items():
        label = state.labels[r]
        sid = label.species_id
        block = blocks.get(sid)
        if block is None:
            basis = obs.bases.get(sid)
            if basis is None:
                raise ConfigurationError(f"observable has no spin basis for species {sid!r}")
            diagonal = np.count_nonzero(basis) == np.count_nonzero(basis.diagonal())
            block = blocks[sid] = (basis.tolist(), basis.conj().tolist(), basis.shape[0], diagonal)
        rows, conj_rows, m, diagonal = block
        if label.spin >= m:
            raise DomainError(f"spin index {label.spin} outside the {m}-dim basis for {sid!r}")
        if diagonal:  # the term only ever projects onto itself: a group of its own
            group = len(members)
        else:
            group = groups.setdefault((state.labels[:r], sid, state.labels[r + 1:]), len(members))
        if group == len(members):
            members.append({})
        members[group][label.spin] = state
        terms.append((group * outcomes, label.spin, amp, rows, conj_rows, m))

    def post_state(norm: float, kept) -> StateVector:
        pairs = []
        for key, amp in kept:
            group, new_spin = divmod(key, outcomes)
            state = members[group].get(new_spin)
            if state is None:
                labels = list(next(iter(members[group].values())).labels)
                labels[r] = RegisterLabel(labels[r].species_id, new_spin)
                state = BasisState(tuple(labels))
            pairs.append((state, amp))
        # normalize(branch) without building the branch first: the kept pairs
        # are the branch's terms in order, and ``norm`` is its norm()
        return scale_pairs(1.0 / norm, pairs, vec.n)

    branches = []
    for outcome in range(outcomes):
        projected: dict[int, complex] = {}
        for base, spin, amp, rows, conj_rows, m in terms:
            if outcome >= m:
                continue  # this species block has no such outcome
            overlap = conj_rows[outcome][spin] * amp
            if overlap == 0:
                continue
            for new_spin, entry in enumerate(rows[outcome]):
                coef = entry * overlap
                if coef == 0:
                    continue
                key = base + new_spin
                projected[key] = projected.get(key, 0j) + coef
        kept = [(key, amp) for key, amp in projected.items() if abs(amp) >= PRUNE_TOL]
        if kept:
            norm = amplitude_norm(amp for _, amp in kept)
            branches.append((outcome, norm ** 2, partial(post_state, norm, kept)))
    return branches


def measure_spin(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable
) -> list[MeasurementRecord]:
    """Born-rule outcome distribution and collapsed states for one register's spin.

    The input must be normalized and confined to a single charge sector.
    Outcomes with zero projected weight are omitted; every post state is
    renormalized and stays in the input's sector exactly (projection never
    touches species labels).
    """
    return [
        MeasurementRecord(outcome=outcome, probability=prob, post_state=post_state())
        for outcome, prob, post_state in _branches(registry, vec, obs)
    ]


def sample_measurements(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable, seeds
) -> list[MeasurementRecord]:
    """One record per seed, drawn from the measure_spin distribution.

    The state is admitted and the distribution computed once for all seeds;
    only the drawn branches are normalized, each once. Seed ``s`` draws
    ``u = default_rng(s).random() * total`` against the running sums of the
    probabilities and takes the first outcome whose sum exceeds ``u``.
    """
    branches = _branches(registry, vec, obs)
    edges = list(accumulate(prob for _, prob, _ in branches))
    built: dict[int, StateVector] = {}
    records = []
    for seed in seeds:
        u = np.random.default_rng(seed).random() * edges[-1]
        idx = min(bisect_right(edges, u), len(branches) - 1)
        outcome, prob, post_state = branches[idx]
        if idx not in built:
            built[idx] = post_state()
        records.append(MeasurementRecord(outcome=outcome, probability=prob, post_state=built[idx]))
    return records


def sample_measurement(
    registry: SpeciesRegistry, vec: StateVector, obs: SpinObservable, seed: int
) -> MeasurementRecord:
    """Draw one record from the measure_spin distribution; deterministic per seed."""
    return sample_measurements(registry, vec, obs, [seed])[0]


def read_sector_charge(registry: SpeciesRegistry, vec: StateVector) -> SectorIndex:
    """Sector-level charge readout: the net gauged charge of the whole state."""
    return require_single_sector(registry, vec)
