"""Product basis states over fixed registers and their charge sectors.

Registers are distinguishable excitation slots (think momentum labels); each
register holds exactly one excitation identified by a (species, spin) label.
No exchange symmetrization is applied: the two orderings of a pair are two
distinct basis states.

Enumeration order is the package-wide canonical order: register-major,
species ids lexicographic, spin indices ascending. The first register is the
most significant position, so the last register varies fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .charges import ChargeVector, Species, SpeciesRegistry
from .errors import ConfigurationError, DomainError

#: Largest product space ``enumerate_basis`` will list: len(alphabet) ** n.
MAX_PRODUCT_STATES = 2**20


class RegisterLabel(NamedTuple):
    """One register's content: a species id plus a spin index below its multiplicity."""

    species_id: str
    spin: int = 0


class BasisState(NamedTuple):
    """A multi-particle product state: one RegisterLabel per register, order-identifying."""

    labels: tuple[RegisterLabel, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "|" + ",".join(
            f"{l.species_id}:{l.spin}" if l.spin else l.species_id for l in self.labels
        ) + ">"


@dataclass(frozen=True, order=True)
class SectorIndex:
    """Net charge restricted to the gauged components; labels one superselection sector."""

    gauged_charges: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.gauged_charges) + ")"


def validate_label(registry: SpeciesRegistry, label: RegisterLabel) -> Species:
    """The label's species, after checking that its spin index is in range."""
    species = registry.get(label.species_id)
    if not 0 <= label.spin < species.spin_multiplicity:
        raise _spin_range_error(label, species.spin_multiplicity)
    return species


def _spin_range_error(label: RegisterLabel, multiplicity: int) -> DomainError:
    return DomainError(
        f"spin index {label.spin} out of range for species {label.species_id!r} "
        f"(multiplicity {multiplicity})"
    )


def _arity_error(arity: int, charges: tuple[int, ...]) -> ConfigurationError:
    return ConfigurationError(f"charge arity mismatch: {arity} vs {len(charges)}")


def register_alphabet(registry: SpeciesRegistry) -> list[RegisterLabel]:
    """The canonical per-register label list: species lexicographic, spins ascending."""
    return [
        RegisterLabel(sid, q)
        for sid in registry.species_ids
        for q in range(registry.get(sid).spin_multiplicity)
    ]


def enumerate_basis(registry: SpeciesRegistry, n: int) -> list[BasisState]:
    """All (species x spin) assignments over ``n`` registers in canonical order."""
    if n < 1:
        raise ConfigurationError(f"register count must be >= 1, got {n}")
    alphabet = register_alphabet(registry)
    # an alphabet of two or more labels passes the limit within bit_length
    # registers, so capping the exponent keeps the comparison exact and cheap
    if len(alphabet) ** min(n, MAX_PRODUCT_STATES.bit_length()) > MAX_PRODUCT_STATES:
        raise ConfigurationError(
            f"refusing to enumerate {len(alphabet)}**{n} product states "
            f"(n={n}, alphabet size {len(alphabet)}): the limit is {MAX_PRODUCT_STATES}"
        )
    return [BasisState(labels) for labels in itertools.product(alphabet, repeat=n)]


def total_charge(registry: SpeciesRegistry, state: BasisState) -> ChargeVector:
    """Componentwise sum of the species charges over all registers."""
    total = [0] * registry.arity
    for label in state.labels:
        charges = validate_label(registry, label).charges.components
        if len(charges) != len(total):
            raise _arity_error(len(total), charges)
        total = [a + b for a, b in zip(total, charges)]
    return ChargeVector(tuple(total))


class SpeciesTable:
    """One call's species lookup: species id -> (spin multiplicity, gauged charges).

    A row is filled on first sight of its species, and the table is made by
    the call that uses it and dropped with it, so it never outlives a change
    to the registry. ``sector_charges`` is the gauged part of ``total_charge``
    and raises what it raises for the first bad label: unknown species, then
    spin range, then charge arity.
    """

    __slots__ = ("_registry", "_gauged", "_zero", "_rows")

    def __init__(self, registry: SpeciesRegistry):
        self._registry = registry
        self._gauged = registry.gauged_indices()
        self._zero = (0,) * len(self._gauged)
        self._rows: dict[str, tuple[int, tuple[int, ...] | None, tuple[int, ...]]] = {}

    def _row(self, species_id: str):
        species = self._registry.get(species_id)  # raises UnknownSpeciesError
        charges = species.charges.components
        gauged = (
            tuple(charges[i] for i in self._gauged)
            if len(charges) == self._registry.arity
            else None  # refused after the label's spin check, as total_charge orders it
        )
        row = self._rows[species_id] = (species.spin_multiplicity, gauged, charges)
        return row

    def sector_charges(self, state: BasisState) -> tuple[int, ...]:
        """The gauged net charge of one basis state, as a plain tuple."""
        picked = [self._zero]
        for label in state.labels:
            multiplicity, gauged, charges = (
                self._rows.get(label.species_id) or self._row(label.species_id)
            )
            if not 0 <= label.spin < multiplicity:
                raise _spin_range_error(label, multiplicity)
            if gauged is None:
                raise _arity_error(self._registry.arity, charges)
            picked.append(gauged)
        return tuple(map(sum, zip(*picked)))


def state_sector(registry: SpeciesRegistry, state: BasisState) -> SectorIndex:
    """The gauged net charge of one basis state."""
    return SectorIndex(SpeciesTable(registry).sector_charges(state))


def _coerce_sector(registry: SpeciesRegistry, sector) -> SectorIndex:
    if not isinstance(sector, SectorIndex):
        sector = SectorIndex(tuple(sector))
    expected = len(registry.gauged_indices())
    if len(sector.gauged_charges) != expected:
        raise ConfigurationError(
            f"sector arity {len(sector.gauged_charges)} != gauged component count {expected}"
        )
    return sector


def sector_basis(registry: SpeciesRegistry, n: int, sector) -> list[BasisState]:
    """The sublist of ``enumerate_basis`` with gauged net charge equal to ``sector``."""
    target = _coerce_sector(registry, sector).gauged_charges
    table = SpeciesTable(registry)
    return [b for b in enumerate_basis(registry, n) if table.sector_charges(b) == target]


def attained_sectors(registry: SpeciesRegistry, n: int) -> list[SectorIndex]:
    """Sorted list of the sectors attained by some basis state."""
    table = SpeciesTable(registry)
    charges = {table.sector_charges(b) for b in enumerate_basis(registry, n)}
    return [SectorIndex(q) for q in sorted(charges)]
