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
from operator import attrgetter, eq
from typing import Collection, Iterator, NamedTuple

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
        raise DomainError(
            f"spin index {label.spin} out of range for species {label.species_id!r} "
            f"(multiplicity {species.spin_multiplicity})"
        )
    return species


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
    # the alphabet's size by arithmetic, so an oversized one is refused before
    # it is built; an alphabet of two or more labels passes the limit within
    # bit_length registers, so capping the exponent keeps the comparison exact
    size = sum(max(registry.get(sid).spin_multiplicity, 0) for sid in registry.species_ids)
    if size ** min(n, MAX_PRODUCT_STATES.bit_length()) > MAX_PRODUCT_STATES:
        raise ConfigurationError(
            f"refusing to enumerate {size}**{n} product states "
            f"(n={n}, alphabet size {size}): the limit is {MAX_PRODUCT_STATES}"
        )
    alphabet = register_alphabet(registry)
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


class _Column(dict):
    """One charge component of each label's species, keyed by the label.

    An entry is filled on first sight of its label, after ``total_charge``'s
    checks on it: unknown species, then spin range, then charge arity. With
    no component (``index`` None) the entry is 0, so the column only checks.
    """

    __slots__ = ("registry", "index")

    def __init__(self, registry: SpeciesRegistry, index: int | None):
        super().__init__()
        self.registry = registry
        self.index = index

    def __missing__(self, label: RegisterLabel) -> int:
        charges = validate_label(self.registry, label).charges.components
        if len(charges) != self.registry.arity:
            raise _arity_error(self.registry.arity, charges)
        value = self[label] = 0 if self.index is None else charges[self.index]
        return value


def sectors(registry: SpeciesRegistry, states: Collection[BasisState]) -> Iterator[tuple[int, ...]]:
    """The gauged net charge of each of ``states`` as a plain tuple, lazily in order.

    Each gauged component is one ``_Column``, made by this call and dropped
    with it, and a state's charge in it is one ``sum`` over its labels, so
    ``states`` is iterated once per component. The first column sees every
    label first, so the first bad label, in state order and then register
    order, raises what ``total_charge`` raises for it. With no gauged
    component every label is still checked, giving ``()``.
    """
    gauged = registry.gauged_indices()
    sums = zip(*(
        map(sum, map(map, itertools.repeat(_Column(registry, i).__getitem__),
                     map(attrgetter("labels"), states)))
        for i in gauged or (None,)
    ))
    return sums if gauged else (() for _ in sums)


def state_sector(registry: SpeciesRegistry, state: BasisState) -> SectorIndex:
    """The gauged net charge of one basis state."""
    return SectorIndex(next(sectors(registry, [state])))


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
    basis = enumerate_basis(registry, n)
    kept = map(eq, sectors(registry, basis), itertools.repeat(target))
    return list(itertools.compress(basis, kept))


def attained_sectors(registry: SpeciesRegistry, n: int) -> list[SectorIndex]:
    """Sorted list of the sectors attained by some basis state."""
    return [SectorIndex(q) for q in sorted(set(sectors(registry, enumerate_basis(registry, n))))]
