"""Charge vectors, the species registry, and charge conjugation.

A species is one indivisible block carrying all of its charge-like internal
quantum numbers at once; the registry declares which charge components are
gauged (they define superselection sectors) and which are global (they do
not). All charges are exact integers in fixed quantization units, so sector
membership is decidable without tolerances.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass

from .errors import ConfigurationError, UnknownSpeciesError

GAUGED = "gauged"
GLOBAL = "global"


@dataclass(frozen=True)
class ChargeComponentSpec:
    """One named charge component, flagged gauged or global."""

    name: str
    kind: str
    unit: str = ""

    def __post_init__(self):
        if self.kind not in (GAUGED, GLOBAL):
            raise ConfigurationError(
                f"charge component {self.name!r}: kind must be 'gauged' or 'global', got {self.kind!r}"
            )


@dataclass(frozen=True)
class ChargeVector:
    """Ordered tuple of integer charge components; adds and negates componentwise."""

    components: tuple[int, ...]

    def __post_init__(self):
        for c in self.components:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ConfigurationError(f"charge components must be integers, got {c!r}")

    def __add__(self, other: "ChargeVector") -> "ChargeVector":
        if len(self.components) != len(other.components):
            raise ConfigurationError(
                f"charge arity mismatch: {len(self.components)} vs {len(other.components)}"
            )
        return ChargeVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "ChargeVector":
        return ChargeVector(tuple(-c for c in self.components))

    def __len__(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"

    @classmethod
    def zero(cls, arity: int) -> "ChargeVector":
        return cls((0,) * arity)


def add_charges(a: ChargeVector, b: ChargeVector) -> ChargeVector:
    """Componentwise sum of two charge vectors of equal arity."""
    return a + b


@dataclass(frozen=True)
class Species:
    """An indivisible (charges, spin states) block with a conjugate partner.

    The conjugate partner carries the negated charge vector and the same
    spin multiplicity; a neutral species may be its own conjugate.
    """

    id: str
    charges: ChargeVector
    spin_multiplicity: int
    conjugate_id: str


class SpeciesRegistry:
    """Declares the charge components and the species built on them.

    The registry is permissive on construction so that broken configurations
    can be inspected; ``validate_registry`` reports every violated invariant.
    """

    def __init__(self, charge_specs: list[ChargeComponentSpec], species: list[Species]):
        self.charge_specs = list(charge_specs)
        self.species = list(species)
        self._by_id: dict[str, Species] = {}
        for s in self.species:
            self._by_id.setdefault(s.id, s)

    @property
    def arity(self) -> int:
        return len(self.charge_specs)

    @property
    def species_ids(self) -> list[str]:
        return sorted(self._by_id)

    def get(self, species_id: str) -> Species:
        try:
            return self._by_id[species_id]
        except KeyError:
            raise UnknownSpeciesError(f"unknown species id {species_id!r}") from None

    def conjugate(self, species_id: str) -> Species:
        return self.get(self.get(species_id).conjugate_id)

    def component_index(self, name: str) -> int:
        for i, spec in enumerate(self.charge_specs):
            if spec.name == name:
                return i
        raise ConfigurationError(f"unknown charge component {name!r}")

    def gauged_indices(self) -> tuple[int, ...]:
        return tuple(i for i, spec in enumerate(self.charge_specs) if spec.kind == GAUGED)

    def zero_charge(self) -> ChargeVector:
        return ChargeVector.zero(self.arity)

    def to_dict(self) -> dict:
        return {
            "charge_specs": [
                {"name": c.name, "kind": c.kind, "unit": c.unit} for c in self.charge_specs
            ],
            "species": [
                {
                    "id": s.id,
                    "charges": list(s.charges.components),
                    "spin_multiplicity": s.spin_multiplicity,
                    "conjugate_id": s.conjugate_id,
                }
                for s in self.species
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpeciesRegistry":
        if not isinstance(data, dict):
            raise ConfigurationError(f"registry document must be an object, got {type(data).__name__}")
        specs = [
            ChargeComponentSpec(
                name=_require_str(c, "name"),
                kind=_require_str(c, "kind"),
                unit=_require_str(c, "unit") if "unit" in c else "",
            )
            for c in _require_objects(data, "charge_specs")
        ]
        species = [
            Species(
                id=_require_str(s, "id"),
                charges=ChargeVector(
                    tuple(_require_int(v, "charges") for v in _require_list(s, "charges"))
                ),
                spin_multiplicity=_require_int(s.get("spin_multiplicity", 1), "spin_multiplicity"),
                conjugate_id=_require_str(s, "conjugate_id"),
            )
            for s in _require_objects(data, "species")
        ]
        return cls(specs, species)


def _field(mapping: dict, key: str):
    try:
        return mapping[key]
    except KeyError:
        raise ConfigurationError(f"registry field {key!r} is missing") from None


def _require_list(mapping: dict, key: str) -> list:
    value = _field(mapping, key)
    if not isinstance(value, list):
        raise ConfigurationError(f"registry field {key!r} must be a list, got {value!r}")
    return value


def _require_objects(mapping: dict, key: str) -> list[dict]:
    value = _require_list(mapping, key)
    for entry in value:
        if not isinstance(entry, dict):
            raise ConfigurationError(f"registry field {key!r} must hold objects, got {entry!r}")
    return value


def _require_str(mapping: dict, key: str) -> str:
    value = _field(mapping, key)
    if not isinstance(value, str):
        raise ConfigurationError(f"registry field {key!r} must be a string, got {value!r}")
    return value


def _require_int(value, key: str) -> int:
    # bool is an int subclass; reject it along with floats so charges stay exact.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"registry field {key!r} must be an integer, got {value!r}")
    return value


def conjugate_species(registry: SpeciesRegistry, species_id: str) -> Species:
    """Return the conjugate partner species of ``species_id``."""
    return registry.conjugate(species_id)


def validate_registry(registry: SpeciesRegistry) -> list[str]:
    """Check every registry invariant; returns one message per violation."""
    violations: list[str] = []
    seen_names = set()
    for spec in registry.charge_specs:
        if spec.name in seen_names:
            violations.append(f"charge component name {spec.name!r} is duplicated")
        seen_names.add(spec.name)

    seen_ids = set()
    for s in registry.species:
        if s.id in seen_ids:
            violations.append(f"species id {s.id!r} is duplicated")
        seen_ids.add(s.id)

    for s in registry.species:
        if len(s.charges) != registry.arity:
            violations.append(
                f"species {s.id!r}: charge arity {len(s.charges)} != registry arity {registry.arity}"
            )
        if s.spin_multiplicity < 1:
            violations.append(f"species {s.id!r}: spin multiplicity must be >= 1")
        if s.conjugate_id not in registry._by_id:
            violations.append(f"species {s.id!r}: dangling conjugate_id {s.conjugate_id!r}")
            continue
        partner = registry._by_id[s.conjugate_id]
        if partner.conjugate_id != s.id:
            violations.append(
                f"species {s.id!r}: conjugation is not an involution ({s.id} -> {partner.id} -> {partner.conjugate_id})"
            )
        if len(s.charges) == len(partner.charges) and partner.charges != -s.charges:
            violations.append(
                f"species pair ({s.id!r}, {partner.id!r}): conjugate charges are not negated"
            )
        if partner.spin_multiplicity != s.spin_multiplicity:
            violations.append(
                f"species pair ({s.id!r}, {partner.id!r}): spin multiplicities differ"
            )
    return violations


def save_registry(registry: SpeciesRegistry, path: str) -> None:
    _write_text(path, json.dumps(registry.to_dict(), indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    """Make ``text``, encoded as UTF-8, the whole file at ``path``: the file
    ``open(path, "w", encoding="utf-8")`` would write, created with mode 0o666
    under the umask or truncated, and an ``OSError`` naming ``path`` where
    ``open`` raises one. Every writer formats its full text first, so a refused
    field leaves no file; the bytes go in one ``os.write``, repeated only over
    a short write."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def json_document(data: bytes, path: str):
    """The document ``json.load`` reads from the file at ``path`` opened as
    UTF-8 text, given the file's bytes. The text is decoded as ``open`` decodes
    it, universal newlines included, so a decode error names the same place.
    Bytes that are not UTF-8, or text that is not JSON, are refused with a
    message naming ``path``.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or nesting too deep
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None


def registry_from_bytes(data: bytes, path: str) -> SpeciesRegistry:
    """``load_registry`` for a file already read: ``data`` is its bytes."""
    registry = SpeciesRegistry.from_dict(json_document(data, path))
    violations = validate_registry(registry)
    if violations:
        raise ConfigurationError(f"invalid registry {path}: {'; '.join(violations)}")
    return registry


def load_registry(path: str) -> SpeciesRegistry:
    """Read a registry file; any ``validate_registry`` violation refuses it."""
    with open(path, "rb") as fh:
        data = fh.read()
    return registry_from_bytes(data, path)
