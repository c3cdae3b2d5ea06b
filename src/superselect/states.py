"""Complex superpositions over a fixed-register-count basis.

A :class:`StateVector` is a finite sparse map from product basis states to
complex amplitudes. All states in one vector share the register count ``n``;
superpositions across different particle numbers are deliberately not
representable. Amplitudes below the prune tolerance are dropped on
construction, so cancellation produces the genuine zero state (empty map).

Cross-sector vectors can be built and decomposed — the tests need to exhibit
them — but ``validate_superselection`` is the gate every physical-scenario
entry point goes through.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np

from .charges import GAUGED, SpeciesRegistry, _write_text, json_document
from .errors import ConfigurationError, DomainError, ShapeError, SuperselectionError
from .fock import BasisState, RegisterLabel, SectorIndex, sectors, validate_label

#: Amplitudes with magnitude below this are dropped from term maps.
PRUNE_TOL = 1e-12
#: A state counts as normalized when | ||psi|| - 1 | is within this.
NORM_TOL = 1e-9


class StateVector:
    """Immutable sparse superposition of :class:`BasisState` terms.

    Parameters
    ----------
    terms:
        Mapping from BasisState to complex amplitude. Entries with magnitude
        below :data:`PRUNE_TOL` are discarded; a non-finite amplitude raises
        :class:`DomainError`.
    n:
        Register count. Required when ``terms`` is empty (the zero state);
        otherwise inferred and cross-checked against every key.
    """

    # _born: the measure module's memo of this vector's Born distribution
    __slots__ = ("_terms", "n", "_born")

    def __init__(self, terms, n: int | None = None):
        self._fill(terms.items(), n)

    @classmethod
    def _from_pairs(cls, pairs, n: int) -> "StateVector":
        """The constructor's result for ``(state, amplitude)`` pairs over distinct
        states, without building a mapping first."""
        vec = cls.__new__(cls)
        vec._fill(pairs, n)
        return vec

    def _fill(self, pairs, n: int | None) -> None:
        pruned: dict[BasisState, complex] = {}
        for state, amp in pairs:
            if n is None:
                n = state.n
            elif state.n != n:
                raise ShapeError(f"mixed register counts: {state.n} vs {n}")
            amp = complex(amp)
            try:
                size = abs(amp)  # inf if either part is, else nan if either part is
            except OverflowError:  # both parts finite, the modulus is not
                raise DomainError(
                    f"amplitude {amp!r} for term {state} has a modulus beyond the float range"
                ) from None
            if not size < math.inf:
                raise DomainError(f"non-finite amplitude {amp!r} for term {state}")
            if size >= PRUNE_TOL:
                pruned[state] = amp
        if n is None:
            raise ShapeError("register count is undefined for an empty term map; pass n")
        self._terms = pruned
        self.n = n
        self._born = None

    def __reduce__(self):
        # rebuilt from the terms, so neither a pickle nor a copy carries the memo
        return StateVector, (self._terms, self.n)

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @classmethod
    def from_basis_state(cls, state: BasisState, amplitude: complex = 1.0) -> "StateVector":
        return cls({state: amplitude})

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def amplitude(self, state: BasisState) -> complex:
        return self._terms.get(state, 0j)

    def norm(self) -> float:
        return amplitude_norm(self._terms.values())

    def is_zero(self) -> bool:
        return not self._terms

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_TOL

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        inside = " + ".join(f"({a:.4g}){b}" for b, a in self.items_sorted()[:4])
        more = "" if len(self._terms) <= 4 else f" + {len(self._terms) - 4} more"
        return f"StateVector[n={self.n}] {inside or '0'}{more}"


def _squared_norm(amplitudes) -> float:
    """``sum(abs(a) ** 2)`` in the given order, or ``inf`` where that is beyond
    the float range (``**`` raises there, where ``*`` would give ``inf``)."""
    try:
        return sum(abs(a) ** 2 for a in amplitudes)
    except OverflowError:
        return math.inf


def amplitude_norm(amplitudes) -> float:
    """Euclidean norm with the squares summed in the given order; ``StateVector.norm``
    sums in term order, so a branch kept as bare amplitudes gets the same float.
    A norm beyond the float range is ``inf``."""
    return math.sqrt(_squared_norm(amplitudes))


def superpose(pairs) -> StateVector:
    """Linear combination ``sum(coef * state)`` with term merging and pruning."""
    pairs = list(pairs)
    if not pairs:
        raise ShapeError("superpose needs at least one (coefficient, state) pair")
    n = pairs[0][1].n
    acc: dict[BasisState, complex] = {}
    for coef, vec in pairs:
        if vec.n != n:
            raise ShapeError(f"mixed register counts: {vec.n} vs {n}")
        if coef == 0:
            continue
        for state, amp in vec.terms.items():
            acc[state] = acc.get(state, 0j) + complex(coef) * amp
    return StateVector(acc, n=n)


def scale(coef: complex, vec: StateVector) -> StateVector:
    return scale_pairs(coef, vec.terms.items(), vec.n)


def scale_pairs(coef: complex, pairs, n: int) -> StateVector:
    """``superpose([(coef, vec)])`` bit for bit, given the ``(state, amplitude)``
    pairs of ``vec``: each product is added to 0j, then pruned."""
    if coef == 0:
        return StateVector({}, n=n)
    coef = complex(coef)
    return StateVector._from_pairs(((s, 0j + coef * a) for s, a in pairs), n)


def require_normalized(vec: StateVector) -> None:
    """The normalization check every physical entry point runs, before any sector check."""
    if not vec.is_normalized():
        raise DomainError(f"state is not normalized (norm {vec.norm():.12g})")


def require_indices(values, what: str) -> None:
    """Raise DomainError naming the first of ``values`` that is a bool or that
    ``operator.index`` refuses; NumPy integers pass."""
    for value in values:
        if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
            raise DomainError(f"{what} {value!r} is not an integer")


def normalize(vec: StateVector) -> StateVector:
    nrm = vec.norm()
    if nrm == 0.0:
        raise DomainError("cannot normalize the zero state")
    if nrm == math.inf:
        raise DomainError("cannot normalize a state whose norm is beyond the float range")
    return scale(1.0 / nrm, vec)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.n != b.n:
        raise ShapeError(f"mixed register counts: {a.n} vs {b.n}")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0j
    for state in small.terms:
        other = large.amplitude(state)
        if other:
            total += a.amplitude(state).conjugate() * b.amplitude(state)
    return total


@dataclass
class SectorDecomposition:
    """Grouping of a state's terms by gauged net charge; weights are squared norms."""

    parts: dict[SectorIndex, tuple[StateVector, float]]

    def sectors(self) -> list[SectorIndex]:
        return sorted(self.parts)

    def weights(self) -> dict[SectorIndex, float]:
        return {q: w for q, (_, w) in sorted(self.parts.items())}


def _sector_groups(vec: StateVector, charges) -> list[tuple[SectorIndex, dict, float]]:
    """The state's terms grouped by ``charges`` (each term's gauged charges, in
    term order), in sorted sector order: each sector, its terms in term order
    and their squared norm, summed in that order."""
    groups: dict[tuple[int, ...], dict[BasisState, complex]] = {}
    for (state, amp), q in zip(vec.terms.items(), charges):
        groups.setdefault(q, {})[state] = amp
    return [
        (SectorIndex(q), terms, _squared_norm(terms.values())) for q, terms in sorted(groups.items())
    ]


def sector_decompose(registry: SpeciesRegistry, vec: StateVector) -> SectorDecomposition:
    """Split a state into its charge-sector components; reassembly is exact."""
    groups = _sector_groups(vec, sectors(registry, vec.terms))
    return SectorDecomposition({q: (StateVector(terms, n=vec.n), w) for q, terms, w in groups})


@dataclass
class SuperselectionReport:
    """Evidence that a state straddles several sectors: every sector and its weight."""

    sector_weights: dict[SectorIndex, float]

    def describe(self) -> str:
        listed = ", ".join(f"{q}: {w:.6g}" for q, w in sorted(self.sector_weights.items()))
        return f"cross-sector superposition over {len(self.sector_weights)} sectors [{listed}]"


def validate_superselection(registry: SpeciesRegistry, vec: StateVector):
    """Return the unique SectorIndex of a one-sector state, else a SuperselectionReport
    carrying ``sector_decompose``'s weights, from the sectors computed here."""
    if vec.is_zero():
        raise DomainError("superselection is undefined for the zero state")
    charges = list(sectors(registry, vec.terms))
    if charges.count(charges[0]) == len(charges):
        return SectorIndex(charges[0])
    return SuperselectionReport({q: w for q, _, w in _sector_groups(vec, charges)})


def require_single_sector(registry: SpeciesRegistry, vec: StateVector) -> SectorIndex:
    """validate_superselection, hardened: raises on a cross-sector state."""
    verdict = validate_superselection(registry, vec)
    if isinstance(verdict, SuperselectionReport):
        raise SuperselectionError(verdict.describe())
    return verdict


def apply_u1_gauge(
    registry: SpeciesRegistry, vec: StateVector, component: str, theta: float
) -> StateVector:
    """Phase each term by exp(+i * q * theta), q its net charge in ``component``.

    Only gauged components generate a phase action; naming a global component
    is a configuration error. Each term's charge is read through
    ``fock.sectors``, so a bad label raises what ``total_charge`` raises.
    """
    if not math.isfinite(theta):
        raise ConfigurationError(f"gauge angle theta must be finite, got {theta!r}")
    idx = registry.component_index(component)
    if registry.charge_specs[idx].kind != GAUGED:
        raise ConfigurationError(
            f"charge component {component!r} is global; only gauged components generate a gauge action"
        )
    position = registry.gauged_indices().index(idx)
    new_terms = {}
    for (state, amp), q in zip(vec.terms.items(), sectors(registry, vec.terms)):
        new_terms[state] = amp * cmath.exp(1j * q[position] * theta)
    return StateVector(new_terms, n=vec.n)


def charge_conjugate(registry: SpeciesRegistry, vec: StateVector) -> StateVector:
    """Replace every label's species by its conjugate partner; spins and amplitudes kept."""
    new_terms = {}
    for state, amp in vec.terms.items():
        labels = tuple(
            RegisterLabel(registry.conjugate(l.species_id).id, l.spin) for l in state.labels
        )
        new_terms[BasisState(labels)] = amp
    return StateVector(new_terms, n=vec.n)


def max_term_deviation(a: StateVector, b: StateVector) -> float:
    """Largest amplitude difference over the union support; 0 means identical vectors."""
    if a.n != b.n:
        raise ShapeError(f"mixed register counts: {a.n} vs {b.n}")
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


# -- dense coordinate bridge -------------------------------------------------

def coordinates(vec: StateVector, basis: list[BasisState]) -> np.ndarray:
    """Amplitude column of ``vec`` in the given basis order; support must be covered."""
    return coordinate_matrix([vec], basis)[:, 0]


def coordinate_matrix(vectors, basis: list[BasisState]) -> np.ndarray:
    """The ``coordinates`` of each vector as one column, from one index of the basis."""
    index = {b: i for i, b in enumerate(basis)}
    rows, cols, amps = [], [], []
    for k, vec in enumerate(vectors):
        for state, amp in vec.terms.items():
            i = index.get(state)
            if i is None:
                raise DomainError(f"state has support outside the target basis: {state}")
            rows.append(i)
            cols.append(k)
            amps.append(amp)
    out = np.zeros((len(basis), len(vectors)), dtype=complex)
    out[rows, cols] = amps
    return out


def from_coordinates(coeffs: np.ndarray, basis: list[BasisState]) -> StateVector:
    """The vector with amplitude ``coeffs[i]`` on ``basis[i]``, built from the
    nonzero coordinates only: a zero one would be pruned anyway."""
    if len(coeffs) != len(basis):
        raise ShapeError(f"coordinate length {len(coeffs)} != basis size {len(basis)}")
    n = basis[0].n if basis else None
    nonzero = np.flatnonzero(coeffs)
    return StateVector._from_pairs(zip([basis[i] for i in nonzero], coeffs[nonzero]), n)


# -- JSON round trip ----------------------------------------------------------

def state_to_dict(vec: StateVector) -> dict:
    return {
        "n": vec.n,
        "terms": [
            {
                "labels": [{"species": l.species_id, "spin": l.spin} for l in state.labels],
                "re": amp.real,
                "im": amp.imag,
            }
            for state, amp in vec.items_sorted()
        ],
    }


def _amplitude_part(entry: dict, key: str) -> float:
    """A term's ``re`` or ``im`` as a finite float: a number, not a string or a
    bool (which ``float`` would read), and not an int past the float range."""
    value = entry.get(key, 0.0)
    if type(value) is float:
        part = value
    elif isinstance(value, (str, bool)):
        part = math.nan  # reported below like any non-finite value
    else:
        try:
            part = float(value)
        except (TypeError, ValueError, OverflowError):
            part = math.nan
    if not math.isfinite(part):
        raise ConfigurationError(f"state field {key!r} must be a finite number, got {value!r}")
    return part


def _checked_n(n) -> int:
    """``n`` as a state file holds it: a positive ``int``, not a ``bool``."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"state field 'n' must be a positive integer, got {n!r}")
    return n


def _checked_spin(spin) -> int:
    """A label's spin as a state file holds it: an ``int``, not a ``bool``."""
    if isinstance(spin, bool) or not isinstance(spin, int):
        raise ConfigurationError(f"state field 'spin' must be an integer, got {spin!r}")
    return spin


def _checked_species(species) -> str:
    """A label's species id as a state file holds it: a ``str``."""
    if not isinstance(species, str):
        raise ConfigurationError(f"state field 'species' must be a string, got {species!r}")
    return species


def state_from_dict(data: dict, registry: SpeciesRegistry | None = None) -> StateVector:
    if not isinstance(data, dict):
        raise ConfigurationError(f"state document must be an object, got {type(data).__name__}")
    try:
        n = data["n"]
        raw_terms = data["terms"]
    except KeyError as exc:
        raise ConfigurationError(f"state document missing field: {exc}") from None
    _checked_n(n)
    if not isinstance(raw_terms, list):
        raise ConfigurationError(f"state field 'terms' must be a list, got {type(raw_terms).__name__}")
    terms: dict[BasisState, complex] = {}
    # one label per distinct (species, spin), made after the type checks (which
    # keep a spin of True apart from 1) and checked against the registry where
    # it first appears, after that term's label count
    made: dict[tuple[str, int], RegisterLabel] = {}
    for entry in raw_terms:
        if not isinstance(entry, dict) or not isinstance(entry.get("labels"), list):
            raise ConfigurationError(f"state term needs a 'labels' list, got {entry!r}")
        labels = []
        fresh = []
        for raw in entry["labels"]:
            if not isinstance(raw, dict) or "species" not in raw:
                raise ConfigurationError(f"state label needs a 'species' field, got {raw!r}")
            spin, species = raw.get("spin", 0), raw["species"]
            if type(spin) is not int:  # a bool among them, which the check refuses
                _checked_spin(spin)
            if type(species) is not str:
                _checked_species(species)
            key = (species, spin)
            label = made.get(key)
            if label is None:
                label = made[key] = RegisterLabel(*key)
                fresh.append(label)
            labels.append(label)
        if len(labels) != n:
            raise ConfigurationError(
                f"term has {len(labels)} labels but state declares n={n}"
            )
        if registry is not None:
            for label in fresh:
                validate_label(registry, label)
        state = BasisState(tuple(labels))
        amp = complex(_amplitude_part(entry, "re"), _amplitude_part(entry, "im"))
        # a repeated term adds up; a first one is kept as read, so -0.0 parts survive
        terms[state] = terms[state] + amp if state in terms else amp
    return StateVector(terms, n=n)


def _term_head(state: BasisState) -> str:
    """The text of one term of a state file up to its real part: the term's
    opening brace, its ``labels`` block and ``"re": ``."""
    labels = ",".join(
        '\n        {\n          "species": '
        + encode_basestring_ascii(_checked_species(label.species_id))
        + ',\n          "spin": '
        + int.__repr__(_checked_spin(label.spin))
        + "\n        }"
        for label in state.labels
    )
    return '\n    {\n      "labels": [' + labels + '\n      ],\n      "re": '


def _state_text(vec: StateVector, heads: dict[BasisState, str]) -> str:
    """``json.dumps(state_to_dict(vec), indent=2) + "\\n"``, formatted in one pass.

    The schema is fixed, so this is the text json's own encoder emits: species
    ids through ``encode_basestring_ascii``, integers through ``int.__repr__``
    and amplitude parts through ``float.__repr__`` (the shortest round-trip
    form; a StateVector holds only finite amplitudes). A field that json would
    write as something ``load_state`` refuses, or not at all (an ``n`` or a
    spin ``load_state`` refuses, a non-``str`` species id), raises the
    loader's ConfigurationError instead, at the first term that holds it.

    ``heads`` maps each product state already formatted to its ``_term_head``
    and gains the ones formatted here. The vectors of one basis, whose terms
    are the same ``BasisState`` objects, share one table, so each term head is
    formatted once per basis; states that are equal but hold labels of other
    types (a spin of ``True`` or ``np.int64(1)`` for ``1``) must not share one.
    """
    n = int.__repr__(_checked_n(vec.n))  # so every term has at least one label
    terms = []
    for state, amp in vec.items_sorted():
        head = heads.get(state)
        if head is None:
            head = heads[state] = _term_head(state)
        terms.append(
            head + float.__repr__(amp.real) + ',\n      "im": ' + float.__repr__(amp.imag) + "\n    }"
        )
    body = "[" + ",".join(terms) + "\n  ]" if terms else "[]"
    return '{\n  "n": ' + n + ',\n  "terms": ' + body + "\n}\n"


def save_state(vec: StateVector, path: str) -> None:
    """Write ``vec`` as ``json.dumps(state_to_dict(vec), indent=2)`` plus a newline.

    Floats take their shortest round-trip form, so save/load is bit-exact. The
    text is complete before the file is opened, so a refused field leaves no file.
    """
    _write_text(path, _state_text(vec, {}))


def state_from_bytes(
    data: bytes, path: str, registry: SpeciesRegistry | None = None, renormalize: bool = False
) -> StateVector:
    """``load_state`` for a file already read: ``data`` is its bytes."""
    vec = state_from_dict(json_document(data, path), registry=registry)
    return normalize(vec) if renormalize else vec


def load_state(
    path: str, registry: SpeciesRegistry | None = None, renormalize: bool = False
) -> StateVector:
    with open(path, "rb") as fh:
        data = fh.read()
    return state_from_bytes(data, path, registry, renormalize)
