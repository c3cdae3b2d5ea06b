"""Basis enumeration, total charges, and sector membership."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import superselect.fock as fock
from superselect.charges import GLOBAL, ChargeComponentSpec, ChargeVector, Species, SpeciesRegistry
from superselect.errors import ConfigurationError, DomainError, UnknownSpeciesError
from superselect.fock import (
    BasisState,
    RegisterLabel,
    SectorIndex,
    attained_sectors,
    enumerate_basis,
    sector_basis,
    state_sector,
    total_charge,
    validate_label,
)
from superselect.scenarios import (
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.states import StateVector, apply_u1_gauge, sector_decompose, validate_superselection

from helpers import dyon_registry, huge_multiplicity_registry, lepton_photon_registry, two_family_registry


def B(*labels):
    return BasisState(tuple(RegisterLabel(sid, spin) for sid, spin in labels))


def test_count_spinless_pair():
    assert len(enumerate_basis(electron_positron_registry(1), 2)) == 4


def test_count_spinful_pair():
    assert len(enumerate_basis(electron_positron_registry(2), 2)) == 16


def test_count_single_kaon():
    basis = enumerate_basis(neutral_kaon_registry(), 1)
    assert basis == [B(("K0", 0)), B(("K0bar", 0))]


def test_enumeration_order_is_register_major():
    # 'e+' sorts before 'e-' ('+' < '-'); last register varies fastest
    basis = enumerate_basis(electron_positron_registry(1), 2)
    assert basis == [
        B(("e+", 0), ("e+", 0)),
        B(("e+", 0), ("e-", 0)),
        B(("e-", 0), ("e+", 0)),
        B(("e-", 0), ("e-", 0)),
    ]


def test_enumeration_order_spins_ascend_within_species():
    basis = enumerate_basis(electron_positron_registry(2), 1)
    assert basis == [B(("e+", 0)), B(("e+", 1)), B(("e-", 0)), B(("e-", 1))]


GOLDEN_SPINFUL_PAIR = [
    (("e+", 0), ("e+", 0)), (("e+", 0), ("e+", 1)), (("e+", 0), ("e-", 0)), (("e+", 0), ("e-", 1)),
    (("e+", 1), ("e+", 0)), (("e+", 1), ("e+", 1)), (("e+", 1), ("e-", 0)), (("e+", 1), ("e-", 1)),
    (("e-", 0), ("e+", 0)), (("e-", 0), ("e+", 1)), (("e-", 0), ("e-", 0)), (("e-", 0), ("e-", 1)),
    (("e-", 1), ("e+", 0)), (("e-", 1), ("e+", 1)), (("e-", 1), ("e-", 0)), (("e-", 1), ("e-", 1)),
]


def test_enumeration_order_matches_golden_listing():
    basis = enumerate_basis(electron_positron_registry(2), 2)
    flattened = [tuple((l.species_id, l.spin) for l in b.labels) for b in basis]
    assert flattened == GOLDEN_SPINFUL_PAIR
    # stable across repeated enumeration
    assert enumerate_basis(electron_positron_registry(2), 2) == basis


def test_total_charge_pair_cancels():
    reg = electron_positron_registry(1)
    assert total_charge(reg, B(("e-", 0), ("e+", 0))) == ChargeVector((0,))


def test_total_charge_accumulates():
    reg = electron_positron_registry(1)
    assert total_charge(reg, B(("e-", 0), ("e-", 0))) == ChargeVector((-2,))


def test_total_charge_neutral_species():
    reg = lepton_photon_registry()
    assert total_charge(reg, B(("gamma", 0))) == ChargeVector((0,))


def test_total_charge_unknown_species():
    with pytest.raises(UnknownSpeciesError):
        total_charge(electron_positron_registry(1), B(("nu", 0)))


def test_total_charge_spin_out_of_range():
    with pytest.raises(DomainError):
        total_charge(electron_positron_registry(1), B(("e-", 1)))


def test_sector_basis_neutral_pair():
    reg = electron_positron_registry(1)
    assert sector_basis(reg, 2, (0,)) == [B(("e+", 0), ("e-", 0)), B(("e-", 0), ("e+", 0))]


def test_sector_basis_doubly_charged():
    reg = electron_positron_registry(1)
    assert sector_basis(reg, 2, (-2,)) == [B(("e-", 0), ("e-", 0))]


def test_sector_dimension_neutral_four_registers():
    # brute-force count: positions of the two electrons among four registers
    assert len(sector_basis(electron_positron_registry(1), 4, (0,))) == 6


def test_sector_arity_checked():
    with pytest.raises(ConfigurationError):
        sector_basis(electron_positron_registry(1), 2, (0, 0))


def test_register_count_must_be_positive():
    with pytest.raises(ConfigurationError):
        enumerate_basis(electron_positron_registry(1), 0)


@pytest.mark.parametrize(
    "registry,n",
    [
        (electron_positron_registry(1), 3),
        (electron_positron_registry(2), 2),
        (neutral_kaon_registry(), 2),
        (two_family_registry(), 2),
    ],
    ids=["ep-n3", "ep-spin-n2", "kaon-n2", "two-family-n2"],
)
def test_sectors_partition_the_basis(registry, n):
    everything = enumerate_basis(registry, n)
    recovered = []
    for sector in attained_sectors(registry, n):
        part = sector_basis(registry, n, sector)
        assert part, "attained sector must be nonempty"
        assert all(state_sector(registry, b) == sector for b in part)
        recovered.extend(part)
    assert sorted(recovered) == sorted(everything)
    assert len(recovered) == len(set(recovered)), "sectors must not overlap"


def test_total_charge_rejects_charge_arity_mismatch():
    # registries are permissive on construction; the sum must still refuse
    reg = electron_positron_registry(1)
    reg = SpeciesRegistry(reg.charge_specs, reg.species + [Species("x", ChargeVector((0, 0)), 1, "x")])
    with pytest.raises(ConfigurationError, match="arity mismatch: 1 vs 2"):
        total_charge(reg, B(("e-", 0), ("x", 0)))


def _arity_registry():
    reg = electron_positron_registry(1)
    return SpeciesRegistry(reg.charge_specs, reg.species + [Species("x", ChargeVector((0, 0)), 1, "x")])


def _raised(call, *args):
    with pytest.raises(Exception) as excinfo:
        call(*args)
    return type(excinfo.value), str(excinfo.value)


_GOOD = B(("e-", 0), ("e+", 0))
_BAD_TERMS = {
    "unknown": B(("e-", 0), ("nope", 0)),
    "spin": B(("e+", 1), ("e-", 0)),
    "arity": B(("x", 0), ("e-", 0)),
    # within one term the first bad label decides, and each label's checks run
    # in total_charge's order: species, then spin, then arity
    "spin_before_unknown": B(("e-", 2), ("nope", 0)),
    "spin_before_arity": B(("x", 1), ("e-", 0)),
    "arity_before_spin": B(("x", 0), ("e-", 1)),
}


@pytest.mark.parametrize("first", sorted(_BAD_TERMS))
@pytest.mark.parametrize("second", ["unknown", "spin", "arity"])
def test_sector_table_raises_what_total_charge_raises(first, second):
    reg = _arity_registry()
    terms = [_GOOD, _BAD_TERMS[first], _BAD_TERMS[second]]
    vec = StateVector({t: 0.5 for t in terms})
    want = _raised(total_charge, reg, _BAD_TERMS[first])
    assert want[0] in (UnknownSpeciesError, DomainError, ConfigurationError)
    assert _raised(validate_superselection, reg, vec) == want
    assert _raised(sector_decompose, reg, vec) == want
    assert _raised(apply_u1_gauge, reg, vec, "electric", 0.5) == want
    assert _raised(state_sector, reg, _BAD_TERMS[first]) == want


def test_sector_enumeration_raises_what_total_charge_raises():
    reg = _arity_registry()
    first_bad = next(b for b in enumerate_basis(reg, 2) if "x" in {l.species_id for l in b.labels})
    want = _raised(total_charge, reg, first_bad)
    assert want == (ConfigurationError, "charge arity mismatch: 1 vs 2")
    assert _raised(sector_basis, reg, 2, (0,)) == want
    assert _raised(attained_sectors, reg, 2) == want


def _with_arity_mismatch(reg):
    return SpeciesRegistry(reg.charge_specs, reg.species + [Species("x", ChargeVector((0,) * 3), 2, "x")])


_SECTOR_REGISTRIES = [
    _with_arity_mismatch(color_toy_registry()),  # one gauged component and one global
    _with_arity_mismatch(dyon_registry()),  # two gauged components
    _with_arity_mismatch(SpeciesRegistry(  # no gauged component
        [ChargeComponentSpec("lepton", GLOBAL)],
        [Species("l-", ChargeVector((1,)), 2, "l+"), Species("l+", ChargeVector((-1,)), 2, "l-")],
    )),
]


@st.composite
def labelled_states(draw):
    """A registry and a few states of mixed lengths; with some draws, some
    labels are bad: an unknown species, a spin out of range, or arity 3."""
    reg = draw(st.sampled_from(_SECTOR_REGISTRIES))
    good = st.sampled_from([l for l in fock.register_alphabet(reg) if l.species_id != "x"])
    bad = st.sampled_from([RegisterLabel("nope", 0), RegisterLabel(reg.species[0].id, 7),
                           RegisterLabel("x", 0), RegisterLabel("x", 2)])
    label = st.one_of(good, good, good, bad) if draw(st.booleans()) else good
    states = draw(st.lists(st.lists(label, max_size=4).map(tuple).map(BasisState), min_size=1, max_size=5))
    return reg, states


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _gauged_totals(reg, states):
    totals = [total_charge(reg, s).components for s in states]
    return [tuple(q[i] for i in reg.gauged_indices()) for q in totals]


@settings(max_examples=150, deadline=None)
@given(labelled_states())
@example((_SECTOR_REGISTRIES[0], [B(("q_r", 0), ("qbar_g", 0)), B(("q_g", 0), ("nope", 0), ("x", 0))]))
@example((_SECTOR_REGISTRIES[2], [B(("l-", 1)), B(("l+", 0), ("l+", 1)), B(("l-", 0), ("x", 2))]))
def test_sectors_are_the_gauged_part_of_total_charge(case):
    # with a bad label, the first one (state order, then register order)
    # raises what total_charge raises for it, wherever its state is in the call
    reg, states = case
    want = _outcome(_gauged_totals, reg, states)
    assert _outcome(lambda: list(fock.sectors(reg, states))) == want
    if isinstance(want, list):
        assert [state_sector(reg, s) for s in states] == [SectorIndex(q) for q in want]
    else:
        assert want[0] in (UnknownSpeciesError, DomainError, ConfigurationError)


@pytest.mark.parametrize("reg", [two_family_registry(), dyon_registry(), color_toy_registry()])
def test_sector_table_matches_state_sector(reg):
    # one call over the whole basis agrees with one call per state
    basis = enumerate_basis(reg, 3) + [BasisState(())]
    table = list(fock.sectors(reg, basis))
    assert table == _gauged_totals(reg, basis)
    assert [SectorIndex(q) for q in table] == [state_sector(reg, b) for b in basis]


def test_sector_check_fills_its_columns_lazily():
    # a column filled from the whole alphabet would never return here
    reg = huge_multiplicity_registry()
    vec = StateVector({B(("e-", 0), ("e+", 10**29)): 0.6, B(("e+", 5), ("e-", 10**30 - 1)): 0.8})
    assert validate_superselection(reg, vec) == SectorIndex((0,))
    assert state_sector(reg, B(("e+", 3), ("e+", 4))) == SectorIndex((2,))
    with pytest.raises(DomainError, match=r"spin index 10{30} out of range for species 'e-'"):
        validate_superselection(reg, StateVector({B(("e-", 10**30), ("e+", 0)): 1.0}))


def test_total_charge_equals_fold_of_species_charges():
    reg = two_family_registry()
    for b in enumerate_basis(reg, 3)[:40]:
        folded = reg.zero_charge()
        for label in b.labels:
            folded = folded + reg.get(label.species_id).charges
        assert total_charge(reg, b) == folded


def test_total_charge_looks_each_label_up_once(monkeypatch):
    reg = two_family_registry()
    looked_up = []
    lookup = reg.get
    monkeypatch.setattr(reg, "get", lambda sid: looked_up.append(sid) or lookup(sid))
    assert total_charge(reg, B(("e-", 0), ("mu+", 0), ("e-", 0))) == ChargeVector((-1,))
    assert looked_up == ["e-", "mu+", "e-"]
    assert validate_label(reg, RegisterLabel("mu+", 0)) is lookup("mu+")


def test_enumeration_size_guard_refuses_before_enumerating(monkeypatch):
    reg = electron_positron_registry(1)  # two labels per register
    assert fock.MAX_PRODUCT_STATES == 2**20
    monkeypatch.setattr(fock, "MAX_PRODUCT_STATES", 16)
    assert len(enumerate_basis(reg, 4)) == 16  # exactly at the limit

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started past the size limit")

    monkeypatch.setattr(fock.itertools, "product", refuse)
    for n in (5, 10**9):  # the check must not compute 2**n in full
        with pytest.raises(ConfigurationError, match=rf"n={n}, alphabet size 2\): the limit is 16$"):
            enumerate_basis(reg, n)
    with pytest.raises(ConfigurationError, match="the limit is 16$"):
        sector_basis(reg, 5, (1,))


def test_enumeration_size_guard_sizes_the_alphabet_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("alphabet built past the size limit")

    monkeypatch.setattr(fock, "register_alphabet", refuse)
    reg = huge_multiplicity_registry()
    size = 2 * 10**30
    for call, args in ((enumerate_basis, (reg, 1)), (sector_basis, (reg, 2, (0,))), (attained_sectors, (reg, 2))):
        with pytest.raises(ConfigurationError, match=rf"\(n={args[1]}, alphabet size {size}\): the limit is 1048576$"):
            call(*args)


def test_enumeration_size_guard_at_the_default_limit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started past the size limit")

    monkeypatch.setattr(fock.itertools, "product", refuse)
    # 2**21 and 4**11 = 2**22 both exceed 2**20
    for reg, n, size in ((electron_positron_registry(1), 21, 2), (two_family_registry(), 11, 4)):
        with pytest.raises(ConfigurationError, match=rf"n={n}, alphabet size {size}\): the limit is 1048576"):
            enumerate_basis(reg, n)


def test_sector_index_formatting():
    assert str(SectorIndex((-2,))) == "(-2)"
    assert str(SectorIndex((0, 1))) == "(0,1)"


def test_basis_state_hash_is_the_field_tuple_hash_and_stays_out_of_pickles():
    for state in enumerate_basis(electron_positron_registry(2), 3):
        before = pickle.dumps(state)
        assert hash(state) == hash((state.labels,))  # the hash of the field tuple
        assert hash(state) == hash((state.labels,))  # and again, the same
        assert pickle.dumps(state) == before
        for again in (pickle.loads(before), copy.deepcopy(state), BasisState(state.labels)):
            assert again == state and hash(again) == hash(state)
    for label in fock.register_alphabet(electron_positron_registry(2)):
        before = pickle.dumps(label)
        assert hash(label) == hash((label.species_id, label.spin))  # the hash of the field tuple
        assert hash(label) == hash((label.species_id, label.spin))  # and again, the same
        assert pickle.dumps(label) == before
        for again in (pickle.loads(before), copy.deepcopy(label), RegisterLabel(label.species_id, label.spin)):
            assert again == label and hash(again) == hash(label)
    assert repr(B(("e-", 0))) == "BasisState(labels=(RegisterLabel(species_id='e-', spin=0),))"


@pytest.mark.parametrize("registry, n", [
    (electron_positron_registry(1), 4),
    (electron_positron_registry(2), 3),
    (electron_positron_registry(3), 3),
    (color_toy_registry(), 2),
    (neutral_kaon_registry(), 4),
    (two_family_registry(), 3),
])
def test_canonical_order_is_the_sorted_order(registry, n):
    # items_sorted, the state-file text and CutPlan rely on the two orders agreeing
    basis = enumerate_basis(registry, n)
    assert len(basis) > 1 and basis == sorted(basis)
    assert fock.register_alphabet(registry) == sorted(fock.register_alphabet(registry))


def test_labels_and_states_are_immutable_values():
    label = RegisterLabel("e-")
    assert label.spin == 0 and label == RegisterLabel("e-", 0)
    assert RegisterLabel(spin=1, species_id="e+") == RegisterLabel("e+", 1)
    assert BasisState(labels=(label,)) == BasisState((label,))
    state = B(("e-", 0), ("e+", 1))
    with pytest.raises(AttributeError):
        state.labels = ()
    with pytest.raises(AttributeError):
        label.spin = 1
    with pytest.raises(AttributeError):
        label.note = "x"
    # named tuples: equal to, and hashed as, a plain tuple of their fields
    assert label == ("e-", 0) and hash(label) == hash(("e-", 0))
    assert state == ((("e-", 0), ("e+", 1)),) and state.n == 2 and str(state) == "|e-,e+:1>"


def test_pickled_basis_bytes_do_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import pickle, sys; from superselect.fock import enumerate_basis; "
        "from superselect.scenarios import electron_positron_registry; "
        "basis = enumerate_basis(electron_positron_registry(2), 3); "
        "{hash(b) for b in basis}; "  # hashing first must leave nothing in the pickle
        "sys.stdout.write(pickle.dumps(basis).hex())"
    )
    dumps = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert dumps[0] and dumps[0] == dumps[1]
    assert pickle.loads(bytes.fromhex(dumps[0])) == enumerate_basis(electron_positron_registry(2), 3)
