"""Projective spin measurement, collapse, and seeded sampling."""

import copy
import gc
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dyon_registry,
    haar_observable,
    huge_multiplicity_registry,
    mixed_spin_registry,
    record_bits,
    reference_measure_spin,
    reference_sample_measurement,
    two_family_registry,
)
import superselect.measure as measure_module
from superselect.charges import GAUGED, ChargeComponentSpec, ChargeVector, Species, SpeciesRegistry
from superselect.entangle import all_bipartitions, schmidt
from superselect.errors import (
    ConfigurationError,
    DomainError,
    SuperselectionError,
    UnknownSpeciesError,
)
from superselect.fock import BasisState, RegisterLabel, SectorIndex, attained_sectors, sector_basis
from superselect.measure import (
    SpinObservable,
    measure_spin,
    read_sector_charge,
    sample_measurement,
    sample_measurements,
    spin_z_observable,
)
from superselect.scenarios import build_scenario, electron_positron_registry
from superselect.states import StateVector, max_term_deviation, validate_superselection

ROOT_HALF = 1.0 / math.sqrt(2.0)


def B(*labels):
    return BasisState(tuple(RegisterLabel(sid, spin) for sid, spin in labels))


@pytest.fixture
def hybrid_third():
    return build_scenario("hybrid_pair", alpha=math.sqrt(1 / 3), beta=math.sqrt(2 / 3))


def test_hybrid_measurement_collapses_both_factors(hybrid_third):
    reg, state, _ = hybrid_third
    records = measure_spin(reg, state, spin_z_observable(reg, 0))
    assert [r.outcome for r in records] == [0, 1]
    assert records[0].probability == pytest.approx(1 / 3, abs=1e-12)
    assert records[1].probability == pytest.approx(2 / 3, abs=1e-12)
    # collapse: each post state is a single product term
    assert max_term_deviation(
        records[0].post_state, StateVector({B(("e-", 0), ("e+", 1)): 1.0})
    ) <= 1e-12
    assert max_term_deviation(
        records[1].post_state, StateVector({B(("e+", 1), ("e-", 0)): 1.0})
    ) <= 1e-12
    for record in records:
        for cut in all_bipartitions(2):
            assert schmidt(record.post_state, cut).rank == 1
        assert read_sector_charge(reg, record.post_state) == SectorIndex((0,))


def test_measurement_on_spin_eigenstate_is_trivial():
    reg = electron_positron_registry(2)
    vec = StateVector({B(("e-", 1), ("e+", 1)): 1.0})
    records = measure_spin(reg, vec, spin_z_observable(reg, 0))
    assert len(records) == 1
    assert records[0].outcome == 1
    assert records[0].probability == pytest.approx(1.0, abs=1e-12)
    assert records[0].post_state == vec
    # (|0> + |1>)/sqrt(2) on register 0 in the Hadamard basis: both terms project
    # onto the same two states, and outcome 1's amplitudes cancel below the prune tolerance
    plus = StateVector({B(("e-", 0), ("e+", 1)): ROOT_HALF, B(("e-", 1), ("e+", 1)): ROOT_HALF})
    hadamard = np.array([[1, 1], [1, -1]]) * ROOT_HALF
    obs = SpinObservable(0, {"e-": hadamard, "e+": hadamard})
    records = measure_spin(reg, plus, obs)
    assert [r.outcome for r in records] == [0]
    assert [record_bits(r) for r in records] == [record_bits(r) for r in reference_measure_spin(reg, plus, obs)]


def test_spinless_state_has_single_trivial_outcome():
    reg, bell, _ = build_scenario("bell_plus")
    records = measure_spin(reg, bell, spin_z_observable(reg, 1))
    assert len(records) == 1 and records[0].outcome == 0
    assert records[0].probability == pytest.approx(1.0, abs=1e-12)
    # no external DOF existed, so the internal entanglement survives
    assert max_term_deviation(records[0].post_state, bell) <= 1e-12


def test_measurement_rejects_cross_sector_input():
    reg, forbidden, _ = build_scenario("forbidden_pm2e")
    with pytest.raises(SuperselectionError):
        measure_spin(reg, forbidden, spin_z_observable(reg, 0))


def test_measurement_register_bounds(hybrid_third):
    reg, state, _ = hybrid_third
    with pytest.raises(DomainError):
        measure_spin(reg, state, spin_z_observable(reg, 5))


def test_measurement_refuses_a_register_that_is_not_an_integer(hybrid_third):
    reg, state, _ = hybrid_third
    records = lambda obs: [(r.outcome, r.probability, r.post_state.terms) for r in measure_spin(reg, state, obs)]
    want = records(spin_z_observable(reg, 1))  # kept on the vector; True and 1.0 equal 1
    for bad in (0.0, 1.0, True, np.True_, "1", None):
        obs = spin_z_observable(reg, bad)
        for call in (measure_spin, lambda *args: sample_measurements(*args, [0, 1])):
            with pytest.raises(DomainError, match=r"^register .+ is not an integer$"):
                call(reg, state, obs)
    for good in (np.int64(1), np.uint8(1)):  # NumPy integers stay accepted
        assert records(spin_z_observable(reg, good)) == want


def test_measurement_requires_normalized_state():
    reg = electron_positron_registry(1)
    vec = StateVector({B(("e-", 0), ("e+", 0)): 2.0})
    with pytest.raises(DomainError):
        measure_spin(reg, vec, spin_z_observable(reg, 0))


def test_probabilities_sum_to_one_in_rotated_basis(hybrid_third):
    reg, state, _ = hybrid_third
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    obs = SpinObservable(register=0, bases={"e-": rot, "e+": rot})
    records = measure_spin(reg, state, obs)
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-9)
    for record in records:
        assert read_sector_charge(reg, record.post_state) == SectorIndex((0,))


def test_measurement_is_repeatable(hybrid_third):
    reg, state, _ = hybrid_third
    obs = spin_z_observable(reg, 0)
    for record in measure_spin(reg, state, obs):
        again = measure_spin(reg, record.post_state, obs)
        assert len(again) == 1
        assert again[0].outcome == record.outcome
        assert again[0].probability == pytest.approx(1.0, abs=1e-12)


def test_observable_must_be_unitary():
    with pytest.raises(ConfigurationError):
        SpinObservable(register=0, bases={"e-": np.array([[1.0, 0.0], [1.0, 0.0]])})
    with pytest.raises(ConfigurationError):
        SpinObservable(register=0, bases={"e-": np.ones((2, 3))})


def test_spin_z_observable_refuses_an_oversized_multiplicity(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("spin basis built past the size limit")

    assert measure_module.MAX_SPIN_BASIS_DIM == 4096
    with monkeypatch.context() as patch:
        patch.setattr(measure_module.np, "eye", refuse)
        with pytest.raises(ConfigurationError, match=(
            r"^refusing to build a spin basis for species 'e-' \(multiplicity 10{30}\): the limit is 4096$"
        )):
            spin_z_observable(huge_multiplicity_registry(), 0)
    reg = mixed_spin_registry()  # multiplicities 2, 2, 3, 3 and 1
    monkeypatch.setattr(measure_module, "MAX_SPIN_BASIS_DIM", 2)
    with pytest.raises(ConfigurationError, match=r"species 'w-' \(multiplicity 3\): the limit is 2$"):
        spin_z_observable(reg, 0)
    monkeypatch.setattr(measure_module, "MAX_SPIN_BASIS_DIM", 3)  # exactly at the limit
    assert spin_z_observable(reg, 0).outcome_count() == 3


def test_observable_missing_species_rejected(hybrid_third):
    reg, state, _ = hybrid_third
    obs = SpinObservable(register=0, bases={"e-": np.eye(2)})
    with pytest.raises(ConfigurationError):
        measure_spin(reg, state, obs)


def test_sampling_is_deterministic_per_seed(hybrid_third):
    reg, state, _ = hybrid_third
    obs = spin_z_observable(reg, 0)
    first = sample_measurement(reg, state, obs, seed=42)
    second = sample_measurement(reg, state, obs, seed=42)
    assert first.outcome == second.outcome
    assert first.post_state == second.post_state


def test_sampling_deterministic_state_always_returns_it():
    reg = electron_positron_registry(2)
    vec = StateVector({B(("e-", 1), ("e+", 0)): 1.0})
    for seed in range(5):
        record = sample_measurement(reg, vec, spin_z_observable(reg, 1), seed)
        assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_sampling_frequencies_match_born_rule(hybrid_third):
    reg, state, _ = hybrid_third
    obs = spin_z_observable(reg, 0)
    trials = 10_000
    hits = sum(
        1 for seed in range(trials)
        if sample_measurement(reg, state, obs, seed).outcome == 0
    )
    p = 1 / 3
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_read_sector_charge(hybrid_third):
    reg, state, _ = hybrid_third
    assert read_sector_charge(reg, state) == SectorIndex((0,))
    _, forbidden, _ = build_scenario("forbidden_pm2e")
    reg1 = electron_positron_registry(1)
    with pytest.raises(SuperselectionError):
        read_sector_charge(reg1, forbidden)


# -- one admission, one distribution: parity with the term-by-term reference ----

_MEASURE_REGISTRIES = [
    mixed_spin_registry(),
    electron_positron_registry(2),
    electron_positron_registry(3),
    two_family_registry(),
    dyon_registry(),
]


@st.composite
def measured_states(draw):
    """A helper registry, a random normalized state in one of its sectors, and a
    spin-z or per-species Haar-rotated observable on one register."""
    registry = draw(st.sampled_from(_MEASURE_REGISTRIES))
    n = draw(st.integers(1, 3))
    sectors = attained_sectors(registry, n)
    sector = draw(st.sampled_from(sectors))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = sector_basis(registry, n, sector)
    register = draw(st.integers(0, n - 1))
    picks = rng.choice(len(basis), size=int(rng.integers(1, min(len(basis), 8) + 1)), replace=False)
    states = [basis[i] for i in picks]
    if draw(st.booleans()):
        # every sector state that differs from the first term only in the measured
        # spin: the terms whose projections merge under a rotated observable
        first = states[0].labels
        states += [
            b for b in basis
            if b.labels[register].species_id == first[register].species_id
            and b.labels[:register] + b.labels[register + 1:] == first[:register] + first[register + 1:]
        ]
    states = list(dict.fromkeys(states))
    amps = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
    amps /= np.linalg.norm(amps)
    vec = StateVector(dict(zip(states, amps)))
    if draw(st.booleans()):
        obs = haar_observable(rng, registry, register)
    else:
        obs = spin_z_observable(registry, register)
    return registry, sector, vec, obs


@settings(max_examples=60, deadline=None)
@given(measured_states())
def test_measure_spin_equals_the_reference_bit_for_bit(case):
    registry, _, vec, obs = case
    got = measure_spin(registry, vec, obs)
    want = reference_measure_spin(registry, vec, obs)
    assert [record_bits(r) for r in got] == [record_bits(r) for r in want]


@settings(max_examples=60, deadline=None)
@given(measured_states())
def test_distribution_sums_to_one_and_post_states_stay_in_sector(case):
    registry, sector, vec, obs = case
    records = measure_spin(registry, vec, obs)
    assert abs(sum(r.probability for r in records) - 1.0) <= 1e-12
    assert [r.outcome for r in records] == sorted({r.outcome for r in records})
    for record in records:
        assert abs(record.post_state.norm() - 1.0) <= 1e-12
        assert validate_superselection(registry, record.post_state) == sector


@settings(max_examples=40, deadline=None)
@given(measured_states(), st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
def test_sample_measurements_equal_single_draws_and_the_reference(case, seeds):
    registry, _, vec, obs = case
    singles = [sample_measurement(registry, vec, obs, s) for s in seeds]
    want = [reference_sample_measurement(registry, vec, obs, s) for s in seeds]
    assert [record_bits(r) for r in singles] == [record_bits(r) for r in want]
    batch = sample_measurements(registry, vec, obs, seeds)
    assert batch == singles
    # the distribution is kept on the vector, so every call shares each outcome's post state
    posts = {}
    for record in singles + batch + measure_spin(registry, vec, obs):
        assert posts.setdefault(record.outcome, record.post_state) is record.post_state


def test_branches_just_above_the_prune_tolerance_are_kept():
    reg = electron_positron_registry(2)
    tiny = 1e-11
    vec = StateVector({B(("e-", 0), ("e+", 0)): math.sqrt(1 - tiny**2), B(("e-", 1), ("e+", 0)): tiny})
    for obs in (spin_z_observable(reg, 0), spin_z_observable(reg, 1)):
        got = measure_spin(reg, vec, obs)
        assert [record_bits(r) for r in got] == [
            record_bits(r) for r in reference_measure_spin(reg, vec, obs)
        ]
    assert [r.outcome for r in measure_spin(reg, vec, spin_z_observable(reg, 0))] == [0, 1]


def test_sample_measurements_of_no_seeds_is_empty(hybrid_third):
    reg, state, _ = hybrid_third
    assert sample_measurements(reg, state, spin_z_observable(reg, 0), []) == []


def test_sample_measurements_share_one_post_state_per_drawn_outcome(hybrid_third):
    reg, state, _ = hybrid_third
    records = sample_measurements(reg, state, spin_z_observable(reg, 0), range(40))
    by_outcome = {}
    for record in records:
        assert by_outcome.setdefault(record.outcome, record.post_state) is record.post_state
    assert sorted(by_outcome) == [0, 1]


def _raised(call, *args):
    with pytest.raises(Exception) as excinfo:
        call(*args)
    return type(excinfo.value), str(excinfo.value)


def _error_cases():
    reg = electron_positron_registry(2)
    single = StateVector({B(("e-", 0), ("e+", 1)): ROOT_HALF, B(("e+", 1), ("e-", 0)): ROOT_HALF})
    cross = StateVector({B(("e-", 0), ("e-", 1)): ROOT_HALF, B(("e+", 1), ("e+", 0)): ROOT_HALF})
    spin_one = StateVector({B(("e-", 0), ("e+", 0)): ROOT_HALF, B(("e-", 1), ("e+", 0)): ROOT_HALF})
    z = spin_z_observable(reg, 0)
    eye = {"e-": np.eye(2), "e+": np.eye(2)}
    a, b = B(("e-", 1), ("e+", 0)), B(("e+", 0), ("e-", 1))
    small = SpinObservable(0, {"e-": np.eye(1)})
    small_int = SpinObservable(0, {"e-": 1})
    return {
        # norm first, even on a cross-sector state with a register out of range
        "unnormalized": (reg, StateVector({B(("e-", 0), ("e-", 1)): 2.0}), spin_z_observable(reg, 7)),
        "cross_sector": (reg, cross, spin_z_observable(reg, 7)),
        "register_too_high": (reg, single, spin_z_observable(reg, 2)),
        "register_negative": (reg, single, spin_z_observable(reg, -1)),
        "no_basis_second_term": (reg, single, SpinObservable(0, {"e-": np.eye(2)})),
        "no_basis_first_term": (reg, single, SpinObservable(0, {"e+": np.eye(2)})),
        "spin_not_below_m": (reg, spin_one, SpinObservable(0, {**eye, "e-": np.eye(1)})),
        # the first bad term in term order decides, whichever its fault
        "first_term_spin_not_below_m": (reg, StateVector({a: ROOT_HALF, b: ROOT_HALF}), small),
        "first_term_no_basis": (reg, StateVector({b: ROOT_HALF, a: ROOT_HALF}), small),
        "unknown_species": (reg, StateVector({B(("e-", 0), ("mu", 0)): 1.0}), z),
        # the same faults with int (computational) bases
        "int_spin_not_below_m": (reg, spin_one, SpinObservable(0, {"e-": 1, "e+": 2})),
        "int_no_basis_second_term": (reg, single, SpinObservable(0, {"e-": 2})),
        "int_first_term_spin_not_below_m": (reg, StateVector({a: ROOT_HALF, b: ROOT_HALF}), small_int),
        "int_first_term_no_basis": (reg, StateVector({b: ROOT_HALF, a: ROOT_HALF}), small_int),
    }


@pytest.mark.parametrize("case", sorted(_error_cases()))
def test_measurement_errors_match_the_reference(case):
    reg, vec, obs = _error_cases()[case]
    want = _raised(reference_measure_spin, reg, vec, obs)
    for _ in range(2):  # a refused call keeps nothing on the vector, so it is refused again
        assert _raised(measure_spin, reg, vec, obs) == want
        assert _raised(sample_measurement, reg, vec, obs, 0) == want
        assert _raised(sample_measurements, reg, vec, obs, [0, 1]) == want
        assert vec._born is None
    assert want[0] in (DomainError, SuperselectionError, ConfigurationError, UnknownSpeciesError)


def test_measurement_error_messages_name_the_fault():
    cases = _error_cases()
    assert _raised(measure_spin, *cases["unnormalized"]) == (
        DomainError, "state is not normalized (norm 2)"
    )
    assert _raised(measure_spin, *cases["cross_sector"])[0] is SuperselectionError
    assert _raised(measure_spin, *cases["register_too_high"]) == (
        DomainError, "register 2 out of range for n=2"
    )
    assert _raised(measure_spin, *cases["no_basis_second_term"]) == (
        ConfigurationError, "observable has no spin basis for species 'e+'"
    )
    assert _raised(measure_spin, *cases["spin_not_below_m"]) == (
        DomainError, "spin index 1 outside the 1-dim basis for 'e-'"
    )
    assert _raised(measure_spin, *cases["int_spin_not_below_m"]) == (
        DomainError, "spin index 1 outside the 1-dim basis for 'e-'"
    )


def test_observable_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="non-finite"):
            SpinObservable(register=0, bases={"e-": np.array([[1.0, 0.0], [0.0, bad]])})


def test_int_bases_are_positive_ints():
    obs = SpinObservable(register=0, bases={"e-": 2, "e+": np.eye(2)})
    assert obs.bases["e-"] == 2 and obs.outcome_count() == 2
    assert type(obs.bases["e+"]) is np.ndarray and obs.bases["e+"].dtype == complex
    refusals = [(0, "is empty (0x0)"), (True, "must be square"), (-1, "must be square"), (2.0, "must be square")]
    for bad, message in refusals:
        with pytest.raises(ConfigurationError, match=r"^spin basis for 'e-' " + re.escape(message) + "$"):
            SpinObservable(register=0, bases={"e-": bad})


def test_observable_with_no_bases_is_a_configuration_error(hybrid_third):
    reg, state, _ = hybrid_third
    with pytest.raises(ConfigurationError, match="bases is empty"):
        measure_spin(reg, state, SpinObservable(register=0, bases={}))


def test_observable_with_an_empty_basis_names_the_species(hybrid_third):
    reg, state, _ = hybrid_third
    bases = {"e-": np.eye(2), "e+": np.zeros((0, 0))}
    with pytest.raises(ConfigurationError, match=r"spin basis for 'e\+' is empty \(0x0\)"):
        measure_spin(reg, state, SpinObservable(register=0, bases=bases))


# -- the Born distribution kept on the vector -------------------------------------

def _results(measure, sample, registry, vec, obs):
    """What a distribution and three single shots give, as bits, or the error."""
    try:
        records = measure(registry, vec, obs) + [sample(registry, vec, obs, seed) for seed in (0, 1, 2)]
    except Exception as exc:
        return type(exc), str(exc)
    return [record_bits(r) for r in records]


def _kept(registry, vec, obs):
    return _results(measure_spin, sample_measurement, registry, vec, obs)


def _reference(registry, vec, obs):
    return _results(reference_measure_spin, reference_sample_measurement, registry, vec, obs)


def _edit_basis_in_place(registry, obs):
    obs.bases["e-"][:] = np.array([[1.0, 1.0], [1.0, -1.0]]) * ROOT_HALF
    return registry


def _replace_int_basis_with_an_array(registry, obs):
    # the order-3 complex Hadamard (Fourier) matrix in place of the int 3
    obs.bases["w-"] = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / math.sqrt(3)
    return registry


def _reassign_register(registry, obs):
    obs.register = 1
    return registry


def _append_charge_spec(registry, obs):
    registry.charge_specs.append(ChargeComponentSpec("lepton", GAUGED))  # now every species' arity is short
    return registry


def _other_registry(registry, obs):
    # the w pair carries charge 2, so the measured state straddles two sectors
    return SpeciesRegistry(
        list(registry.charge_specs),
        [
            s if s.id[0] != "w" else Species(s.id, ChargeVector((2 if s.id == "w+" else -2,)), 3, s.conjugate_id)
            for s in registry.species
        ],
    )


@pytest.mark.parametrize(
    "change",
    [
        _edit_basis_in_place,
        _replace_int_basis_with_an_array,
        _reassign_register,
        _append_charge_spec,
        _other_registry,
    ],
)
def test_a_changed_registry_or_observable_is_never_answered_from_the_kept_distribution(change):
    registry = mixed_spin_registry()
    vec = StateVector({
        B(("e-", 0), ("w+", 1)): math.sqrt(1 / 3),
        B(("w-", 2), ("e+", 1)): math.sqrt(1 / 6),
        B(("e-", 1), ("w+", 0)): math.sqrt(1 / 2),
    })
    obs = spin_z_observable(registry, 0)
    obs.bases["e-"] = np.eye(2, dtype=complex)  # an explicit array, which can be edited in place
    before = _kept(registry, vec, obs)
    assert before == _reference(registry, vec, obs)
    assert vec._born is not None
    registry = change(registry, obs)
    after = _kept(registry, vec, obs)
    assert after == _reference(registry, vec, obs)
    assert after != before


def test_two_observables_used_in_turn_on_one_vector_both_give_the_reference():
    registry = mixed_spin_registry()
    rng = np.random.default_rng(5)
    basis = sector_basis(registry, 3, SectorIndex((0,)))
    picks = rng.choice(len(basis), size=8, replace=False)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec = StateVector({basis[i]: a for i, a in zip(picks, amps / np.linalg.norm(amps))})
    observables = [spin_z_observable(registry, 0), haar_observable(rng, registry, 2)]
    want = [_reference(registry, vec, obs) for obs in observables]
    for _ in range(3):
        assert [_kept(registry, vec, obs) for obs in observables] == want


def test_sampled_vector_pickles_and_copies_without_its_distribution(hybrid_third):
    reg, state, _ = hybrid_third
    sampled, unsampled = StateVector(state.terms), StateVector(state.terms)
    sample_measurement(reg, sampled, spin_z_observable(reg, 0), 3)
    assert sampled._born is not None
    assert pickle.dumps(sampled) == pickle.dumps(unsampled)
    for again in (copy.copy(sampled), copy.deepcopy(sampled), pickle.loads(pickle.dumps(sampled))):
        assert again == sampled and again is not sampled
        assert again._born is None


def test_sampled_vectors_are_freed_without_the_cycle_collector():
    registry = mixed_spin_registry()
    rng = np.random.default_rng(11)
    basis = sector_basis(registry, 3, SectorIndex((0,)))
    obs = haar_observable(rng, registry, 1)
    amps = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(50)]
    picks = [rng.choice(len(basis), size=6, replace=False) for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        for seed, (p, a) in enumerate(zip(picks, amps)):
            vec = StateVector({basis[i]: x for i, x in zip(p, a / np.linalg.norm(a))})
            measure_spin(registry, vec, obs)
            sample_measurement(registry, vec, obs, seed)
            assert vec._born is not None
        del vec
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- spin-z is its multiplicities ---------------------------------------------------

def _spin_z_pair(m):
    """e± at multiplicity m and a two-term sector-0 state with spins 0 and m - 1."""
    reg = electron_positron_registry(m)
    vec = StateVector({B(("e-", 0), ("e+", m - 1)): 0.6, B(("e+", m - 1), ("e-", 0)): 0.8})
    return reg, vec


def test_spin_z_at_the_limit_builds_no_identity(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.eye called on the spin-z path")

    monkeypatch.setattr(measure_module.np, "eye", refuse)
    reg, vec = _spin_z_pair(measure_module.MAX_SPIN_BASIS_DIM)
    obs = spin_z_observable(reg, 0)
    assert obs.bases == {"e-": 4096, "e+": 4096}
    records = measure_spin(reg, vec, obs)
    assert [r.outcome for r in records] == [0, 4095]
    assert [r.probability for r in records] == pytest.approx([0.36, 0.64], abs=1e-12)
    assert sample_measurement(reg, vec, obs, 7) in records


def test_vectors_measured_in_spin_z_keep_no_basis_bytes():
    reg, _ = _spin_z_pair(1024)
    obs = spin_z_observable(reg, 0)
    vectors = [_spin_z_pair(1024)[1] for _ in range(6)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed, vec in enumerate(vectors):
            measure_spin(reg, vec, obs)
            sample_measurement(reg, vec, obs, seed)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(vec._born is not None for vec in vectors)
    assert kept < 2**20
