"""Projective spin measurement, collapse, and seeded sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dyon_registry,
    haar_observable,
    mixed_spin_registry,
    record_bits,
    reference_measure_spin,
    reference_sample_measurement,
    two_family_registry,
)
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
    size = int(rng.integers(1, min(len(basis), 8) + 1))
    picks = rng.choice(len(basis), size=size, replace=False)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    vec = StateVector({basis[i]: a for i, a in zip(picks, amps)})
    register = draw(st.integers(0, n - 1))
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
    batch = sample_measurements(registry, vec, obs, seeds)
    singles = [sample_measurement(registry, vec, obs, s) for s in seeds]
    assert batch == singles
    want = [reference_sample_measurement(registry, vec, obs, s) for s in seeds]
    assert [record_bits(r) for r in batch] == [record_bits(r) for r in want]


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
    }


@pytest.mark.parametrize("case", sorted(_error_cases()))
def test_measurement_errors_match_the_reference(case):
    reg, vec, obs = _error_cases()[case]
    want = _raised(reference_measure_spin, reg, vec, obs)
    assert _raised(measure_spin, reg, vec, obs) == want
    assert _raised(sample_measurement, reg, vec, obs, 0) == want
    assert _raised(sample_measurements, reg, vec, obs, [0, 1]) == want
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


def test_observable_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="non-finite"):
            SpinObservable(register=0, bases={"e-": np.array([[1.0, 0.0], [0.0, bad]])})


def test_observable_with_no_bases_is_a_configuration_error(hybrid_third):
    reg, state, _ = hybrid_third
    with pytest.raises(ConfigurationError, match="bases is empty"):
        measure_spin(reg, state, SpinObservable(register=0, bases={}))


def test_observable_with_an_empty_basis_names_the_species(hybrid_third):
    reg, state, _ = hybrid_third
    bases = {"e-": np.eye(2), "e+": np.zeros((0, 0))}
    with pytest.raises(ConfigurationError, match=r"spin basis for 'e\+' is empty \(0x0\)"):
        measure_spin(reg, state, SpinObservable(register=0, bases=bases))
