"""Canned scenarios, each verified through the independent analysis modules."""

import math

import pytest

from superselect.entangle import Bipartition, entanglement_entropy, internal_charge_marginal, is_packaged_entangled, ppt_check
from superselect.errors import DomainError
from superselect.fock import SectorIndex
from superselect.measure import measure_spin, spin_z_observable
from superselect.scenarios import PAIR_SCENARIOS, SCENARIO_NAMES, build_scenario
from superselect.states import (
    SuperselectionReport,
    charge_conjugate,
    max_term_deviation,
    superpose,
    validate_superselection,
)


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "forbidden_pm2e"])
def test_scenario_sector_verified_independently(name):
    registry, state, expect = build_scenario(name)
    assert validate_superselection(registry, state) == expect.sector


def test_forbidden_scenario_reports_both_sectors():
    registry, state, expect = build_scenario("forbidden_pm2e")
    verdict = validate_superselection(registry, state)
    assert isinstance(verdict, SuperselectionReport)
    assert sorted(verdict.sector_weights) == sorted(expect.violation_sectors)
    for sector, weight in zip(expect.violation_sectors, expect.violation_weights):
        assert verdict.sector_weights[sector] == pytest.approx(weight, abs=1e-12)


@pytest.mark.parametrize("name", ["bell_plus", "bell_minus", "hybrid_pair", "color_singlet_toy"])
def test_scenario_entanglement_verified_independently(name):
    registry, state, expect = build_scenario(name)
    assert is_packaged_entangled(registry, state).entangled == expect.entangled
    cut = Bipartition.from_left({0}, state.n)
    assert entanglement_entropy(state, cut) == pytest.approx(
        expect.entropy_first_cut, abs=1e-9
    )


def test_bell_conjugation_parities():
    for name, parity in (("bell_plus", 1), ("bell_minus", -1)):
        registry, state, expect = build_scenario(name)
        assert expect.conjugation_parity == parity
        conj = charge_conjugate(registry, state)
        assert max_term_deviation(conj, superpose([(parity, state)])) <= 1e-12


def test_hybrid_pair_expectations():
    registry, state, expect = build_scenario("hybrid_pair", alpha=0.6, beta=0.8)
    records = measure_spin(registry, state, spin_z_observable(registry, 0))
    assert [r.probability for r in records] == pytest.approx([0.36, 0.64], abs=1e-12)
    cut = Bipartition.from_left({0}, 2)
    rho = internal_charge_marginal(registry, state, cut)
    assert ppt_check(rho).entangled == expect.internal_marginal_entangled == False


def test_meson_scenario_is_single_register():
    registry, state, expect = build_scenario("meson_superposition", alpha=0.8, beta=0.6)
    assert state.n == 1
    assert expect.entangled is None
    report = is_packaged_entangled(registry, state)
    assert report.undefined


def test_color_singlet_lives_in_neutral_sector():
    registry, state, _ = build_scenario("color_singlet_toy")
    assert validate_superselection(registry, state) == SectorIndex((0,))


def test_scenario_parameter_normalization_enforced():
    with pytest.raises(DomainError):
        build_scenario("hybrid_pair", alpha=1.0, beta=1.0)
    with pytest.raises(DomainError):
        build_scenario("meson_superposition", alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        build_scenario("hybrid_pair", alpha=0.5, beta=None)
    with pytest.raises(DomainError):
        build_scenario("hybrid_pair", alpha=1.0, beta=0.0)  # degenerate, not a pair


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n not in PAIR_SCENARIOS])
def test_amplitudes_are_refused_by_a_scenario_that_takes_none(name):
    message = (f"^scenario {name} takes no alpha or beta \\(--alpha/--beta\\); "
               "only hybrid_pair and meson_superposition do$")
    for alpha, beta in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (0.6, 0.8), (None, 1.0), (1.0, None)):
        with pytest.raises(DomainError, match=message):
            build_scenario(name, alpha=alpha, beta=beta)
    build_scenario(name, alpha=None, beta=None)


def test_unknown_scenario_rejected():
    with pytest.raises(DomainError):
        build_scenario("ghz_triplet")


def test_expectation_block_is_machine_readable():
    _, _, expect = build_scenario("bell_plus")
    doc = expect.to_dict()
    assert doc["sector"] == "(0)"
    assert doc["entangled"] is True
    assert doc["entropy_first_cut"] == pytest.approx(math.log(2))
