"""Superpositions, sector decomposition, superselection, gauge action, conjugation."""

import cmath
import json
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superselect.entangle import (
    Bipartition,
    all_bipartitions,
    cut_spectra,
    entanglement_entropy,
    internal_charge_marginal,
    is_entangled_somewhere,
    is_packaged_entangled,
    schmidt,
)
from superselect.charges import ChargeVector, Species, SpeciesRegistry, load_registry
from superselect.errors import (
    ConfigurationError,
    DomainError,
    ShapeError,
    SuperselectionError,
    UnknownSpeciesError,
)
from superselect.fock import (
    BasisState,
    enumerate_basis,
    RegisterLabel,
    SectorIndex,
    attained_sectors,
    sector_basis,
    state_sector,
)
from superselect.measure import measure_spin, sample_measurement, spin_z_observable
from superselect.scenarios import build_scenario, electron_positron_registry
from superselect.states import (
    PRUNE_TOL,
    StateVector,
    SuperselectionReport,
    apply_u1_gauge,
    charge_conjugate,
    coordinate_matrix,
    coordinates,
    from_coordinates,
    inner_product,
    load_state,
    max_term_deviation,
    normalize,
    require_normalized,
    require_single_sector,
    save_state,
    scale,
    sector_decompose,
    state_from_dict,
    state_to_dict,
    superpose,
    validate_superselection,
)

from helpers import (
    dyon_registry,
    escaped_id_registry,
    lepton_photon_registry,
    random_single_sector_state,
    reference_normalize,
    two_family_registry,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)


def B(*labels):
    return BasisState(tuple(RegisterLabel(sid, spin) for sid, spin in labels))


EM_EP = B(("e-", 0), ("e+", 0))
EP_EM = B(("e+", 0), ("e-", 0))
EM_EM = B(("e-", 0), ("e-", 0))
EP_EP = B(("e+", 0), ("e+", 0))


@pytest.fixture
def ep():
    return electron_positron_registry(1)


@pytest.fixture
def bell_pair():
    _, plus, _ = build_scenario("bell_plus")
    _, minus, _ = build_scenario("bell_minus")
    return plus, minus


def test_superpose_identity():
    vec = StateVector.from_basis_state(EM_EP)
    other = StateVector.from_basis_state(EP_EM)
    assert superpose([(1.0, vec), (0.0, other)]) == vec


def test_superpose_builds_bell_state(bell_pair):
    plus, _ = bell_pair
    built = superpose(
        [
            (ROOT_HALF, StateVector.from_basis_state(EM_EP)),
            (ROOT_HALF, StateVector.from_basis_state(EP_EM)),
        ]
    )
    assert max_term_deviation(built, plus) == 0.0


def test_superpose_cancellation_gives_zero_state():
    vec = StateVector.from_basis_state(EM_EP)
    out = superpose([(ROOT_HALF, vec), (-ROOT_HALF, vec)])
    assert out.is_zero() and out.n == 2


_NON_FINITE = [
    complex(math.nan, 0.0),
    complex(0.5, math.nan),
    complex(math.inf, 0.0),
    complex(math.inf, math.nan),
]


@pytest.mark.parametrize("amp", _NON_FINITE, ids=["nan_real", "nan_imag", "inf", "inf_nan"])
def test_non_finite_amplitudes_fail_loudly(amp):
    message = f"non-finite amplitude {amp!r} for term {EP_EM}"
    with pytest.raises(DomainError) as excinfo:
        StateVector({EM_EP: ROOT_HALF, EP_EM: amp})
    assert str(excinfo.value) == message
    # the product coef * 1 spreads a nan to both parts, so only the form is fixed
    with pytest.raises(DomainError, match=r"^non-finite amplitude \(.*\) for term \|e\+,e-\>$"):
        superpose([(1.0, StateVector({EM_EP: ROOT_HALF})), (amp, StateVector({EP_EM: 1.0}))])
    with pytest.raises(DomainError) as excinfo:
        from_coordinates(np.array([ROOT_HALF, amp]), [EM_EP, EP_EM])
    assert str(excinfo.value) == message


def test_tiny_finite_amplitudes_are_still_pruned():
    assert StateVector({EM_EP: 1e-13, EP_EM: complex(0.0, -1e-13)}, n=2).is_zero()


def test_superpose_rejects_mixed_register_counts():
    with pytest.raises(ShapeError):
        superpose(
            [
                (1.0, StateVector.from_basis_state(EM_EP)),
                (1.0, StateVector.from_basis_state(B(("e-", 0)))),
            ]
        )


def test_amplitudes_below_prune_tolerance_drop():
    vec = StateVector({EM_EP: 1e-13})
    assert vec.is_zero()


def test_inner_product_bell_states_orthonormal(bell_pair):
    plus, minus = bell_pair
    assert abs(inner_product(plus, minus)) <= 1e-12
    assert abs(inner_product(plus, plus) - 1.0) <= 1e-12


def test_inner_product_distinct_basis_states():
    a = StateVector.from_basis_state(EM_EP)
    b = StateVector.from_basis_state(EP_EM)
    assert inner_product(a, b) == 0j


def test_inner_product_conjugate_linear_in_first_argument():
    a = StateVector.from_basis_state(EM_EP, 0.5 + 0.5j)
    b = StateVector.from_basis_state(EM_EP, 0.25 - 0.1j)
    assert inner_product(a, b) == pytest.approx((0.5 - 0.5j) * (0.25 - 0.1j))


def test_superpose_is_linear_on_random_states():
    rng = np.random.default_rng(11)
    reg = two_family_registry()
    for _ in range(100):
        a = random_single_sector_state(rng, reg, 2)
        b = random_single_sector_state(rng, reg, 2)
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = superpose([(c1, a), (c2, b)])
        rhs = superpose([(1.0, superpose([(c1, a)])), (1.0, superpose([(c2, b)]))])
        assert max_term_deviation(lhs, rhs) <= 1e-12


def test_sector_decompose_bell_single_part(ep, bell_pair):
    plus, _ = bell_pair
    decomp = sector_decompose(ep, plus)
    assert decomp.sectors() == [SectorIndex((0,))]
    assert decomp.weights()[SectorIndex((0,))] == pytest.approx(1.0, abs=1e-12)


def test_sector_decompose_forbidden_mixture(ep):
    _, state, _ = build_scenario("forbidden_pm2e")
    decomp = sector_decompose(ep, state)
    assert decomp.sectors() == [SectorIndex((-2,)), SectorIndex((2,))]
    for weight in decomp.weights().values():
        assert weight == pytest.approx(0.5, abs=1e-12)
    # reassembling the parts reproduces the input exactly
    rebuilt = superpose([(1.0, part) for part, _ in decomp.parts.values()])
    assert rebuilt == state


def test_sector_decompose_zero_state(ep):
    decomp = sector_decompose(ep, StateVector({}, n=2))
    assert decomp.parts == {}


def test_validate_superselection_accepts_bell(ep, bell_pair):
    plus, _ = bell_pair
    assert validate_superselection(ep, plus) == SectorIndex((0,))


def test_validate_superselection_reports_violation(ep):
    _, state, _ = build_scenario("forbidden_pm2e")
    verdict = validate_superselection(ep, state)
    assert isinstance(verdict, SuperselectionReport)
    assert set(verdict.sector_weights) == {SectorIndex((-2,)), SectorIndex((2,))}


def test_validate_superselection_accepts_flavor_superposition():
    reg, state, _ = build_scenario("meson_superposition", alpha=0.6, beta=0.8)
    assert validate_superselection(reg, state) == SectorIndex((0,))


def test_validate_superselection_zero_state(ep):
    with pytest.raises(DomainError):
        validate_superselection(ep, StateVector({}, n=2))


_SECTOR_REGISTRIES = [lepton_photon_registry(), two_family_registry(), dyon_registry()]


@st.composite
def states_over_sectors(
    draw, registries=_SECTOR_REGISTRIES, part=st.floats(-1.0, 1.0, allow_nan=False)
):
    """A registry from tests/helpers.py and a state over 1-3 of its sectors."""
    registry = draw(st.sampled_from(registries))
    n = draw(st.integers(1, 3))
    sectors = attained_sectors(registry, n)
    chosen = draw(st.lists(st.sampled_from(sectors), min_size=1, max_size=3, unique=True))
    terms = {}
    for sector in chosen:
        basis = sector_basis(registry, n, sector)
        for state in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6, unique=True)):
            terms[state] = complex(draw(part), draw(part))
    return registry, StateVector(terms, n=n)


@settings(max_examples=300, deadline=None)
@given(states_over_sectors())
def test_validate_superselection_matches_sector_decompose(case):
    registry, vec = case
    if vec.is_zero():  # every drawn amplitude pruned
        return
    sectors = {state_sector(registry, state) for state in vec.terms}
    verdict = validate_superselection(registry, vec)
    if len(sectors) == 1:
        assert verdict == next(iter(sectors))
        assert require_single_sector(registry, vec) == verdict
        return
    assert isinstance(verdict, SuperselectionReport)
    weights = sector_decompose(registry, vec).weights()
    # equal floats in equal order: both sum each sector's terms in term order
    assert list(verdict.sector_weights.items()) == list(weights.items())
    assert sorted(verdict.sector_weights) == sorted(sectors)
    assert abs(sum(verdict.sector_weights.values()) - vec.norm() ** 2) <= 1e-12
    with pytest.raises(SuperselectionError) as excinfo:
        require_single_sector(registry, vec)
    assert str(excinfo.value) == verdict.describe()


@settings(max_examples=100, deadline=None)
@given(states_over_sectors(), st.floats(1e-3, 1e3), st.floats(-math.pi, math.pi))
def test_normalize_and_scale_equal_one_superpose_bit_for_bit(case, size, phase):
    _, vec = case
    coef = size * cmath.exp(1j * phase)
    scaled = scale(coef, vec)
    want = superpose([(coef, vec)])
    assert [(s, a.real.hex(), a.imag.hex()) for s, a in scaled.terms.items()] == [
        (s, a.real.hex(), a.imag.hex()) for s, a in want.terms.items()
    ]
    assert scale(0.0, vec) == superpose([(0.0, vec)])
    if not vec.is_zero():
        got = normalize(vec)
        want = reference_normalize(vec)
        assert [(s, a.real.hex(), a.imag.hex()) for s, a in got.terms.items()] == [
            (s, a.real.hex(), a.imag.hex()) for s, a in want.terms.items()
        ]


_CUT = Bipartition.from_left({0}, 2)
_ADMISSION_ENTRY_POINTS = {
    "cut_spectra": lambda reg, vec: cut_spectra(vec, all_bipartitions(vec.n)),
    "schmidt": lambda reg, vec: schmidt(vec, _CUT),
    "entanglement_entropy": lambda reg, vec: entanglement_entropy(vec, _CUT),
    "is_packaged_entangled": is_packaged_entangled,
    "is_entangled_somewhere": is_entangled_somewhere,
    "internal_charge_marginal": lambda reg, vec: internal_charge_marginal(reg, vec, _CUT),
    "measure_spin": lambda reg, vec: measure_spin(reg, vec, spin_z_observable(reg, 0)),
    "sample_measurement": lambda reg, vec: sample_measurement(
        reg, vec, spin_z_observable(reg, 0), seed=0
    ),
}


@pytest.mark.parametrize("entry", sorted(_ADMISSION_ENTRY_POINTS))
def test_entry_points_check_the_norm_first_with_one_message(ep, entry):
    admit = _ADMISSION_ENTRY_POINTS[entry]
    single = StateVector({EM_EP: 2 * ROOT_HALF, EP_EM: 2 * ROOT_HALF})
    cross = StateVector({EM_EM: math.sqrt(2.0), EP_EP: math.sqrt(2.0)})
    assert isinstance(validate_superselection(ep, cross), SuperselectionReport)
    for vec in (single, cross):
        with pytest.raises(DomainError) as excinfo:
            admit(ep, vec)
        assert str(excinfo.value) == "state is not normalized (norm 2)"


def test_overflowing_norm_is_refused_with_a_domain_error(ep):
    # |a| ** 2 overflows a float from |a| ~ 1.3e154 on
    vec = StateVector({EM_EP: complex(1e308, 1e308)})
    assert vec.norm() == math.inf
    with pytest.raises(DomainError) as excinfo:
        require_normalized(vec)
    assert str(excinfo.value) == "state is not normalized (norm inf)"
    with pytest.raises(DomainError, match="^cannot normalize a state whose norm is beyond"):
        normalize(vec)
    # a cross-sector report weighs the overflowing sector as inf, as sector_decompose does
    cross = StateVector({EM_EM: complex(1e308, 1e308), EM_EP: 1.0})
    weights = {SectorIndex((-2,)): math.inf, SectorIndex((0,)): 1.0}
    assert validate_superselection(ep, cross).sector_weights == weights
    assert sector_decompose(ep, cross).weights() == weights


def test_amplitude_whose_modulus_overflows_is_refused():
    with pytest.raises(DomainError) as excinfo:
        StateVector({EM_EP: complex(1.7e308, 1.7e308)})
    assert str(excinfo.value) == (
        "amplitude (1.7e+308+1.7e+308j) for term |e-,e+> has a modulus beyond the float range"
    )


@pytest.mark.parametrize("size", [1e-160, 1e-5, 1.0, 1e150, 1e153])
def test_finite_norms_keep_their_bits(size):
    rng = np.random.default_rng(5)
    basis = enumerate_basis(electron_positron_registry(2), 2)
    amps = size * (rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis)))
    vec = StateVector(dict(zip(basis, amps)))
    want = math.sqrt(sum(abs(a) ** 2 for a in vec.terms.values()))
    assert math.isfinite(want) and vec.norm().hex() == want.hex()


def test_from_coordinates_matches_the_build_from_every_coordinate():
    rng = np.random.default_rng(41)
    basis = enumerate_basis(electron_positron_registry(2), 3)
    for _ in range(20):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        coeffs[rng.random(len(basis)) < 0.7] = 0
        coeffs[rng.random(len(basis)) < 0.1] = 1e-13  # pruned either way
        coeffs[rng.random(len(basis)) < 0.1] = complex(-0.0, -0.0)
        got = from_coordinates(coeffs, basis)
        want = StateVector(dict(zip(basis, coeffs)), n=3)
        bits = lambda v: [(b, a.real.hex(), a.imag.hex()) for b, a in v.terms.items()]
        assert bits(got) == bits(want)
    with pytest.raises(ShapeError):
        from_coordinates(np.zeros(0), [])


def test_is_normalized_uses_the_norm_tolerance():
    assert StateVector({EM_EP: 1.0 + 1e-10}).is_normalized()
    assert not StateVector({EM_EP: 1.0 + 1e-8}).is_normalized()


def test_gauge_action_trivial_on_neutral_sector(ep, bell_pair):
    plus, _ = bell_pair
    for theta in (0.3, 1.0, math.pi):
        assert max_term_deviation(apply_u1_gauge(ep, plus, "electric", theta), plus) <= 1e-12


def test_gauge_action_phases_charged_state(ep):
    vec = StateVector.from_basis_state(EM_EM)
    theta = 0.7
    out = apply_u1_gauge(ep, vec, "electric", theta)
    expected = cmath.exp(-2j * theta)
    assert out.amplitude(EM_EM) == pytest.approx(expected, abs=1e-12)


def test_gauge_action_separates_cross_sector_parts(ep):
    _, state, _ = build_scenario("forbidden_pm2e")
    theta = math.pi / 2
    out = apply_u1_gauge(ep, state, "electric", theta)
    assert out.amplitude(EM_EM) == pytest.approx(ROOT_HALF * cmath.exp(-2j * theta), abs=1e-12)
    assert out.amplitude(EP_EP) == pytest.approx(ROOT_HALF * cmath.exp(+2j * theta), abs=1e-12)
    # the relative phase makes the state physically distinct from its input
    assert max_term_deviation(out, state) > 0.5


def test_gauge_action_rejects_global_component():
    reg, state, _ = build_scenario("meson_superposition")
    with pytest.raises(ConfigurationError):
        apply_u1_gauge(reg, state, "flavor", 0.4)


def test_gauge_action_rejects_unknown_component(ep, bell_pair):
    plus, _ = bell_pair
    with pytest.raises(ConfigurationError):
        apply_u1_gauge(ep, plus, "hypercharge", 0.4)


def test_gauge_action_refuses_a_short_charge_tuple():
    reg = dyon_registry()
    reg = SpeciesRegistry(reg.charge_specs, reg.species + [Species("x", ChargeVector((0,)), 1, "x")])
    vec = StateVector({B(("d+", 0), ("x", 0)): 1.0})
    for component in ("electric", "magnetic"):
        with pytest.raises(ConfigurationError, match="^charge arity mismatch: 2 vs 1$"):
            apply_u1_gauge(reg, vec, component, 0.4)


def test_gauge_action_refuses_an_out_of_range_spin(ep):
    vec = StateVector({B(("e-", 5), ("e+", 0)): 1.0})
    with pytest.raises(DomainError) as refused:
        validate_superselection(ep, vec)
    with pytest.raises(DomainError) as gauged:
        apply_u1_gauge(ep, vec, "electric", 0.4)
    assert str(gauged.value) == str(refused.value)
    assert "spin index 5 out of range" in str(gauged.value)


def test_gauge_covariance_on_random_single_sector_states():
    rng = np.random.default_rng(5)
    registries = [electron_positron_registry(1), two_family_registry(), dyon_registry()]
    for _ in range(60):
        reg = registries[rng.integers(len(registries))]
        n = int(rng.integers(1, 4))
        vec = random_single_sector_state(rng, reg, n)
        sector = validate_superselection(reg, vec)
        gauged = reg.gauged_indices()
        for name_idx, comp_idx in enumerate(gauged):
            name = reg.charge_specs[comp_idx].name
            theta = float(rng.uniform(0, 2 * math.pi))
            out = apply_u1_gauge(reg, vec, name, theta)
            phase = cmath.exp(1j * sector.gauged_charges[name_idx] * theta)
            assert max_term_deviation(out, superpose([(phase, vec)])) <= 1e-12
            assert abs(out.norm() - vec.norm()) <= 1e-12


def test_gauge_action_preserves_sector_weights_even_cross_sector(ep):
    _, state, _ = build_scenario("forbidden_pm2e")
    before = sector_decompose(ep, state).weights()
    after = sector_decompose(ep, apply_u1_gauge(ep, state, "electric", 1.23)).weights()
    assert set(before) == set(after)
    for q in before:
        assert abs(before[q] - after[q]) <= 1e-12


def test_charge_conjugation_parities(ep, bell_pair):
    plus, minus = bell_pair
    assert max_term_deviation(charge_conjugate(ep, plus), plus) <= 1e-12
    assert max_term_deviation(charge_conjugate(ep, minus), superpose([(-1.0, minus)])) <= 1e-12


def test_charge_conjugation_fixes_self_conjugate_species():
    from helpers import lepton_photon_registry

    reg = lepton_photon_registry()
    vec = StateVector.from_basis_state(B(("gamma", 0)))
    assert charge_conjugate(reg, vec) == vec


def test_charge_conjugation_is_involution_and_negates_sector():
    rng = np.random.default_rng(7)
    reg = two_family_registry()
    for _ in range(50):
        vec = random_single_sector_state(rng, reg, 3)
        conj = charge_conjugate(reg, vec)
        assert max_term_deviation(charge_conjugate(reg, conj), vec) <= 1e-15
        q = validate_superselection(reg, vec)
        qc = validate_superselection(reg, conj)
        assert qc.gauged_charges == tuple(-c for c in q.gauged_charges)


def test_state_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    reg = electron_positron_registry(2)
    vec = random_single_sector_state(rng, reg, 2)
    path = tmp_path / "state.json"
    save_state(vec, str(path))
    back = load_state(str(path), registry=reg)
    assert back == vec  # exact amplitude equality, not approx


def _amplitude_bits(vec):
    return [(s, a.real.hex(), a.imag.hex()) for s, a in vec.items_sorted()]


# signed zeros, subnormals, both sides of the prune cutoff, magnitudes near 1e+-300
_EDGE_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    PRUNE_TOL, -PRUNE_TOL, math.nextafter(PRUNE_TOL, 0.0), math.nextafter(PRUNE_TOL, 1.0),
    1e-300, -1e-300, 1e300, -1e300, math.nextafter(1e300, 0.0),
]
_FILE_PARTS = st.one_of(
    st.sampled_from(_EDGE_PARTS),
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def saved_states(draw):
    """A state over one or more sectors, or the zero state, of a tests/helpers.py
    registry, including one whose species ids need JSON escapes."""
    registry, vec = draw(
        states_over_sectors(_SECTOR_REGISTRIES + [escaped_id_registry()], _FILE_PARTS)
    )
    if draw(st.integers(0, 9)) == 0:
        vec = StateVector({}, n=vec.n)
    return registry, vec


@settings(max_examples=150, deadline=None)
@given(saved_states())
def test_saved_state_is_json_dumps_and_loads_bit_exact(tmp_path_factory, case):
    registry, vec = case
    path = tmp_path_factory.getbasetemp() / "saved_state.json"
    save_state(vec, str(path))
    assert path.read_bytes() == (json.dumps(state_to_dict(vec), indent=2) + "\n").encode()
    back = load_state(str(path), registry=registry)
    assert back == vec
    assert _amplitude_bits(back) == _amplitude_bits(vec)


def test_save_state_writes_the_file_open_writes(tmp_path, monkeypatch):
    vec = StateVector({EM_EP: complex(-0.0, ROOT_HALF), EP_EM: ROOT_HALF})
    text = json.dumps(state_to_dict(vec), indent=2) + "\n"
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write(text)
    longer = tmp_path / "longer.json"
    longer.write_text("x" * 3 * len(text))
    fresh = tmp_path / "fresh.json"
    real_write = os.write
    with monkeypatch.context() as patch:
        # a short write is resumed where it stopped
        patch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        for path in (longer, fresh):
            save_state(vec, str(path))
            assert path.read_bytes() == reference.read_bytes()
    assert os.stat(fresh).st_mode == os.stat(reference).st_mode
    missing = tmp_path / "missing" / "state.json"
    with pytest.raises(OSError) as opened:
        open(missing, "w", encoding="utf-8")
    with pytest.raises(type(opened.value)) as saved:
        save_state(vec, str(missing))
    assert str(saved.value) == str(opened.value)


def _with_label(label):
    return StateVector({BasisState((RegisterLabel("e+", 0), label)): 1.0})


@pytest.mark.parametrize(
    "vec, field",
    [
        (_with_label(RegisterLabel("e-", True)), "spin"),  # json writes true; load refuses it
        (_with_label(RegisterLabel("e-", np.int64(1))), "spin"),  # json fails mid-file
        (_with_label(RegisterLabel(7, 0)), "species"),
        (StateVector({}, n=np.int64(2)), "n"),
        (StateVector({BasisState(()): 1.0}), "n"),  # n = 0: load refuses it
    ],
    ids=["bool-spin", "numpy-spin", "int-species", "numpy-n", "zero-n"],
)
def test_save_state_refuses_an_unwritable_field_before_touching_the_path(
    tmp_path, vec, field
):
    fresh = tmp_path / "fresh.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    for path in (fresh, kept):
        with pytest.raises(ConfigurationError, match=f"^state field '{field}'") as excinfo:
            save_state(vec, str(path))
        assert "\n" not in str(excinfo.value)
    assert not fresh.exists()
    assert kept.read_text() == "old"


def test_state_loader_renormalizes_only_on_request(tmp_path):
    vec = StateVector.from_basis_state(EM_EP, 2.0)
    path = tmp_path / "state.json"
    save_state(vec, str(path))
    assert load_state(str(path)).norm() == pytest.approx(2.0)
    assert load_state(str(path), renormalize=True).norm() == pytest.approx(1.0)


def test_state_document_validation():
    with pytest.raises(ConfigurationError):
        state_from_dict({"terms": []})
    with pytest.raises(ConfigurationError):
        state_from_dict({"n": 1, "terms": [{"labels": [{"species": "e-", "spin": 0.5}]}]})
    doc = {"n": 2, "terms": [{"labels": [{"species": "e-", "spin": 0}], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ConfigurationError):
        state_from_dict(doc)


_ONE_LABEL = {"n": 1, "terms": [{"labels": [{"species": "e-", "spin": 0}], "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize("document, message, registry, error", [
    ([_ONE_LABEL], "state document must be an object, got list", None, ConfigurationError),
    ("e-", "state document must be an object, got str", None, ConfigurationError),
    ({**_ONE_LABEL, "terms": [{"labels": [{"species": ["x"]}], "re": 1.0}]},
     "state field 'species' must be a string, got ['x']", None, ConfigurationError),
    ({**_ONE_LABEL, "terms": [{"labels": [{"species": 5}], "re": 1.0}]},
     "state field 'species' must be a string, got 5", None, ConfigurationError),
    # the loader makes one label per distinct (species, spin): a spin of true
    # is refused even where an equal spin of 1 was read before
    ({**_ONE_LABEL, "terms": [{"labels": [{"species": "e-", "spin": 1}], "re": 1.0},
                              {"labels": [{"species": "e-", "spin": True}], "re": 1.0}]},
     "state field 'spin' must be an integer, got True", None, ConfigurationError),
    # each distinct label is checked against the registry where it first appears
    ({"n": 2, "terms": [{"labels": [{"species": "e-"}, {"species": "e-"}], "re": 1.0},
                        {"labels": [{"species": "e+"}, {"species": "mu"}], "re": 1.0}]},
     "unknown species id 'mu'", "ep", UnknownSpeciesError),
    ({**_ONE_LABEL, "terms": [{"labels": [{"species": "e-"}], "re": 1.0},
                              {"labels": [{"species": "mu"}, {"species": "e-"}], "re": 1.0}]},
     "term has 2 labels but state declares n=1", "ep", ConfigurationError),
], ids=["list-document", "str-document", "list-species", "int-species",
        "true-spin-after-one", "unknown-species-in-a-later-term", "label-count-before-species"])
def test_state_loader_names_the_malformed_field(tmp_path, document, message, registry, error):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document))
    with pytest.raises(error) as excinfo:
        load_state(str(path), registry=electron_positron_registry(2) if registry else None)
    assert str(excinfo.value) == message


def test_state_document_label_validation_against_registry(ep):
    doc = {
        "n": 1,
        "terms": [{"labels": [{"species": "e-", "spin": 3}], "re": 1.0, "im": 0.0}],
    }
    with pytest.raises(DomainError):
        state_from_dict(doc, registry=ep)


def test_state_to_dict_orders_terms_deterministically(bell_pair):
    plus, _ = bell_pair
    doc = state_to_dict(plus)
    species = [tuple(l["species"] for l in t["labels"]) for t in doc["terms"]]
    assert species == sorted(species)


def test_coordinates_round_trip(ep, bell_pair):
    plus, _ = bell_pair
    basis = [EP_EM, EM_EP]
    coeffs = coordinates(plus, basis)
    assert from_coordinates(coeffs, basis) == plus
    with pytest.raises(DomainError):
        coordinates(plus, [EM_EM])


def test_coordinate_matrix_stacks_coordinates(bell_pair):
    plus, minus = bell_pair
    basis = [EP_EM, EM_EP, EM_EM]
    mat = coordinate_matrix([plus, minus], basis)
    assert mat.shape == (3, 2)
    assert np.array_equal(mat[:, 0], coordinates(plus, basis))
    assert np.array_equal(mat[:, 1], coordinates(minus, basis))
    assert coordinate_matrix([], basis).shape == (3, 0)
    with pytest.raises(DomainError) as stacked:
        coordinate_matrix([plus, minus], [EM_EP])
    with pytest.raises(DomainError) as single:
        coordinates(plus, [EM_EP])
    assert str(stacked.value) == str(single.value)


def test_normalize_zero_state_rejected():
    with pytest.raises(DomainError):
        normalize(StateVector({}, n=2))


@pytest.mark.parametrize("load", [load_registry, load_state])
def test_loaders_refuse_non_utf8_bytes_naming_the_file(tmp_path, load):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n": 1, "terms": [], "note": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(path))} is not UTF-8 text: "):
        load(str(path))


@pytest.mark.parametrize("load", [load_registry, load_state])
@pytest.mark.parametrize("text", [
    '{\r\n  "n": 1,\r\n  "terms": [\r\n    x\r\n  ]\r\n}',  # CRLF line ends
    '{\r  "n": 1,\r  "terms": [\r "a\rb" ]\r}',  # bare CR, one inside a string
    '\ufeff{"n": 1}',  # a byte order mark, which json refuses
])
def test_loaders_parse_bytes_as_json_load_parses_the_text_file(tmp_path, load, text):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(json.JSONDecodeError) as want:
            json.load(fh)
    with pytest.raises(ConfigurationError) as got:
        load(str(path))
    # json's message, its line and column included, follows the file's name
    assert str(got.value) == f"{path} is not valid JSON: {want.value}"


@pytest.mark.parametrize("load", [load_registry, load_state])
@pytest.mark.parametrize("text, reason", [
    pytest.param(
        '{"n": 1,', "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)",
        id="truncated",
    ),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="too-deep"),
    pytest.param(
        '{"n": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)", id="too-many-digits",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"),
    ),
])
def test_loaders_refuse_malformed_json_naming_the_file(tmp_path, load, text, reason):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path} is not valid JSON: {reason}")):
        load(str(path))
