"""Schmidt spectra, entanglement predicates, internal marginals, and PPT."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import superselect.entangle as entangle_module
from superselect.entangle import (
    RANK_REL_TOL,
    Bipartition,
    CutPlan,
    DensityMatrix,
    SchmidtResult,
    all_bipartitions,
    cut_spectra,
    entanglement_entropy,
    every_cut_entangled,
    internal_charge_marginal,
    is_entangled_somewhere,
    is_packaged_entangled,
    ppt_check,
    schmidt,
)
from superselect.errors import ConfigurationError, DomainError, SuperselectionError
from superselect.fock import BasisState, RegisterLabel, register_alphabet, sector_basis
from superselect.scenarios import (
    build_scenario,
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.states import SectorIndex, StateVector, from_coordinates, normalize

from helpers import (
    dense_tensor,
    dyon_registry,
    lepton_photon_registry,
    mixed_spin_registry,
    oracle_entangled_somewhere,
    oracle_packaged_entangled,
    random_sector_superposition,
    random_single_sector_state,
    reference_block_ppt_check,
    reference_cut_spectra,
    reference_density_admission,
    reference_every_cut_entangled,
    reference_internal_marginal,
    reference_partial_transpose,
    reference_ppt_check,
    two_family_registry,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)


def B(*labels):
    return BasisState(tuple(RegisterLabel(sid, spin) for sid, spin in labels))


EM_EP = B(("e-", 0), ("e+", 0))
EP_EM = B(("e+", 0), ("e-", 0))
CUT01 = Bipartition.from_left({0}, 2)


@pytest.fixture
def bell_plus():
    return build_scenario("bell_plus")[1]


def test_bipartition_rejects_trivial_cuts():
    with pytest.raises(DomainError):
        Bipartition.from_left(set(), 2)
    with pytest.raises(DomainError):
        Bipartition.from_left({0, 1}, 2)
    with pytest.raises(DomainError):
        Bipartition.from_left({3}, 2)


def test_cut_indices_must_be_integers(bell_plus):
    reg = build_scenario("bell_plus")[0]
    rho = internal_charge_marginal(reg, bell_plus)
    not_integer = r"^cut index .+ is not an integer$"
    for bad in (0.0, 1.0, True, np.True_, "0", None):
        with pytest.raises(DomainError, match=not_integer):
            Bipartition.from_left({bad}, 2)
    # a cut built directly is refused wherever it is checked against the registers
    for left, right in (({0.0}, {1}), ({True}, {0}), ({0}, {np.float64(1)})):
        cut = Bipartition(frozenset(left), frozenset(right))
        calls = (
            lambda: schmidt(bell_plus, cut),
            lambda: cut_spectra(bell_plus, [cut, cut]),
            # after an equal integer cut, which would merge it away unchecked
            lambda: cut_spectra(bell_plus, [CUT01, cut]),
            lambda: internal_charge_marginal(reg, bell_plus, cut),
            lambda: ppt_check(rho, cut),
        )
        for call in calls:
            with pytest.raises(DomainError, match=not_integer):
                call()
    # NumPy integers stay accepted
    cut = Bipartition.from_left({np.int64(0)}, 2)
    assert str(cut) == "{0}|{1}" and cut == CUT01
    assert schmidt(bell_plus, cut).rank == 2
    assert ppt_check(rho, Bipartition(frozenset({np.int32(0)}), frozenset({np.uint8(1)}))).entangled


def test_all_bipartitions_count():
    # 2^(n-1) - 1 cuts up to complement symmetry
    assert len(all_bipartitions(2)) == 1
    assert len(all_bipartitions(3)) == 3
    assert len(all_bipartitions(4)) == 7
    assert all(0 in cut.left for cut in all_bipartitions(4))
    # the side holding register 0 by size, then its other registers in combination order
    for n in range(2, 13):
        want = [[0, *extra] for r in range(n - 1) for extra in itertools.combinations(range(1, n), r)]
        cuts = all_bipartitions(n)
        assert [sorted(cut.left) for cut in cuts] == want
        assert all(cut.right == frozenset(range(n)) - cut.left for cut in cuts)
    assert all_bipartitions(1) == []


def test_oversized_cut_list_is_refused_before_it_allocates(monkeypatch):
    assert entangle_module.MAX_CUTS == 2**20
    monkeypatch.setattr(entangle_module, "MAX_CUTS", 7)
    assert len(all_bipartitions(4)) == 7  # exactly at the limit

    def refuse(*args, **kwargs):
        raise AssertionError("cuts built past the size limit")

    monkeypatch.setattr(entangle_module, "Bipartition", refuse)
    for n in (5, 10**9):  # the check must not compute 2**(n-1) in full
        with pytest.raises(ConfigurationError, match=rf"cuts \(n={n}\): the limit is 7$"):
            all_bipartitions(n)
    with pytest.raises(ConfigurationError, match=r"cuts \(n=5\): the limit is 7$"):
        every_cut_entangled(CutPlan([], 5), np.zeros((0, 1), dtype=complex))
    monkeypatch.setattr(entangle_module, "MAX_CUTS", 2**20)
    with pytest.raises(ConfigurationError, match=r"2\*\*21-1 cuts \(n=22\): the limit is 1048576$"):
        all_bipartitions(22)


def test_schmidt_bell_state(bell_plus):
    result = schmidt(bell_plus, CUT01)
    assert result.rank == 2
    assert np.allclose(result.singular_values, [ROOT_HALF, ROOT_HALF], atol=1e-12)


def test_schmidt_product_state():
    result = schmidt(StateVector.from_basis_state(EM_EP), CUT01)
    assert result.rank == 1
    assert np.allclose(result.singular_values, [1.0], atol=1e-12)


def test_schmidt_lopsided_superposition():
    vec = StateVector({EM_EP: math.sqrt(1 / 3), EP_EM: math.sqrt(2 / 3)})
    result = schmidt(vec, CUT01)
    assert result.rank == 2
    assert np.allclose(result.singular_values, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12)


def test_schmidt_squares_sum_to_norm(bell_plus):
    result = schmidt(bell_plus, CUT01)
    assert float(np.sum(result.squared())) == pytest.approx(1.0, abs=1e-9)


def test_schmidt_requires_normalized_input():
    with pytest.raises(DomainError):
        schmidt(StateVector.from_basis_state(EM_EP, 2.0), CUT01)


def test_schmidt_cut_must_match_register_count(bell_plus):
    with pytest.raises(DomainError):
        schmidt(bell_plus, Bipartition.from_left({0}, 3))


def test_bell_state_is_packaged_entangled(bell_plus):
    reg = electron_positron_registry(1)
    report = is_packaged_entangled(reg, bell_plus)
    assert report.entangled and report.cut_ranks == {(0,): 2}


def test_product_state_is_not_entangled():
    reg = electron_positron_registry(1)
    report = is_packaged_entangled(reg, StateVector.from_basis_state(EM_EP))
    assert not report.entangled


def test_three_register_state_with_factoring_register():
    # register 2 carries e- in both branches, so the {2}-vs-rest cut factorizes
    reg = electron_positron_registry(1)
    vec = StateVector({
        B(("e-", 0), ("e+", 0), ("e-", 0)): ROOT_HALF,
        B(("e+", 0), ("e-", 0), ("e-", 0)): ROOT_HALF,
    })
    strong = is_packaged_entangled(reg, vec)
    assert not strong.entangled
    assert strong.cut_ranks[(0, 1)] == 1  # complement of {2}
    assert strong.cut_ranks[(0,)] == 2
    weak = is_entangled_somewhere(reg, vec)
    assert weak.entangled
    # both verdicts agree with the brute-force oracle
    assert oracle_packaged_entangled(vec) is False
    assert oracle_entangled_somewhere(vec) is True


def test_predicate_rejects_cross_sector_state():
    reg = electron_positron_registry(1)
    _, forbidden, _ = build_scenario("forbidden_pm2e")
    with pytest.raises(SuperselectionError):
        is_packaged_entangled(reg, forbidden)


def test_predicate_undefined_for_single_register():
    reg, state, _ = build_scenario("meson_superposition")
    report = is_packaged_entangled(reg, state)
    assert report.undefined and not report.entangled


def test_entropy_of_bell_state(bell_plus):
    assert entanglement_entropy(bell_plus, CUT01) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_of_product_state():
    assert entanglement_entropy(StateVector.from_basis_state(EM_EP), CUT01) == 0.0


def test_entropy_of_lopsided_superposition():
    vec = StateVector({EM_EP: math.sqrt(1 / 3), EP_EM: math.sqrt(2 / 3)})
    expected = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    assert entanglement_entropy(vec, CUT01) == pytest.approx(expected, abs=1e-12)


def test_entropy_bounds_on_random_states():
    rng = np.random.default_rng(23)
    reg = two_family_registry()
    for _ in range(60):
        n = int(rng.integers(2, 4))
        vec = random_single_sector_state(rng, reg, n)
        cuts = all_bipartitions(n)
        for cut, result, want in zip(cuts, cut_spectra(vec, cuts), reference_cut_spectra(vec, cuts)):
            assert result.singular_values.tobytes() == want.tobytes(), str(cut)
            ent = entanglement_entropy(vec, cut)
            assert -1e-12 <= ent <= math.log(len(want)) + 1e-9  # min(L, R) values


def test_predicates_match_oracle_on_random_suite():
    rng = np.random.default_rng(17)
    reg2 = electron_positron_registry(2)  # local dimension 4
    reg1 = electron_positron_registry(1)
    for trial in range(200):
        reg = reg2 if trial % 2 else reg1
        n = int(rng.integers(2, 4))
        vec = random_single_sector_state(rng, reg, n)
        assert is_packaged_entangled(reg, vec).entangled == oracle_packaged_entangled(vec)
        assert is_entangled_somewhere(reg, vec).entangled == oracle_entangled_somewhere(vec)


@pytest.mark.parametrize("registry, n, sector, size", [
    (electron_positron_registry(1), 6, (0,), 4),
    (color_toy_registry(), 4, (0,), 5),
], ids=["ep-n6", "colour-n4"])
def test_predicates_scan_cut_masks_without_building_a_cut(monkeypatch, registry, n, sector, size):
    rng = np.random.default_rng(n)
    basis = sector_basis(registry, n, sector)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    picks = rng.choice(len(basis), size=size, replace=False)
    vec = StateVector(dict(zip([basis[i] for i in picks], amps / np.linalg.norm(amps))))
    want = {cut.key(): schmidt(vec, cut).rank for cut in all_bipartitions(n)}
    assert len(set(want.values())) > 1  # a key order mix-up would show

    def refuse(*args, **kwargs):
        raise AssertionError("a predicate built a Bipartition")

    monkeypatch.setattr(entangle_module, "Bipartition", refuse)
    for predicate in (is_packaged_entangled, is_entangled_somewhere):
        assert list(predicate(registry, vec).cut_ranks.items()) == list(want.items())


# register counts whose cuts reach spectra of 8 and more values
_REPORT_CASES = [
    (electron_positron_registry(2), 4),
    (electron_positron_registry(1), 8),
    (color_toy_registry(), 4),
    (dyon_registry(), 3),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_REPORT_CASES))), st.integers(0, 2**32 - 1), st.booleans())
@example(0, 23, False)  # spectra of 8 to 16 kept values, which numpy sums in blocks of eight
def test_cut_report_rows_equal_per_cut_schmidt_results_bitwise(case, seed, chosen):
    registry, n = _REPORT_CASES[case]
    rng = np.random.default_rng(seed)
    vec = random_single_sector_state(rng, registry, n, product_bias=0.2)
    every = all_bipartitions(n)
    reported, lefts = every, None
    if chosen:  # some cuts the other way round, some twice
        picks = rng.choice(len(every), size=int(rng.integers(1, 2 * len(every))))
        reported = [every[i] if rng.random() < 0.5 else Bipartition(every[i].right, every[i].left) for i in picks]
        lefts = [cut.key() for cut in reported]
    rows, strong, weak = entangle_module._cut_report(vec, entangle_module._cut_members(n), lefts)
    assert len(rows) == len(reported)
    for cut, row, expected in zip(reported, rows, cut_spectra(vec, reported)):
        assert row["cut"] == str(cut)
        assert row["singular_values"] == [float(v) for v in expected.singular_values]
        assert row["rank"] == expected.rank
        assert row["entropy_nats"].hex() == expected.entropy().hex()
    assert strong == is_packaged_entangled(registry, vec).to_dict()
    assert weak == is_entangled_somewhere(registry, vec).to_dict()


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 15, 16, 17, 40, 127, 128, 129, 136, 300])
@pytest.mark.parametrize("rows", [1, 9])
def test_grouped_entropies_equal_per_cut_entropies_bitwise(length, rows):
    # rows keep different counts of values above the cutoff, so numpy's sum
    # takes each of its orders, and the zeros after them pad the row
    rng = np.random.default_rng(length * rows)
    values = rng.random((rows, length)) * 10.0 ** rng.integers(-13, 1, (rows, length))
    values[rng.random((rows, length)) < 0.1] = 0.0
    values = np.sort(values, axis=1)[:, ::-1]
    values[:, 0] = 1.0
    values /= np.linalg.norm(values, axis=1)[:, None]
    values = np.ascontiguousarray(values)
    got = entangle_module._entropies(values)
    assert [e.hex() for e in got] == [SchmidtResult(v).entropy().hex() for v in values]


def test_schmidt_values_invariant_under_local_unitaries():
    rng = np.random.default_rng(29)
    reg = electron_positron_registry(2)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        vec = random_single_sector_state(rng, reg, n)
        # random unitary acting on one register's full label alphabet
        target = int(rng.integers(n))
        alphabet = sorted({b.labels[target] for b in vec.terms})
        dim = len(alphabet)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(raw)
        index = {label: i for i, label in enumerate(alphabet)}
        rotated = {}
        for state, amp in vec.terms.items():
            col = index[state.labels[target]]
            for row, label in enumerate(alphabet):
                labels = list(state.labels)
                labels[target] = label
                key = BasisState(tuple(labels))
                rotated[key] = rotated.get(key, 0j) + unitary[row, col] * amp
        rotated_vec = StateVector(rotated, n=n)
        for cut in all_bipartitions(n):
            before = schmidt(vec, cut).singular_values
            after = schmidt(rotated_vec, cut).singular_values
            size = max(len(before), len(after))
            before = np.pad(before, (0, size - len(before)))
            after = np.pad(after, (0, size - len(after)))
            assert np.max(np.abs(before - after)) <= 1e-9


# -- the cut-reshape kernel against its loop reference ---------------------------

TEST_REGISTRIES = {
    "ep": electron_positron_registry(1),
    "ep-spin2": electron_positron_registry(2),
    "ep-spin3": electron_positron_registry(3),
    "colour": color_toy_registry(),
    "kaon": neutral_kaon_registry(),
    "two-family": two_family_registry(),
    "dyon": dyon_registry(),
    "lepton-photon": lepton_photon_registry(),
}


def _every_side(n):
    """Every nontrivial left side, including those without register 0."""
    return [
        Bipartition.from_left(left, n)
        for r in range(1, n)
        for left in itertools.combinations(range(n), r)
    ]


@pytest.mark.parametrize("name", sorted(TEST_REGISTRIES))
def test_cut_kernel_matches_loop_reference(name):
    reg = TEST_REGISTRIES[name]
    rng = np.random.default_rng(sorted(TEST_REGISTRIES).index(name))
    for _ in range(12):
        n = int(rng.integers(2, 5))
        vec = random_single_sector_state(rng, reg, n)
        cuts = _every_side(n)
        for cut, result, want in zip(cuts, cut_spectra(vec, cuts), reference_cut_spectra(vec, cuts)):
            assert schmidt(vec, cut).singular_values.tobytes() == want.tobytes(), str(cut)
            assert result.singular_values.tobytes() == want.tobytes(), str(cut)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(TEST_REGISTRIES)),
    st.integers(2, 5),
    st.floats(-11, 0),
    st.integers(0, 2**32 - 1),
)
def test_cut_ranks_equal_the_dense_tensor_reshape_ranks(name, n, exponent, seed):
    """Every rank ``cut_spectra`` and both predicates report equals that of
    the cut's reshape of the dense amplitude tensor, off a band of a factor
    1e3 either side of the rank cutoff, where rounding may decide. Some
    terms are scaled by 10 ** ``exponent``, so singular values fall on both
    sides of the cutoff."""
    registry = TEST_REGISTRIES[name]
    rng = np.random.default_rng(seed)
    vec = random_single_sector_state(rng, registry, n)
    small = rng.random(len(vec)) < 0.5
    small[rng.integers(len(vec))] = False  # a term the pruning of tiny amplitudes keeps
    vec = normalize(StateVector({
        state: amp * 10.0**exponent if shrink else amp
        for (state, amp), shrink in zip(vec.terms.items(), small)
    }))
    tensor = dense_tensor(vec)
    reports = [is_packaged_entangled(registry, vec), is_entangled_somewhere(registry, vec)]
    canonical = {cut.key() for cut in all_bipartitions(n)}
    assert all(set(report.cut_ranks) == canonical for report in reports)
    cuts = _every_side(n)
    for cut, result in zip(cuts, cut_spectra(vec, cuts)):
        ratios = result.singular_values[1:] / result.singular_values[0]
        if np.any((ratios > RANK_REL_TOL / 1e3) & (ratios < RANK_REL_TOL * 1e3)):
            continue
        left, right = sorted(cut.left), sorted(cut.right)
        matrix = tensor.transpose(left + right).reshape(math.prod(tensor.shape[r] for r in left), -1)
        dense = np.linalg.svd(matrix, compute_uv=False)
        want = int(np.count_nonzero(dense > RANK_REL_TOL * dense[0]))
        assert result.rank == want, str(cut)
        if cut.key() in canonical:
            assert all(report.cut_ranks[cut.key()] == want for report in reports), str(cut)


def _two_term_state(n):
    """(|e-,e+,e-,...> + |e+,e-,e+,...>)/sqrt(2) on n (even) registers: sector 0."""
    first = tuple(RegisterLabel("e-" if r % 2 == 0 else "e+") for r in range(n))
    second = tuple(RegisterLabel("e+" if r % 2 == 0 else "e-") for r in range(n))
    return StateVector({BasisState(first): ROOT_HALF, BasisState(second): ROOT_HALF})


def test_schmidt_on_seventy_registers_does_not_overflow(monkeypatch):
    # 2^69 right-side configurations: a single mixed-radix key would overflow int64
    import superselect.fock

    def refuse(*args, **kwargs):
        raise AssertionError("the cut kernel must not enumerate a basis")

    monkeypatch.setattr(superselect.fock, "enumerate_basis", refuse)
    vec = _two_term_state(70)
    for left in ({0}, set(range(35)), set(range(0, 70, 2))):
        result = schmidt(vec, Bipartition.from_left(left, 70))
        assert result.rank == 2
        assert np.allclose(result.singular_values, [ROOT_HALF, ROOT_HALF], atol=1e-12)
    # a third term that differs from the first only in the leading registers
    # of the long side, the digits an overflowing key would lose
    labels = list(next(iter(vec.terms)).labels)
    labels[1], labels[2] = labels[2], labels[1]
    wider = StateVector({**vec.terms, BasisState(tuple(labels)): 0.5})
    wider = StateVector({b: a / wider.norm() for b, a in wider.terms.items()})
    cuts = [Bipartition.from_left({0}, 70), Bipartition.from_left(set(range(1, 70)), 70)]
    for cut, result, want in zip(cuts, cut_spectra(wider, cuts), reference_cut_spectra(wider, cuts)):
        assert result.singular_values.tobytes() == want.tobytes(), str(cut)


def _random_support(rng, registry, n):
    """Distinct random product states on n registers, sectors mixed, so some
    registers hold one label and others many."""
    alphabet = register_alphabet(registry)
    width = rng.integers(1, len(alphabet) + 1, size=n)  # labels in play per register
    picks = rng.integers(0, width, size=(int(rng.integers(1, 60)), n))
    return list(dict.fromkeys(BasisState(tuple(alphabet[i] for i in row)) for row in picks))


def _reference_side(states, registers):
    """Each state's rank among the sorted distinct label tuples on ``registers``,
    and their count, by Python sorting alone."""
    tuples = [tuple(state.labels[r] for r in registers) for state in states]
    rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
    return [rank[t] for t in tuples], len(rank)


def _assert_blocks_rank_per_side(plan, lefts):
    """``rank_blocks`` on the membership of the left sides ``lefts`` gives, in
    order, both sides' ranks among their sorted label tuples and their
    counts, in blocks of at most ``_RANK_BLOCK_KEYS`` state x side keys."""
    member = np.array([[r in left for r in range(plan.n)] for left in lefts])
    blocks = list(plan.rank_blocks(member))
    most = max(1, entangle_module._RANK_BLOCK_KEYS // (2 * len(plan.states)))
    assert all(len(block) <= most for block in blocks)
    ranked = [index for block in blocks for index in block]
    assert len(ranked) == len(lefts)
    for left, (rows, cols, height, width) in zip(lefts, ranked):
        want_rows, want_height = _reference_side(plan.states, sorted(left))
        want_cols, want_width = _reference_side(plan.states, sorted(set(range(plan.n)) - set(left)))
        assert rows.tolist() == want_rows and cols.tolist() == want_cols, sorted(left)
        assert (height, width) == (want_height, want_width), sorted(left)


@pytest.mark.parametrize("budget", [None, 1, 3, 200], ids=["default", "keys1", "keys3", "keys200"])
@pytest.mark.parametrize("name", sorted(TEST_REGISTRIES))
def test_block_ranked_index_equals_per_side_ranking(monkeypatch, name, budget):
    """Every side of a block ranked in one pass equals its own ranking among
    the sorted label tuples, across block sizes, duplicate cuts and both
    orientations of each cut."""
    if budget is not None:
        monkeypatch.setattr(entangle_module, "_RANK_BLOCK_KEYS", budget)
    reg = TEST_REGISTRIES[name]
    rng = np.random.default_rng(100 + sorted(TEST_REGISTRIES).index(name))
    for n in range(2, 9):
        plan = CutPlan(_random_support(rng, reg, n), n)
        lefts = [cut.left for cut in _every_side(n)]  # both orientations of every cut
        _assert_blocks_rank_per_side(plan, lefts + lefts[::3])  # and some twice


def _seventy_register_plan():
    """A plan of three states on 70 registers, two labels each: 2^70 keys."""
    vec = _two_term_state(70)
    labels = list(next(iter(vec.terms)).labels)
    labels[1], labels[2] = labels[2], labels[1]
    return CutPlan([*vec.terms, BasisState(tuple(labels))], 70)


def test_block_ranking_on_exact_keys_past_int64():
    plan = _seventy_register_plan()
    assert plan.place.dtype == object and plan.keys.dtype == object
    # each key is the state's exact mixed-radix position, the first register most significant
    want = [sum(int(c) << (69 - r) for r, c in enumerate(row)) for row in plan.codes]
    assert plan.keys.tolist() == want and max(want) >= 2**63
    # 2^69 right-side configurations, 2^35 and the even registers' 2^35, and a full side
    lefts = ({0}, set(range(35)), set(range(0, 70, 2)), set(range(1, 70)), set(range(70)))
    _assert_blocks_rank_per_side(plan, [*lefts, lefts[0]])


@pytest.mark.parametrize("n", [62, 63])
def test_keys_switch_to_exact_ints_where_the_radix_product_passes_int64(n):
    # a radix product of 2^62 fits int64; 2^63 does not
    vec = _two_term_state(n)
    labels = list(next(iter(vec.terms)).labels)
    labels[0], labels[1] = labels[1], labels[0]
    wider = StateVector({**vec.terms, BasisState(tuple(labels)): 0.5})
    wider = StateVector({b: a / wider.norm() for b, a in wider.terms.items()})
    plan = CutPlan(wider.terms, n)
    assert plan.keys.dtype == (np.int64 if n == 62 else object)
    cuts = [
        Bipartition.from_left(left, n)
        for left in ({0}, {1}, set(range(1, n)), set(range(0, n, 2)), set(range(n // 2)))
    ]
    for cut, result, want in zip(cuts, cut_spectra(wider, cuts), reference_cut_spectra(wider, cuts)):
        assert result.singular_values.tobytes() == want.tobytes(), str(cut)


def test_every_cut_check_keeps_no_per_cut_state(monkeypatch):
    monkeypatch.setattr(entangle_module, "_RANK_BLOCK_KEYS", 2**12)
    basis = sector_basis(electron_positron_registry(1), 10, SectorIndex((0,)))
    column = np.full((len(basis), 1), 1 / math.sqrt(len(basis)), dtype=complex)
    plan = CutPlan(basis, 10)
    every_cut_entangled(plan, column)  # so modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdicts = every_cut_entangled(plan, column)  # 511 cuts in blocks of 8
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert verdicts == [True]
    assert retained < 2**19


def test_two_term_columns_are_read_without_a_copy():
    # e± n=12 sector 0, every column two-term as the builder's seeds are: the
    # tier reads each column's two rows in place, so the traced peak is index
    # and code arrays of d x n entries, not a copy of the d x d complex input
    basis = sector_basis(electron_positron_registry(1), 12, SectorIndex((0,)))
    d = len(basis)
    columns = np.zeros((d, d), dtype=complex)
    for k in range(d // 2):  # mirror pairs, which differ at every register
        columns[[k, d - 1 - k], 2 * k] = 1.0, 1.0
        columns[[k, d - 1 - k], 2 * k + 1] = 1.0, -1.0
    plan = CutPlan(basis, 12)
    assert np.all(plan.codes[: d // 2] != plan.codes[: d // 2 - 1 : -1])
    every_cut_entangled(plan, columns[:, :2])  # so modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdicts = every_cut_entangled(plan, columns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert verdicts == [True] * d
    assert peak <= columns.nbytes // 32


def test_every_cut_check_ranks_no_block_after_the_last_column_fails(monkeypatch):
    # one cut per block; every column pairs two states that differ at every
    # register with a ratio of 1e-10, inside the band left to the SVD, which
    # finds rank 1 on the first cut
    monkeypatch.setattr(entangle_module, "_RANK_BLOCK_KEYS", 1)
    dense_ranks = entangle_module._dense_ranks
    passes = []

    def spy(keys):
        passes.append(len(keys))
        return dense_ranks(keys)

    monkeypatch.setattr(entangle_module, "_dense_ranks", spy)
    basis = sector_basis(electron_positron_registry(1), 4, SectorIndex((0,)))
    columns = np.zeros((6, 6), dtype=complex)
    for k in range(3):  # the mirror pairs of the builder's seeds, either state the larger
        columns[[k, 5 - k], 2 * k] = 1.0, 1e-10
        columns[[k, 5 - k], 2 * k + 1] = 1e-10j, -1.0
    plan = CutPlan(basis, 4)
    assert np.all(plan.codes[:3] != plan.codes[:2:-1])
    assert every_cut_entangled(plan, columns) == [False] * 6
    assert passes == [2]  # both sides of the first cut, and no later block


# (registry, n, sector) of the tier property: n = 1, one-state and small
# sectors, spin flips that change one register alone, two gauged charges,
# and a sector of 70 states for columns past the certificate's term cap
TIER_SECTORS = [
    (electron_positron_registry(1), 1, (1,)),
    (electron_positron_registry(1), 2, (0,)),
    (electron_positron_registry(1), 3, (3,)),
    (electron_positron_registry(1), 4, (0,)),
    (electron_positron_registry(1), 5, (1,)),
    (electron_positron_registry(2), 3, (1,)),
    (color_toy_registry(), 3, (-1,)),
    (dyon_registry(), 3, (1, 1)),
    (electron_positron_registry(1), 8, (0,)),
]
TIER_KINDS = [
    "zero", "one", "pair", "mirror", "one-shared", "sparse", "product", "near-product", "unsplit", "dense",
]


def _product_column(codes, left, s, t, rng):
    """(a L(s) + b L(t)) (c R(s) + e R(t)) across the cut whose left side is
    where ``left`` is True, as a column over the states coded by ``codes``;
    None unless both cross states are among them and the four are distinct."""
    index = {tuple(row): i for i, row in enumerate(codes.tolist())}
    cross = [index.get(tuple(np.where(left, codes[u], codes[v]))) for u, v in ((s, t), (t, s))]
    if None in cross or len({s, t, *cross}) < 4:
        return None
    a, b, c, e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    col = np.zeros(len(codes), dtype=complex)
    col[[s, t, *cross]] = a * c, b * e, a * e, b * c
    return col


def _tier_column(kind, exponent, basis, codes, rng):
    """One column of ``kind`` over the sector ``basis``.

    ``exponent`` sets the ratio 10 ** exponent of a two-term column, and the
    weight of the terms added to a product, or to the one largest term of
    near-product and unsplit columns."""
    d = len(basis)
    col = np.zeros(d, dtype=complex)
    phase = lambda size=None: np.exp(2j * math.pi * rng.random(size))
    if kind == "zero":
        return col
    if kind in ("pair", "mirror", "one-shared") and d > 1:
        p, q = rng.choice(d, size=2, replace=False)
        if kind == "mirror" and d - 1 - p != p:
            q = d - 1 - p
        if kind == "one-shared":  # a pair that agrees at exactly one register, if any
            shared = np.flatnonzero((codes == codes[p]).sum(axis=1) == 1)
            q = shared[rng.integers(len(shared))] if shared.size else q
        col[[p, q]] = phase(2) * [1.0, 10.0 ** exponent]
        return col
    if kind == "sparse" and d > 2:
        terms = rng.choice(d, size=int(rng.integers(3, min(d, 64) + 1)), replace=False)
        col[terms] = rng.standard_normal(len(terms)) + 1j * rng.standard_normal(len(terms))
        return col
    if kind == "dense" and d > 64:
        col[:] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return col
    if kind == "product" and d > 1:
        # a product across a random cut, if one turns up; near-product with other terms added
        left = rng.random(codes.shape[1]) < 0.5
        for _ in range(20):
            product = _product_column(codes, left, *rng.choice(d, size=2, replace=False), rng)
            if product is not None:
                col = product
                break
        others = rng.choice(d, size=int(rng.integers(0, min(d, 3) + 1)), replace=False)
        noise = rng.standard_normal(len(others)) + 1j * rng.standard_normal(len(others))
        col[others] += noise * 10.0 ** exponent
        return col
    top = int(rng.integers(d))
    col[top] = phase()
    if kind == "near-product":
        others = np.delete(np.arange(d), top)
    elif kind == "unsplit":  # states that differ from the largest at one register only: they split no cut
        others = np.flatnonzero((codes != codes[top]).sum(axis=1) == 1)
    else:
        return col
    others = rng.permutation(others)[: rng.integers(1, 8)]
    col[others] = phase(len(others)) * rng.uniform(0.1, 0.9, len(others)) * 10.0 ** exponent
    return col


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(range(len(TIER_SECTORS))),
    st.lists(
        st.tuples(
            st.sampled_from(TIER_KINDS),
            # both sides of the two-term tier's band [1e-12, 1e-6] and of the cutoff 1e-9
            st.one_of(st.floats(-16, 0), st.sampled_from([-12.01, -11.99, -9.01, -8.99, -6.01, -5.99])),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
)
def test_tiered_verdicts_equal_the_svd_reference_and_the_oracle(case, kinds, scale, seed):
    registry, n, sector = TIER_SECTORS[case]
    basis = sector_basis(registry, n, SectorIndex(sector))
    plan = CutPlan(basis, n)
    rng = np.random.default_rng(seed)
    columns = np.array([_tier_column(kind, e, basis, plan.codes, rng) for kind, e in kinds]).T * 10.0**scale
    verdicts = every_cut_entangled(plan, columns)
    assert verdicts == reference_every_cut_entangled(plan, columns)
    # the oracle's own cutoff (weight 1e-9 off the top Schmidt value) differs
    # from the rank cutoff, so it is asked only where the smallest sigma_2 /
    # sigma_1 over the cuts is far from both
    for k, col in enumerate(columns.T):
        if not col.any():
            assert not verdicts[k]
            continue
        vec = normalize(from_coordinates(col / np.linalg.norm(col), basis))
        spectra = [r.singular_values for r in cut_spectra(vec, all_bipartitions(n))]
        least = min((v[1] / v[0] if len(v) > 1 else 0.0 for v in spectra), default=0.0)
        if least <= 1e-11 or least >= 1e-3:
            assert verdicts[k] == oracle_packaged_entangled(vec), kinds[k]


def _momentum_columns(basis):
    """Fourier transforms over the orbits of the cyclic register shift: at
    most n equal-modulus terms, orthonormal, spanning the sector."""
    index = {state: i for i, state in enumerate(basis)}
    seen, columns = set(), []
    for state in basis:
        if state in seen:
            continue
        orbit = [state]
        while (shifted := BasisState(orbit[-1].labels[1:] + orbit[-1].labels[:1])) != state:
            orbit.append(shifted)
        seen.update(orbit)
        for k in range(len(orbit)):
            col = np.zeros(len(basis), dtype=complex)
            col[[index[s] for s in orbit]] = np.exp(2j * math.pi * k * np.arange(len(orbit)) / len(orbit))
            columns.append(col / math.sqrt(len(orbit)))
    return np.array(columns).T


@pytest.mark.parametrize("elements", [None, 1, 40, 200], ids=["default", "one", "forty", "two-hundred"])
def test_certificate_decides_momentum_columns_without_an_svd(monkeypatch, elements):
    basis = sector_basis(electron_positron_registry(1), 7, SectorIndex((1,)))
    plan = CutPlan(basis, 7)
    columns = _momentum_columns(basis)  # 35 columns of 1 to 7 terms
    want = reference_every_cut_entangled(plan, columns)
    assert want == [True] * 35
    if elements is not None:
        # blocks of one (column, partner, cut); of 40 of one column's 63 cuts;
        # of three columns' cuts
        budget = entangle_module._MINOR_ELEMENT_BYTES * elements
        monkeypatch.setattr(entangle_module, "_SVD_STACK_BYTES", budget)
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert every_cut_entangled(plan, columns) == want
    assert calls == []


@pytest.mark.parametrize("registry, n, sector", [
    (electron_positron_registry(1), 4, (0,)),
    (electron_positron_registry(1), 5, (1,)),
    (electron_positron_registry(2), 3, (1,)),
    (color_toy_registry(), 3, (-1,)),
], ids=["ep-n4", "ep-n5", "ep-spin2-n3", "colour-n3"])
@pytest.mark.parametrize("elements", [None, 3], ids=["default", "three"])
def test_certificate_certifies_no_cut_a_column_factorizes_on(monkeypatch, registry, n, sector, elements):
    # a product across each cut for every pair s, t whose cross states are in
    # the sector: the minor of s and t vanishes on that cut; blocks of three
    # (column, partner, cut) split the cuts of a column
    if elements is not None:
        budget = entangle_module._MINOR_ELEMENT_BYTES * elements
        monkeypatch.setattr(entangle_module, "_SVD_STACK_BYTES", budget)
    basis = sector_basis(registry, n, SectorIndex(sector))
    plan = CutPlan(basis, n)
    rng = np.random.default_rng(n)
    member = np.array([np.isin(np.arange(n), sorted(cut.left)) for cut in all_bipartitions(n)])
    products = [
        _product_column(plan.codes, left, s, t, rng)
        for left in member
        for s, t in itertools.combinations(range(len(basis)), 2)
    ]
    columns = np.array([col for col in products if col is not None]).T
    assert columns.shape[1] >= 4
    assert not entangle_module._minor_certified(plan, member, columns).any()
    assert every_cut_entangled(plan, columns) == [False] * columns.shape[1]


def test_certificate_on_exact_keys_equals_the_svd_reference(monkeypatch):
    basis = sector_basis(electron_positron_registry(1), 7, SectorIndex((1,)))
    plan = CutPlan(basis, 7)
    columns = _momentum_columns(basis)
    want = reference_every_cut_entangled(plan, columns)
    # the keys a plan past 2^63 configurations holds, on a sector small enough for the reference
    plan.place, plan.keys = plan.place.astype(object), plan.keys.astype(object)
    certified = entangle_module._minor_certified
    calls = []

    def spy(*args):
        calls.append(args[0].keys.dtype)
        return certified(*args)

    monkeypatch.setattr(entangle_module, "_minor_certified", spy)
    assert every_cut_entangled(plan, columns) == want
    assert calls == [object]


def test_side_ranking_equals_the_sorted_label_tuples():
    rng = np.random.default_rng(300)
    for name in sorted(TEST_REGISTRIES):
        for n in range(1, 9):
            plan = CutPlan(_random_support(rng, TEST_REGISTRIES[name], n), n)
            # both orientations of every cut, then the full side against the empty one
            _assert_blocks_rank_per_side(plan, [cut.left for cut in _every_side(n)] + [set(range(n))])
    plan = _seventy_register_plan()
    lefts = ({0}, set(range(35)), set(range(0, 70, 2)), set(range(1, 70)), set(range(70)))
    _assert_blocks_rank_per_side(plan, [*lefts, *(set(range(70)) - left for left in lefts)])


@pytest.mark.parametrize("stack_bytes", [None, 1, 3 * 16 * 4], ids=["default", "one-matrix", "small"])
@pytest.mark.parametrize("name", sorted(TEST_REGISTRIES))
def test_cut_spectra_equal_one_svd_per_cut(monkeypatch, name, stack_bytes):
    """Batched per (L, R) shape, in stacks of any size, each spectrum is bit for
    bit that of its own SVD, returned in the order asked, duplicates included."""
    if stack_bytes is not None:
        monkeypatch.setattr(entangle_module, "_SVD_STACK_BYTES", stack_bytes)
    reg = TEST_REGISTRIES[name]
    rng = np.random.default_rng(200 + sorted(TEST_REGISTRIES).index(name))
    for n in range(2, 6):
        vec = random_sector_superposition(rng, reg, n, max_support=40)
        cuts = _every_side(n)
        cuts = cuts + cuts[::2]
        got = cut_spectra(vec, cuts)
        for cut, result, want in zip(cuts, got, reference_cut_spectra(vec, cuts)):
            assert result.singular_values.tobytes() == want.tobytes(), str(cut)


# -- internal marginals ----------------------------------------------------------


def hybrid(alpha, beta, spins=("anti")):
    reg = electron_positron_registry(2)
    if spins == "anti":
        first = B(("e-", 0), ("e+", 1))
        second = B(("e+", 1), ("e-", 0))
    else:
        first = B(("e-", 0), ("e+", 0))
        second = B(("e+", 0), ("e-", 0))
    return reg, StateVector({first: alpha, second: beta})


def test_anti_correlated_spins_decohere_the_marginal():
    alpha, beta = math.sqrt(1 / 3), math.sqrt(2 / 3)
    reg, vec = hybrid(alpha, beta, "anti")
    rho = internal_charge_marginal(reg, vec, CUT01)
    # product basis over species alphabets ('e+','e-') x ('e+','e-')
    assert rho.basis_labels == [
        ("e+", "e+"), ("e+", "e-"), ("e-", "e+"), ("e-", "e-")
    ]
    expected = np.diag([0.0, beta**2, alpha**2, 0.0])
    assert np.max(np.abs(rho.entries - expected)) <= 1e-12
    verdict = ppt_check(rho)
    assert verdict.verdict == "separable-consistent" and verdict.conclusive


def test_equal_spins_keep_the_marginal_coherent():
    alpha, beta = math.sqrt(1 / 3), math.sqrt(2 / 3)
    reg, vec = hybrid(alpha, beta, "equal")
    rho = internal_charge_marginal(reg, vec, CUT01)
    eigs = np.linalg.eigvalsh(rho.entries)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)  # rank-1, pure marginal
    verdict = ppt_check(rho)
    assert verdict.entangled
    assert verdict.min_eigenvalue == pytest.approx(-alpha * beta, abs=1e-9)


def test_spinless_marginal_is_the_full_projector(bell_plus):
    reg = electron_positron_registry(1)
    rho = internal_charge_marginal(reg, bell_plus, CUT01)
    psi = np.array([bell_plus.amplitude(B((s1, 0), (s2, 0)))
                    for s1, s2 in itertools.product(("e+", "e-"), repeat=2)])
    projector = np.outer(psi, psi.conj())
    assert np.max(np.abs(rho.entries - projector)) <= 1e-12
    assert float(np.trace(rho.entries).real) == pytest.approx(1.0, abs=1e-9)


def test_ppt_flags_maximally_entangled_projector(bell_plus):
    reg = electron_positron_registry(1)
    rho = internal_charge_marginal(reg, bell_plus, CUT01)
    verdict = ppt_check(rho)
    assert verdict.entangled and verdict.conclusive
    assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-9)


def test_ppt_accepts_classical_mixture():
    alphabets = (("e+", "e-"), ("e+", "e-"))
    rho = DensityMatrix(np.diag([0.0, 0.25, 0.75, 0.0]), alphabets, cut=CUT01)
    verdict = ppt_check(rho)
    assert verdict.verdict == "separable-consistent" and verdict.conclusive


def test_ppt_accepts_product_projector():
    reg = electron_positron_registry(1)
    rho = internal_charge_marginal(reg, StateVector.from_basis_state(EM_EP), CUT01)
    assert ppt_check(rho).verdict == "separable-consistent"


def test_ppt_inconclusive_beyond_2x3():
    # 3x3 local dimensions: positive partial transpose no longer certifies separability
    alphabets = (("a", "b", "c"), ("x", "y", "z"))
    rho = DensityMatrix(np.eye(9) / 9.0, alphabets, cut=CUT01)
    verdict = ppt_check(rho)
    assert verdict.verdict == "separable-consistent"
    assert not verdict.conclusive


def test_density_matrix_admission_checks():
    alphabets = (("e+", "e-"),)
    good = np.diag([0.5, 0.5])
    DensityMatrix(good, alphabets)
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]), alphabets)  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([1.5, -0.5]), alphabets)  # negative eigenvalue
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([0.7, 0.5]), alphabets)  # trace != 1
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(3) / 3.0, alphabets)  # wrong shape for labels


def test_ppt_requires_a_cut():
    rho = DensityMatrix(np.diag([0.5, 0.5]), (("e+", "e-"),))
    with pytest.raises(DomainError):
        ppt_check(rho)


def test_every_cut_check_refuses_a_cut_of_another_register_count(bell_plus):
    reg = electron_positron_registry(1)
    rho = internal_charge_marginal(reg, bell_plus, CUT01)
    for cut, message in (
        (Bipartition.from_left({0}, 3), "cut {0}|{1,2} does not match register count n=2"),
        # built directly, past ``from_left``'s checks
        (Bipartition(frozenset(), frozenset({0, 1})), "cut {}|{0,1} has an empty side"),
        (Bipartition(frozenset({0}), frozenset({0, 1})), "cut {0}|{0,1} puts registers [0] on both sides"),
    ):
        for call in (
            lambda: ppt_check(rho, cut),
            lambda: internal_charge_marginal(reg, bell_plus, cut),
            lambda: schmidt(bell_plus, cut),
            lambda: cut_spectra(bell_plus, [CUT01, cut]),
            lambda: cut_spectra(bell_plus, [cut, cut]),
        ):
            with pytest.raises(DomainError) as excinfo:
                call()
            assert str(excinfo.value) == message


def test_marginal_of_an_admitted_state_off_unit_norm():
    # the norm check admits | ||psi|| - 1 | <= 1e-9, while the trace of the
    # unscaled marginal, ||psi||^2, would miss 1 by about 1.8e-9
    reg, vec, _ = build_scenario("hybrid_pair")
    off = StateVector({b: a * (1 + 0.9e-9) for b, a in vec.terms.items()})
    assert schmidt(off, CUT01).rank == 2
    rho = internal_charge_marginal(reg, off, CUT01)
    assert abs(np.trace(rho.entries).real - 1.0) <= 1e-15
    exact = internal_charge_marginal(reg, vec, CUT01)
    assert np.max(np.abs(rho.entries - exact.entries)) <= 1e-15
    assert ppt_check(rho).verdict == ppt_check(exact).verdict


def test_marginal_trace_is_one_on_random_states():
    rng = np.random.default_rng(31)
    reg = electron_positron_registry(2)
    for _ in range(25):
        vec = random_single_sector_state(rng, reg, 2)
        rho = internal_charge_marginal(reg, vec, CUT01)
        assert float(np.trace(rho.entries).real) == pytest.approx(1.0, abs=1e-9)


def test_density_matrix_refuses_non_finite_entries():
    alphabets = (("a", "b"),)
    for bad in (complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0),
                complex(0.0, math.nan), complex(0.0, math.inf), complex(0.0, -math.inf)):
        # lower triangle only, upper triangle only (both also not Hermitian), diagonal
        for i, j in ((1, 0), (0, 1), (1, 1)):
            entries = np.diag([0.5, 0.5]).astype(complex)
            entries[i, j] = bad
            with pytest.raises(DomainError, match="^density matrix has non-finite entries$"):
                DensityMatrix(entries, alphabets)
    with pytest.raises(DomainError, match="^density matrix has non-finite entries$"):
        DensityMatrix(np.full((2, 2), np.nan), alphabets)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def test_density_matrix_admission_errors_match_the_dense_reference():
    alphabets = (("e+", "e-"),)
    tiny = 5e-11  # within the Hermiticity tolerance, read by eigvalsh from the lower triangle
    for entries in (
        np.diag([0.5, 0.5]),
        np.array([[0.5, 0.3], [0.1, 0.5]]),
        np.diag([1.5, -0.5]),
        np.diag([0.7, 0.5]),
        np.eye(3) / 3.0,
        np.array([[1.0, 0.0], [tiny, 0.0]]),
        np.array([[0.5, tiny], [0.0, 0.5 - 2e-10]]),
    ):
        assert _raised(DensityMatrix, entries, alphabets) == _raised(
            reference_density_admission, entries, alphabets
        )


def test_hermiticity_deviation_on_the_nonzero_pattern_is_the_dense_one():
    rng = np.random.default_rng(41)
    mats = [np.zeros((3, 3), dtype=complex), np.array([[0.0, 0.0], [-0.0, 0.0]], dtype=complex)]
    for _ in range(300):
        dim = int(rng.integers(1, 12))
        mat = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 10.0 ** rng.integers(-12, 3)
        mat = mat + mat.conj().T if rng.random() < 0.5 else mat
        mat[rng.random((dim, dim)) < rng.random()] = 0.0  # zeros, often on one side of a pair only
        mat[rng.random((dim, dim)) < 0.1] = complex(-0.0, -0.0)
        mats.append(mat)
    for mat in mats:
        dense = float(np.max(np.abs(mat - mat.conj().T)))
        assert entangle_module._hermiticity_deviation(mat, *np.nonzero(mat)) == dense


@pytest.mark.parametrize(
    "make_registry, n",
    [(lambda: electron_positron_registry(2), 6), (lambda: electron_positron_registry(3), 4),
     (mixed_spin_registry, 4)],
    ids=["spin2-n6", "spin3-n4", "mixed-spin-n4"],
)
def test_marginal_support_blocks_sum_to_the_dense_accumulation(make_registry, n):
    reg = make_registry()
    rng = np.random.default_rng(83)
    for _ in range(6):
        vec = random_sector_superposition(rng, reg, n, max_support=300)
        want, alphabets = reference_internal_marginal(vec)
        rho = internal_charge_marginal(reg, vec)
        assert rho.register_alphabets == alphabets
        assert rho.entries.tobytes() == want.tobytes()


# -- block spectra -----------------------------------------------------------------


def test_block_spectrum_reads_the_lower_triangle_as_eigvalsh_does():
    lower_only = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    upper_only = lower_only.T.copy()
    for mat in (lower_only, upper_only, np.diag([2.0 + 1.0j, -1.0 - 3.0j])):
        assert np.array_equal(entangle_module._eigvalsh_blocks(mat, *np.nonzero(mat)), np.linalg.eigvalsh(mat))


@settings(max_examples=60, deadline=None)
@given(
    singletons=st.integers(0, 6),
    zero_rows=st.integers(0, 4),
    dense=st.integers(0, 9),
    pairs=st.integers(0, 3),
    tiny_lower=st.integers(0, 4),
    tiny_upper=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_spectrum_equals_dense_eigvalsh(singletons, zero_rows, dense, pairs, tiny_lower, tiny_upper, seed):
    """A hidden permuted block structure, plus lower- and upper-triangle-only
    entries small enough to pass the Hermiticity tolerance."""
    rng = np.random.default_rng(seed)
    sizes = [1] * singletons + [0] * zero_rows + ([dense] if dense else []) + [2] * pairs
    dim = sum(max(size, 1) for size in sizes)
    if dim == 0:
        return
    mat = np.zeros((dim, dim), dtype=complex)
    at = 0
    for size in sizes:
        if size:
            z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            mat[at:at + size, at:at + size] = z + z.conj().T
        at += max(size, 1)
    below = [(i, j) for i in range(dim) for j in range(i)]
    for count, scale in ((tiny_lower, 1.0), (tiny_upper, -1.0)):
        for k in rng.permutation(len(below))[:count]:
            i, j = below[k]
            if scale > 0:
                mat[i, j] += 5e-11
            else:
                mat[j, i] += 5e-11j
    perm = rng.permutation(dim)
    mat = mat[np.ix_(perm, perm)]
    got = np.sort(entangle_module._eigvalsh_blocks(mat, *np.nonzero(mat)))
    want = np.sort(np.linalg.eigvalsh(mat))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(mat))


@pytest.mark.parametrize(
    "make_registry, n",
    [
        (lepton_photon_registry, 3),
        (lambda: electron_positron_registry(2), 4),
        (color_toy_registry, 4),
        (mixed_spin_registry, 3),
    ],
    ids=["spinless", "spin2", "colour", "mixed-spin"],
)
def test_marginal_and_ppt_match_the_dense_reference(make_registry, n):
    reg = make_registry()
    rng = np.random.default_rng(71)
    for _ in range(4):
        vec = random_single_sector_state(rng, reg, n, product_bias=0.25)
        want, alphabets = reference_internal_marginal(vec)
        reference_density_admission(want, alphabets)
        for cut in all_bipartitions(n):
            rho = internal_charge_marginal(reg, vec, cut)
            assert rho.register_alphabets == alphabets
            assert rho.entries.tobytes() == want.tobytes()
            pattern = np.nonzero(rho.entries)
            assert np.array_equal(rho._rows, pattern[0]) and np.array_equal(rho._cols, pattern[1])
            got, ref = ppt_check(rho), reference_ppt_check(rho, cut)
            assert (got.verdict, got.conclusive) == (ref.verdict, ref.conclusive)
            assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= 1e-12
            # the mapped pattern is the dense transpose's, and its gather is that transpose
            transposed = reference_partial_transpose(rho, cut)[0]
            rows, cols, where = entangle_module._partial_transpose(rho, cut)
            assert np.array_equal(np.sort(rows * rho.dim + cols), np.flatnonzero(transposed))
            assert rho.entries[where(np.arange(rho.dim)[None])][0].tobytes() == transposed.tobytes()
            assert _ppt_bits(got) == _ppt_bits(reference_block_ppt_check(rho, cut))


def _ppt_bits(result):
    return result.verdict, result.conclusive, float(result.min_eigenvalue).hex()


def test_marginal_pattern_leaves_out_coherences_that_cancel():
    a, b = 0.3 + 0.4j, 0.5
    # two spin rows with amplitudes (a, b) and (a, -b): the coherences cancel to exactly 0
    vec = StateVector({B(("e-", 0), ("e+", 0)): a, B(("e+", 0), ("e-", 0)): b,
                       B(("e-", 1), ("e+", 1)): a, B(("e+", 1), ("e-", 1)): -b})
    rho = internal_charge_marginal(electron_positron_registry(2), vec)
    assert rho.entries[1, 2] == 0 and rho.entries[2, 1] == 0
    assert rho.entries.tobytes() == reference_internal_marginal(vec)[0].tobytes()
    pattern = np.nonzero(rho.entries)
    assert np.array_equal(rho._rows, pattern[0]) and np.array_equal(rho._cols, pattern[1])
    assert rho._rows.tolist() == [1, 2]


def test_ppt_matches_the_dense_block_reference_on_caller_matrices():
    rng = np.random.default_rng(61)
    alphabets = (("a", "b"), ("x", "y", "z"))
    mats = []
    signed = np.diag([0.5, 0.0, 0.25, 0.0, 0.25, 0.0]).astype(complex)
    signed[1, 1] = signed[3, 3] = complex(-0.0, 0.0)  # -0.0 on the diagonal: singleton blocks
    signed[5, 5] = complex(-0.0, -0.0)
    mats.append(signed)
    for _ in range(30):
        mat = np.zeros((6, 6), dtype=complex)
        for _ in range(int(rng.integers(1, 4))):
            v = (rng.normal(size=6) + 1j * rng.normal(size=6)) * (rng.random(6) < 0.5)
            mat += np.outer(v, v.conj())
        if np.trace(mat).real == 0:
            mat[0, 0] = 1.0
        mat /= np.trace(mat).real
        mat[(mat == 0) & (rng.random((6, 6)) < 0.5)] = complex(-0.0, -0.0)
        mats.append(mat)
    for mat in mats:
        rho = DensityMatrix(mat, alphabets)
        for cut in all_bipartitions(2):
            assert _ppt_bits(ppt_check(rho, cut)) == _ppt_bits(reference_block_ppt_check(rho, cut))
    assert _ppt_bits(ppt_check(DensityMatrix(signed, alphabets), CUT01))[2] == "-0x0.0p+0"


def test_entries_are_a_read_only_copy(bell_plus):
    mine = np.diag([0.5, 0.5]).astype(complex)
    rho = DensityMatrix(mine, (("a", "b"),))
    with pytest.raises(ValueError):
        rho.entries[0, 1] = 0.5
    with pytest.raises(AttributeError):
        rho.entries = np.eye(2) / 2
    mine[0, 1] = 0.25  # the caller's array stays writable, and the matrix's own copy does not move
    assert rho.entries[0, 1] == 0
    marginal = internal_charge_marginal(electron_positron_registry(1), bell_plus, CUT01)
    with pytest.raises(ValueError):
        marginal.entries[0, 0] = 1.0


def test_density_matrix_keeps_its_pattern_at_8_bytes_per_nonzero():
    # a dense rank-one matrix at D = 2**10: every entry is nonzero
    alphabets = [(0, 1)] * 10
    psi = np.exp(1j * np.arange(2**10)) / 2**5
    entries = np.outer(psi, psi.conj())
    DensityMatrix(np.eye(2) / 2, [(0, 1)])  # so modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rho = DensityMatrix(entries, alphabets)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nonzero = np.count_nonzero(rho.entries)
    assert nonzero == 2**20
    # the label list and the object's own attributes are kept too
    labels = sys.getsizeof(rho.basis_labels) + sum(sys.getsizeof(t) for t in rho.basis_labels)
    assert kept <= rho.entries.nbytes + 8 * nonzero + labels + 2**12


def test_density_matrix_checks_its_shape_before_listing_labels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the label product was listed before the shape check")

    monkeypatch.setattr(entangle_module.itertools, "product", refuse)
    with pytest.raises(DomainError, match=r"^density matrix shape \(2, 2\) does not match product basis size 1600000000$"):
        DensityMatrix(np.eye(2) / 2, [tuple(range(200))] * 4)


def test_oversized_marginal_is_refused_before_it_allocates(monkeypatch):
    reg = electron_positron_registry(1)
    vec = StateVector({B(("e-", 0), ("e+", 0), ("e-", 0), ("e+", 0)): ROOT_HALF,
                       B(("e+", 0), ("e-", 0), ("e+", 0), ("e-", 0)): ROOT_HALF})

    def refuse(*args, **kwargs):
        raise AssertionError("the marginal allocated past the size limit")

    monkeypatch.setattr(entangle_module, "MAX_MARGINAL_DIM", 15)
    monkeypatch.setattr(entangle_module.itertools, "product", refuse)
    monkeypatch.setattr(entangle_module.np, "zeros", refuse)
    with pytest.raises(ConfigurationError, match=r"16 x 16 .*the limit is 15$"):
        internal_charge_marginal(reg, vec)
