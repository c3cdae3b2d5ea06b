"""Schmidt spectra, entanglement predicates, internal marginals, and PPT."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import superselect.entangle as entangle_module
from superselect.entangle import (
    Bipartition,
    DensityMatrix,
    all_bipartitions,
    amplitude_matrix,
    cut_spectra,
    entanglement_entropy,
    internal_charge_marginal,
    is_entangled_somewhere,
    is_packaged_entangled,
    ppt_check,
    schmidt,
)
from superselect.errors import ConfigurationError, DomainError, SuperselectionError
from superselect.fock import BasisState, RegisterLabel
from superselect.scenarios import (
    build_scenario,
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.states import StateVector

from helpers import (
    dyon_registry,
    lepton_photon_registry,
    mixed_spin_registry,
    oracle_entangled_somewhere,
    oracle_packaged_entangled,
    random_single_sector_state,
    reference_amplitude_matrix,
    reference_density_admission,
    reference_internal_marginal,
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


def test_all_bipartitions_count():
    # 2^(n-1) - 1 cuts up to complement symmetry
    assert len(all_bipartitions(2)) == 1
    assert len(all_bipartitions(3)) == 3
    assert len(all_bipartitions(4)) == 7
    assert all(0 in cut.left for cut in all_bipartitions(4))


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
        for cut in all_bipartitions(n):
            mat, lkeys, rkeys = amplitude_matrix(vec, cut)
            ent = entanglement_entropy(vec, cut)
            assert -1e-12 <= ent <= math.log(min(len(lkeys), len(rkeys))) + 1e-9


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
        spectra = cut_spectra(vec, cuts)
        for cut, result in zip(cuts, spectra):
            mat, lkeys, rkeys = amplitude_matrix(vec, cut)
            ref, ref_lkeys, ref_rkeys = reference_amplitude_matrix(vec, cut)
            assert mat.tobytes() == ref.tobytes() and mat.shape == ref.shape, str(cut)
            assert (lkeys, rkeys) == (ref_lkeys, ref_rkeys), str(cut)
            ref_values = np.linalg.svd(ref, compute_uv=False)
            assert schmidt(vec, cut).singular_values.tobytes() == ref_values.tobytes(), str(cut)
            assert result.singular_values.tobytes() == ref_values.tobytes(), str(cut)


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
    for cut in (Bipartition.from_left({0}, 70), Bipartition.from_left(set(range(1, 70)), 70)):
        mat, lkeys, rkeys = amplitude_matrix(wider, cut)
        ref, ref_lkeys, ref_rkeys = reference_amplitude_matrix(wider, cut)
        assert mat.tobytes() == ref.tobytes() and (lkeys, rkeys) == (ref_lkeys, ref_rkeys)


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


def test_marginal_trace_is_one_on_random_states():
    rng = np.random.default_rng(31)
    reg = electron_positron_registry(2)
    for _ in range(25):
        vec = random_single_sector_state(rng, reg, 2)
        rho = internal_charge_marginal(reg, vec, CUT01)
        assert float(np.trace(rho.entries).real) == pytest.approx(1.0, abs=1e-9)


def test_density_matrix_refuses_non_finite_entries():
    alphabets = (("a", "b"),)
    for bad in (complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0)):
        entries = np.diag([0.5, 0.5]).astype(complex)
        entries[1, 0] = bad
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


# -- block spectra -----------------------------------------------------------------


def test_block_spectrum_reads_the_lower_triangle_as_eigvalsh_does():
    lower_only = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    upper_only = lower_only.T.copy()
    for mat in (lower_only, upper_only, np.diag([2.0 + 1.0j, -1.0 - 3.0j])):
        assert np.array_equal(entangle_module._eigvalsh_blocks(mat), np.linalg.eigvalsh(mat))


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
    got = np.sort(entangle_module._eigvalsh_blocks(mat))
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
            got, ref = ppt_check(rho), reference_ppt_check(rho, cut)
            assert (got.verdict, got.conclusive) == (ref.verdict, ref.conclusive)
            assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= 1e-12


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
