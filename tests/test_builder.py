"""Sector-spanning entangled basis construction and verification."""

import numpy as np
import pytest

import superselect.builder as builder_module
import superselect.entangle as entangle_module
from superselect.builder import (
    ORTHO_TOL,
    SPAN_TOL,
    EntangledBasis,
    _admits_entangled,
    _haar_unitary,
    build_packaged_entangled_basis,
    check_basis,
    verify_basis,
)
from superselect.charges import save_registry
from superselect.cli import main
from superselect.entangle import (
    CutPlan,
    all_bipartitions,
    cut_spectra,
    every_cut_entangled,
    is_packaged_entangled,
)
from superselect.errors import DomainError, SimulatorError
from superselect.fock import SectorIndex, attained_sectors, sector_basis
from superselect.scenarios import (
    build_scenario,
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.states import (
    StateVector,
    coordinates,
    from_coordinates,
    inner_product,
    max_term_deviation,
    normalize,
    superpose,
)

from helpers import (
    dyon_registry,
    lepton_photon_registry,
    oracle_packaged_entangled,
    reference_admits_entangled,
)


@pytest.fixture
def ep():
    return electron_positron_registry(1)


def test_neutral_pair_sector_matches_bell_basis(ep):
    basis = build_packaged_entangled_basis(ep, 2, (0,))
    assert basis.dimension == 2 and not basis.degenerate
    _, plus, _ = build_scenario("bell_plus")
    _, minus, _ = build_scenario("bell_minus")
    overlaps = sorted(
        max(abs(inner_product(v, plus)), abs(inner_product(v, minus)))
        for v in basis.vectors
    )
    # each output vector coincides with one Bell combination up to global phase
    assert all(abs(o - 1.0) <= 1e-9 for o in overlaps)
    assert verify_basis(basis, ep) == []


def test_one_dimensional_sector_is_degenerate(ep):
    basis = build_packaged_entangled_basis(ep, 2, (-2,))
    assert basis.degenerate and basis.separable_indices == [0]
    assert basis.dimension == 1
    # the lone vector spans the sector even though it cannot be entangled
    assert max_term_deviation(basis.vectors[0], StateVector(
        {sector_basis(ep, 2, (-2,))[0]: 1.0})) <= 1e-12


def test_single_register_sector_is_degenerate():
    reg = neutral_kaon_registry()
    basis = build_packaged_entangled_basis(reg, 1, (0,))
    assert basis.degenerate
    assert basis.dimension == 2  # K0 and K0bar both sit at zero electric charge
    assert basis.separable_indices == [0, 1]


def test_six_dimensional_sector_fully_entangled(ep):
    basis = build_packaged_entangled_basis(ep, 4, (0,))
    assert basis.dimension == 6
    assert not basis.degenerate and basis.separable_indices == []
    for vec in basis.vectors:
        assert is_packaged_entangled(ep, vec).entangled
    findings, metrics = check_basis(basis, ep)
    assert findings == [] and verify_basis(basis, ep) == []
    assert metrics["max_gram_deviation"] <= 1e-9
    assert metrics["span_frobenius_deviation"] <= 1e-8


def test_builder_is_deterministic(ep):
    # the n=3 sector (-1) mixes its leftover seed, so the seed reaches the vectors
    one = build_packaged_entangled_basis(ep, 3, (-1,), seed=3)
    two = build_packaged_entangled_basis(ep, 3, (-1,), seed=3)
    for a, b in zip(one.vectors, two.vectors):
        assert a == b  # bit-identical term maps
    assert one.diagnostics == two.diagnostics
    other = build_packaged_entangled_basis(ep, 3, (-1,), seed=5)
    assert other.vectors != one.vectors and verify_basis(other, ep) == []
    default = build_packaged_entangled_basis(ep, 3, (-1,))
    assert default.vectors == build_packaged_entangled_basis(ep, 3, (-1,), seed=0).vectors


def test_empty_sector_rejected(ep):
    with pytest.raises(DomainError):
        build_packaged_entangled_basis(ep, 2, (5,))


def test_verify_basis_flags_scaled_vector(ep):
    basis = build_packaged_entangled_basis(ep, 2, (0,))
    basis.vectors[0] = superpose([(1.01, basis.vectors[0])])
    findings = verify_basis(basis, ep)
    assert any("norm deviation" in f for f in findings)


def test_verify_basis_flags_missing_vector(ep):
    basis = build_packaged_entangled_basis(ep, 2, (0,))
    basis.vectors.pop()
    findings = verify_basis(basis, ep)
    assert any("vector count" in f for f in findings)
    assert any("span projector" in f for f in findings)  # projector rank d-1


def test_empty_basis_reports_findings_and_metrics(ep):
    basis = EntangledBasis(vectors=[], sector=SectorIndex((0,)), n=2)
    findings, metrics = check_basis(basis, ep)
    assert findings == verify_basis(basis, ep) == [
        "vector count 0 != sector dimension 2",
        f"span projector deviates from sector projector by {np.sqrt(2.0):.3e} (Frobenius)",
    ]
    assert metrics == {
        "dimension": 2,
        "max_gram_deviation": 0.0,
        "span_frobenius_deviation": None,
        "entangled_count": 0,
        "degenerate": False,
        "separable_indices": [],
    }


def test_vector_in_an_empty_sector_is_checked_over_an_empty_plan(ep):
    # the sector is empty, so the every-cut check runs over 0 x 0 cut matrices
    basis = EntangledBasis(vectors=[StateVector({}, n=2)], sector=SectorIndex((5,)), n=2)
    findings, metrics = check_basis(basis, ep)
    assert findings == [
        "vector count 1 != sector dimension 0",
        "norm deviation 1.000e+00 exceeds 1e-09",
        "vector 0 fails the entanglement predicate but is not flagged",
    ]
    assert metrics == {
        "dimension": 0,
        "max_gram_deviation": 1.0,
        "span_frobenius_deviation": None,
        "entangled_count": 1,
        "degenerate": False,
        "separable_indices": [],
    }


def test_verify_basis_flags_unflagged_separable_vector(ep):
    basis = build_packaged_entangled_basis(ep, 2, (0,))
    product = StateVector({sector_basis(ep, 2, (0,))[0]: 1.0})
    basis.vectors[0] = product  # also breaks orthogonality with vector 1
    findings = verify_basis(basis, ep)
    assert any("entanglement predicate" in f for f in findings)


def test_separable_indices_without_the_degenerate_flag_are_a_finding(ep):
    basis = build_packaged_entangled_basis(ep, 1, (-1,))  # one register: degenerate
    assert basis.degenerate and basis.separable_indices == [0]
    assert verify_basis(basis, ep) == []
    basis.degenerate = False
    findings, metrics = check_basis(basis, ep)
    assert findings == ["separable vectors present but degenerate flag not set"]
    assert (metrics["degenerate"], metrics["separable_indices"]) == (False, [0])


def test_diagnostics_record_repairs(ep):
    # the neutral n=3 sector (d=3) has an odd leftover seed that needs repair
    basis = build_packaged_entangled_basis(ep, 3, (-1,))
    assert not basis.degenerate
    assert any(entry["repairs"] for entry in basis.diagnostics)
    assert verify_basis(basis, ep) == []


def test_spinful_sector_builds_entangled_basis():
    reg = electron_positron_registry(2)
    basis = build_packaged_entangled_basis(reg, 2, (0,))
    # two species orderings x 2 spins each side: dimension 8
    assert basis.dimension == len(sector_basis(reg, 2, (0,)))
    assert not basis.degenerate
    assert verify_basis(basis, reg) == []


@pytest.mark.parametrize("registry, registers", [
    (electron_positron_registry(1), range(2, 6)),
    (electron_positron_registry(2), range(2, 4)),
    (dyon_registry(), range(2, 4)),
    (lepton_photon_registry(), range(2, 4)),
], ids=["ep", "ep-spin2", "dyon", "lepton-photon"])
def test_degenerate_iff_no_entangled_vector_can_exist(registry, registers):
    for n in registers:
        for sector in attained_sectors(registry, n):
            basis = build_packaged_entangled_basis(registry, n, sector)
            label = f"n={n} {sector}"
            assert basis.degenerate == (basis.dimension == 1), label
            assert verify_basis(basis, registry) == [], label
            # one Haar mix of a structurally admissible group suffices
            assert all(len(entry["repairs"]) <= 1 for entry in basis.diagnostics), label


def test_a_build_whose_every_mix_fails_raises_instead_of_flagging_degenerate(
    monkeypatch, capsys, tmp_path, ep
):
    # e± n=5 sector 1 admits entangled vectors, and its seeds all need a mix
    monkeypatch.setattr(builder_module, "MAX_MIX_ATTEMPTS", 0)
    message = ("sector (1) at n=5: no Haar mix of columns [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] "
               "is entangled on every cut in 0 draws")
    with pytest.raises(SimulatorError) as excinfo:
        build_packaged_entangled_basis(ep, 5, (1,))
    assert str(excinfo.value) == message
    save_registry(ep, str(tmp_path / "ep.json"))
    code = main(["basis", "--registry", str(tmp_path / "ep.json"), "--registers", "5",
                 "--charge", "1", "--out", str(tmp_path / "b")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"superselect: error: {message}\n")
    assert not (tmp_path / "b").exists()


def test_seventy_dimensional_sector_verifies(ep):
    basis = build_packaged_entangled_basis(ep, 8, (0,))
    assert basis.dimension == 70 and not basis.degenerate
    assert verify_basis(basis, ep) == []


def test_two_term_seeds_are_built_and_checked_without_an_svd(monkeypatch, ep):
    # every seed pair of e± n=10 sector 0 differs at every register, so the
    # two-term tier decides all 252 columns in the build and in the check
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    basis = build_packaged_entangled_basis(ep, 10, SectorIndex((0,)))
    assert basis.dimension == 252 and not basis.degenerate
    assert check_basis(basis, ep)[0] == []
    assert calls == []


def test_diagnostics_shape(ep):
    basis = build_packaged_entangled_basis(ep, 3, (-1,))
    assert [entry["index"] for entry in basis.diagnostics] == list(range(basis.dimension))
    for entry in basis.diagnostics:
        assert set(entry) == {"index", "seed", "entangled", "repairs"}
        assert entry["entangled"] is True
        for record in entry["repairs"]:
            assert set(record) == {"attempt", "columns", "accepted"}
            assert entry["index"] in record["columns"]
        assert entry["repairs"][-1]["accepted"] is True


def _reference_seeds(d):
    """The seed columns and kinds, pair by pair: (b_k +- b_{d-1-k})/sqrt(2) in
    columns 2k and 2k+1, and an odd leftover b_{d//2} in column d-1."""
    cols = np.zeros((d, d), dtype=complex)
    kinds = []
    root_half = 1.0 / np.sqrt(2.0)
    for k in range(d // 2):
        cols[[k, d - 1 - k], 2 * k] = root_half, root_half
        cols[[k, d - 1 - k], 2 * k + 1] = root_half, -root_half
        kinds += ["pair_plus", "pair_minus"]
    if d % 2:
        cols[d // 2, d - 1] = 1.0
        kinds.append("leftover")
    return cols, kinds


@pytest.mark.parametrize("registry, n", [
    (electron_positron_registry(1), 5),
    (electron_positron_registry(2), 3),
    (color_toy_registry(), 3),
    (dyon_registry(), 2),
], ids=["ep-n5", "ep-spin2-n3", "colour-n3", "dyon-n2"])
def test_vectors_are_the_seeds_or_the_mix_read_column_by_column(registry, n):
    for sector in attained_sectors(registry, n):
        product_basis = sector_basis(registry, n, sector)
        basis = build_packaged_entangled_basis(registry, n, sector, seed=3)
        seeds, kinds = _reference_seeds(len(product_basis))
        assert [entry["seed"] for entry in basis.diagnostics] == kinds
        for k, (vec, entry) in enumerate(zip(basis.vectors, basis.diagnostics)):
            column = coordinates(vec, product_basis)
            if not entry["repairs"]:
                assert np.array_equal(column, seeds[:, k])
            # what from_coordinates builds from the column, to the bit
            rebuilt = from_coordinates(column, product_basis)
            assert [(s, a.real.hex(), a.imag.hex()) for s, a in vec.terms.items()] == [
                (s, a.real.hex(), a.imag.hex()) for s, a in rebuilt.terms.items()
            ]


@pytest.mark.parametrize("registry, n, sector", [
    (electron_positron_registry(1), 4, (0,)),
    (electron_positron_registry(1), 5, (1,)),
    (electron_positron_registry(2), 3, (1,)),
    (color_toy_registry(), 3, (-1,)),
    (dyon_registry(), 3, (1, 1)),
    (lepton_photon_registry(), 3, (0,)),
], ids=["ep-n4", "ep-n5", "ep-spin2-n3", "colour-n3", "dyon-n3", "lepton-photon-n3"])
def test_batched_column_check_matches_per_column_predicate(monkeypatch, registry, n, sector):
    basis = sector_basis(registry, n, sector)
    d = len(basis)
    rng = np.random.default_rng(d)
    haar = _haar_unitary(d, rng)
    half = np.eye(d, dtype=complex)
    half[:, : d // 2] = half[:, : d // 2] @ _haar_unitary(d // 2, rng)
    # SVD stacks of the default budget, of one matrix, and of three 2 x 2 matrices
    for stack_bytes in (entangle_module._SVD_STACK_BYTES, 1, 3 * 16 * 4):
        monkeypatch.setattr(entangle_module, "_SVD_STACK_BYTES", stack_bytes)
        # Haar-mixed columns, product columns (rank 1 on every cut), mixes of a few
        for columns in (haar, np.eye(d, dtype=complex), half):
            verdicts = every_cut_entangled(CutPlan(basis, n), columns)
            assert all(type(v) is bool for v in verdicts)
            states = [from_coordinates(columns[:, k], basis) for k in range(d)]
            assert verdicts == [is_packaged_entangled(registry, s).entangled for s in states]
            assert verdicts == [oracle_packaged_entangled(s) for s in states]


@pytest.mark.parametrize("stack_bytes", [None, 1, 5 * 16 * 8 * 8], ids=["default", "one-matrix", "five-8x8"])
def test_every_svd_stack_keeps_to_the_byte_budget(monkeypatch, ep, stack_bytes):
    """No stack handed to the SVD passes the budget, or one matrix where a
    single matrix is larger, and the results equal those of the default budget."""
    n, sector = 8, SectorIndex((0,))
    states = sector_basis(ep, n, sector)
    columns = _haar_unitary(len(states), np.random.default_rng(8))
    vec = normalize(from_coordinates(columns[:, 0], states))
    basis = build_packaged_entangled_basis(ep, n, sector)

    def run_all():
        spectra = [r.singular_values.tobytes() for r in cut_spectra(vec, all_bipartitions(n))]
        return spectra, every_cut_entangled(CutPlan(states, n), columns), check_basis(basis, ep)

    want = run_all()
    budget = entangle_module._SVD_STACK_BYTES if stack_bytes is None else stack_bytes
    stacks = []  # (bytes of the stack, bytes of one matrix in it)
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        stacks.append((a.nbytes, a.itemsize * a.shape[-2] * a.shape[-1]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(entangle_module, "_SVD_STACK_BYTES", budget)
    assert run_all() == want
    assert stacks and all(size <= max(budget, one) for size, one in stacks)
    assert want[2][0] == []  # the built basis passes its check


def _reference_entanglement_findings(basis, registry):
    """``verify_basis``'s entanglement findings from the public predicate, one
    vector at a time: a vector outside the sector ends verification before any
    verdict, a zero vector is not entangled, any other is judged normalized."""
    sector = set(sector_basis(registry, basis.n, basis.sector))
    if any(not set(vec.terms) <= sector for vec in basis.vectors):
        return []
    findings = []
    for k, vec in enumerate(basis.vectors):
        entangled = not vec.is_zero() and is_packaged_entangled(registry, normalize(vec)).entangled
        if not entangled and k not in basis.separable_indices:
            findings.append(f"vector {k} fails the entanglement predicate but is not flagged")
    return findings


def _break_basis(basis, registry, how):
    """Damage a builder basis in place; returns the finding the damage must cause."""
    product_basis = sector_basis(registry, basis.n, basis.sector)
    product = lambda k: StateVector({product_basis[k]: 1.0})
    if how == "products":
        for k in range(0, basis.dimension, 3):
            basis.vectors[k] = product(k)
        return "fails the entanglement predicate"
    if how == "neighbour-pairs":  # neighbours differ in the last registers only
        for k in range(0, basis.dimension - 1, 2):
            basis.vectors[k] = superpose([(0.6, product(k)), (0.8, product(k + 1))])
        return "fails the entanglement predicate"
    if how == "flagged-product":
        basis.vectors[0] = product(0)
        basis.separable_indices, basis.degenerate = [0], True
        return "orthogonality deviation"
    if how == "outside":
        other = next(q for q in attained_sectors(registry, basis.n) if q != basis.sector)
        basis.vectors[1] = StateVector({sector_basis(registry, basis.n, other)[0]: 1.0})
        return "not expressible in the sector basis"
    if how == "scaled":
        basis.vectors[0] = superpose([(3.0, basis.vectors[0])])
        return "norm deviation"
    if how == "scaled-product":
        basis.vectors[0] = superpose([(3.0, product(0))])
        return "fails the entanglement predicate"
    assert how == "zero"
    basis.vectors[1] = StateVector({}, n=basis.n)
    return "norm deviation"


@pytest.mark.parametrize("how", [
    "products", "neighbour-pairs", "flagged-product", "outside", "scaled", "scaled-product", "zero",
])
@pytest.mark.parametrize("registry, n, sector", [
    (electron_positron_registry(1), 4, (0,)),
    (electron_positron_registry(2), 3, (1,)),
    (color_toy_registry(), 3, (-1,)),
    (dyon_registry(), 3, (1, 1)),
], ids=["ep-n4", "ep-spin2-n3", "colour-n3", "dyon-n3"])
def test_verify_basis_entanglement_findings_match_per_vector_predicate(registry, n, sector, how):
    basis = build_packaged_entangled_basis(registry, n, sector)
    expected_finding = _break_basis(basis, registry, how)
    findings = verify_basis(basis, registry)
    assert any(expected_finding in f for f in findings), findings
    entanglement = [f for f in findings if "entanglement predicate" in f]
    assert entanglement == _reference_entanglement_findings(basis, registry)
    assert check_basis(basis, registry)[0] == findings


def test_cli_basis_checks_the_basis_in_one_pass(ep, tmp_path, capsys, monkeypatch):
    calls = {"sector_basis": 0, "coordinate_matrix": 0}

    def counted(name):
        original = getattr(builder_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(builder_module, name, wrapper)

    counted("sector_basis")
    counted("coordinate_matrix")
    save_registry(ep, str(tmp_path / "ep.json"))
    code = main(["basis", "--registry", str(tmp_path / "ep.json"), "--registers", "4",
                 "--charge", "0", "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    assert calls == {"sector_basis": 2, "coordinate_matrix": 1}  # build, then one check


def _dense_deviation_findings(mat, d):
    """The norm, orthogonality and span findings from the dense formulas: the
    Gram matrix minus I_k, and the d x d span projector VV^H minus I_d."""
    k = mat.shape[1]
    gram_dev = mat.conj().T @ mat - np.eye(k)
    norm_dev = float(np.max(np.abs(np.diag(gram_dev)))) if k else 0.0
    cross_dev = float(np.max(np.abs(gram_dev - np.diag(np.diag(gram_dev))))) if k else 0.0
    span_dev = float(np.linalg.norm(mat @ mat.conj().T - np.eye(d)))
    findings = []
    if norm_dev > ORTHO_TOL:
        findings.append(f"norm deviation {norm_dev:.3e} exceeds {ORTHO_TOL}")
    if cross_dev > ORTHO_TOL:
        findings.append(f"orthogonality deviation {cross_dev:.3e} exceeds {ORTHO_TOL}")
    if span_dev > SPAN_TOL:
        findings.append(
            f"span projector deviates from sector projector by {span_dev:.3e} (Frobenius)"
        )
    return findings, span_dev


@pytest.mark.parametrize("registry, n, sector, how", [
    (electron_positron_registry(1), 4, (0,), "intact"),
    (electron_positron_registry(1), 4, (0,), "scaled"),
    (electron_positron_registry(1), 4, (0,), "missing"),
    (electron_positron_registry(1), 4, (0,), "outside"),
    (electron_positron_registry(1), 4, (0,), "duplicated"),
    (electron_positron_registry(1), 4, (0,), "empty"),
    (electron_positron_registry(2), 3, (1,), "intact"),
    (electron_positron_registry(1), 5, (1,), "mixed"),
], ids=["intact", "scaled", "missing", "outside", "duplicated", "empty", "ep-spin2-n3", "ep-n5-mixed"])
def test_metrics_match_a_recomputed_gram_and_projector(registry, n, sector, how):
    basis = build_packaged_entangled_basis(registry, n, sector)
    if how == "scaled":
        basis.vectors[2] = superpose([(1.01, basis.vectors[2])])
    elif how == "missing":
        basis.vectors.pop(1)
    elif how == "outside":
        basis.vectors[0] = StateVector({sector_basis(registry, n, (2,))[0]: 1.0})
    elif how == "duplicated":
        basis.vectors.append(basis.vectors[3])
    elif how == "empty":
        basis.vectors.clear()
    elif how == "mixed":
        assert any(entry["repairs"] for entry in basis.diagnostics)
    findings, metrics = check_basis(basis, registry)
    if how == "outside":
        assert metrics is None and findings[-1].startswith("vectors are not expressible")
        return
    product_basis = sector_basis(registry, n, sector)
    d, k = len(product_basis), basis.dimension
    mat = np.zeros((d, k), dtype=complex)
    for j, vec in enumerate(basis.vectors):
        mat[:, j] = coordinates(vec, product_basis)
    want_findings, want_span = _dense_deviation_findings(mat, d)
    if k != d:
        want_findings.insert(0, f"vector count {k} != sector dimension {d}")
    if k <= d:
        assert findings == want_findings + _reference_entanglement_findings(basis, registry)
    else:  # both flag the count and the duplicate pair
        assert findings[:2] == want_findings[:2]
    assert metrics["dimension"] == d
    want_gram = np.max(np.abs(mat.conj().T @ mat - np.eye(k)), initial=0.0)
    assert metrics["max_gram_deviation"] == pytest.approx(want_gram, abs=1e-12)
    if k == d:
        assert metrics["span_frobenius_deviation"] == pytest.approx(want_span, abs=1e-12)
    else:
        assert metrics["span_frobenius_deviation"] is None
    if how == "scaled":
        assert want_gram == pytest.approx(1.01**2 - 1, abs=1e-9)
    assert metrics["entangled_count"] == k
    assert (metrics["degenerate"], metrics["separable_indices"]) == (False, [])


@pytest.mark.parametrize("registry", [
    electron_positron_registry(1),
    electron_positron_registry(2),
    color_toy_registry(),
    dyon_registry(),
    lepton_photon_registry(),
], ids=["ep", "ep-spin2", "colour", "dyon", "lepton-photon"])
def test_structural_test_on_codes_matches_the_label_set_rule(registry):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for sector in attained_sectors(registry, n):
            states = sector_basis(registry, n, sector)
            plan = CutPlan(states, n)
            subsets = [np.arange(len(states))] + [
                np.sort(rng.choice(len(states), size=rng.integers(1, len(states) + 1), replace=False))
                for _ in range(12)
            ]
            for rows in subsets:
                want = reference_admits_entangled([states[i] for i in rows])
                assert _admits_entangled(plan.codes[rows]) is want, (n, sector, rows)
