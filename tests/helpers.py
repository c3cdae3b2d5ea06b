"""Shared test registries, independent brute-force oracles, and random-state generators.

The oracles here deliberately avoid the package's Schmidt/predicate code
paths: separability at a cut is decided from the dense amplitude tensor via
eigenvalues of M M^dagger, comparing the top squared singular value against
the total weight.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from superselect.charges import (
    GAUGED,
    ChargeComponentSpec,
    ChargeVector,
    Species,
    SpeciesRegistry,
)
from superselect.entangle import (
    HERMITICITY_TOL,
    PPT_TOL,
    RANK_REL_TOL,
    TRACE_TOL,
    Bipartition,
    CutPlan,
    DensityMatrix,
    PptResult,
    all_bipartitions,
)
from superselect.errors import ConfigurationError, DomainError
from superselect.fock import BasisState, RegisterLabel, attained_sectors, sector_basis
from superselect.measure import MeasurementRecord, SpinObservable
from superselect.states import StateVector, require_normalized, require_single_sector, superpose

ORACLE_TOL = 1e-9


# -- registries beyond the scenario factories ----------------------------------

def lepton_photon_registry() -> SpeciesRegistry:
    """e-/e+ plus a self-conjugate neutral photon, all spinless."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 1, "e+"),
            Species("e+", ChargeVector((1,)), 1, "e-"),
            Species("gamma", ChargeVector((0,)), 1, "gamma"),
        ],
    )


def two_family_registry() -> SpeciesRegistry:
    """Two charged lepton families sharing one gauged electric charge; local dim 4."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 1, "e+"),
            Species("e+", ChargeVector((1,)), 1, "e-"),
            Species("mu-", ChargeVector((-1,)), 1, "mu+"),
            Species("mu+", ChargeVector((1,)), 1, "mu-"),
        ],
    )


def dyon_registry() -> SpeciesRegistry:
    """Toy species carrying two independent gauged charges."""
    return SpeciesRegistry(
        charge_specs=[
            ChargeComponentSpec("electric", GAUGED, "e"),
            ChargeComponentSpec("magnetic", GAUGED, "g"),
        ],
        species=[
            Species("d+", ChargeVector((1, 1)), 1, "d-"),
            Species("d-", ChargeVector((-1, -1)), 1, "d+"),
            Species("w+", ChargeVector((1, -1)), 1, "w-"),
            Species("w-", ChargeVector((-1, 1)), 1, "w+"),
        ],
    )


def mixed_spin_registry() -> SpeciesRegistry:
    """Spin multiplicities 1, 2 and 3 side by side, so one register's outcomes
    outnumber some species' spin states."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 2, "e+"),
            Species("e+", ChargeVector((1,)), 2, "e-"),
            Species("w-", ChargeVector((-1,)), 3, "w+"),
            Species("w+", ChargeVector((1,)), 3, "w-"),
            Species("gamma", ChargeVector((0,)), 1, "gamma"),
        ],
    )


def escaped_id_registry() -> SpeciesRegistry:
    """A charged spin-2 pair whose ids need JSON escapes: a quote, a backslash,
    a non-ASCII letter and a character outside the Basic Multilingual Plane."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species('q"\u00fc-', ChargeVector((-1,)), 2, "q\\\U0001d53c+"),
            Species("q\\\U0001d53c+", ChargeVector((1,)), 2, 'q"\u00fc-'),
        ],
    )


def huge_multiplicity_registry() -> SpeciesRegistry:
    """e-/e+ with 10**30 spin states each: any code that walks or allocates
    per spin state never returns, so only arithmetic on the multiplicities,
    and lookups of the labels a state holds, can serve it."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), 10**30, "e+"),
            Species("e+", ChargeVector((1,)), 10**30, "e-"),
        ],
    )


# -- dense-tensor oracle --------------------------------------------------------

def support_alphabets(vec: StateVector) -> list[list[RegisterLabel]]:
    return [
        sorted({b.labels[r] for b in vec.terms}) for r in range(vec.n)
    ]


def dense_tensor(vec: StateVector, alphabets=None) -> np.ndarray:
    """Amplitudes as a dense tensor with one axis per register."""
    if alphabets is None:
        alphabets = support_alphabets(vec)
    index = [{label: i for i, label in enumerate(al)} for al in alphabets]
    tensor = np.zeros(tuple(len(al) for al in alphabets), dtype=complex)
    for state, amp in vec.terms.items():
        tensor[tuple(index[r][state.labels[r]] for r in range(vec.n))] = amp
    return tensor


def oracle_cut_is_product(tensor: np.ndarray, left_axes) -> bool:
    """Rank-one test: top squared singular value accounts for all the weight."""
    n = tensor.ndim
    left = sorted(left_axes)
    right = [r for r in range(n) if r not in left]
    mat = np.transpose(tensor, left + right).reshape(
        int(np.prod([tensor.shape[r] for r in left])), -1
    )
    gram = mat @ mat.conj().T
    eigs = np.linalg.eigvalsh(gram)
    total = float(np.real(np.trace(gram)))
    return total - float(eigs[-1]) <= ORACLE_TOL


def oracle_packaged_entangled(vec: StateVector) -> bool:
    """Brute force: non-factorizable across every canonical bipartition."""
    if vec.n < 2:
        return False
    tensor = dense_tensor(vec)
    rest = list(range(1, vec.n))
    for r in range(0, vec.n - 1):
        for extra in itertools.combinations(rest, r):
            if oracle_cut_is_product(tensor, [0, *extra]):
                return False
    return True


def oracle_entangled_somewhere(vec: StateVector) -> bool:
    if vec.n < 2:
        return False
    tensor = dense_tensor(vec)
    rest = list(range(1, vec.n))
    for r in range(0, vec.n - 1):
        for extra in itertools.combinations(rest, r):
            if not oracle_cut_is_product(tensor, [0, *extra]):
                return True
    return False


# -- loop reference for the cut reshape -------------------------------------------

def reference_amplitude_matrix(vec: StateVector, cut):
    """``amplitude_matrix`` built with dicts of label tuples, one term at a time.

    Rows and columns are the sorted distinct left and right label tuples of
    the support; the integer index plan in ``superselect.entangle`` must
    reproduce this element for element.
    """
    lidx = sorted(cut.left)
    ridx = sorted(cut.right)
    lkeys = sorted({tuple(b.labels[i] for i in lidx) for b in vec.terms})
    rkeys = sorted({tuple(b.labels[i] for i in ridx) for b in vec.terms})
    lmap = {k: i for i, k in enumerate(lkeys)}
    rmap = {k: i for i, k in enumerate(rkeys)}
    mat = np.zeros((len(lkeys), len(rkeys)), dtype=complex)
    for state, amp in vec.terms.items():
        mat[lmap[tuple(state.labels[i] for i in lidx)],
            rmap[tuple(state.labels[i] for i in ridx)]] = amp
    return mat, lkeys, rkeys


def reference_cut_spectra(vec: StateVector, cuts) -> list[np.ndarray]:
    """Each cut's singular values from its own SVD of ``reference_amplitude_matrix``,
    one cut at a time; ``cut_spectra`` must reproduce them bit for bit."""
    return [np.linalg.svd(reference_amplitude_matrix(vec, cut)[0], compute_uv=False) for cut in cuts]


def reference_every_cut_entangled(plan: CutPlan, columns: np.ndarray) -> list[bool]:
    """The every-cut predicate on each column from SVDs alone: every column's
    spectrum on every cut of ``all_bipartitions``, through the plan's ranking
    and ``CutPlan.spectra``, with no tier and no early exit.
    ``every_cut_entangled`` must give the same verdicts."""
    k = columns.shape[1]
    cuts = all_bipartitions(plan.n)
    if not cuts or not k:
        return [False] * k
    member = np.array([[r in cut.left for r in range(plan.n)] for cut in cuts])
    entangled = np.ones(k, dtype=bool)
    for block in plan.rank_blocks(member):
        for cut in block:
            values = CutPlan.spectra([cut], columns)[0]
            entangled &= (values > RANK_REL_TOL * values[:, :1]).sum(axis=1) > 1
    return entangled.tolist()


# -- label-set reference for the builder's structural test -----------------------

def reference_admits_entangled(states: list[BasisState]) -> bool:
    """Whether the span of these product states can hold a vector entangled on
    every cut, decided on label sets: n > 1 and no register holds one label
    throughout. ``builder._admits_entangled`` must agree on the plan's codes."""
    n = states[0].n
    return n > 1 and all(len({s.labels[r] for s in states}) > 1 for r in range(n))


# -- dense reference for the internal marginal and the PPT witness ----------------

def reference_internal_marginal(vec: StateVector):
    """Spin-traced marginal of psi/||psi|| as one dense outer product per spin
    assignment, accumulated in order of first sight; returns the entries and
    the alphabets. The amplitudes are divided by the norm as one complex array
    before any outer product.

    ``internal_charge_marginal`` must reproduce these entries bit for bit.
    """
    alphabets = tuple(
        tuple(sorted({b.labels[r].species_id for b in vec.terms})) for r in range(vec.n)
    )
    configs = list(itertools.product(*alphabets))
    index = {c: i for i, c in enumerate(configs)}
    by_spin: dict[tuple[int, ...], np.ndarray] = {}
    scaled = np.array(list(vec.terms.values()), dtype=complex) / vec.norm()
    for state, amp in zip(vec.terms, scaled):
        spins = tuple(l.spin for l in state.labels)
        species = tuple(l.species_id for l in state.labels)
        vecrow = by_spin.setdefault(spins, np.zeros(len(configs), dtype=complex))
        vecrow[index[species]] += amp
    rho = np.zeros((len(configs), len(configs)), dtype=complex)
    for row in by_spin.values():
        rho += np.outer(row, row.conj())
    return rho, alphabets


def reference_density_admission(entries, register_alphabets) -> np.ndarray:
    """``DensityMatrix`` admission with one dense ``eigvalsh`` over the whole
    matrix; returns that spectrum. Errors must match the package's in type and
    message (the package checks finiteness first, which this does not)."""
    entries = np.asarray(entries, dtype=complex)
    dim = len(list(itertools.product(*register_alphabets)))
    if entries.shape != (dim, dim):
        raise DomainError(
            f"density matrix shape {entries.shape} does not match product basis size {dim}"
        )
    if np.max(np.abs(entries - entries.conj().T)) > HERMITICITY_TOL:
        raise DomainError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(entries)
    if eigs.min() < -PPT_TOL:
        raise DomainError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    if abs(np.trace(entries).real - 1.0) > TRACE_TOL:
        raise DomainError(f"density matrix trace {np.trace(entries).real:.12g} != 1")
    return eigs


def reference_partial_transpose(rho: DensityMatrix, cut: Bipartition):
    """The dense partial transpose of ``rho`` on the right side of ``cut``, its
    rows and columns in the basis with the left registers first; returns it
    with the two sides' dimensions."""
    n = len(rho.register_alphabets)
    dims = rho.local_dims()
    lidx = sorted(cut.left)
    ridx = sorted(cut.right)
    d_left = math.prod(dims[i] for i in lidx)
    d_right = math.prod(dims[i] for i in ridx)
    tensor = rho.entries.reshape(dims + dims)
    perm = lidx + ridx
    tensor = tensor.transpose(perm + [n + i for i in perm])
    block = tensor.reshape(d_left, d_right, d_left, d_right)
    transposed = block.transpose(0, 3, 2, 1).reshape(d_left * d_right, d_left * d_right)
    return transposed, d_left, d_right


def _reference_ppt_result(eigs: np.ndarray, d_left: int, d_right: int) -> PptResult:
    min_eig = float(eigs.min())
    if min_eig < -PPT_TOL:
        return PptResult("entangled", min_eig, conclusive=True)
    small = min(d_left, d_right) <= 2 and max(d_left, d_right) <= 3
    trivial = min(d_left, d_right) == 1
    return PptResult("separable-consistent", min_eig, conclusive=small or trivial)


def reference_ppt_check(rho: DensityMatrix, cut: Bipartition) -> PptResult:
    """``ppt_check`` with one dense ``eigvalsh`` over the whole partial transpose."""
    transposed, d_left, d_right = reference_partial_transpose(rho, cut)
    return _reference_ppt_result(np.linalg.eigvalsh(transposed), d_left, d_right)


def reference_block_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Block-by-block ``eigvalsh`` of a dense Hermitian matrix, its blocks the
    connected components of the nonzero pattern of its strict lower triangle,
    found by one dense scan; blocks of one size share one batched call.
    ``entangle._eigvalsh_blocks`` on the matrix's nonzero coordinates must
    return the same array bit for bit."""
    dim = mat.shape[0]
    rows, cols = np.divmod(np.flatnonzero(np.tril(mat != 0, -1)), dim)
    label = np.arange(dim)
    while True:  # label propagation with pointer jumping, to each component's smallest index
        lo, hi = label[rows], label[cols]
        split = lo != hi
        if not split.any():
            break
        lo, hi = lo[split], hi[split]
        np.minimum.at(label, np.maximum(lo, hi), np.minimum(lo, hi))
        while not np.array_equal(label[label], label):
            label = label[label]
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    spectra = []
    for size in sorted(set(sizes.tolist())):
        idx = order[starts[sizes == size, None] + np.arange(size)]
        if size == 1:
            spectra.append(mat[idx[:, 0], idx[:, 0]].real)
        else:
            spectra.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.sort(np.concatenate(spectra))


def reference_block_ppt_check(rho: DensityMatrix, cut: Bipartition) -> PptResult:
    """``ppt_check`` as block spectra of the dense partial transpose: its
    verdict, conclusiveness and ``min_eigenvalue`` must match bit for bit."""
    transposed, d_left, d_right = reference_partial_transpose(rho, cut)
    return _reference_ppt_result(reference_block_eigvalsh(transposed), d_left, d_right)


# -- loop reference for spin measurement ------------------------------------------

def reference_measure_spin(registry, vec: StateVector, obs: SpinObservable):
    """``measure_spin`` projecting term by term into a BasisState-keyed dict per
    outcome, every branch built as a StateVector and normalized.

    Probabilities and post states of ``superselect.measure`` must equal this
    bit for bit, and its errors must match in type and message.
    """
    require_normalized(vec)
    require_single_sector(registry, vec)
    r = obs.register
    if not 0 <= r < vec.n:
        raise DomainError(f"register {r} out of range for n={vec.n}")

    records = []
    for outcome in range(obs.outcome_count()):
        projected: dict[BasisState, complex] = {}
        for state, amp in vec.terms.items():
            label = state.labels[r]
            basis = obs.bases.get(label.species_id)
            if basis is None:
                raise ConfigurationError(
                    f"observable has no spin basis for species {label.species_id!r}"
                )
            if type(basis) is int:  # the m-dimensional computational basis
                basis = np.eye(basis, dtype=complex)
            m = basis.shape[0]
            if label.spin >= m:
                raise DomainError(
                    f"spin index {label.spin} outside the {m}-dim basis for {label.species_id!r}"
                )
            if outcome >= m:
                continue  # this species block has no such outcome
            overlap = np.conj(basis[outcome, label.spin]) * amp
            if overlap == 0:
                continue
            for new_spin in range(m):
                coef = basis[outcome, new_spin] * overlap
                if coef == 0:
                    continue
                labels = list(state.labels)
                labels[r] = RegisterLabel(label.species_id, new_spin)
                key = BasisState(tuple(labels))
                projected[key] = projected.get(key, 0j) + coef
        branch = StateVector(projected, n=vec.n)
        if branch.is_zero():
            continue
        prob = branch.norm() ** 2
        records.append(
            MeasurementRecord(
                outcome=outcome, probability=prob, post_state=reference_normalize(branch)
            )
        )
    return records


def reference_normalize(vec: StateVector) -> StateVector:
    """``normalize`` as one ``superpose`` of the state scaled by 1 / norm."""
    return superpose([(1.0 / vec.norm(), vec)])


def reference_sample_measurement(registry, vec: StateVector, obs: SpinObservable, seed: int):
    """One record drawn from ``reference_measure_spin`` with numpy's cumsum and searchsorted."""
    records = reference_measure_spin(registry, vec, obs)
    probs = np.array([r.probability for r in records])
    edges = np.cumsum(probs)
    u = np.random.default_rng(seed).random() * edges[-1]
    idx = int(np.searchsorted(edges, u, side="right"))
    return records[min(idx, len(records) - 1)]


def haar_unitary(rng, m: int) -> np.ndarray:
    """Haar-random m x m unitary: QR of a complex Gaussian, R's diagonal phases
    moved into Q (Mezzadri 2007)."""
    z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def haar_observable(rng, registry, register: int) -> SpinObservable:
    """A spin observable with an independent Haar-random basis per species."""
    return SpinObservable(
        register=register,
        bases={s.id: haar_unitary(rng, s.spin_multiplicity) for s in registry.species},
    )


def record_bits(record: MeasurementRecord):
    """A record as exact bits: outcome, probability and post-state terms in term order."""
    return (
        record.outcome,
        record.probability.hex(),
        [(state, amp.real.hex(), amp.imag.hex()) for state, amp in record.post_state.terms.items()],
    )


# -- random single-sector states --------------------------------------------------

def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    terms = {}
    for sa, va in a.terms.items():
        for sb, vb in b.terms.items():
            terms[BasisState(sa.labels + sb.labels)] = va * vb
    return StateVector(terms, n=a.n + b.n)


def random_sector_superposition(rng, registry, n, max_support=None) -> StateVector:
    """Random normalized state inside one randomly chosen charge sector."""
    sectors = attained_sectors(registry, n)
    sector = sectors[rng.integers(len(sectors))]
    basis = sector_basis(registry, n, sector)
    size = int(rng.integers(1, len(basis) + 1))
    if max_support is not None:
        size = min(size, max_support)
    picks = rng.choice(len(basis), size=size, replace=False)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    return StateVector({basis[i]: amps[j] for j, i in enumerate(picks)})


def random_single_sector_state(rng, registry, n, product_bias=0.4) -> StateVector:
    """Single-sector state; with probability ``product_bias`` a cross-register product.

    Products of single-sector factors are single-sector themselves and give
    the separability oracle genuinely factorizable inputs to detect.
    """
    if n > 1 and rng.random() < product_bias:
        split = int(rng.integers(1, n))
        left = random_single_sector_state(rng, registry, split, product_bias)
        right = random_single_sector_state(rng, registry, n - split, product_bias)
        return tensor_product(left, right)
    return random_sector_superposition(rng, registry, n)
