"""Entanglement analysis across register bipartitions.

Pure-state factorizability is decided by the Schmidt spectrum of the
amplitude matrix reshaped along a cut; the packaged-entanglement predicate
demands Schmidt rank above one on *every* bipartition (genuine multipartite
non-factorizability). For hybrid spin/charge states the internal side is a
generally mixed marginal, so it is probed by partial trace over the spin
indices followed by a positive-partial-transpose test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .charges import SpeciesRegistry
from .errors import ConfigurationError, DomainError
from .states import StateVector, require_normalized, require_single_sector

#: Singular values at or below this fraction of the largest count as zero.
RANK_REL_TOL = 1e-9
#: Partial-transpose eigenvalues below -PPT_TOL certify entanglement.
PPT_TOL = 1e-10
#: Density-matrix admission tolerances.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
#: Largest product basis ``internal_charge_marginal`` builds a marginal on:
#: one D x D complex matrix at D = 4096 takes 256 MiB.
MAX_MARGINAL_DIM = 4096


@dataclass(frozen=True)
class Bipartition:
    """A cut of the registers into two nonempty complementary groups."""

    left: frozenset[int]
    right: frozenset[int]

    @classmethod
    def from_left(cls, left, n: int) -> "Bipartition":
        left = frozenset(left)
        full = frozenset(range(n))
        if not left or left == full:
            raise DomainError("trivial cut: both sides of a bipartition must be nonempty")
        if not left <= full:
            raise DomainError(f"cut indices {sorted(left - full)} out of range for n={n}")
        return cls(left, full - left)

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.left))

    def __str__(self) -> str:
        fmt = lambda side: "{" + ",".join(str(i) for i in sorted(side)) + "}"
        return f"{fmt(self.left)}|{fmt(self.right)}"


def all_bipartitions(n: int) -> list[Bipartition]:
    """Every cut up to complement symmetry: the side containing register 0."""
    if n < 2:
        return []
    cuts = []
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            cuts.append(Bipartition.from_left({0, *extra}, n))
    return cuts


def _check_cut(vec: StateVector, cut: Bipartition) -> None:
    if cut.left | cut.right != set(range(vec.n)):
        raise DomainError(f"cut {cut} does not match register count n={vec.n}")


#: Largest mixed-radix key a cut side may build before it is re-compressed.
_KEY_LIMIT = int(np.iinfo(np.int64).max)


class CutPlan:
    """Integer index plan for reshaping amplitudes over fixed product states.

    Each register's labels get integer codes once, in sorted label order. A
    cut side's configurations are then ranked with numpy alone: the codes of
    its registers are folded into mixed-radix keys, one register at a time,
    and ``np.unique`` ranks the keys. Since the codes follow label order, the
    ranks follow the sorted order of the side's label tuples, which is the
    row and column order ``amplitude_matrix`` promises. A key that would
    outgrow int64 is first re-compressed to its rank among the distinct keys,
    so any register count works.
    """

    def __init__(self, states, n: int):
        self.states = list(states)
        self.n = n
        self.codes = np.empty((len(self.states), n), dtype=np.int64)
        self.radices = []
        for r in range(n):
            column = [s.labels[r] for s in self.states]
            index = {label: i for i, label in enumerate(sorted(set(column)))}
            self.codes[:, r] = [index[label] for label in column]
            self.radices.append(len(index))
        self._cut_index: dict[Bipartition, tuple] = {}

    def side(self, registers) -> tuple[np.ndarray, np.ndarray]:
        """Each state's rank among the distinct configurations of ``registers``
        (in sorted label-tuple order), and the first state showing each one."""
        key = np.zeros(len(self.states), dtype=np.int64)
        bound = 1  # exclusive upper bound on key, as a Python int
        for r in registers:
            if bound * self.radices[r] > _KEY_LIMIT:
                _, key = np.unique(key, return_inverse=True)
                bound = len(self.states)
            key = key * self.radices[r] + self.codes[:, r]
            bound *= self.radices[r]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return inverse, first

    def index(self, cut: Bipartition) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Row and column index of every state across ``cut``, and the matrix shape."""
        if cut not in self._cut_index:
            rows, lfirst = self.side(sorted(cut.left))
            cols, rfirst = self.side(sorted(cut.right))
            self._cut_index[cut] = rows, cols, (len(lfirst), len(rfirst))
        return self._cut_index[cut]


def _amplitudes(vec: StateVector) -> np.ndarray:
    return np.fromiter(vec.terms.values(), dtype=complex, count=len(vec))


def amplitude_matrix(vec: StateVector, cut: Bipartition):
    """Reshape the term map into a matrix indexed by (left labels, right labels).

    Rows and columns run over the label tuples actually occurring in the
    state's support, in sorted order; absent combinations are zero. Embedding
    into any larger label space adds only zero rows/columns, so the nonzero
    singular values are unaffected by this choice.
    """
    _check_cut(vec, cut)
    plan = CutPlan(vec.terms, vec.n)
    lidx = sorted(cut.left)
    ridx = sorted(cut.right)
    rows, lfirst = plan.side(lidx)
    cols, rfirst = plan.side(ridx)
    mat = np.zeros((len(lfirst), len(rfirst)), dtype=complex)
    mat[rows, cols] = _amplitudes(vec)
    lkeys = [tuple(plan.states[i].labels[r] for r in lidx) for i in lfirst]
    rkeys = [tuple(plan.states[i].labels[r] for r in ridx) for i in rfirst]
    return mat, lkeys, rkeys


@dataclass
class SchmidtResult:
    """Singular values (descending) of the cut-reshaped amplitude matrix."""

    singular_values: np.ndarray
    rank: int

    def squared(self) -> np.ndarray:
        return self.singular_values ** 2

    def entropy(self) -> float:
        """Von Neumann entropy (nats) of either side's marginal; 0 for product states."""
        lam = self.squared()
        lam = lam[lam > (RANK_REL_TOL * self.singular_values[0]) ** 2]
        return float(max(0.0, -np.sum(lam * np.log(lam))))


def _spectra(vec: StateVector, cuts) -> list[SchmidtResult]:
    """One plan for the state's support, then one SVD per cut."""
    plan = CutPlan(vec.terms, vec.n)
    amplitudes = _amplitudes(vec)
    results = []
    for cut in cuts:
        _check_cut(vec, cut)
        rows, cols, shape = plan.index(cut)
        mat = np.zeros(shape, dtype=complex)
        mat[rows, cols] = amplitudes
        values = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(values > RANK_REL_TOL * values[0])) if values.size else 0
        results.append(SchmidtResult(singular_values=values, rank=rank))
    return results


def cut_spectra(vec: StateVector, cuts) -> list[SchmidtResult]:
    """Schmidt spectrum across each of ``cuts``, in order, from one index plan."""
    require_normalized(vec)
    return _spectra(vec, cuts)


def schmidt(vec: StateVector, cut: Bipartition) -> SchmidtResult:
    """Schmidt spectrum across ``cut``; rank 1 iff the state factorizes there."""
    return cut_spectra(vec, [cut])[0]


def entanglement_entropy(vec: StateVector, cut: Bipartition) -> float:
    """Von Neumann entropy (nats) of either side's marginal; 0 for product states."""
    return schmidt(vec, cut).entropy()


@dataclass
class EntanglementReport:
    """Per-cut Schmidt ranks plus the verdict of the chosen predicate.

    ``undefined`` marks single-register states, where no cut exists and
    entanglement is not a meaningful notion.
    """

    entangled: bool
    predicate: str
    cut_ranks: dict[tuple[int, ...], int] = field(default_factory=dict)
    undefined: bool = False

    def __bool__(self) -> bool:
        return self.entangled

    def to_dict(self) -> dict:
        return {
            "entangled": self.entangled,
            "predicate": self.predicate,
            "undefined": self.undefined,
            "cut_ranks": {",".join(map(str, k)): v for k, v in sorted(self.cut_ranks.items())},
        }


def predicate_report(predicate: str, n: int, ranks: dict[tuple[int, ...], int]) -> EntanglementReport:
    """Verdict of ``predicate`` ("every-cut" or "some-cut") on an n-register
    state, given the Schmidt rank of every cut of ``all_bipartitions(n)``."""
    if n == 1:
        return EntanglementReport(entangled=False, predicate=predicate, undefined=True)
    if predicate == "every-cut":
        verdict = all(r > 1 for r in ranks.values())
    else:
        verdict = any(r > 1 for r in ranks.values())
    return EntanglementReport(entangled=verdict, predicate=predicate, cut_ranks=dict(ranks))


def _rank_report(registry: SpeciesRegistry, vec: StateVector, predicate: str) -> EntanglementReport:
    require_normalized(vec)
    require_single_sector(registry, vec)
    cuts = all_bipartitions(vec.n)
    ranks = {cut.key(): result.rank for cut, result in zip(cuts, _spectra(vec, cuts))}
    return predicate_report(predicate, vec.n, ranks)


def is_packaged_entangled(registry: SpeciesRegistry, vec: StateVector) -> EntanglementReport:
    """Strong predicate: non-factorizable across every bipartition of the registers.

    Requires a normalized single-sector state; cross-sector input raises
    SuperselectionError. The report carries the Schmidt rank of every cut.
    """
    return _rank_report(registry, vec, "every-cut")


def is_entangled_somewhere(registry: SpeciesRegistry, vec: StateVector) -> EntanglementReport:
    """Weak predicate: Schmidt rank above one on at least one bipartition."""
    return _rank_report(registry, vec, "some-cut")


def every_cut_entangled(plan: CutPlan, columns: np.ndarray) -> list[bool]:
    """The every-cut predicate on each column of coordinates over ``plan.states``.

    Per cut, all columns still in play are reshaped into one (k, L, R) stack
    and share one batched SVD; a column that factorizes on a cut is not
    checked on later ones. A column's verdict is that of
    ``is_packaged_entangled`` on its state: padding a cut matrix with the zero
    rows and columns of the plan's wider support leaves its nonzero singular
    values unchanged up to rounding.
    """
    verdict = np.full(columns.shape[1], plan.n > 1)
    for cut in all_bipartitions(plan.n):
        live = np.flatnonzero(verdict)
        if not live.size:
            break
        rows, cols, shape = plan.index(cut)
        if min(shape) < 2:
            verdict[:] = False
            break
        stack = np.zeros((live.size, *shape), dtype=complex)
        stack[:, rows, cols] = columns[:, live].T
        values = np.linalg.svd(stack, compute_uv=False)
        verdict[live] = values[:, 1] > RANK_REL_TOL * values[:, 0]
    return verdict.tolist()


# -- internal-charge marginals and the PPT witness -----------------------------

def _components(mat: np.ndarray) -> np.ndarray:
    """Connected-component label (its smallest index) of every row of ``mat``,
    linking i > j wherever ``mat[i, j]`` is nonzero.

    Label propagation: each pass hooks the root of every edge's larger label
    under the smaller one, then pointer jumping flattens every chain to its
    root. Labels only ever fall and ``label[i] <= i``, so chains end.
    """
    dim = mat.shape[0]
    rows, cols = np.divmod(np.flatnonzero(np.tril(mat != 0, -1)), dim)
    label = np.arange(dim)
    while True:
        lo, hi = label[rows], label[cols]
        split = lo != hi
        if not split.any():
            return label
        lo, hi = lo[split], hi[split]
        np.minimum.at(label, np.maximum(lo, hi), np.minimum(lo, hi))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _eigvalsh_blocks(mat: np.ndarray) -> np.ndarray:
    """Every eigenvalue of Hermitian ``mat``, ascending, solved block by block.

    ``np.linalg.eigvalsh`` reads the lower triangle and mirrors it; the
    connected components of that triangle's exact nonzero pattern permute the
    matrix it reads into a direct sum, so the union of the blocks' spectra is
    its spectrum. Blocks are principal submatrices in ascending index order,
    so each block's lower triangle is read from the same entries. A singleton
    contributes its real diagonal entry; blocks of one size share one batched
    ``eigvalsh``.
    """
    label = _components(mat)
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]  # per component, in order of its label as in ``order``
    starts = np.cumsum(sizes) - sizes
    spectra = []
    for size in np.unique(sizes):
        idx = order[starts[sizes == size, None] + np.arange(size)]
        if size == 1:
            spectra.append(mat[idx[:, 0], idx[:, 0]].real)
        else:
            spectra.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.sort(np.concatenate(spectra))


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over a labeled product basis.

    ``register_alphabets`` give each register's local label list; the row
    order is the cartesian product of these alphabets (register-major), which
    is what makes partial transposition along a register cut well defined.
    """

    def __init__(self, entries: np.ndarray, register_alphabets, cut: Bipartition | None = None):
        entries = np.asarray(entries, dtype=complex)
        self.register_alphabets = tuple(tuple(a) for a in register_alphabets)
        self.basis_labels = list(itertools.product(*self.register_alphabets))
        self.cut = cut
        dim = len(self.basis_labels)
        if entries.shape != (dim, dim):
            raise DomainError(
                f"density matrix shape {entries.shape} does not match product basis size {dim}"
            )
        if not np.all(np.isfinite(entries)):
            raise DomainError("density matrix has non-finite entries")
        if np.max(np.abs(entries - entries.conj().T)) > HERMITICITY_TOL:
            raise DomainError("density matrix is not Hermitian")
        eigs = _eigvalsh_blocks(entries)
        if eigs.min() < -PPT_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(entries).real - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix trace {np.trace(entries).real:.12g} != 1")
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def local_dims(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.register_alphabets)


def internal_charge_marginal(
    registry: SpeciesRegistry, vec: StateVector, cut: Bipartition | None = None
) -> DensityMatrix:
    """Density matrix on the species labels of all registers, spins traced out.

    The local internal alphabet of each register is the sorted set of species
    occurring there in the state's support. Coherence between two internal
    configurations survives exactly when they share a spin assignment, so
    anti-correlated spin branches decohere the marginal while equal-spin
    branches keep it pure.

    The product basis has D = prod(alphabet sizes) configurations; a D above
    ``MAX_MARGINAL_DIM`` raises ConfigurationError before anything of size D
    is built.
    """
    require_normalized(vec)
    if cut is not None:
        _check_cut(vec, cut)
    n = vec.n
    alphabets = tuple(
        tuple(sorted({b.labels[r].species_id for b in vec.terms})) for r in range(n)
    )
    dim = math.prod(len(a) for a in alphabets)
    if dim > MAX_MARGINAL_DIM:
        raise ConfigurationError(
            f"internal marginal needs a {dim} x {dim} density matrix "
            f"(product of the registers' species alphabets): the limit is {MAX_MARGINAL_DIM}"
        )
    index = {c: i for i, c in enumerate(itertools.product(*alphabets))}
    # one amplitude row over the configurations per spin assignment, in order of first sight
    spin_rows: dict[tuple[int, ...], int] = {}
    rows, cols = [], []
    for state in vec.terms:
        rows.append(spin_rows.setdefault(tuple(l.spin for l in state.labels), len(spin_rows)))
        cols.append(index[tuple(l.species_id for l in state.labels)])
    by_spin = np.zeros((len(spin_rows), dim), dtype=complex)
    by_spin[rows, cols] += _amplitudes(vec)
    rho = np.zeros((dim, dim), dtype=complex)
    for row in by_spin:
        rho += np.outer(row, row.conj())
    return DensityMatrix(rho, alphabets, cut=cut)


@dataclass
class PptResult:
    """Outcome of the positive-partial-transpose witness."""

    verdict: str  # "entangled" or "separable-consistent"
    min_eigenvalue: float
    conclusive: bool

    @property
    def entangled(self) -> bool:
        return self.verdict == "entangled"


def ppt_check(rho: DensityMatrix, cut: Bipartition | None = None) -> PptResult:
    """Partial transpose on the right factor of ``cut``; negativity certifies entanglement.

    A negative eigenvalue below -1e-10 is always conclusive. A positive
    partial transpose is conclusive only when the bipartite local dimensions
    are at most 2x3; beyond that the result is a witness flagged
    inconclusive-if-positive.
    """
    if cut is None:
        cut = rho.cut
    if cut is None:
        raise DomainError("ppt_check needs a bipartition (none stored on the density matrix)")
    n = len(rho.register_alphabets)
    if cut.left | cut.right != set(range(n)):
        raise DomainError(f"cut {cut} does not match the marginal's register count {n}")
    dims = rho.local_dims()
    lidx = sorted(cut.left)
    ridx = sorted(cut.right)
    d_left = math.prod(dims[i] for i in lidx)
    d_right = math.prod(dims[i] for i in ridx)
    # reorder row and column axes to (left registers, right registers)
    tensor = rho.entries.reshape(dims + dims)
    perm = lidx + ridx
    tensor = tensor.transpose(perm + [n + i for i in perm])
    block = tensor.reshape(d_left, d_right, d_left, d_right)
    transposed = block.transpose(0, 3, 2, 1).reshape(d_left * d_right, d_left * d_right)
    eigs = _eigvalsh_blocks(transposed)
    min_eig = float(eigs.min())
    if min_eig < -PPT_TOL:
        return PptResult("entangled", min_eig, conclusive=True)
    small = min(d_left, d_right) <= 2 and max(d_left, d_right) <= 3
    trivial = min(d_left, d_right) == 1
    return PptResult("separable-consistent", min_eig, conclusive=small or trivial)
