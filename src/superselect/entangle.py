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
from .states import StateVector, require_normalized, require_indices, require_single_sector

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
#: Most cuts ``all_bipartitions`` will list: 2 ** (n - 1) - 1 of them.
MAX_CUTS = 2**20


@dataclass(frozen=True)
class Bipartition:
    """A cut of the registers into two nonempty complementary groups."""

    left: frozenset[int]
    right: frozenset[int]

    @classmethod
    def from_left(cls, left, n: int) -> "Bipartition":
        left = frozenset(left)
        require_indices(left, "cut index")
        full = frozenset(range(n))
        if not left or left == full:
            raise DomainError("trivial cut: both sides of a bipartition must be nonempty")
        if not left <= full:
            raise DomainError(f"cut indices {sorted(left - full)} out of range for n={n}")
        return cls(left, full - left)

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    def check(self, n: int) -> None:
        """Raise DomainError unless this cut splits the registers 0..n-1 into
        two nonempty disjoint sides of integer indices."""
        require_indices(self.left | self.right, "cut index")
        if self.left | self.right != set(range(n)):
            raise DomainError(f"cut {self} does not match register count n={n}")
        if not (self.left and self.right):
            raise DomainError(f"cut {self} has an empty side")
        if len(self.left) + len(self.right) != n:
            raise DomainError(f"cut {self} puts registers {sorted(self.left & self.right)} on both sides")

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.left))

    def __str__(self) -> str:
        fmt = lambda side: "{" + ",".join(str(i) for i in sorted(side)) + "}"
        return f"{fmt(self.left)}|{fmt(self.right)}"


def _cut_members(n: int) -> np.ndarray:
    """Every cut's (cuts x n) left-side membership, in ``all_bipartitions``
    order: the side holding register 0, by size, then by the combination of
    its other registers as ``itertools.combinations`` lists them.

    More than ``MAX_CUTS`` cuts raises ConfigurationError before any is built.
    """
    if n < 2:
        return np.zeros((0, n), dtype=bool)
    # the first test settles a large n without computing 2 ** (n - 1)
    if n - 1 > MAX_CUTS.bit_length() or 2 ** (n - 1) - 1 > MAX_CUTS:
        raise ConfigurationError(
            f"refusing to list 2**{n - 1}-1 cuts (n={n}): the limit is {MAX_CUTS}"
        )
    # bit r - 1 of a row: register r > 0 joins register 0 (never all of them do)
    bits = (np.arange(2 ** (n - 1) - 1, dtype=np.int32)[:, None] >> np.arange(n - 1, dtype=np.int32)) & 1
    # of two combinations of one size, the one holding the smallest register
    # in just one of them comes first: its bits, read register 1 first, are the larger
    reverse = bits @ (1 << np.arange(n - 2, -1, -1))
    member = np.ones((len(bits), n), dtype=bool)
    member[:, 1:] = bits[np.lexsort((-reverse, bits.sum(axis=1)))]
    return member


def _lefts(member: np.ndarray) -> list[tuple[int, ...]]:
    """Each membership row's left side as an ascending register tuple, its cut's ``key()``."""
    registers = range(member.shape[1])
    return [tuple(itertools.compress(registers, row)) for row in member.tolist()]


def all_bipartitions(n: int) -> list[Bipartition]:
    """Every cut up to complement symmetry: the side containing register 0.

    More than ``MAX_CUTS`` cuts raises ConfigurationError before any is built.
    """
    lefts = _lefts(_cut_members(n))
    full = frozenset(range(n))
    return [Bipartition(left, full - left) for left in map(frozenset, lefts)]


#: Most keys (states x cut sides) one ranking pass builds; about 40 bytes each
#: as int64, more as the exact ints of a plan past 2 ** 63 configurations.
_RANK_BLOCK_KEYS = 1 << 19
#: Most bytes one batched SVD stack of cut matrices takes, or one matrix if
#: a single matrix is larger.
_SVD_STACK_BYTES = 1 << 25
#: The every-cut check leaves a column to the SVD where its verdict without
#: one would come within this factor of the rank cutoff ``RANK_REL_TOL``.
_TIER_MARGIN = 1e3
#: A 2 x 2 minor above this times a column's squared norm certifies a cut.
_MINOR_TOL = RANK_REL_TOL * _TIER_MARGIN
#: Most terms a column may have for the 2 x 2-minor certificate.
_MINOR_TERMS = 64
#: Bytes the certificate takes per (column, term, cut), for its blocking.
_MINOR_ELEMENT_BYTES = 256


class CutPlan:
    """Integer index plan for reshaping amplitudes over fixed product states.

    Each register's labels get integer codes once, in sorted label order, and
    each state one key, its position in register-major mixed-radix order:
    ``keys = codes @ place``, where ``place[r]`` is the product of the later
    registers' radices. The keys are int64 where the product of all radices
    fits it, exact Python ints (dtype object) otherwise. A cut reaches the
    plan as a row of a boolean left-side membership block. A state's left
    key is the part of its key the left registers give and its right key
    the rest; each orders its side's configurations as their label tuples
    sort. ``rank_blocks`` ranks both sides of a block of cuts from one
    integer product and one subtraction. The plan keeps nothing of a cut.

    ``stack`` is the one scatter of amplitude columns into cut matrices and
    ``spectra`` the one batched SVD over them, in stacks of at most
    ``_SVD_STACK_BYTES``.
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
        dtype = np.int64 if math.prod(self.radices) <= np.iinfo(np.int64).max else object
        self.place = np.array([math.prod(self.radices[r + 1:]) for r in range(n)], dtype=dtype)
        self.keys = self.codes @ self.place

    def rank_blocks(self, member: np.ndarray):
        """Yield, block by block, each (cuts x n) ``member`` row's (rows, cols,
        L, R): every state's row and column across the cut whose left side is
        where the row is True, and the L x R shape of its cut matrix.

        A block holds at most ``_RANK_BLOCK_KEYS`` state x side keys and is
        ranked only when the loop reaches it.
        """
        size = max(1, _RANK_BLOCK_KEYS // (2 * max(len(self.states), 1)))
        for start in range(0, len(member), size):
            block = member[start:start + size]
            left = (block * self.place) @ self.codes.T  # (cuts, states)
            ranks, counts = _dense_ranks(np.concatenate([left, self.keys - left]))
            k = len(block)
            yield list(zip(ranks[:k], ranks[k:], counts[:k], counts[k:]))

    @staticmethod
    def stack(cuts: list[tuple], columns: np.ndarray) -> np.ndarray:
        """The (cuts, k, L, R) stack of the cut matrices of the (states x k)
        ``columns`` across each of ``cuts``, (rows, cols, L, R) of one shape."""
        _, _, left, right = cuts[0]
        stack = np.zeros((len(cuts), columns.shape[1], left, right), dtype=complex)
        for c, (rows, cols, _, _) in enumerate(cuts):
            # the slice between the advanced indices puts their (states,) axis first
            stack[c, :, rows, cols] = columns
        return stack

    @staticmethod
    def spectra(cuts: list[tuple], columns: np.ndarray) -> np.ndarray:
        """The (cuts, k, min(L, R)) singular values, descending, of ``stack``'s matrices.

        Each SVD stack takes at most ``_SVD_STACK_BYTES``, or one matrix if a
        single matrix is larger: whole cuts per stack while all k columns
        fit, else one cut's columns in blocks. LAPACK solves each matrix of a
        stack on its own, so the values do not depend on the blocking. Both
        callers pass at least one cut and one column of a state with terms
        (``_spectra`` admits a normalized state, ``every_cut_entangled`` only
        live columns), so L, R and k are all at least 1.
        """
        k = columns.shape[1]
        _, _, left, right = cuts[0]
        fit = max(1, _SVD_STACK_BYTES // (16 * left * right))  # complex matrices per stack
        step, width = (fit // k, k) if fit >= k else (1, fit)  # cuts, columns per stack
        values = np.empty((len(cuts), k, min(left, right)))
        for a in range(0, len(cuts), step):
            for b in range(0, k, width):
                stack = CutPlan.stack(cuts[a:a + step], columns[:, b:b + width])
                values[a:a + step, b:b + width] = np.linalg.svd(stack, compute_uv=False)
        return values


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each key's dense rank in its row of ``keys``, the number of distinct
    smaller keys there, and each row's count of distinct keys."""
    order = np.argsort(keys, axis=1, kind="stable")
    new = np.ones(keys.shape, dtype=bool)  # where a sorted key differs from the one before
    ordered = np.take_along_axis(keys, order, axis=1)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.cumsum(new, axis=1) - 1, axis=1)
    return ranks, new.sum(axis=1).tolist()


def _ranks(values: np.ndarray) -> np.ndarray:
    """Schmidt ranks along the last axis: singular values above RANK_REL_TOL x the largest."""
    return (values > RANK_REL_TOL * values[..., :1]).sum(axis=-1)


def _amplitudes(vec: StateVector) -> np.ndarray:
    return np.fromiter(vec.terms.values(), dtype=complex, count=len(vec))


@dataclass
class SchmidtResult:
    """Singular values (descending) of the cut-reshaped amplitude matrix."""

    singular_values: np.ndarray

    @property
    def rank(self) -> int:
        return int(_ranks(self.singular_values))

    def squared(self) -> np.ndarray:
        return self.singular_values ** 2

    def entropy(self) -> float:
        """Von Neumann entropy (nats) of either side's marginal; 0 for product states."""
        lam = self.squared()
        lam = lam[lam > (RANK_REL_TOL * self.singular_values[0]) ** 2]
        return float(max(0.0, -np.sum(lam * np.log(lam))))


def _spectra(vec: StateVector, member: np.ndarray):
    """Yield, group by group, (rows, values): indices of (cuts x n) ``member``
    rows of one (L, R) shape and their stacked (rows, min(L, R)) singular
    values. One plan for the state's support ranks the rows in blocks, then
    ``CutPlan.spectra`` runs once per shape in a block, bit for bit each
    cut's own SVD."""
    plan = CutPlan(vec.terms, vec.n)
    amplitudes = _amplitudes(vec)[:, None]
    start = 0
    for block in plan.rank_blocks(member):
        by_shape: dict[tuple[int, int], list[int]] = {}
        for c, (_, _, left, right) in enumerate(block):
            by_shape.setdefault((left, right), []).append(c)
        for group in by_shape.values():
            yield [start + c for c in group], plan.spectra([block[c] for c in group], amplitudes)[:, 0]
        start += len(block)


def cut_spectra(vec: StateVector, cuts) -> list[SchmidtResult]:
    """Schmidt spectrum across each of ``cuts``, in order, from one index plan;
    every cut is checked against the register count, each distinct one then
    computed once."""
    require_normalized(vec)
    cuts = list(cuts)
    for cut in cuts:  # before merging: a cut at 0.0 equals the cut at 0
        cut.check(vec.n)
    distinct = list(dict.fromkeys(cuts))
    member = np.zeros((len(distinct), vec.n), dtype=bool)
    member.ravel()[[i * vec.n + r for i, cut in enumerate(distinct) for r in cut.left]] = True
    found = [None] * len(distinct)
    for rows, values in _spectra(vec, member):
        for i, value in zip(rows, values):
            found[i] = value
    spectrum = dict(zip(distinct, found))
    return [SchmidtResult(spectrum[cut]) for cut in cuts]


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
    member = _cut_members(vec.n)
    ranks = np.zeros(len(member), dtype=int)
    for rows, values in _spectra(vec, member):
        ranks[rows] = _ranks(values)
    return predicate_report(predicate, vec.n, dict(zip(_lefts(member), ranks.tolist())))


def _entropies(values: np.ndarray) -> list[float]:
    """``SchmidtResult.entropy`` of each row of (cuts, m) stacked singular
    values, bit for bit.

    ``np.sum`` adds fewer than 8 terms one by one, left to right, as a
    cumulative sum along the row does; a row's kept values lead it, so the
    zeros that pad the rest add nothing. A row that keeps 8 or more, which
    numpy sums in another order, takes its own ``SchmidtResult``.
    """
    lam = values**2
    # the cutoff as entropy() squares it: a scalar power, which may round unlike x * x
    cutoff = [(RANK_REL_TOL * top) ** 2 for top in values[:, 0].tolist()]
    keep = lam > np.array(cutoff)[:, None]
    total = np.cumsum(lam * np.log(np.where(keep, lam, 1.0)), axis=1)[:, -1]
    entropies = [max(0.0, -t) for t in total.tolist()]
    if values.shape[1] >= 8:  # a row keeps its eighth value iff it keeps 8 or more
        for i in np.flatnonzero(keep[:, 7]).tolist():
            entropies[i] = SchmidtResult(values[i]).entropy()
    return entropies


def _cut_report(vec: StateVector, member: np.ndarray, lefts=None) -> tuple[list[dict], dict, dict]:
    """CLI ``entangle``'s results on a state the caller has admitted: one row
    per reported cut, then the every-cut and some-cut reports' ``to_dict()``.

    ``member`` is ``_cut_members(vec.n)``. ``lefts`` lists the reported cuts'
    left sides as ascending register tuples (``cut.key()``); None reports
    every cut of ``member``. A reported cut whose left side lacks register 0
    adds its own membership row, so it keeps its own SVD. A row holds the
    cut as ``str(cut)`` writes it, and its singular values, rank and entropy
    as ``SchmidtResult`` gives them: all come from one scan of ``_spectra``,
    a group's ranks and entropies from its stacked spectra.
    """
    n = vec.n
    canonical = len(member)
    if lefts is not None:
        flipped = [left for left in dict.fromkeys(lefts) if left[0] != 0]
        extra = np.zeros((len(flipped), n), dtype=bool)
        for row, left in zip(extra, flipped):
            row[list(left)] = True
        member = np.concatenate([member, extra])
    keys = _lefts(member)
    names = [str(r) for r in range(n)]
    side = lambda row: "{" + ",".join(itertools.compress(names, row)) + "}"
    labels = [side(left) + "|" + side(right) for left, right in zip(member.tolist(), (~member).tolist())]
    table = [None] * len(member)
    for index, values in _spectra(vec, member):
        for i, singular, rank, entropy in zip(index, values.tolist(), _ranks(values).tolist(), _entropies(values)):
            table[i] = {"cut": labels[i], "singular_values": singular, "rank": rank, "entropy_nats": entropy}
    ranks = {key: row["rank"] for key, row in zip(keys[:canonical], table)}
    if lefts is None:
        reported = table[:canonical]
    else:
        row_of = dict(zip(keys, table))
        reported = [row_of[left] for left in lefts]
    every, some = (predicate_report(p, n, ranks).to_dict() for p in ("every-cut", "some-cut"))
    return reported, every, some


def is_packaged_entangled(registry: SpeciesRegistry, vec: StateVector) -> EntanglementReport:
    """Strong predicate: non-factorizable across every bipartition of the registers.

    Requires a normalized single-sector state; cross-sector input raises
    SuperselectionError. The report carries the Schmidt rank of every cut.
    """
    return _rank_report(registry, vec, "every-cut")


def is_entangled_somewhere(registry: SpeciesRegistry, vec: StateVector) -> EntanglementReport:
    """Weak predicate: Schmidt rank above one on at least one bipartition."""
    return _rank_report(registry, vec, "some-cut")


def _minor_certified(plan: CutPlan, member: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Whether each column, of 3 to ``_MINOR_TERMS`` terms, has on every cut of
    ``member`` a 2 x 2 minor of its cut matrix above ``_MINOR_TOL`` times its
    squared norm.

    Every 2 x 2 submatrix of a matrix M has singular values at most those of
    M (interlacing; Horn & Johnson, *Matrix Analysis*), so such a minor is at
    most sigma_1 sigma_2 of M, while sigma_1 ** 2 <= ||M||_F ** 2: it puts
    sigma_2 / sigma_1 above ``_MINOR_TOL``, and the SVD finds rank >= 2.

    The minors pair the column's largest term s with each partner t, a state
    of the plan: rows L(s), L(t) and columns R(s), R(t) of the cut matrix,
    whose cross entries are the amplitudes of the states L(t) R(s) and
    L(s) R(t), each looked up by its key in the plan's sorted ``keys`` (0 if
    absent); a side's part of a key comes from the plan's ``place`` values.
    Where s and t agree on one side of the cut, as when t is s, the cross
    entries are their own amplitudes, so the two products cancel to
    rounding, far below the bound: every partner is tried on every cut.
    The partners are the column's ``terms`` largest entries, larger first,
    which hold all its terms. Columns, cuts and partners are taken in blocks
    of at most ``_SVD_STACK_BYTES`` // ``_MINOR_ELEMENT_BYTES`` (column,
    partner, cut) elements, and a block of columns takes no more partners
    once each of its cuts is certified.
    """
    k, keys = columns.shape[1], plan.keys
    order = np.argsort(keys)
    ordered = keys[order]

    size = np.abs(columns)
    terms = int(np.count_nonzero(columns, axis=0).max())
    rows = np.argpartition(-size, terms - 1, axis=0)[:terms].T
    index = np.arange(k)[:, None]
    rows = np.take_along_axis(rows, np.argsort(-size[rows, index], axis=1), axis=1)
    amps = columns[rows, index]
    s, top = rows[:, 0], amps[:, 0]
    bound = _MINOR_TOL * np.sum(size**2, axis=0)

    def cross(key, col):  # each key's amplitude in its column, 0 off the plan's states
        at = np.minimum(np.searchsorted(ordered, key), len(ordered) - 1)
        return np.where(ordered[at] == key, columns[order[at], col], 0)

    elements = max(1, _SVD_STACK_BYTES // _MINOR_ELEMENT_BYTES)
    certified = np.ones(k, dtype=bool)
    for b in range(0, len(member), elements):
        lefts = (member[b:b + elements] * plan.place).T  # a state's codes times these give its left keys
        width = max(1, elements // lefts.shape[1])  # columns in one block
        for a in range(0, k, width):
            block = slice(a, a + width)
            left = plan.codes[s[block]] @ lefts  # L(s) on each cut
            right = keys[s[block], None] - left  # R(s)
            pending = np.ones(left.shape, dtype=bool)
            step = max(1, elements // left.size)  # partners in one block
            for j in range(0, terms, step):
                t = rows[block, j:j + step]
                tl = plan.codes[t] @ lefts  # L(t)
                key = [tl + right[:, None], keys[t][:, :, None] - tl + left[:, None]]  # L(t) R(s), L(s) R(t)
                x, y = cross(key, index[block, :, None])
                minor = np.abs(top[block, None, None] * amps[block, j:j + step, None] - x * y)
                pending &= ~np.any(minor > bound[block, None, None], axis=1)
                if not pending.any():
                    break
            certified[block] &= ~pending.any(axis=1)
    return certified


def every_cut_entangled(plan: CutPlan, columns: np.ndarray) -> list[bool]:
    """The every-cut predicate on each column of coordinates over ``plan.states``.

    A column's verdict is that of ``is_packaged_entangled`` on its state:
    padding a cut matrix with the zero rows and columns of the plan's wider
    support leaves its nonzero singular values unchanged up to rounding.
    More than ``MAX_CUTS`` cuts are refused before any column is read. Three
    exact tiers decide what they can without an SVD:

    - a column of at most one term is not entangled;
    - a two-term column a b_p + c b_q is entangled iff b_p and b_q differ at
      every register and min(|a|, |c|) > RANK_REL_TOL * max(|a|, |c|): on
      every cut its matrix then holds a and c in distinct rows and columns,
      while a register they share fixes one side of a cut. A ratio within a
      factor ``_TIER_MARGIN`` of the cutoff is left to the SVD;
    - a column of at most ``_MINOR_TERMS`` terms is entangled when
      ``_minor_certified`` finds a large 2 x 2 minor on every cut.

    The rest go to the SVD. Cuts are ranked block by block as the loop
    reaches them. Per cut, all columns still in play share one
    ``CutPlan.spectra`` call; a column that factorizes on a cut is not
    checked on later ones, and once none is left no further block is ranked.
    """
    member = _cut_members(plan.n)
    verdict = np.zeros(columns.shape[1], dtype=bool)
    if not len(member):  # n < 2: no cut
        return verdict.tolist()
    count = np.count_nonzero(columns, axis=0)
    two = np.flatnonzero(count == 2)
    p, q = np.nonzero(columns[:, two].T)[1].reshape(-1, 2).T
    small, large = np.sort(np.abs([columns[p, two], columns[q, two]]), axis=0)
    apart = np.all(plan.codes[p] != plan.codes[q], axis=1)
    verdict[two] = apart & (small > RANK_REL_TOL * _TIER_MARGIN * large)
    undecided = count > 2
    undecided[two] = apart & (small >= RANK_REL_TOL / _TIER_MARGIN * large) & ~verdict[two]
    few = np.flatnonzero((count > 2) & (count <= _MINOR_TERMS))
    if few.size:
        verdict[few] = _minor_certified(plan, member, columns[:, few])
    live = np.flatnonzero(undecided & ~verdict)  # the columns still in play
    columns = columns[:, live]
    blocks = plan.rank_blocks(member) if live.size else ()
    for cut in itertools.chain.from_iterable(blocks):
        keep = _ranks(plan.spectra([cut], columns)[0]) > 1
        if not keep.all():  # only a cut that drops columns copies the rest
            live, columns = live[keep], columns[:, keep]
            if not live.size:
                break
    verdict[live] = True
    return verdict.tolist()


# -- internal-charge marginals and the PPT witness -----------------------------

def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label (its smallest index) of each of ``dim`` nodes,
    linking ``rows[k]`` with ``cols[k]`` for every k.

    Label propagation: each pass hooks the root of every edge's larger label
    under the smaller one, then pointer jumping flattens every chain to its
    root. Labels only ever fall and ``label[i] <= i``, so chains end.
    """
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


def _eigvalsh_blocks(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray, where=None) -> np.ndarray:
    """Every eigenvalue, ascending, of a Hermitian matrix H whose nonzero
    coordinates are ``rows``, ``cols``, solved block by block. H is ``mat``
    itself, or with ``where`` the matrix whose principal submatrices on the
    rows of index array ``idx`` (blocks x size) are ``mat[where(idx)]``.

    ``np.linalg.eigvalsh`` reads the lower triangle and mirrors it; the
    connected components of that triangle's nonzero coordinates permute the
    matrix it reads into a direct sum, so the union of the blocks' spectra is
    its spectrum. Blocks are principal submatrices in ascending index order,
    so each block's lower triangle is read from the same entries. A singleton
    contributes its real diagonal entry; blocks of one size share one batched
    ``eigvalsh``.
    """
    if where is None:
        where = lambda idx: (idx[:, :, None], idx[:, None, :])
    below = rows > cols
    label = _components(mat.shape[0], rows[below], cols[below])
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]  # per component, in order of its label as in ``order``
    starts = np.cumsum(sizes) - sizes
    spectra = []
    for size in sorted(set(sizes.tolist())):
        block = mat[where(order[starts[sizes == size, None] + np.arange(size)])]
        spectra.append(block.real.ravel() if size == 1 else np.linalg.eigvalsh(block).ravel())
    return np.sort(np.concatenate(spectra))


def _hermiticity_deviation(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """The largest |mat[i, j] - conj(mat[j, i])|, read over the nonzero
    coordinates ``rows``, ``cols`` of ``mat``.

    A nonzero deviation needs mat[i, j] or mat[j, i] nonzero, and the pattern
    holds both orders of such a pair, so this is the dense maximum bit for bit.
    """
    return float(np.max(np.abs(mat[rows, cols] - mat[cols, rows].conj()), initial=0.0))


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over a labeled product basis.

    ``register_alphabets`` give each register's local label list; the row
    order is the cartesian product of these alphabets (register-major), which
    is what makes partial transposition along a register cut well defined.
    The matrix owns its entries, read-only (a caller's array is copied), and
    finds their nonzero pattern once; every later check reads that pattern.
    """

    def __init__(self, entries: np.ndarray, register_alphabets, cut: Bipartition | None = None):
        self._admit(np.array(entries, dtype=complex), register_alphabets, cut, None)

    @classmethod
    def _with_pattern(cls, entries: np.ndarray, register_alphabets, cut, pattern) -> "DensityMatrix":
        """Admit ``entries``, taken over as they are, whose nonzero coordinates
        in row-major order are known to be ``pattern``."""
        rho = cls.__new__(cls)
        rho._admit(entries, register_alphabets, cut, pattern)
        return rho

    def _admit(self, entries: np.ndarray, register_alphabets, cut, pattern) -> None:
        alphabets = tuple(tuple(a) for a in register_alphabets)
        dim = math.prod(len(a) for a in alphabets)
        if entries.shape != (dim, dim):
            raise DomainError(
                f"density matrix shape {entries.shape} does not match product basis size {dim}"
            )
        # nan and inf are nonzero, so the pattern holds every non-finite entry
        rows, cols = np.nonzero(entries) if pattern is None else pattern
        if not np.isfinite(entries[rows, cols]).all():
            raise DomainError("density matrix has non-finite entries")
        if _hermiticity_deviation(entries, rows, cols) > HERMITICITY_TOL:
            raise DomainError("density matrix is not Hermitian")
        eigs = _eigvalsh_blocks(entries, rows, cols)
        if eigs.min() < -PPT_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(entries).real - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix trace {np.trace(entries).real:.12g} != 1")
        entries.flags.writeable = False
        self._entries, self._rows, self._cols = entries, rows, cols
        self.register_alphabets = alphabets
        self.basis_labels = list(itertools.product(*alphabets))
        self.cut = cut

    @property
    def entries(self) -> np.ndarray:
        """The admitted matrix, read-only."""
        return self._entries

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
    branches keep it pure. It is the marginal of psi/||psi||, so its trace is 1
    for any admitted norm.

    The product basis has D = prod(alphabet sizes) configurations; a D above
    ``MAX_MARGINAL_DIM`` raises ConfigurationError before anything of size D
    is built.
    """
    require_normalized(vec)
    if cut is not None:
        cut.check(vec.n)
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
    # each term's spin row (one per spin assignment, in order of first sight)
    # and configuration
    spin_rows: dict[tuple[int, ...], int] = {}
    rows, cols = [], []
    for state in vec.terms:
        rows.append(spin_rows.setdefault(tuple(l.spin for l in state.labels), len(spin_rows)))
        cols.append(index[tuple(l.species_id for l in state.labels)])
    order = np.argsort(rows, kind="stable")
    spin, conf = np.array(rows)[order], np.array(cols)[order]
    amps = (_amplitudes(vec) / vec.norm())[order]
    # Every pair (p, q) of terms in one spin row, the rows in order, added on
    # the support configurations in one unbuffered in-order pass: an entry
    # gets the same products in the same order as the dense sum of one outer
    # product per spin row (outside its support an outer product holds only
    # zeros, and adding a zero leaves an entry as it is; no sum here is -0.0).
    counts = np.bincount(spin)  # terms per spin row
    size = counts[spin]  # each term's pairs: one per term of its row
    p = np.repeat(np.arange(spin.size), size)
    # q steps through p's row from the row's first term
    first = np.repeat((np.cumsum(counts) - counts)[spin], size)
    q = first + np.arange(p.size) - np.repeat(np.cumsum(size) - size, size)
    support = np.unique(conf)
    at = np.searchsorted(support, conf)
    m = support.size
    block = np.zeros(m * m, dtype=complex)
    np.add.at(block, at[p] * m + at[q], amps[p] * amps[q].conj())
    # every other entry is zero, so the support block's nonzeros are the
    # pattern, in row-major order since ``support`` ascends
    nonzero = np.flatnonzero(block)
    pattern = support[nonzero // m], support[nonzero % m]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[pattern] = block[nonzero]
    return DensityMatrix._with_pattern(rho, alphabets, cut, pattern)


@dataclass
class PptResult:
    """Outcome of the positive-partial-transpose witness."""

    verdict: str  # "entangled" or "separable-consistent"
    min_eigenvalue: float
    conclusive: bool

    @property
    def entangled(self) -> bool:
        return self.verdict == "entangled"


def _partial_transpose(rho: DensityMatrix, cut: Bipartition):
    """The partial transpose T of ``rho`` on the right side of ``cut``, never
    built: T's nonzero coordinates (rows, cols) and a function ``where``, such
    that T's principal submatrices on the rows of index array ``idx`` (blocks x
    size) are ``rho.entries[where(idx)]``.

    T's rows and columns index configurations with the left registers first.
    It maps (a b, a' b') to (a b', a' b), where an index's part hi is its left
    part a times d_right and lo its right part b, so its pattern is rho's,
    mapped, and its entries are rho's, gathered.
    """
    dims = rho.local_dims()
    d_right = math.prod(dims[i] for i in cut.right)
    # each configuration's index with the left registers first, from the
    # registers' place values in that order
    place, step = [0] * len(dims), 1
    for r in reversed(sorted(cut.left) + sorted(cut.right)):
        place[r], step = step, step * dims[r]
    key = np.zeros(1, dtype=np.intp)
    for r, size in enumerate(dims):
        key = np.add.outer(key, np.arange(0, size * place[r], place[r])).ravel()
    pos = np.argsort(key)  # the configuration at each such index
    hi, lo = np.divmod(np.arange(len(key)), d_right)
    hi *= d_right
    lead, tail = hi[key], lo[key]

    def where(idx):
        at = pos[hi[idx][:, :, None] + lo[idx][:, None, :]]
        return at, at.swapaxes(1, 2)

    rows, cols = rho._rows, rho._cols
    return lead[rows] + tail[cols], lead[cols] + tail[rows], where


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
    cut.check(len(rho.register_alphabets))
    dims = rho.local_dims()
    d_left = math.prod(dims[i] for i in cut.left)
    d_right = math.prod(dims[i] for i in cut.right)
    eigs = _eigvalsh_blocks(rho.entries, *_partial_transpose(rho, cut))
    min_eig = float(eigs.min())
    if min_eig < -PPT_TOL:
        return PptResult("entangled", min_eig, conclusive=True)
    small = min(d_left, d_right) <= 2 and max(d_left, d_right) <= 3
    trivial = min(d_left, d_right) == 1
    return PptResult("separable-consistent", min_eig, conclusive=small or trivial)
