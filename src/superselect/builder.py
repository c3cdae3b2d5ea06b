"""Constructs complete orthonormal charge-sector bases of packaged entangled states.

The build has four steps:

1. Seed. Pair product basis state b_k with its mirror b_{d-1-k} in the
   deterministic sector order, as (b_k +- b_{d-1-k})/sqrt(2); for odd d the
   middle state stays alone. In canonical order the mirror of a state is
   often its register-wise complement, and two product states that differ at
   every register are entangled on every cut. The seeds are orthonormal by
   construction.
2. Check the seed columns against the every-cut entanglement predicate, all
   at once, through one index plan of the sector. ``every_cut_entangled``
   decides a two-term seed by comparing its two code rows and the ratio of
   its amplitudes, and a column of 3 to 64 terms by a 2 x 2-minor
   certificate, without an SVD; only what these leave costs one batched SVD
   per cut over the columns that have not yet failed.
3. Mix. Widen the failing columns by whole passing seed pairs, lowest index
   first, until their support passes the structural test of
   ``_admits_entangled``, then multiply them by one seeded Haar-random
   unitary (F. Mezzadri, "How to generate random matrices from the classical
   compact groups", Notices AMS 54 (2007) 592). Mixing inside an orthonormal
   set keeps orthonormality and span exactly, so only the mixed columns are
   rechecked; a failed mix is redrawn up to ``MAX_MIX_ATTEMPTS`` times, and
   if every draw fails the build raises SimulatorError naming the columns.
4. Record one diagnostics entry per vector, listing every mix it took part in.

A whole sector is closed under register permutation, so it fails the
structural test exactly when it has dimension 1 or single-register states.
It then holds no entangled vector and comes back flagged degenerate with its
seed vectors, instead of erroring. ``degenerate`` means exactly this: no
entangled vector can exist, never that the mixing gave up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charges import SpeciesRegistry
from .entangle import CutPlan, every_cut_entangled
from .errors import DomainError, SimulatorError
from .fock import BasisState, SectorIndex, sector_basis
from .states import StateVector, coordinate_matrix

ORTHO_TOL = 1e-9
SPAN_TOL = 1e-8
#: Haar mixes drawn for the failing group before the build raises SimulatorError.
MAX_MIX_ATTEMPTS = 64


@dataclass
class EntangledBasis:
    """Output of the builder: sector-spanning orthonormal vectors plus diagnostics."""

    vectors: list[StateVector]
    sector: SectorIndex
    n: int
    diagnostics: list[dict] = field(default_factory=list)
    degenerate: bool = False
    separable_indices: list[int] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _admits_entangled(codes: np.ndarray) -> bool:
    """Whether the span of these product states, given as rows of a plan's
    per-register label codes, holds a vector entangled on every cut.

    It does not iff n == 1 or some cut has one side's configuration fixed
    across the set, that is, some register holds one label throughout: every
    vector of the span factorizes across such a cut. Otherwise both sides vary
    on every cut, so a generic vector of the span has rank >= 2 on each.
    """
    return codes.shape[1] > 1 and bool(np.all(codes.min(axis=0) < codes.max(axis=0)))


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary: QR of a complex Ginibre matrix, with the
    phases of R's diagonal divided out (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def build_packaged_entangled_basis(
    registry: SpeciesRegistry,
    n: int,
    sector,
    seed: int = 0,
) -> EntangledBasis:
    """Build an orthonormal basis of the (n, sector) subspace, every vector entangled.

    ``seed`` seeds the Haar mixes. Raises DomainError on an empty sector, and
    SimulatorError when all ``MAX_MIX_ATTEMPTS`` mixes fail. Returns a
    degenerate-flagged basis (with the separable vectors identified) exactly
    when the sector admits no entangled vector.
    """
    product_basis = sector_basis(registry, n, sector)
    if not product_basis:
        raise DomainError(f"sector {sector} is empty for n={n}")
    if not isinstance(sector, SectorIndex):
        sector = SectorIndex(tuple(sector))
    d = len(product_basis)

    # seed pair k sits in columns 2k, 2k+1; the odd leftover in column d-1
    cols = np.zeros((d, d), dtype=complex)
    root_half = 1.0 / math.sqrt(2.0)
    pair = np.arange(d // 2)
    cols[pair, 2 * pair] = root_half
    cols[d - 1 - pair, 2 * pair] = root_half
    cols[pair, 2 * pair + 1] = root_half
    cols[d - 1 - pair, 2 * pair + 1] = -root_half
    seed_kind = ["pair_plus", "pair_minus"] * (d // 2)
    if d % 2:
        cols[d // 2, d - 1] = 1.0
        seed_kind.append("leftover")

    # one index plan for the sector; every check below shares it
    plan = CutPlan(product_basis, n)
    status = every_cut_entangled(plan, cols)
    logs: list[list[dict]] = [[] for _ in range(d)]
    # both columns of a seed pair share one two-term support, so they pass or
    # fail together: the group is a union of whole pairs and the leftover
    group = [k for k in range(d) if not status[k]]
    if group and _admits_entangled(plan.codes):
        passing_pairs = (k for k in range(0, d - 1, 2) if status[k])
        # ends by the time every pair is in: the whole sector admits
        while not _admits_entangled(plan.codes[np.any(cols[:, group] != 0, axis=1)]):
            k = next(passing_pairs)
            group += [k, k + 1]
        group.sort()
        rng = np.random.default_rng(seed)
        for attempt in range(MAX_MIX_ATTEMPTS):
            mixed = cols[:, group] @ _haar_unitary(len(group), rng)
            accepted = all(every_cut_entangled(plan, mixed))
            for k in group:
                logs[k].append({"attempt": attempt, "columns": group, "accepted": accepted})
            if accepted:
                cols[:, group] = mixed
                for k in group:
                    status[k] = True
                break
        else:
            raise SimulatorError(
                f"sector {sector} at n={n}: no Haar mix of columns {group} is entangled "
                f"on every cut in {MAX_MIX_ATTEMPTS} draws"
            )

    separable = [k for k in range(d) if not status[k]]
    diagnostics = [
        {"index": k, "seed": seed_kind[k], "entangled": status[k], "repairs": logs[k]}
        for k in range(d)
    ]
    # one scan of the nonzero coordinates, column by column, in row order
    ks, rows = np.nonzero(cols.T)
    amps = cols.T[ks, rows].tolist()
    states = [product_basis[i] for i in rows.tolist()]
    ends = np.cumsum(np.bincount(ks, minlength=d)).tolist()
    vectors = [
        StateVector._from_pairs(zip(states[start:end], amps[start:end]), product_basis[0].n)
        for start, end in zip([0] + ends, ends)
    ]
    return EntangledBasis(
        vectors=vectors,
        sector=sector,
        n=n,
        diagnostics=diagnostics,
        degenerate=bool(separable),
        separable_indices=separable,
    )


def _deviations(basis: EntangledBasis, product_basis: list[BasisState]):
    """The vectors' sector coordinates as columns, their Gram matrix minus identity,
    and the Frobenius deviation of their span projector from the sector projector.

    VV^dagger is d x d whatever the vector count, so span deficiency is
    visible even when vectors are missing (projector rank < d), down to no
    vectors at all: a (d, 0) matrix.
    """
    mat = coordinate_matrix(basis.vectors, product_basis)
    gram_dev = mat.conj().T @ mat - np.eye(basis.dimension)
    span_dev = float(np.linalg.norm(mat @ mat.conj().T - np.eye(len(product_basis))))
    return mat, gram_dev, span_dev


def check_basis(
    basis: EntangledBasis, registry: SpeciesRegistry
) -> tuple[list[str], dict | None]:
    """Independent recheck of every EntangledBasis invariant, and the report metrics.

    Returns the findings (empty iff every invariant holds) and the metrics:
    dimension, Gram and span deviations, entangled count, degenerate flag and
    separable indices. The metrics are None when the vectors are not
    expressible in the sector. The sector is enumerated afresh; coordinates in
    it prove membership and the Gram diagonal checks norms, so one every-cut
    check over its index plan gives the entanglement verdicts (a zero vector
    is not entangled).
    """
    findings: list[str] = []
    product_basis = sector_basis(registry, basis.n, basis.sector)
    d = len(product_basis)
    if basis.dimension != d:
        findings.append(f"vector count {basis.dimension} != sector dimension {d}")

    try:
        mat, gram_dev, span_dev = _deviations(basis, product_basis)
    except DomainError as exc:  # support outside the sector
        findings.append(f"vectors are not expressible in the sector basis: {exc}")
        return findings, None

    norm_dev = float(np.max(np.abs(np.diag(gram_dev)))) if basis.dimension else 0.0
    cross = gram_dev - np.diag(np.diag(gram_dev))
    cross_dev = float(np.max(np.abs(cross))) if basis.dimension else 0.0
    if norm_dev > ORTHO_TOL:
        findings.append(f"norm deviation {norm_dev:.3e} exceeds {ORTHO_TOL}")
    if cross_dev > ORTHO_TOL:
        findings.append(f"orthogonality deviation {cross_dev:.3e} exceeds {ORTHO_TOL}")
    if span_dev > SPAN_TOL:
        findings.append(
            f"span projector deviates from sector projector by {span_dev:.3e} (Frobenius)"
        )

    verdicts = every_cut_entangled(CutPlan(product_basis, basis.n), mat)
    for k, entangled in enumerate(verdicts):
        if not entangled and k not in basis.separable_indices:
            findings.append(f"vector {k} fails the entanglement predicate but is not flagged")
    if basis.separable_indices and not basis.degenerate:
        findings.append("separable vectors present but degenerate flag not set")

    metrics = {
        "dimension": d,
        "max_gram_deviation": float(np.max(np.abs(gram_dev), initial=0.0)),
        "span_frobenius_deviation": span_dev if basis.dimension == d else None,
        "entangled_count": sum(
            1 for k in range(basis.dimension) if k not in basis.separable_indices
        ),
        "degenerate": basis.degenerate,
        "separable_indices": list(basis.separable_indices),
    }
    return findings, metrics


def verify_basis(basis: EntangledBasis, registry: SpeciesRegistry) -> list[str]:
    """The findings of ``check_basis``: empty list iff every invariant holds."""
    return check_basis(basis, registry)[0]
