"""The three workloads: seeded inputs, the timed jobs and their output checks.

A workload is a fixed list of job kinds. One pass runs every kind once, in
order, as a closed loop with one client. The workload seed drives
amplitudes, supports and sample seeds only, never sizes, so the work done
per pass does not depend on it.

``entangle_scan`` and ``measure_sample`` draw new inputs for every pass from
(seed, kind, pass), so a cache that lives as long as the process sees each
state once, as a user running one CLI call per process would. Every one of
their outputs gets the full check against the dense oracle in
``tests/helpers.py``. ``basis_build`` repeats the same sectors and builder
seeds every pass on purpose: it is the workload on which repeated inputs
show. Its first output of each kind gets the full check, and every later
output must equal that one exactly, which also holds the program to its
promise of seed-reproducible results.

Every check runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

#: Shots per ``measure_sample`` job.
SHOTS_PER_JOB = 8
ORACLE_RANK_TOL = 1e-12  # on eigenvalues of M M^dagger, relative to the largest
SUM_TOL = 1e-9


@dataclass
class Job:
    """One job kind.

    ``prepare(pass_index)`` makes that pass's input, untimed, and returns
    ``(run, check)``: ``run`` is the timed call; ``check`` is not timed, takes
    its output (None if it raised) and drops it.
    """

    kind: str
    prepare: Callable[[int], tuple[Callable[[], object], Callable[[object], bool]]]
    command: str = ""  # CLI subcommand, empty for direct library calls
    reported_cuts: int = 0  # cuts the CLI entangle report lists


@dataclass
class Workload:
    jobs: list[Job]
    term_counts: dict[str, int] = field(default_factory=dict)


def import_program():
    """Import the package afresh and return its modules; part of the set-up cost."""
    for name in list(sys.modules):
        if name in ("superselect", "helpers") or name.startswith("superselect."):
            del sys.modules[name]
    ss = importlib.import_module("superselect")
    return SimpleNamespace(
        ss=ss,
        cli=importlib.import_module("superselect.cli"),
        scenarios=importlib.import_module("superselect.scenarios"),
        helpers=importlib.import_module("helpers"),
    )


class _Canonical:
    """Full check of the first output, then exact equality with it."""

    def __init__(self, full_check, signature):
        self.full_check = full_check
        self.signature = signature
        self.expected = None
        self.broken = False

    def __call__(self, output) -> bool:
        sig = self.signature(output)
        if self.expected is None and not self.broken:
            if self.full_check(output):
                self.expected = sig
            else:
                self.broken = True
        return not self.broken and sig == self.expected


def _registries(p):
    sc = p.scenarios
    return {
        "ep": sc.electron_positron_registry(1),
        "ep2": sc.electron_positron_registry(2),
        "ep3": sc.electron_positron_registry(3),
        "colour": sc.color_toy_registry(),
    }


class _Sector:
    """One sector's product basis and the fixed support size of its states."""

    def __init__(self, p, registry, n, charge, fraction):
        self.p = p
        self.n = n
        self.basis = p.ss.sector_basis(registry, n, (charge,))
        self.size = max(1, round(fraction * len(self.basis)))

    def random_state(self, rng):
        """Seeded random state on ``size`` of the sector's product states."""
        picks = sorted(rng.choice(len(self.basis), size=self.size, replace=False))
        amps = rng.normal(size=self.size) + 1j * rng.normal(size=self.size)
        amps /= np.linalg.norm(amps)
        return self.p.ss.StateVector({self.basis[i]: a for i, a in zip(picks, amps)})


def _checked(check, cleanup=None):
    """``check`` that fails a missing output and always runs ``cleanup``."""
    def run_check(output) -> bool:
        try:
            return output is not None and check(output)
        finally:
            if cleanup is not None:
                cleanup()

    return run_check


def _run_cli(p, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = p.cli.main(argv)  # looked up at call time, so tracing sees it
    return code, buf.getvalue()


def _strip_timestamp(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.lstrip().startswith('"timestamp"')
    )


def _save_registries(p, registries, workdir):
    paths = {}
    for key, reg in registries.items():
        paths[key] = os.path.join(workdir, f"registry_{key}.json")
        p.ss.save_registry(reg, paths[key])
    return paths


def _kind_rng(seed: int, *keys: int):
    return np.random.default_rng([seed, *keys])


# -- basis_build -------------------------------------------------------------

# (kind, registry, registers, charge, sector dimension)
BASIS_SECTORS = [
    ("ep_n4_q0", "ep", 4, 0, 6),
    ("ep_n5_q1", "ep", 5, 1, 10),
    ("ep2_n3_q1", "ep2", 3, 1, 24),
    ("ep2_n3_qm3", "ep2", 3, -3, 8),
    ("colour_n3_qm1", "colour", 3, -1, 24),
    ("ep3_n2_q0", "ep3", 2, 0, 18),
]


def _basis_full_check(p, registry, n, charge, dim):
    def check(output) -> bool:
        code, text = output
        if code != 0:
            return False
        results = json.loads(text)["results"]
        files = results["vector_files"]
        if results["verify_findings"] or len(files) != dim:
            return False
        vectors = [p.ss.load_state(f, registry=registry) for f in files]
        basis = p.ss.EntangledBasis(
            vectors=vectors, sector=p.ss.SectorIndex((charge,)), n=n
        )
        if p.ss.verify_basis(basis, registry):
            return False
        return all(p.helpers.oracle_packaged_entangled(v) for v in vectors)

    return check


def build_basis_build(p, seed: int, workdir: str) -> Workload:
    registries = _registries(p)
    reg_paths = _save_registries(p, registries, workdir)
    jobs = []
    for index, (kind, key, n, charge, dim) in enumerate(BASIS_SECTORS):
        builder_seed = int(_kind_rng(seed, index).integers(2**31))
        out = os.path.join(workdir, kind)
        argv = [
            "--json", "--seed", str(builder_seed), "basis",
            "--registry", reg_paths[key], "--registers", str(n),
            f"--charge={charge}", "--out", out,
        ]

        def signature(output, out=out):
            code, text = output
            files = sorted(os.listdir(out))
            blobs = []
            for name in files:
                with open(os.path.join(out, name), "rb") as fh:
                    blobs.append(fh.read())
            return code, _strip_timestamp(text), tuple(files), tuple(blobs)

        def run(argv=argv):
            return _run_cli(p, argv)

        check = _checked(
            _Canonical(_basis_full_check(p, registries[key], n, charge, dim), signature),
            cleanup=lambda out=out: shutil.rmtree(out, ignore_errors=True),
        )
        # the same input every pass: this workload is where repetition shows
        jobs.append(Job(kind=kind, prepare=lambda _, r=run, c=check: (r, c), command="basis"))
    return Workload(jobs)


# -- entangle_scan -----------------------------------------------------------

# (kind, registry, registers, charge, support share)
ENTANGLE_STATES = [
    ("ep_n6_q0", "ep", 6, 0, 1.0),
    ("ep_n6_q2_60", "ep", 6, 2, 0.6),
    ("ep2_n4_q0_50", "ep2", 4, 0, 0.5),
    ("colour_n4_q0_50", "colour", 4, 0, 0.5),
    ("ep2_n3_q1", "ep2", 3, 1, 1.0),
]
# internal_charge_marginal + ppt_check at cut {0,1}|rest
MARGINAL_STATES = [
    ("marginal_colour_n4_q0_50", "colour", 4, 0, 0.5),
    ("marginal_ep2_n5_q1_50", "ep2", 5, 1, 0.5),
]
#: Support sizes the states above must have whatever the seed.
ENTANGLE_TERM_COUNTS = {
    "ep_n6_q0": 20, "ep_n6_q2_60": 9, "ep2_n4_q0_50": 48, "colour_n4_q0_50": 48,
    "ep2_n3_q1": 24, "marginal_colour_n4_q0_50": 48, "marginal_ep2_n5_q1_50": 160,
}


def _canonical_cuts(n: int):
    """Left sides of every cut up to complement, each containing register 0."""
    rest = range(1, n)
    return [[0, *extra] for r in range(n - 1) for extra in itertools.combinations(rest, r)]


def _cut_label(left, n: int) -> str:
    right = [r for r in range(n) if r not in left]
    return "{" + ",".join(map(str, left)) + "}|{" + ",".join(map(str, right)) + "}"


def _oracle_rank(tensor, left) -> int:
    right = [r for r in range(tensor.ndim) if r not in left]
    mat = np.transpose(tensor, left + right).reshape(
        int(np.prod([tensor.shape[r] for r in left])), -1
    )
    eigs = np.linalg.eigvalsh(mat @ mat.conj().T)
    return int(np.sum(eigs > ORACLE_RANK_TOL * eigs[-1]))


def _entangle_full_check(p, state):
    def check(output) -> bool:
        code, text = output
        if code != 0:
            return False
        results = json.loads(text)["results"]
        tensor = p.helpers.dense_tensor(state)
        expected = {
            _cut_label(left, state.n): _oracle_rank(tensor, left)
            for left in _canonical_cuts(state.n)
        }
        reported = {c["cut"]: c for c in results["cuts"]}
        if set(reported) != set(expected) or len(results["cuts"]) != len(expected):
            return False
        for label, rank in expected.items():
            cut = reported[label]
            if cut["rank"] != rank:
                return False
            if abs(sum(v * v for v in cut["singular_values"]) - 1.0) > SUM_TOL:
                return False
        for key in ("packaged_entangled", "entangled_somewhere"):
            ranks = {
                _cut_label([int(r) for r in left.split(",")], state.n): rank
                for left, rank in results[key]["cut_ranks"].items()
            }
            if ranks != expected:
                return False
        strong = results["packaged_entangled"]["entangled"]
        weak = results["entangled_somewhere"]["entangled"]
        return (
            strong == p.helpers.oracle_packaged_entangled(state)
            and weak == p.helpers.oracle_entangled_somewhere(state)
        )

    return check


def _oracle_marginal(state):
    """Spin-traced density matrix on the support's species alphabets."""
    n = state.n
    alphabets = [sorted({b.labels[r].species_id for b in state.terms}) for r in range(n)]
    index = {c: i for i, c in enumerate(itertools.product(*alphabets))}
    rows: dict[tuple, np.ndarray] = {}
    for basis_state, amp in state.terms.items():
        spins = tuple(l.spin for l in basis_state.labels)
        row = rows.setdefault(spins, np.zeros(len(index), dtype=complex))
        row[index[tuple(l.species_id for l in basis_state.labels)]] += amp
    rho = sum(np.outer(row, row.conj()) for row in rows.values())
    return rho, [len(a) for a in alphabets]


def _marginal_full_check(p, state):
    def check(output) -> bool:
        rho, ppt = output
        expected, dims = _oracle_marginal(state)
        if np.max(np.abs(rho.entries - expected)) > 1e-12:
            return False
        d_left = dims[0] * dims[1]
        d_right = int(np.prod(dims[2:]))
        block = expected.reshape(d_left, d_right, d_left, d_right)
        pt = block.transpose(0, 3, 2, 1).reshape(d_left * d_right, -1)
        min_eig = float(np.linalg.eigvalsh(pt).min())
        return ppt.entangled == (min_eig < -1e-10) and abs(ppt.min_eigenvalue - min_eig) < 1e-9

    return check


def build_entangle_scan(p, seed: int, workdir: str) -> Workload:
    registries = _registries(p)
    reg_paths = _save_registries(p, registries, workdir)
    jobs, term_counts = [], {}
    for index, (kind, key, n, charge, share) in enumerate(ENTANGLE_STATES):
        sector = _Sector(p, registries[key], n, charge, share)
        term_counts[kind] = sector.size

        def prepare(pass_index, index=index, kind=kind, key=key, sector=sector):
            state = sector.random_state(_kind_rng(seed, index, pass_index))
            path = os.path.join(workdir, f"state_{kind}_{pass_index}.json")
            p.ss.save_state(state, path)
            argv = ["--json", "entangle", "--registry", reg_paths[key], "--state", path]
            return (
                lambda: _run_cli(p, argv),
                _checked(_entangle_full_check(p, state), cleanup=lambda: os.remove(path)),
            )

        jobs.append(Job(kind=kind, prepare=prepare, command="entangle",
                        reported_cuts=2 ** (n - 1) - 1))
    offset = len(ENTANGLE_STATES)
    for index, (kind, key, n, charge, share) in enumerate(MARGINAL_STATES, offset):
        registry = registries[key]
        sector = _Sector(p, registry, n, charge, share)
        term_counts[kind] = sector.size
        cut = p.ss.Bipartition.from_left({0, 1}, n)

        def prepare(pass_index, index=index, registry=registry, sector=sector, cut=cut):
            state = sector.random_state(_kind_rng(seed, index, pass_index))

            def run():
                rho = p.ss.internal_charge_marginal(registry, state, cut)
                return rho, p.ss.ppt_check(rho)

            return run, _checked(_marginal_full_check(p, state))

        jobs.append(Job(kind=kind, prepare=prepare))
    return Workload(jobs, term_counts)


# -- measure_sample ----------------------------------------------------------

# (kind, registry, registers, charge, support share, measured register)
MEASURE_STATES = [
    ("ep2_n4_q0_r0", "ep2", 4, 0, 1.0, 0),
    ("colour_n4_q0_70_r2", "colour", 4, 0, 0.7, 2),
    ("ep3_n3_q1_50_r1", "ep3", 3, 1, 0.5, 1),
    ("ep2_n3_qm1_r2", "ep2", 3, -1, 1.0, 2),
]


def _measure_full_check(p, registry, state, obs, seeds):
    def check(records) -> bool:
        sector = p.ss.validate_superselection(registry, state)
        dist = {r.outcome: r.probability for r in p.ss.measure_spin(registry, state, obs)}
        if abs(sum(dist.values()) - 1.0) > SUM_TOL or len(records) != len(seeds):
            return False
        for seed, rec in zip(seeds, records):
            again = p.ss.sample_measurement(registry, state, obs, seed)
            if (again.outcome, again.post_state) != (rec.outcome, rec.post_state):
                return False
            if rec.outcome not in dist or abs(rec.probability - dist[rec.outcome]) > SUM_TOL:
                return False
            if p.ss.validate_superselection(registry, rec.post_state) != sector:
                return False
            if abs(rec.post_state.norm() - 1.0) > SUM_TOL:
                return False
        return True

    return check


def build_measure_sample(p, seed: int, workdir: str) -> Workload:
    registries = _registries(p)
    jobs, term_counts = [], {}
    for index, (kind, key, n, charge, share, register) in enumerate(MEASURE_STATES):
        registry = registries[key]
        sector = _Sector(p, registry, n, charge, share)
        term_counts[kind] = sector.size
        obs = p.ss.spin_z_observable(registry, register)

        def prepare(pass_index, index=index, registry=registry, sector=sector, obs=obs):
            rng = _kind_rng(seed, index, pass_index)
            state = sector.random_state(rng)
            seeds = [int(s) for s in rng.integers(2**31, size=SHOTS_PER_JOB)]
            return (
                lambda: [p.ss.sample_measurement(registry, state, obs, s) for s in seeds],
                _checked(_measure_full_check(p, registry, state, obs, seeds)),
            )

        jobs.append(Job(kind=kind, prepare=prepare))
    return Workload(jobs, term_counts)


BUILDERS = {
    "basis_build": build_basis_build,
    "entangle_scan": build_entangle_scan,
    "measure_sample": build_measure_sample,
}


def set_up(name: str, seed: int, workdir: str):
    """Everything ``setup_s`` times: import, registries, seeded inputs, input files."""
    os.makedirs(workdir, exist_ok=True)
    program = import_program()
    return program, BUILDERS[name](program, seed, workdir)
