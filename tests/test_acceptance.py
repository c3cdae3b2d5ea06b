"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import json
import math
import time

import numpy as np

from superselect.builder import build_packaged_entangled_basis
from superselect.charges import save_registry
from superselect.cli import main as cli_main
from superselect.entangle import (
    Bipartition,
    all_bipartitions,
    entanglement_entropy,
    internal_charge_marginal,
    is_packaged_entangled,
    ppt_check,
    schmidt,
)
from superselect.fock import BasisState, RegisterLabel, SectorIndex, attained_sectors, sector_basis
from superselect.measure import measure_spin, sample_measurement, spin_z_observable
from superselect.scenarios import (
    build_scenario,
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.states import (
    apply_u1_gauge,
    coordinates,
    inner_product,
    load_state,
    max_term_deviation,
    save_state,
    sector_decompose,
    superpose,
    validate_superselection,
)

from helpers import (
    dyon_registry,
    oracle_packaged_entangled,
    random_single_sector_state,
    two_family_registry,
)


def _report(number: int, name: str, passed: bool = True) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}")


def B(*labels):
    return BasisState(tuple(RegisterLabel(sid, spin) for sid, spin in labels))


def test_criterion_1_bell_pair_reproduction(capsys):
    started = time.time()
    assert cli_main(["demo", "bell_plus"]) == 0
    assert cli_main(["demo", "bell_minus"]) == 0
    capsys.readouterr()  # drop the demo output from the terminal

    reg, plus, _ = build_scenario("bell_plus")
    _, minus, _ = build_scenario("bell_minus")
    assert abs(inner_product(plus, minus)) <= 1e-9
    assert abs(inner_product(plus, plus) - 1.0) <= 1e-9
    cut = Bipartition.from_left({0}, 2)
    root_half = 1.0 / math.sqrt(2.0)
    for state in (plus, minus):
        values = schmidt(state, cut).singular_values
        assert np.max(np.abs(values - np.array([root_half, root_half]))) <= 1e-9
        assert abs(entanglement_entropy(state, cut) - math.log(2)) <= 1e-9

    from superselect.states import charge_conjugate

    assert max_term_deviation(charge_conjugate(reg, plus), plus) <= 1e-12
    assert max_term_deviation(
        charge_conjugate(reg, minus), superpose([(-1.0, minus)])
    ) <= 1e-12
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "Bell-pair reproduction")


def test_criterion_2_superselection_enforcement(tmp_path, capsys):
    started = time.time()
    save_registry(electron_positron_registry(1), str(tmp_path / "ep.json"))
    save_registry(neutral_kaon_registry(), str(tmp_path / "kaon.json"))
    _, forbidden, _ = build_scenario("forbidden_pm2e")
    save_state(forbidden, str(tmp_path / "forbidden.json"))
    _, meson, _ = build_scenario("meson_superposition")
    save_state(meson, str(tmp_path / "meson.json"))

    code = cli_main([
        "--json", "validate",
        "--registry", str(tmp_path / "ep.json"),
        "--state", str(tmp_path / "forbidden.json"),
    ])
    out = capsys.readouterr().out
    assert code == 2
    sectors = json.loads(out)["results"]["sectors"]
    assert set(sectors) == {"(-2)", "(2)"}

    code = cli_main([
        "--json", "validate",
        "--registry", str(tmp_path / "kaon.json"),
        "--state", str(tmp_path / "meson.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"]["sector"] == "(0)"
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, "Superselection enforcement")


def test_criterion_3_gauge_covariance():
    rng = np.random.default_rng(2024)
    registries = [
        electron_positron_registry(1),
        electron_positron_registry(2),
        neutral_kaon_registry(),
        color_toy_registry(),
        two_family_registry(),
        dyon_registry(),
    ]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=20)
    checked = 0
    for _ in range(500):
        reg = registries[rng.integers(len(registries))]
        n = int(rng.integers(1, 5))
        vec = random_single_sector_state(rng, reg, n)
        sector = validate_superselection(reg, vec)
        assert isinstance(sector, SectorIndex)
        weights_before = sector_decompose(reg, vec).weights()
        gauged = reg.gauged_indices()
        comp_slot = int(rng.integers(len(gauged)))
        name = reg.charge_specs[gauged[comp_slot]].name
        charge = sector.gauged_charges[comp_slot]
        for theta in angles:
            out = apply_u1_gauge(reg, vec, name, float(theta))
            phase = np.exp(1j * charge * theta)
            assert max_term_deviation(out, superpose([(phase, vec)])) <= 1e-12
            weights_after = sector_decompose(reg, out).weights()
            assert set(weights_after) == set(weights_before)
            for q, w in weights_before.items():
                assert abs(weights_after[q] - w) <= 1e-12
        checked += 1
    assert checked >= 500
    _report(3, "Gauge covariance")


def test_criterion_4_entangled_basis_at_desk_scale():
    started = time.time()
    reg = electron_positron_registry(1)
    built = degenerate_single = 0
    for n in range(2, 7):
        for sector in attained_sectors(reg, n):
            dim = len(sector_basis(reg, n, sector))
            basis = build_packaged_entangled_basis(reg, n, sector)
            product_basis = sector_basis(reg, n, sector)
            mat = np.column_stack([coordinates(v, product_basis) for v in basis.vectors])
            if dim == 1:
                assert basis.degenerate, f"n={n} {sector}: d=1 sector must be flagged"
                degenerate_single += 1
                continue
            assert not basis.degenerate, f"n={n} {sector}: unexpected degenerate flag"
            assert basis.separable_indices == []
            gram = mat.conj().T @ mat
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9, f"n={n} {sector}: Gram"
            span = mat @ mat.conj().T
            assert np.linalg.norm(span - np.eye(dim)) <= 1e-8, f"n={n} {sector}: span"
            for vec in basis.vectors:
                assert is_packaged_entangled(reg, vec).entangled
            built += dim
    elapsed = time.time() - started
    assert degenerate_single == 10  # two single-product sectors per n
    assert built == 114  # sum of C(n,k) over 0<k<n for n=2..6
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"Entangled sector bases for n=2..6 ({elapsed:.1f}s)")


def test_criterion_5_entanglement_oracle_equivalence():
    rng = np.random.default_rng(777)
    registries = [
        electron_positron_registry(1),   # local dimension 2
        electron_positron_registry(2),   # local dimension 4
        neutral_kaon_registry(),         # local dimension 2
        two_family_registry(),           # local dimension 4
    ]
    disagreements = 0
    for trial in range(1000):
        reg = registries[trial % len(registries)]
        n = int(rng.integers(2, 4))
        vec = random_single_sector_state(rng, reg, n)
        mine = is_packaged_entangled(reg, vec).entangled
        oracle = oracle_packaged_entangled(vec)
        if mine != oracle:
            disagreements += 1
    assert disagreements == 0
    _report(5, "Entanglement predicate matches brute-force oracle (1000 states)")


def test_criterion_6_measurement_collapse():
    rng = np.random.default_rng(99)
    reg = electron_positron_registry(2)
    obs = spin_z_observable(reg, 0)
    for _ in range(50):
        t = float(rng.uniform(0.15, math.pi / 2 - 0.15))
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        alpha = math.cos(t) * phases[0]
        beta = math.sin(t) * phases[1]
        state = superpose([
            (alpha, _hybrid_branch("e-", 0, "e+", 1)),
            (beta, _hybrid_branch("e+", 1, "e-", 0)),
        ])
        records = measure_spin(reg, state, obs)
        assert [r.outcome for r in records] == [0, 1]
        assert abs(records[0].probability - abs(alpha) ** 2) <= 1e-12
        assert abs(records[1].probability - abs(beta) ** 2) <= 1e-12
        for record in records:
            for cut in all_bipartitions(2):
                assert schmidt(record.post_state, cut).rank == 1
            assert validate_superselection(reg, record.post_state) == SectorIndex((0,))

    alpha, beta = math.sqrt(1 / 3), math.sqrt(2 / 3)
    state = superpose([
        (alpha, _hybrid_branch("e-", 0, "e+", 1)),
        (beta, _hybrid_branch("e+", 1, "e-", 0)),
    ])
    trials = 100_000
    hits = sum(
        1 for seed in range(trials)
        if sample_measurement(reg, state, obs, seed).outcome == 0
    )
    p = alpha**2
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma, f"{hits} hits vs expected {trials * p:.0f}"
    _report(6, "Measurement collapse and Born statistics")


def _hybrid_branch(s1, q1, s2, q2):
    from superselect.states import StateVector

    return StateVector({B((s1, q1), (s2, q2)): 1.0})


def test_criterion_7_internal_marginal_distinction():
    reg = electron_positron_registry(2)
    cut = Bipartition.from_left({0}, 2)
    rng = np.random.default_rng(55)
    for _ in range(20):
        t = float(rng.uniform(0.15, math.pi / 2 - 0.15))
        alpha, beta = math.cos(t), math.sin(t)
        anti = superpose([
            (alpha, _hybrid_branch("e-", 0, "e+", 1)),
            (beta, _hybrid_branch("e+", 1, "e-", 0)),
        ])
        verdict = ppt_check(internal_charge_marginal(reg, anti, cut))
        assert verdict.verdict == "separable-consistent" and verdict.conclusive

        equal = superpose([
            (alpha, _hybrid_branch("e-", 0, "e+", 0)),
            (beta, _hybrid_branch("e+", 0, "e-", 0)),
        ])
        verdict = ppt_check(internal_charge_marginal(reg, equal, cut))
        assert verdict.entangled
        assert verdict.min_eigenvalue <= -abs(alpha * beta) + 1e-9

    root_half = 1.0 / math.sqrt(2.0)
    symmetric = superpose([
        (root_half, _hybrid_branch("e-", 0, "e+", 0)),
        (root_half, _hybrid_branch("e+", 0, "e-", 0)),
    ])
    verdict = ppt_check(internal_charge_marginal(reg, symmetric, cut))
    assert abs(verdict.min_eigenvalue - (-0.5)) <= 1e-9
    _report(7, "Internal-marginal separability distinction")


def test_criterion_8_round_trip_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(31337)
    reg = electron_positron_registry(2)
    for k in range(10):
        vec = random_single_sector_state(rng, reg, 3)
        path = tmp_path / f"state_{k}.json"
        save_state(vec, str(path))
        assert load_state(str(path), registry=reg) == vec  # exact amplitudes

    one = build_packaged_entangled_basis(reg, 2, (0,), seed=12)
    two = build_packaged_entangled_basis(reg, 2, (0,), seed=12)
    assert all(a == b for a, b in zip(one.vectors, two.vectors))

    save_registry(electron_positron_registry(1), str(tmp_path / "ep.json"))
    argv = [
        "--json", "--seed", "12", "basis",
        "--registry", str(tmp_path / "ep.json"),
        "--registers", "4", "--charge", "0",
        "--out", str(tmp_path / "basis_run"),
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )
    assert strip(first) == strip(second)
    _report(8, "Round-trip and seeded determinism")
