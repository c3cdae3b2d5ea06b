"""Command-line behavior: subcommands, exit codes, report reproducibility."""

import builtins
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import superselect.builder as builder_module
import superselect.cli as cli_module
import superselect.entangle as entangle_module
import superselect.fock as fock
from superselect.builder import EntangledBasis
from superselect.charges import save_registry
from superselect.cli import main
from superselect.entangle import (
    Bipartition,
    all_bipartitions,
    entanglement_entropy,
    is_entangled_somewhere,
    is_packaged_entangled,
    schmidt,
)
from superselect.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    electron_positron_registry,
    neutral_kaon_registry,
)
from superselect.errors import DomainError, SuperselectionError
from superselect.fock import BasisState, RegisterLabel, SectorIndex, enumerate_basis
from superselect.states import (
    PRUNE_TOL,
    StateVector,
    inner_product,
    load_state,
    require_normalized,
    require_single_sector,
    save_state,
    state_to_dict,
)

from helpers import (
    dyon_registry,
    escaped_id_registry,
    huge_multiplicity_registry,
    mixed_spin_registry,
    random_sector_superposition,
    two_family_registry,
)


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("SUPERSELECT_NO_COLOR", "1")


@pytest.fixture
def workdir(tmp_path):
    save_registry(electron_positron_registry(1), str(tmp_path / "ep.json"))
    save_registry(neutral_kaon_registry(), str(tmp_path / "kaon.json"))
    for name in ("bell_plus", "forbidden_pm2e"):
        _, state, _ = build_scenario(name)
        save_state(state, str(tmp_path / f"{name}.json"))
    _, meson, _ = build_scenario("meson_superposition")
    save_state(meson, str(tmp_path / "meson.json"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    # json.loads reads Infinity and NaN, which strict parsers refuse
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_demo_bell_plus(capsys):
    code, out, _ = run(capsys, "demo", "bell_plus")
    assert code == 0
    assert "entropy_first_cut" in out and "0.693147" in out
    assert "verified: True" in out


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_demo_verifies(capsys, name):
    code, out, err = run(capsys, "--json", "demo", name)
    report = strict_json(out)
    assert code == 0 and err == ""
    assert report["results"]["verified"] is True
    assert all(row["ok"] for row in report["results"]["verification"])


@pytest.mark.parametrize("name", ["hybrid_pair", "meson_superposition"])
def test_demo_refuses_amplitudes_whose_squares_overflow(capsys, name):
    # NaN amplitudes fail the same check, since no comparison with NaN is true
    for value, total in (("1e308", "inf"), ("nan", "nan")):
        code, out, err = run(capsys, "demo", name, "--alpha", value, "--beta", value)
        assert code == 1 and out == ""
        assert err == f"superselect: error: |alpha|^2 + |beta|^2 = {total}, expected 1\n"


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n not in ("hybrid_pair", "meson_superposition")])
def test_demo_refuses_amplitudes_on_a_scenario_that_takes_none(capsys, name):
    for flags in (("--alpha", "nan", "--beta", "1"), ("--alpha", "inf", "--beta", "1"),
                  ("--alpha", "1", "--beta", "1e400"), ("--alpha", "0.6", "--beta", "0.8"),
                  ("--beta", "1")):
        code, out, err = run(capsys, "demo", name, *flags)
        assert code == 1 and out == ""
        assert err == (
            f"superselect: error: scenario {name} takes no alpha or beta (--alpha/--beta); "
            "only hybrid_pair and meson_superposition do\n"
        )


def test_module_entry_point_exits_with_the_command_status(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    ok = subprocess.run([sys.executable, "-m", "superselect.cli", "demo", "bell_plus"],
                        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert ok.returncode == 0 and "status: OK (exit 0)" in ok.stdout
    missing = subprocess.run([sys.executable, "-m", "superselect.cli", "validate",
                              "--registry", "nope.json", "--state", "nope.json"],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
    assert missing.returncode == 1 and missing.stdout == ""
    assert missing.stderr.startswith("superselect: error:") and missing.stderr.count("\n") == 1


def test_demo_json_report_structure(capsys):
    code, out, _ = run(capsys, "--json", "demo", "bell_minus")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verified"] is True
    assert report["command"][:2] == ["superselect", "--json"]
    assert report["seed"] == 0
    assert "timestamp" in report


def test_validate_accepts_single_sector(capsys, workdir):
    code, out, _ = run(
        capsys, "validate",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
    )
    assert code == 0
    assert "single-sector" in out and "(0)" in out


def test_validate_rejects_cross_sector_with_exit_2(capsys, workdir):
    code, out, _ = run(
        capsys, "--json", "validate",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "forbidden_pm2e.json"),
    )
    assert code == 2
    sectors = json.loads(out)["results"]["sectors"]
    assert set(sectors) == {"(-2)", "(2)"}
    assert sectors["(-2)"] == pytest.approx(0.5, abs=1e-12)
    assert sectors["(2)"] == pytest.approx(0.5, abs=1e-12)


def test_validate_json_spells_an_overflowed_weight_inf(capsys, workdir):
    huge = {"re": 1e308, "im": 1e308}
    path = workdir / "huge_cross.json"
    path.write_text(json.dumps({"n": 2, "terms": [
        {"labels": [{"species": "e-", "spin": 0}, {"species": "e+", "spin": 0}], **huge},
        {"labels": [{"species": "e-", "spin": 0}, {"species": "e-", "spin": 0}], **huge},
    ]}))
    argv = ("validate", "--registry", str(workdir / "ep.json"), "--state", str(path))
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 2
    assert strict_json(out)["results"]["sectors"] == {"(-2)": "inf", "(0)": "inf"}
    code, out, _ = run(capsys, *argv)
    assert code == 2 and "    (-2): inf\n    (0): inf\n" in out


def test_validate_accepts_meson_flavor_superposition(capsys, workdir):
    code, out, _ = run(
        capsys, "validate",
        "--registry", str(workdir / "kaon.json"),
        "--state", str(workdir / "meson.json"),
    )
    assert code == 0 and "(0)" in out


def test_basis_writes_bell_pair_files(capsys, workdir):
    outdir = workdir / "basis"
    code, out, _ = run(
        capsys, "basis",
        "--registry", str(workdir / "ep.json"),
        "--registers", "2", "--charge", "0",
        "--out", str(outdir),
    )
    assert code == 0
    reg = electron_positron_registry(1)
    vectors = [
        load_state(str(outdir / f"basis_{k:03d}.json"), registry=reg) for k in range(2)
    ]
    _, plus, _ = build_scenario("bell_plus")
    _, minus, _ = build_scenario("bell_minus")
    for vec in vectors:
        best = max(abs(inner_product(vec, plus)), abs(inner_product(vec, minus)))
        assert best == pytest.approx(1.0, abs=1e-9)
    assert (outdir / "diagnostics.json").exists()


def test_basis_takes_a_negative_first_charge_component_in_equals_form(capsys, workdir):
    # argparse reads a separate "-2,0" as an option, so the help and README show "="
    save_registry(dyon_registry(), str(workdir / "dyon.json"))
    code, out, _ = run(
        capsys, "--json", "basis",
        "--registry", str(workdir / "dyon.json"),
        "--registers", "2", "--charge=-2,0",
        "--out", str(workdir / "dyon_basis"),
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["sector"] == "(-2,0)"
    assert results["verify_findings"] == []
    assert len(results["vector_files"]) == 2


@pytest.mark.parametrize("registers, charge, shape", [
    (2, "0", "no-mix"),
    (5, "1", "one-mix"),
    (2, "2", "degenerate"),
    (5, "1", "redrawn-mix"),
])
def test_diagnostics_file_is_json_dumps_of_the_diagnostics(
    capsys, workdir, monkeypatch, registers, charge, shape
):
    built = []  # the basis the CLI writes

    def build(*args, **kwargs):
        built.append(builder_module.build_packaged_entangled_basis(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli_module, "build_packaged_entangled_basis", build)
    if shape == "redrawn-mix":
        # the first draw is the identity, which leaves the failing columns as they are
        draw, draws = builder_module._haar_unitary, []

        def identity_first(m, rng):
            draws.append(m)
            return np.eye(m, dtype=complex) if len(draws) == 1 else draw(m, rng)

        monkeypatch.setattr(builder_module, "_haar_unitary", identity_first)
    out = workdir / "b"
    code, _, err = run(capsys, "basis", "--registry", str(workdir / "ep.json"),
                       "--registers", str(registers), "--charge", charge, "--out", str(out))
    assert code == 0 and err == ""
    (basis,) = built
    text = (out / "diagnostics.json").read_bytes()
    assert text == (json.dumps(basis.diagnostics, indent=2) + "\n").encode()
    assert basis.degenerate == (shape == "degenerate")
    repairs = [entry["repairs"] for entry in basis.diagnostics if entry["repairs"]]
    if shape in ("no-mix", "degenerate"):
        assert repairs == []
    elif shape == "one-mix":
        assert repairs and all(len(r) == 1 and r[0]["accepted"] for r in repairs)
    else:
        assert repairs and all(
            [(rec["attempt"], rec["accepted"]) for rec in r] == [(0, False), (1, True)]
            and r[0]["columns"] is r[1]["columns"]
            for r in repairs
        )


def test_basis_refuses_an_out_directory_holding_a_larger_basis(capsys, workdir):
    out = workdir / "D"
    argv = lambda charge, out=out: ("basis", "--registry", str(workdir / "ep.json"),
                                    "--registers", "4", "--charge", charge, "--out", str(out))
    assert run(capsys, *argv("0"))[0] == 0  # d = 6
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written) == 7
    code, stdout, err = run(capsys, *argv("2"))  # d = 4
    stale = out / "basis_004.json"
    assert code == 1 and stdout == ""
    assert err == (f"superselect: error: --out {out} holds {stale} from a larger basis; "
                   "remove it or choose another directory\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    # the same basis again, or a larger one over a smaller, writes as before
    assert run(capsys, *argv("0"))[0] == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    grown = workdir / "E"
    assert run(capsys, *argv("2", grown))[0] == 0
    assert run(capsys, *argv("0", grown))[0] == 0
    assert {p.name: p.read_bytes() for p in grown.iterdir()} == written


# amplitude parts: signed zeros, a subnormal, magnitudes near 1e+-300, thirds
_WRITER_PARTS = [0.0, -0.0, 5e-324, -1e-300, 1e300, 1 / 3, -0.6]


def _writer_vectors(rng, registry, n):
    """Vectors over a few shared product states of ``registry``: one with drawn
    amplitudes, one with those doubled on the same states, one over part of
    them and others, and the zero state."""
    pool = enumerate_basis(registry, n)
    picks = rng.choice(len(pool), size=min(len(pool), 8), replace=False)
    states = [pool[i] for i in picks]

    def amplitude():
        re, im = (
            _WRITER_PARTS[i] if i < len(_WRITER_PARTS) else float(rng.standard_normal())
            for i in rng.integers(0, len(_WRITER_PARTS) + 1, size=2)
        )
        return complex(re, im) if abs(complex(re, im)) >= PRUNE_TOL else complex(re, -1.0)

    first = {state: amplitude() for state in states[:6]}
    return [
        StateVector(first, n=n),
        StateVector({state: 2 * amp for state, amp in first.items()}, n=n),
        StateVector({state: amplitude() for state in states[3:]}, n=n),
        StateVector({}, n=n),
    ]


@pytest.mark.parametrize("registry", [
    electron_positron_registry(2), mixed_spin_registry(), escaped_id_registry(), two_family_registry(),
], ids=["ep2", "mixed-spin", "escaped-ids", "two-family"])
def test_basis_files_are_json_dumps_of_each_vector(capsys, tmp_path, monkeypatch, registry):
    # the files share one term-head table, so one that kept amplitudes would
    # write the first vector's into the second
    save_registry(registry, str(tmp_path / "registry.json"))
    sector = SectorIndex((0,) * len(registry.gauged_indices()))
    charge = ",".join(map(str, sector.gauged_charges))
    rng = np.random.default_rng(11)
    texts = []
    for trial in range(5):
        n = 2 + trial % 2
        vectors = _writer_vectors(rng, registry, n)
        monkeypatch.setattr(cli_module, "build_packaged_entangled_basis",
                            lambda *args, vectors=vectors, n=n, **kwargs: EntangledBasis(vectors, sector, n))
        out = tmp_path / f"b{trial}"
        code, _, err = run(capsys, "basis", "--registry", str(tmp_path / "registry.json"),
                           "--registers", str(n), "--charge", charge, "--out", str(out))
        assert code in (0, 1) and err == ""  # the vectors span no sector: check_basis says so
        for k, vec in enumerate(vectors):
            text = (out / f"basis_{k:03d}.json").read_bytes()
            assert text == (json.dumps(state_to_dict(vec), indent=2) + "\n").encode()
            texts.append(text)
    assert b": -0.0," in b"".join(texts) and b": -0.0\n" in b"".join(texts)  # both signed-zero parts ran


def test_entangle_reports_cuts(capsys, workdir):
    code, out, _ = run(
        capsys, "entangle",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
        "--cut", "0",
    )
    assert code == 0
    assert "{0}|{1}" in out and "rank: 2" in out


@pytest.mark.parametrize("registry, state, cuts, named", [
    ("ep.json", "bell_plus.json", ("--cut", "0,1"), "0,1"),
    ("kaon.json", "meson.json", ("--cut", "0"), "0"),
    ("ep.json", "bell_plus.json", ("--cut", "0", "--cut", "0,1"), "0,1"),
], ids=["every-register", "one-register", "second-flag"])
def test_trivial_cut_error_names_the_flag(capsys, workdir, registry, state, cuts, named):
    code, out, err = run(capsys, "entangle", "--registry", str(workdir / registry),
                         "--state", str(workdir / state), *cuts)
    assert code == 1 and out == ""
    assert err == (f"superselect: error: --cut '{named}': "
                   "trivial cut: both sides of a bipartition must be nonempty\n")


@pytest.mark.parametrize("cut_args", [(), ("--cut", "1,2", "--cut", "0", "--cut", "0")],
                         ids=["every-cut", "chosen-cuts"])
def test_entangle_report_equals_per_cut_schmidt(capsys, tmp_path, cut_args):
    reg = electron_positron_registry(2)
    save_registry(reg, str(tmp_path / "ep2.json"))
    rng = np.random.default_rng(5)
    for n in (3, 4):
        state = random_sector_superposition(rng, reg, n)
        path = tmp_path / f"state{n}.json"
        save_state(state, str(path))
        code, out, _ = run(capsys, "--json", "entangle", "--registry", str(tmp_path / "ep2.json"),
                           "--state", str(path), *cut_args)
        assert code == 0
        results = json.loads(out)["results"]
        if cut_args:
            cuts = [Bipartition.from_left(c, n) for c in ({1, 2}, {0}, {0})]
        else:
            cuts = all_bipartitions(n)
        assert [block["cut"] for block in results["cuts"]] == [str(cut) for cut in cuts]
        for cut, block in zip(cuts, results["cuts"]):
            expected = schmidt(state, cut)
            assert block["singular_values"] == [float(v) for v in expected.singular_values]
            assert block["rank"] == expected.rank
            assert block["entropy_nats"] == entanglement_entropy(state, cut)
        ranks = {",".join(map(str, cut.key())): schmidt(state, cut).rank for cut in all_bipartitions(n)}
        for key, predicate in (("packaged_entangled", is_packaged_entangled),
                               ("entangled_somewhere", is_entangled_somewhere)):
            assert results[key]["cut_ranks"] == ranks
            assert results[key] == predicate(reg, state).to_dict()


def test_entangle_builds_no_cut_for_its_every_cut_report(capsys, tmp_path, monkeypatch):
    reg = electron_positron_registry(1)
    save_registry(reg, str(tmp_path / "ep.json"))
    state = random_sector_superposition(np.random.default_rng(3), reg, 6)
    save_state(state, str(tmp_path / "state.json"))
    argv = ("entangle", "--registry", str(tmp_path / "ep.json"), "--state", str(tmp_path / "state.json"))
    expected = [run(capsys, *flags, *argv) for flags in ((), ("--json",))]

    def refuse(*args, **kwargs):
        raise AssertionError("CLI entangle built a Bipartition")

    monkeypatch.setattr(entangle_module, "Bipartition", refuse)
    monkeypatch.setattr(cli_module, "Bipartition", refuse)
    for flags, (code, out, err) in zip(((), ("--json",)), expected):
        again = run(capsys, *flags, *argv)
        assert (again[0], _strip_timestamp(again[1]), again[2]) == (code, _strip_timestamp(out), err)
        assert code == 0 and out.count("{0}|{1,2,3,4,5}") == 1


def test_entangle_exits_2_on_cross_sector_state(capsys, workdir):
    code, _, err = run(
        capsys, "entangle",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "forbidden_pm2e.json"),
    )
    assert code == 2
    assert "superselection" in err


def _refuse_cut_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cuts were scanned before the state was admitted")

    monkeypatch.setattr(entangle_module, "_spectra", refuse)


def test_entangle_refuses_a_cross_sector_state_before_scanning_cuts(capsys, workdir, monkeypatch):
    reg = electron_positron_registry(1)
    state = load_state(str(workdir / "forbidden_pm2e.json"), registry=reg)
    with pytest.raises(SuperselectionError) as excinfo:
        require_single_sector(reg, state)
    _refuse_cut_work(monkeypatch)
    code, out, err = run(capsys, "entangle", "--registry", str(workdir / "ep.json"),
                         "--state", str(workdir / "forbidden_pm2e.json"))
    assert (code, out) == (2, "")
    assert err == f"superselect: superselection violation: {excinfo.value}\n"


def test_entangle_reports_a_bad_norm_before_a_cross_sector_state(capsys, workdir, monkeypatch):
    reg = electron_positron_registry(1)
    state = load_state(str(workdir / "forbidden_pm2e.json"), registry=reg)
    doubled = StateVector({b: 2 * a for b, a in state.terms.items()})
    save_state(doubled, str(workdir / "doubled.json"))
    with pytest.raises(DomainError) as excinfo:
        require_normalized(doubled)
    _refuse_cut_work(monkeypatch)
    code, out, err = run(capsys, "entangle", "--registry", str(workdir / "ep.json"),
                         "--state", str(workdir / "doubled.json"))
    assert (code, out) == (1, "")
    assert err == f"superselect: error: {excinfo.value}\n"


def test_measure_distribution_and_sampling(capsys, workdir):
    args = (
        "measure",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
        "--register", "0",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0 and "distribution" in out
    code, out, _ = run(capsys, "--seed", "7", *args, "--sample")
    assert code == 0 and "sample" in out


_MEASURE = ("--registry", "{dir}/ep.json", "--state", "{dir}/bell_plus.json", "--register", "0", "--sample")
# e± n=3 in sector (-1) mixes, so the seed reaches numpy; (0) at n=2 would not
_BASIS = ("--registry", "{dir}/ep.json", "--registers", "3", "--charge=-1", "--out", "{dir}/b")


@pytest.mark.parametrize("argv", [
    ("--seed", "-1", "measure", *_MEASURE),
    ("measure", *_MEASURE, "--seed", "-1"),
    ("--seed", "-5", "basis", *_BASIS),
    ("basis", *_BASIS, "--seed", "-5"),
], ids=["global-measure", "measure", "global-basis", "basis"])
def test_negative_seed_exits_1_naming_the_flag(capsys, workdir, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([a.format(dir=workdir) for a in argv])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 1 and out == ""
    assert err.count("\n") == 1 and "argument --seed: must be a non-negative integer" in err
    assert not (workdir / "b").exists()


_FILE_COMMANDS = {
    "validate": (),
    "entangle": (),
    "measure": ("--register", "0"),
    "conjugate": ("--out", "{out}"),
    "gauge": ("--component", "electric", "--theta", "0.5", "--out", "{out}"),
}


@pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
def test_file_subcommands_share_normalize_and_require_state(capsys, workdir, command):
    _, bell, _ = build_scenario("bell_plus")
    doubled = workdir / "doubled.json"
    save_state(StateVector({basis: 2 * amp for basis, amp in bell.terms.items()}), str(doubled))
    out_path = workdir / f"{command}_out.json"
    tail = [a.format(out=out_path) for a in _FILE_COMMANDS[command]]
    registry = ("--registry", str(workdir / "ep.json"))
    code, _, err = run(capsys, command, *registry, "--state", str(doubled), "--normalize", *tail)
    assert code == 0 and err == ""
    if "--out" in tail:
        assert load_state(str(out_path)).norm() == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(SystemExit) as excinfo:
        main([command, *registry, *tail])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 1 and out == ""
    assert err == f"superselect {command}: error: the following arguments are required: --state\n"


def test_conjugate_and_gauge_round_trip(capsys, workdir):
    conj_path = workdir / "conj.json"
    code, _, _ = run(
        capsys, "conjugate",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
        "--out", str(conj_path),
    )
    assert code == 0
    reg = electron_positron_registry(1)
    _, bell, _ = build_scenario("bell_plus")
    assert load_state(str(conj_path), registry=reg) == bell  # C|psi+> = |psi+>

    gauged_path = workdir / "gauged.json"
    code, _, _ = run(
        capsys, "gauge",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
        "--component", "electric", "--theta", str(math.pi / 3),
        "--out", str(gauged_path),
    )
    assert code == 0
    assert load_state(str(gauged_path)) == bell  # neutral sector: exact identity


def test_gauge_rejects_global_component(capsys, workdir):
    code, _, err = run(
        capsys, "gauge",
        "--registry", str(workdir / "kaon.json"),
        "--state", str(workdir / "meson.json"),
        "--component", "flavor", "--theta", "0.5",
    )
    assert code == 1 and "global" in err


def test_missing_file_exits_1(capsys, workdir):
    code, _, err = run(
        capsys, "validate",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "nope.json"),
    )
    assert code == 1 and "nope.json" in err


@pytest.mark.parametrize("bad_input", ["registry", "state"])
def test_non_utf8_input_exits_1_with_one_line_naming_the_file(capsys, workdir, bad_input):
    bad = workdir / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    paths = {"registry": str(workdir / "ep.json"), "state": str(workdir / "bell_plus.json")}
    paths[bad_input] = str(bad)
    code, out, err = run(capsys, "validate", "--registry", paths["registry"], "--state", paths["state"])
    assert code == 1 and out == ""
    assert err == (
        f"superselect: error: {bad} is not UTF-8 text: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize("bad_input", ["registry", "state"])
def test_malformed_json_input_exits_1_with_one_line_naming_the_file(capsys, workdir, bad_input):
    bad = workdir / "trunc.json"
    bad.write_bytes(b'{"n": 1,')
    paths = {"registry": str(workdir / "ep.json"), "state": str(workdir / "bell_plus.json")}
    paths[bad_input] = str(bad)
    code, out, err = run(capsys, "validate", "--registry", paths["registry"], "--state", paths["state"])
    assert code == 1 and out == ""
    assert err == (
        f"superselect: error: {bad} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)\n"
    )


@pytest.mark.parametrize("argv", [
    ("validate",), ("entangle",), ("measure", "--register", "0", "--sample"), ("conjugate",),
])
def test_each_input_file_is_read_once_and_hashed_from_those_bytes(capsys, workdir, monkeypatch, argv):
    registry, state = str(workdir / "ep.json"), str(workdir / "bell_plus.json")
    digests = {}
    for path in (registry, state):
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run(capsys, "--json", argv[0], "--registry", registry, "--state", state, *argv[1:])
    assert code == 0
    assert sorted(opened) == sorted([registry, state])
    assert json.loads(out)["inputs"] == digests


def test_schema_violation_names_the_field(capsys, workdir):
    bad = workdir / "bad_state.json"
    bad.write_text(json.dumps({"n": 2, "terms": [
        {"labels": [{"species": "e-", "spin": 0.5}, {"species": "e+", "spin": 0}],
         "re": 1.0, "im": 0.0}
    ]}))
    code, _, err = run(
        capsys, "validate",
        "--registry", str(workdir / "ep.json"), "--state", str(bad),
    )
    assert code == 1 and "spin" in err


_TERM = {"labels": [{"species": "e-", "spin": 0}, {"species": "e+", "spin": 0}],
         "re": 1.0, "im": 0.0}
_VALID = {"n": 2, "terms": [_TERM]}
_GAUGE = ("gauge", "--component", "electric", "--theta")
_HUGE = {"n": 2, "terms": [{**_TERM, "re": 1e308, "im": 1e308}]}


@pytest.mark.parametrize("command, document, field", [
    (("validate",), {"n": 2, "terms": [{"re": 1.0, "im": 0.0}]}, "labels"),
    (("validate",), {"n": 2, "terms": [{**_TERM, "re": "x"}]}, "'re'"),
    (("validate",), {"n": 2, "terms": {"0": _TERM}}, "'terms'"),
    (("validate",), {"n": 2, "terms": [{**_TERM, "re": math.inf}]}, "'re'"),
    (("validate",), {"n": 2, "terms": [{**_TERM, "im": math.nan}]}, "'im'"),
    # float() would read these as 1.0 and raise OverflowError on the last
    (("validate",), {"n": 2, "terms": [{**_TERM, "re": "1"}]}, "state field 're' must be a finite number"),
    (("validate",), {"n": 2, "terms": [{**_TERM, "re": True}]}, "state field 're' must be a finite number"),
    (("validate",), {"n": 2, "terms": [{**_TERM, "im": 10**400}]}, "state field 'im' must be a finite number"),
    ((*_GAUGE, "nan"), _VALID, "theta"),
    ((*_GAUGE, "inf"), _VALID, "theta"),
    # |a| ** 2 overflows: the norm reads inf and is refused
    (("entangle",), _HUGE, "state is not normalized (norm inf)"),
    (("measure", "--register", "0"), _HUGE, "state is not normalized (norm inf)"),
    (("validate", "--normalize"), _HUGE, "cannot normalize a state whose norm is beyond"),
], ids=["no-labels", "re-not-number", "terms-object", "re-infinite", "im-nan",
        "re-numeric-string", "re-bool", "im-int-past-float", "theta-nan", "theta-inf",
        "entangle-norm-overflow", "measure-norm-overflow", "normalize-norm-overflow"])
def test_malformed_input_exits_1_naming_the_field(capsys, workdir, command, document, field):
    path = workdir / "malformed.json"
    path.write_text(json.dumps(document))  # non-finite floats become Infinity / NaN
    code, out, err = run(
        capsys, "--json", command[0],
        "--registry", str(workdir / "ep.json"), "--state", str(path), *command[1:],
    )
    assert code == 1 and out == ""
    assert err.startswith("superselect: error:") and err.count("\n") == 1
    assert field in err


_BROKEN_SPECIES = {
    "dangling-conjugate": ({"id": "x", "charges": [0], "spin_multiplicity": 1, "conjugate_id": "y"},
                           "dangling conjugate_id"),
    "arity-mismatch": ({"id": "x", "charges": [0, 0], "spin_multiplicity": 1, "conjugate_id": "x"},
                       "charge arity"),
}


@pytest.mark.parametrize("command", [
    ("validate", "--state", "bell_plus.json"),
    ("entangle", "--state", "bell_plus.json"),
    ("conjugate", "--state", "bell_plus.json"),
    ("basis", "--registers", "2", "--charge", "0"),
], ids=lambda c: c[0])
@pytest.mark.parametrize("broken", sorted(_BROKEN_SPECIES))
def test_invalid_registry_exits_1_at_load(capsys, workdir, command, broken):
    species, field = _BROKEN_SPECIES[broken]
    doc = electron_positron_registry(1).to_dict()
    doc["species"].append(species)
    path = workdir / "broken.json"
    path.write_text(json.dumps(doc))
    args = [str(workdir / a) if a.endswith(".json") else a for a in command[1:]]
    code, out, err = run(capsys, command[0], "--registry", str(path), *args,
                         *(["--out", str(workdir / "b")] if command[0] == "basis" else []))
    assert code == 1 and out == ""
    assert err.startswith(f"superselect: error: invalid registry {path}:") and err.count("\n") == 1
    assert "species 'x'" in err and field in err
    assert not (workdir / "b").exists()


def test_oversized_enumeration_exits_1(capsys, workdir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started past the size limit")

    monkeypatch.setattr(fock.itertools, "product", refuse)
    code, out, err = run(capsys, "basis", "--registry", str(workdir / "ep.json"),
                         "--registers", "21", "--charge", "1", "--out", str(workdir / "b"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "n=21, alphabet size 2" in err and "1048576" in err


@pytest.mark.parametrize("command, named", [
    (("basis", "--registers", "2", "--charge", "0"), f"(n=2, alphabet size {2 * 10**30}): the limit is 1048576"),
    (("measure", "--register", "0"), f"species 'e-' (multiplicity {10**30}): the limit is 4096"),
], ids=["basis", "measure"])
def test_oversized_multiplicity_exits_1_before_allocating(capsys, workdir, command, named):
    # every species has 10**30 spin states: a sector check reads only the
    # labels a state holds, while a request sized by the multiplicities is
    # refused by arithmetic before anything of that size is built
    save_registry(huge_multiplicity_registry(), str(workdir / "huge.json"))
    pair = StateVector({BasisState((RegisterLabel("e-", 0), RegisterLabel("e+", 10**29))): 1.0})
    save_state(pair, str(workdir / "pair.json"))
    files = ("--registry", str(workdir / "huge.json"), "--state", str(workdir / "pair.json"))
    code, out, err = run(capsys, "validate", *files)
    assert code == 0 and "single-sector" in out and err == ""
    if command[0] == "basis":
        files = files[:2] + ("--out", str(workdir / "b"))
    code, out, err = run(capsys, *command, *files)
    assert code == 1 and out == ""
    assert err.startswith("superselect: error: refusing to ") and err.endswith(named + "\n")
    assert err.count("\n") == 1


def test_oversized_cut_list_exits_1(capsys, workdir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cuts built past the size limit")

    n = 30
    labels = [("e-", 0), ("e+", 0)] * (n // 2)
    flipped = [("e+", 0), ("e-", 0)] * (n // 2)
    state = StateVector({
        BasisState(tuple(RegisterLabel(*l) for l in labels)): 1 / math.sqrt(2),
        BasisState(tuple(RegisterLabel(*l) for l in flipped)): 1 / math.sqrt(2),
    })
    save_state(state, str(workdir / "long.json"))
    monkeypatch.setattr(Bipartition, "from_left", refuse)
    code, out, err = run(capsys, "entangle", "--registry", str(workdir / "ep.json"),
                         "--state", str(workdir / "long.json"))
    assert code == 1 and out == ""
    assert err == "superselect: error: refusing to list 2**29-1 cuts (n=30): the limit is 1048576\n"


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_state_round_trip_is_bit_exact(workdir):
    reg = electron_positron_registry(1)
    original = load_state(str(workdir / "bell_plus.json"), registry=reg)
    again = workdir / "copy.json"
    save_state(original, str(again))
    assert load_state(str(again), registry=reg) == original
    # byte-identical files for identical states
    assert (workdir / "bell_plus.json").read_bytes() == again.read_bytes()


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith(('"timestamp"', "timestamp:"))
    )


def test_reports_reproducible_modulo_timestamp(capsys, workdir):
    args = (
        "--json", "validate",
        "--registry", str(workdir / "ep.json"),
        "--state", str(workdir / "bell_plus.json"),
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert _strip_timestamp(first) == _strip_timestamp(second)


def test_basis_reports_reproducible_across_runs(capsys, workdir):
    out1, out2 = workdir / "b1", workdir / "b2"
    argv = lambda out: (
        "--json", "--seed", "9", "basis",
        "--registry", str(workdir / "ep.json"),
        "--registers", "3", "--charge", "-1",
        "--out", str(out),
    )
    _, first, _ = run(capsys, *argv(out1))
    _, second, _ = run(capsys, *argv(out2))
    norm = lambda text, out: _strip_timestamp(text).replace(str(out), "OUT")
    assert norm(first, out1) == norm(second, out2)
    for k in range(3):
        assert (out1 / f"basis_{k:03d}.json").read_bytes() == (out2 / f"basis_{k:03d}.json").read_bytes()


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.delenv("SUPERSELECT_NO_COLOR", raising=False)
    _, colored, _ = run(capsys, "demo", "bell_plus")
    assert "\x1b[32m" in colored
    monkeypatch.setenv("SUPERSELECT_NO_COLOR", "1")
    _, plain, _ = run(capsys, "demo", "bell_plus")
    assert "\x1b[" not in plain


def _calls(capsys, sequence, fresh_parser: bool):
    """Exit code, stdout without its timestamp line, and stderr of each call."""
    results = []
    for argv in sequence:
        if fresh_parser:
            cli_module._build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors leave main this way
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, _strip_timestamp(captured.out), captured.err))
    return results


@pytest.mark.parametrize("sequence", ["basis-seeds", "entangle-cuts", "usage-error-then-success"])
def test_a_reused_parser_reports_what_a_fresh_one_does(capsys, workdir, sequence):
    ep, bell = str(workdir / "ep.json"), str(workdir / "bell_plus.json")
    basis = ("basis", "--registry", ep, "--registers", "3", "--charge", "-1", "--out", str(workdir / "b"))
    entangle = ("entangle", "--registry", ep, "--state", bell)
    # (argv, exit code, reported seed) per call
    sequence = {
        "basis-seeds": [((*basis, "--seed", "5"), 0, 5), (("--seed", "7", *basis), 0, 7), (basis, 0, 0)],
        "entangle-cuts": [((*entangle, "--cut", "1"), 0, 0), (entangle, 0, 0),
                          (("--json", *entangle, "--cut", "0"), 0, 0)],
        "usage-error-then-success": [(("entangle", "--registry", ep), 1, None), (entangle, 0, 0),
                                     (("--seed", "-1", *entangle), 1, None), (("demo", "bell_plus"), 0, 0)],
    }[sequence]
    argvs = [argv for argv, _, _ in sequence]
    fresh = _calls(capsys, argvs, fresh_parser=True)
    cli_module._build_parser.cache_clear()
    reused = _calls(capsys, argvs, fresh_parser=False)
    assert cli_module._build_parser.cache_info().misses == 1
    assert reused == fresh
    for (code, out, err), (argv, want_code, seed) in zip(fresh, sequence):
        assert code == want_code, argv
        if seed is None:
            assert out == "" and err.startswith("superselect") and ": error: " in err
        else:
            assert err == "" and (f"seed: {seed}\n" in out or f'"seed": {seed},' in out)


# -- the --json report writer ---------------------------------------------------

_TEXT = st.text(max_size=12)  # quotes, backslashes, control and non-ASCII characters included
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16]),
)
_ROWS = st.lists(
    st.fixed_dictionaries({
        "cut": st.one_of(st.sampled_from(["{0}|{1}", "{0,2}|{1,3}"]), _TEXT),
        "singular_values": st.lists(_FINITE, max_size=10),
        "rank": st.integers(),
        "entropy_nats": _FINITE,
    }),
    max_size=6,
)
_VERDICT = st.fixed_dictionaries({
    "entangled": st.booleans(),
    "predicate": st.one_of(st.sampled_from(["every-cut", "some-cut"]), _TEXT),
    "undefined": st.booleans(),
    "cut_ranks": st.dictionaries(st.one_of(st.sampled_from(["0", "0,1", "0,10", "0,2"]), _TEXT),
                                 st.integers(), max_size=12),
})
_RESULTS = st.one_of(
    st.fixed_dictionaries({"cuts": _ROWS, "packaged_entangled": _VERDICT, "entangled_somewhere": _VERDICT}),
    # other commands' results go to json.dumps whole, an overflowed weight as "inf"
    st.fixed_dictionaries({
        "status": st.just("violation"),
        "sectors": st.dictionaries(_TEXT, st.one_of(_FINITE, st.just("inf")), max_size=3),
    }),
)
_REPORTS = st.fixed_dictionaries({
    "command": st.lists(_TEXT, max_size=4),
    "inputs": st.dictionaries(_TEXT, _TEXT, max_size=2),
    "seed": st.integers(0, 2**64),
    "version": _TEXT,
    "results": _RESULTS,
    "timestamp": _TEXT,
})
_UNDEFINED = {"entangled": False, "undefined": True, "cut_ranks": {}}
_ONE_REGISTER = {
    "command": ["superselect", "--json", "entangle"], "inputs": {}, "seed": 0, "version": "0", "timestamp": "",
    "results": {"cuts": [], "packaged_entangled": {**_UNDEFINED, "predicate": "every-cut"},
                "entangled_somewhere": {**_UNDEFINED, "predicate": "some-cut"}},
}
_LONG_SPECTRUM = {
    **_ONE_REGISTER,
    "results": {
        **_ONE_REGISTER["results"],
        "cuts": [{"cut": "{0}|{1}", "singular_values": [0.5, -0.0, 5e-324] * 3, "rank": 9, "entropy_nats": -0.0},
                 {"cut": "\"\\\n\u00e9\u2028", "singular_values": [], "rank": 0, "entropy_nats": 5e-324}],
    },
}


@settings(max_examples=150, deadline=None)
@given(
    _REPORTS,
    st.none() | st.tuples(st.sampled_from(["singular_values", "entropy_nats", "seed"]),
                          st.sampled_from([math.inf, -math.inf, math.nan])),
)
@example(_ONE_REGISTER, None)
@example(_LONG_SPECTRUM, None)
@example(_LONG_SPECTRUM, ("singular_values", math.nan))
def test_report_writer_emits_the_bytes_of_json_dumps(report, poison):
    if poison is not None:  # one non-finite float, in a bulk row or elsewhere
        where, value = poison
        rows = report["results"].get("cuts")
        if where == "seed" or not rows:
            report["seed"] = value
        elif where == "entropy_nats":
            rows[-1]["entropy_nats"] = value
        else:
            rows[0]["singular_values"].append(value)
    try:
        expected = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            cli_module._report_json(report)
        assert str(excinfo.value) == str(exc)
        return
    assert cli_module._report_json(report) == expected
