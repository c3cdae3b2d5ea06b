"""Charge algebra, species registry, conjugation, and the JSON writer."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superselect.charges import (
    ChargeComponentSpec,
    ChargeVector,
    Species,
    SpeciesRegistry,
    add_charges,
    conjugate_species,
    json_text,
    load_registry,
    save_registry,
    validate_registry,
)
from superselect.cli import main
from superselect.errors import ConfigurationError, UnknownSpeciesError
from superselect.scenarios import (
    color_toy_registry,
    electron_positron_registry,
    neutral_kaon_registry,
)

from helpers import dyon_registry, lepton_photon_registry

ALL_REGISTRIES = [
    electron_positron_registry(1),
    electron_positron_registry(2),
    neutral_kaon_registry(),
    color_toy_registry(),
    lepton_photon_registry(),
    dyon_registry(),
]


def test_add_charges_cancellation():
    assert add_charges(ChargeVector((-1,)), ChargeVector((1,))) == ChargeVector((0,))


def test_add_charges_zero_identity():
    assert add_charges(ChargeVector((0, 0)), ChargeVector((0, 0))) == ChargeVector((0, 0))


def test_add_charges_accumulates():
    assert add_charges(ChargeVector((-1,)), ChargeVector((-1,))) == ChargeVector((-2,))


def test_add_charges_arity_mismatch():
    with pytest.raises(ConfigurationError):
        add_charges(ChargeVector((1,)), ChargeVector((1, 0)))


def test_charge_vector_rejects_non_integers():
    with pytest.raises(ConfigurationError):
        ChargeVector((1.5,))
    with pytest.raises(ConfigurationError):
        ChargeVector((True,))


def test_conjugate_electron_is_positron():
    reg = electron_positron_registry(1)
    partner = conjugate_species(reg, "e-")
    assert partner.id == "e+"
    assert partner.charges == ChargeVector((1,))


def test_conjugate_kaon_negates_flavor():
    reg = neutral_kaon_registry()
    partner = conjugate_species(reg, "K0")
    assert partner.id == "K0bar"
    assert partner.charges == ChargeVector((0, -1))


def test_conjugate_photon_is_fixed_point():
    reg = lepton_photon_registry()
    assert conjugate_species(reg, "gamma").id == "gamma"


def test_conjugate_unknown_species():
    with pytest.raises(UnknownSpeciesError):
        conjugate_species(electron_positron_registry(1), "tau")


@pytest.mark.parametrize("registry", ALL_REGISTRIES, ids=lambda r: ",".join(r.species_ids))
def test_valid_registries_have_no_violations(registry):
    assert validate_registry(registry) == []


@pytest.mark.parametrize("registry", ALL_REGISTRIES, ids=lambda r: ",".join(r.species_ids))
def test_conjugate_charges_cancel_exactly(registry):
    for species in registry.species:
        partner = registry.conjugate(species.id)
        assert add_charges(species.charges, partner.charges) == registry.zero_charge()
        assert registry.conjugate(partner.id).id == species.id  # involution


def test_validation_flags_non_negated_charges():
    reg = SpeciesRegistry(
        [ChargeComponentSpec("electric", "gauged", "e")],
        [
            Species("x", ChargeVector((1,)), 1, "y"),
            Species("y", ChargeVector((1,)), 1, "x"),
        ],
    )
    violations = validate_registry(reg)
    assert any("not negated" in v for v in violations)


def test_validation_flags_dangling_conjugate():
    reg = SpeciesRegistry(
        [ChargeComponentSpec("electric", "gauged", "e")],
        [Species("x", ChargeVector((1,)), 1, "missing")],
    )
    violations = validate_registry(reg)
    assert len(violations) == 1 and "dangling" in violations[0]


def test_validation_flags_duplicates_and_multiplicity():
    reg = SpeciesRegistry(
        [
            ChargeComponentSpec("electric", "gauged", "e"),
            ChargeComponentSpec("electric", "gauged", "e"),
        ],
        [
            Species("x", ChargeVector((1, 0)), 0, "x"),
            Species("x", ChargeVector((1, 0)), 0, "x"),
        ],
    )
    violations = validate_registry(reg)
    assert any("duplicated" in v and "electric" in v for v in violations)
    assert any("duplicated" in v and "'x'" in v for v in violations)
    assert any("multiplicity" in v for v in violations)


def test_validation_flags_broken_involution():
    reg = SpeciesRegistry(
        [ChargeComponentSpec("electric", "gauged", "e")],
        [
            Species("a", ChargeVector((1,)), 1, "b"),
            Species("b", ChargeVector((-1,)), 1, "c"),
            Species("c", ChargeVector((1,)), 1, "b"),
        ],
    )
    assert any("involution" in v for v in validate_registry(reg))


def test_bad_component_kind_rejected():
    with pytest.raises(ConfigurationError):
        ChargeComponentSpec("electric", "half-gauged", "e")


def test_registry_json_round_trip(tmp_path):
    reg = neutral_kaon_registry()
    path = tmp_path / "kaons.json"
    save_registry(reg, str(path))
    back = load_registry(str(path))
    assert back.to_dict() == reg.to_dict()
    assert validate_registry(back) == []


def test_registry_loading_rejects_fractional_charge(tmp_path):
    doc = electron_positron_registry(1).to_dict()
    doc["species"][0]["charges"] = [-0.5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        load_registry(str(path))


def test_registry_loading_rejects_missing_field(tmp_path):
    doc = electron_positron_registry(1).to_dict()
    del doc["species"][0]["conjugate_id"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="conjugate_id"):
        load_registry(str(path))


@pytest.mark.parametrize("extra, message", [
    ({"id": "x", "charges": [0], "spin_multiplicity": 1, "conjugate_id": "y"},
     "species 'x': dangling conjugate_id 'y'"),
    ({"id": "x", "charges": [0, 0], "spin_multiplicity": 1, "conjugate_id": "x"},
     "species 'x': charge arity 2 != registry arity 1"),
], ids=["dangling-conjugate", "arity-mismatch"])
def test_registry_loading_runs_validation(tmp_path, extra, message):
    doc = electron_positron_registry(1).to_dict()
    doc["species"].append(extra)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as excinfo:
        load_registry(str(path))
    assert str(excinfo.value) == f"invalid registry {path}: {message}"
    # built in memory, the same registry stays inspectable
    assert validate_registry(SpeciesRegistry.from_dict(doc)) == [message]


def test_registry_loading_lists_every_violation_on_one_line(tmp_path):
    doc = electron_positron_registry(1).to_dict()
    doc["species"][0]["conjugate_id"] = "nobody"
    doc["species"][1]["charges"] = [1, 0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as excinfo:
        load_registry(str(path))
    text = str(excinfo.value)
    assert "\n" not in text
    assert text.count("; ") == len(validate_registry(SpeciesRegistry.from_dict(doc))) - 1
    assert "dangling conjugate_id 'nobody'" in text and "charge arity 2" in text


def test_every_builtin_registry_loads(tmp_path):
    for k, reg in enumerate(ALL_REGISTRIES):
        path = tmp_path / f"reg{k}.json"
        save_registry(reg, str(path))
        assert load_registry(str(path)).to_dict() == reg.to_dict()
        assert path.read_bytes() == (json.dumps(reg.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def test_a_registry_with_a_non_finite_field_is_refused_before_the_file_is_opened(tmp_path):
    # the registry is permissive on construction; json.dumps wrote this field as Infinity
    reg = SpeciesRegistry([ChargeComponentSpec("q", "gauged")], [Species("x", ChargeVector((0,)), math.inf, "x")])
    path = tmp_path / "reg.json"
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        save_registry(reg, str(path))
    assert not path.exists()


# -- json_text: the bytes of json.dumps(value, indent=2, allow_nan=False) ------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e16]),
    st.text(max_size=8),  # quotes, backslashes, control and non-ASCII characters included
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "\u2028\u2029", "\U0001f600\U0010ffff", "\u00e9\ud7ff\ud800", ""]),
)


def _trees(leaves, keys):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(keys, kids, max_size=4),
        ),
        max_leaves=24,
    )


_KEYS = st.text(max_size=6)
# what json.dumps refuses, or writes by rules of its own: non-finite floats,
# numpy scalars (np.float64 is a float, the others are not), non-str keys
_ODD_LEAVES = st.sampled_from([
    math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
    np.float32(0.5), np.int64(3), np.bool_(True),
])
_ODD_KEYS = st.sampled_from([1, -2, 0.5, math.nan, True, None, (1, 2)])
# the builder's diagnostics with a key it does not write today, on an entry and on a repair
_DIAGNOSTICS_EXTRA = [
    {"index": 0, "seed": "pair", "entangled": True, "repairs": [], "seed_pair": [0, 5]},
    {"index": 1, "seed": "mix", "entangled": True,
     "repairs": [{"attempt": 0, "columns": [1, 2], "accepted": True, "spectrum": [0.5, -0.0]}]},
]


def _outcome(write, value, sort_keys):
    try:
        return write(value, sort_keys)
    except Exception as exc:  # the type and message must match json.dumps's
        return type(exc), str(exc)


def _dumps(value, sort_keys):
    return json.dumps(value, indent=2, sort_keys=sort_keys, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_trees(_SCALARS, _KEYS), st.booleans())
@example([], False)
@example({}, True)
@example(((), {}, [[]], {"": {}}), True)
@example({"b": [1, -0.0], "a": ("\u2028", 2**64, 5e-324, 1e308)}, True)
@example(_DIAGNOSTICS_EXTRA, False)
def test_json_text_is_json_dumps(value, sort_keys):
    assert json_text(value, sort_keys) == _dumps(value, sort_keys)


@settings(max_examples=300, deadline=None)
@given(_trees(_SCALARS | _ODD_LEAVES, _KEYS | _ODD_KEYS), st.booleans())
@example([{"a": [0.5, math.nan]}], False)
@example({"a": {"b": [-math.inf]}}, True)
@example([1, np.int64(3)], False)
@example({"a": 1, 2: 3}, True)  # keys json cannot sort
@example({1: "a", 0.5: "b", None: "c", True: "d"}, False)
@example([10**5000], False)  # past int's default digit limit for str
def test_json_text_gives_what_json_dumps_gives_on_odd_values(value, sort_keys):
    assert _outcome(json_text, value, sort_keys) == _outcome(_dumps, value, sort_keys)


def test_json_text_refuses_a_container_nested_in_itself():
    loop = [1]
    loop.append({"a": loop})
    assert _outcome(json_text, loop, False) == _outcome(_dumps, loop, False) == (
        ValueError, "Circular reference detected"
    )


def test_a_charge_spec_without_a_unit_loads_with_an_empty_unit():
    doc = electron_positron_registry(1).to_dict()
    del doc["charge_specs"][0]["unit"]
    assert SpeciesRegistry.from_dict(doc).charge_specs[0].unit == ""



def _without_charges(doc):
    del doc["species"][0]["charges"]
    return doc


@pytest.mark.parametrize("breaking, message", [
    (lambda doc: [doc], "registry document must be an object, got list"),
    (lambda doc: {**doc, "species": 5}, "registry field 'species' must be a list, got 5"),
    (lambda doc: {**doc, "charge_specs": [5]}, "registry field 'charge_specs' must hold objects, got 5"),
    (_without_charges, "registry field 'charges' is missing"),
    (lambda doc: doc["species"][0].update(charges=5) or doc,
     "registry field 'charges' must be a list, got 5"),
    (lambda doc: doc["charge_specs"][0].update(unit=None) or doc,
     "registry field 'unit' must be a string, got None"),
], ids=["document-not-object", "species-not-list", "charge-spec-not-object", "charges-missing",
        "charges-not-list", "unit-not-string"])
def test_malformed_registry_shape_is_one_line_naming_the_field(tmp_path, capsys, breaking, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(breaking(electron_positron_registry(1).to_dict())))
    with pytest.raises(ConfigurationError) as excinfo:
        load_registry(str(path))
    assert str(excinfo.value) == message
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 1, "terms": [{"labels": [{"species": "e-"}], "re": 1.0}]}))
    code = main(["validate", "--registry", str(path), "--state", str(state)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"superselect: error: {message}\n"
