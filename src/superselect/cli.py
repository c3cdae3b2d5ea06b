"""Command-line front end: scenario demos, validation, basis building, analysis."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .builder import build_packaged_entangled_basis, check_basis
from .charges import _write_text, registry_from_bytes
from .entangle import (
    Bipartition,
    _cut_members,
    _cut_report,
    entanglement_entropy,
    internal_charge_marginal,
    is_packaged_entangled,
    ppt_check,
)
from .errors import DomainError, SimulatorError, SuperselectionError
from .fock import SectorIndex
from .measure import measure_spin, sample_measurement, spin_z_observable
from .scenarios import SCENARIO_NAMES, build_scenario
from .states import (
    _state_text,
    apply_u1_gauge,
    charge_conjugate,
    inner_product,
    max_term_deviation,
    require_normalized,
    require_single_sector,
    save_state,
    state_from_bytes,
    state_to_dict,
    superpose,
    validate_superselection,
    SuperselectionReport,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _color_enabled() -> bool:
    return "SUPERSELECT_NO_COLOR" not in os.environ


def _mark(ok: bool) -> str:
    text = "ok" if ok else "MISMATCH"
    if not _color_enabled():
        return text
    return f"\x1b[32m{text}\x1b[0m" if ok else f"\x1b[31m{text}\x1b[0m"


def _parse_charge(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SimulatorError(f"--charge expects comma-separated integers, got {text!r}") from None


def _parse_cut(text: str, n: int) -> Bipartition:
    try:
        left = {int(part) for part in text.split(",")}
    except ValueError:
        raise SimulatorError(f"--cut expects comma-separated register indices, got {text!r}") from None
    try:
        return Bipartition.from_left(left, n)
    except DomainError as exc:
        raise DomainError(f"--cut {text!r}: {exc}") from None


def _seed(text: str) -> int:
    # numpy refuses negative seeds with a bare ValueError, so argparse refuses them first
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _close(a, b, tol=1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _registry(args):
    return registry_from_bytes(args.input_bytes[args.registry], args.registry)


def _load(args):
    registry = _registry(args)
    data = args.input_bytes[args.state]
    return registry, state_from_bytes(data, args.state, registry=registry, renormalize=args.normalize)


def _row(prop: str, expected, computed, ok: bool) -> dict:
    return {"property": prop, "expected": expected, "computed": computed, "ok": ok}


def _record(record) -> dict:
    return {"outcome": record.outcome, "probability": record.probability,
            "post_state": state_to_dict(record.post_state)}


def _state_result(args, state, **fields) -> tuple[int, dict]:
    results = {**fields, "state": state_to_dict(state)}
    if args.out:
        save_state(state, args.out)
        results["written"] = args.out
    return EXIT_OK, results


# -- subcommand handlers -------------------------------------------------------

def _run_demo(args) -> tuple[int, dict]:
    registry, state, expect = build_scenario(args.scenario, args.alpha, args.beta)
    rows = []

    verdict = validate_superselection(registry, state)
    if expect.superselection_violation:
        ok = isinstance(verdict, SuperselectionReport)
        computed = {str(q): w for q, w in verdict.sector_weights.items()} if ok else str(verdict)
        rows.append(_row("superselection_violation", True, ok, ok))
        if ok:
            expected = {str(q): w for q, w in zip(expect.violation_sectors, expect.violation_weights)}
            sectors_ok = sorted(computed) == sorted(str(q) for q in expect.violation_sectors)
            weights_ok = all(_close(computed.get(q), w) for q, w in expected.items())
            rows.append(_row("violation_sectors", expected, computed, sectors_ok and weights_ok))
    else:
        computed = str(verdict) if isinstance(verdict, SectorIndex) else verdict.describe()
        ok = isinstance(verdict, SectorIndex) and verdict == expect.sector
        rows.append(_row("sector", str(expect.sector), computed, ok))

    if expect.entangled is not None:
        entangled = is_packaged_entangled(registry, state).entangled
        rows.append(_row("packaged_entangled", expect.entangled, entangled, entangled == expect.entangled))

    if expect.entropy_first_cut is not None and state.n > 1:
        ent = entanglement_entropy(state, Bipartition.from_left({0}, state.n))
        rows.append(_row("entropy_first_cut", expect.entropy_first_cut, ent,
                         _close(ent, expect.entropy_first_cut)))

    if expect.conjugation_parity is not None:
        conj = charge_conjugate(registry, state)
        dev = max_term_deviation(conj, superpose([(expect.conjugation_parity, state)]))
        rows.append(_row("conjugation_parity", expect.conjugation_parity,
                         complex(inner_product(state, conj)).real, dev <= 1e-12))

    if expect.internal_marginal_entangled is not None:
        cut = Bipartition.from_left({0}, state.n)
        entangled = ppt_check(internal_charge_marginal(registry, state, cut)).entangled
        rows.append(_row("internal_marginal_entangled", expect.internal_marginal_entangled, entangled,
                         entangled == expect.internal_marginal_entangled))

    if expect.spin_outcome_probabilities is not None:
        expected = list(expect.spin_outcome_probabilities)
        probs = [r.probability for r in measure_spin(registry, state, spin_z_observable(registry, 0))]
        ok = len(probs) == len(expected) and all(_close(p, e) for p, e in zip(probs, expected))
        rows.append(_row("spin_outcome_probabilities", expected, probs, ok))

    all_ok = all(r["ok"] for r in rows)
    results = {
        "scenario": args.scenario,
        "expectation": expect.to_dict(),
        "verification": rows,
        "verified": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_USAGE), results


def _run_validate(args) -> tuple[int, dict]:
    verdict = validate_superselection(*_load(args))
    if isinstance(verdict, SectorIndex):
        return EXIT_OK, {"status": "single-sector", "sector": str(verdict)}
    # strict JSON has no Infinity: an overflowed weight is written as the text report prints it
    sectors = {str(q): "inf" if math.isinf(w) else w for q, w in sorted(verdict.sector_weights.items())}
    return EXIT_VIOLATION, {"status": "violation", "sectors": sectors}


def _run_basis(args) -> tuple[int, dict]:
    registry = _registry(args)
    sector = SectorIndex(_parse_charge(args.charge))
    basis = build_packaged_entangled_basis(registry, args.registers, sector, seed=args.seed)
    # earlier runs wrote contiguous indices, so a larger basis left this one behind
    stale = os.path.join(args.out, f"basis_{basis.dimension:03d}.json")
    if os.path.lexists(stale):
        raise SimulatorError(
            f"--out {args.out} holds {stale} from a larger basis; "
            "remove it or choose another directory"
        )
    os.makedirs(args.out, exist_ok=True)
    files = []
    heads = {}  # one term head per product state, shared by every vector file
    for k, vec in enumerate(basis.vectors):
        path = os.path.join(args.out, f"basis_{k:03d}.json")
        _write_text(path, _state_text(vec, heads))
        files.append(path)
    diag_path = os.path.join(args.out, "diagnostics.json")
    _write_text(diag_path, _diagnostics_text(basis.diagnostics))
    findings, metrics = check_basis(basis, registry)
    results = {
        "sector": str(basis.sector),
        "registers": args.registers,
        "metrics": metrics,
        "verify_findings": findings,
        "vector_files": files,
        "diagnostics_file": diag_path,
    }
    return (EXIT_OK if not findings or basis.degenerate else EXIT_USAGE), results


def _run_entangle(args) -> tuple[int, dict]:
    registry, state = _load(args)
    member = _cut_members(state.n)  # too many cuts is refused before any --cut is read
    lefts = [_parse_cut(c, state.n).key() for c in args.cut] if args.cut else None
    # a bad norm, then a cross-sector state, is refused before any cut is ranked
    require_normalized(state)
    require_single_sector(registry, state)
    rows, every, some = _cut_report(state, member, lefts)
    return EXIT_OK, {"cuts": rows, "packaged_entangled": every, "entangled_somewhere": some}


def _run_measure(args) -> tuple[int, dict]:
    registry, state = _load(args)
    if args.observable != "spin-z":
        raise SimulatorError(f"unsupported observable {args.observable!r}; only spin-z is available")
    obs = spin_z_observable(registry, args.register)
    if args.sample:
        record = sample_measurement(registry, state, obs, args.seed)
        return EXIT_OK, {"mode": "sample", "seed": args.seed, "record": _record(record)}
    records = measure_spin(registry, state, obs)
    return EXIT_OK, {"mode": "distribution", "records": [_record(r) for r in records]}


def _run_conjugate(args) -> tuple[int, dict]:
    return _state_result(args, charge_conjugate(*_load(args)))


def _run_gauge(args) -> tuple[int, dict]:
    out = apply_u1_gauge(*_load(args), args.component, args.theta)
    return _state_result(args, out, component=args.component, theta=args.theta)


# -- wiring --------------------------------------------------------------------

@functools.cache  # built on the first main call, then shared by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="superselect", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the full machine report as JSON")
    parser.add_argument("--seed", type=_seed, default=0, help="seed for all randomness (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    # the state-file subcommands share these flags, and _load reads them
    state_file = argparse.ArgumentParser(add_help=False)
    state_file.add_argument("--registry", required=True)
    state_file.add_argument("--state", required=True)
    state_file.add_argument("--normalize", action="store_true", help="renormalize the state on load")

    p = sub.add_parser("demo", help="build a canned scenario and verify its expectation block")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(handler=_run_demo)

    p = sub.add_parser("validate", parents=[state_file], help="check a state file against superselection")
    p.set_defaults(handler=_run_validate)

    p = sub.add_parser("basis", help="build a packaged entangled basis for one charge sector")
    p.add_argument("--registry", required=True)
    p.add_argument("--registers", type=int, required=True)
    p.add_argument(
        "--charge",
        required=True,
        help="gauged charge vector, e.g. '0' or '0,-1'; "
        "write --charge=-2,0 when the first component is negative",
    )
    p.add_argument("--out", default="basis_out", help="output directory (default: basis_out)")
    # SUPPRESS keeps the global --seed when the subcommand flag is absent
    p.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    p.set_defaults(handler=_run_basis)

    p = sub.add_parser("entangle", parents=[state_file],
                       help="Schmidt spectrum, entropy, and entanglement predicates")
    p.add_argument("--cut", action="append", help="left-side register indices, e.g. '0,2'; repeatable")
    p.set_defaults(handler=_run_entangle)

    p = sub.add_parser("measure", parents=[state_file], help="projective spin measurement on one register")
    p.add_argument("--register", type=int, required=True)
    p.add_argument("--observable", default="spin-z")
    p.add_argument("--sample", action="store_true", help="draw one outcome instead of the distribution")
    p.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    p.set_defaults(handler=_run_measure)

    p = sub.add_parser("conjugate", parents=[state_file], help="apply charge conjugation to a state file")
    p.add_argument("--out", default=None, help="write the conjugated state here")
    p.set_defaults(handler=_run_conjugate)

    p = sub.add_parser("gauge", parents=[state_file], help="apply a U(1) gauge phase to a state file")
    p.add_argument("--component", required=True, help="gauged charge component name")
    p.add_argument("--theta", type=float, required=True, help="angle in radians")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_run_gauge)

    return parser


def _read_inputs(args) -> dict[str, bytes]:
    """The bytes of each ``--registry`` and ``--state`` file, read once: the
    report's digests and the handlers' parsing both use them."""
    data = {}
    for attr in ("registry", "state"):
        path = getattr(args, attr, None)
        if path is not None and path not in data:
            with open(path, "rb") as fh:
                data[path] = fh.read()
    return data


def _render_text(report: dict, code: int) -> str:
    lines = [f"superselect {report['version']} :: {' '.join(report['command'])}"]
    for path, digest in sorted(report["inputs"].items()):
        lines.append(f"input {path} sha256={digest}")
    lines.append(f"seed: {report['seed']}")
    lines.extend(_render_value("result", report["results"], indent=0))
    status = "OK" if code == EXIT_OK else ("VIOLATION" if code == EXIT_VIOLATION else "ERROR")
    lines.append(f"status: {status} (exit {code})")
    lines.append(f"timestamp: {report['timestamp']}")
    return "\n".join(lines) + "\n"


def _render_value(key, value, indent) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_render_value(k, v, indent + 1))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{pad}{key}: [{', '.join(str(v) for v in value)}]"]
        lines = [f"{pad}{key}:"]
        for i, v in enumerate(value):
            lines.extend(_render_value(f"[{i}]", v, indent + 1))
        return lines
    if key == "ok" and isinstance(value, bool):
        return [f"{pad}{key}: {_mark(value)}"]
    return [f"{pad}{key}: {value}"]


def _report_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)``, with
    an ``entangle`` report's per-cut rows and ``cut_ranks`` maps formatted in bulk.

    Their schema is fixed, so their text is the one json's own encoder emits:
    strings through ``encode_basestring_ascii``, ints through ``int.__repr__``
    and floats through ``float.__repr__``. The rest of the report is one
    ``json.dumps`` with ``{}`` in their place; it escapes every newline inside
    a string, so each placeholder is found at its depth, in sorted key order.
    A non-finite float anywhere sends the whole report to ``json.dumps``, so
    the ValueError is the one it raises.
    """
    results = report["results"]
    if results.keys() != {"cuts", "packaged_entangled", "entangled_somewhere"}:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    # one per-cut row, nested as the report nests it
    template = (
        '\n      {\n        "cut": %s,\n        "entropy_nats": %s,\n        "rank": %s,'
        '\n        "singular_values": %s\n      }'
    )
    rows = []
    for row in results["cuts"]:
        values = ",\n          ".join(map(float.__repr__, row["singular_values"]))
        entropy = float.__repr__(row["entropy_nats"])
        if "n" in values or "n" in entropy:  # inf, -inf or nan
            return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        rows.append(template % (
            encode_basestring_ascii(row["cut"]),
            entropy,
            int.__repr__(row["rank"]),
            "[\n          " + values + "\n        ]" if values else "[]",
        ))
    texts = ["[" + ",".join(rows) + "\n    ]" if rows else "[]"]
    for key in ("entangled_somewhere", "packaged_entangled"):  # in the order json.dumps sorts them
        ranks = sorted(results[key]["cut_ranks"].items())
        texts.append("{" + ",".join(
            "\n        " + encode_basestring_ascii(cut) + ": " + int.__repr__(rank) for cut, rank in ranks
        ) + "\n      }" if ranks else "{}")
    blank = {key: {**verdict, "cut_ranks": {}} for key, verdict in results.items() if key != "cuts"}
    rest = json.dumps({**report, "results": {**blank, "cuts": {}}}, indent=2, sort_keys=True, allow_nan=False)
    parts = []
    for placeholder in ('\n    "cuts": {}', '\n      "cut_ranks": {}', '\n      "cut_ranks": {}'):
        head, _, rest = rest.partition(placeholder)
        parts.append(head + placeholder[:-2])
    return "".join(part + text for part, text in zip(parts, texts)) + rest


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _diagnostics_text(diagnostics: list[dict]) -> str:
    """``json.dumps(diagnostics, indent=2) + "\\n"`` for the builder's
    diagnostics, formatted in bulk.

    Their schema is fixed (ints, a seed-kind string, bools and lists of
    ints), so their text is the one json's own encoder emits. The builder
    gives every column of a Haar mix the same ``columns`` list, so each mix
    record is formatted once, keyed by that list, its attempt and its verdict,
    and reused for every column of its group.
    """
    record_template = (
        '\n      {\n        "attempt": %s,\n        "columns": %s,\n        "accepted": %s\n      }'
    )
    records: dict[tuple[int, int, bool], str] = {}
    entries = []
    for entry in diagnostics:
        repairs = []
        for record in entry["repairs"]:
            columns = record["columns"]
            key = (id(columns), record["attempt"], record["accepted"])
            text = records.get(key)
            if text is None:
                listed = ",\n          ".join(map(int.__repr__, columns))
                text = records[key] = record_template % (
                    int.__repr__(record["attempt"]),
                    "[\n          " + listed + "\n        ]" if listed else "[]",
                    _json_bool(record["accepted"]),
                )
            repairs.append(text)
        entries.append(
            '\n  {\n    "index": %s,\n    "seed": %s,\n    "entangled": %s,\n    "repairs": %s\n  }' % (
                int.__repr__(entry["index"]),
                encode_basestring_ascii(entry["seed"]),
                _json_bool(entry["entangled"]),
                "[" + ",".join(repairs) + "\n    ]" if repairs else "[]",
            )
        )
    return "[" + ",".join(entries) + "\n]\n" if entries else "[]\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.input_bytes = _read_inputs(args)
        code, results = args.handler(args)
    except SuperselectionError as exc:
        print(f"superselect: superselection violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (SimulatorError, OSError) as exc:
        print(f"superselect: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": ["superselect"] + argv,
        "inputs": {path: hashlib.sha256(data).hexdigest() for path, data in args.input_bytes.items()},
        "seed": args.seed,
        "version": __version__,
        "results": results,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if args.json:
        print(_report_json(report))
    else:
        sys.stdout.write(_render_text(report, code))
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
