"""Per-layer metrics derived from the spans of one pass.

A layer's self time is its span's duration minus the part its child spans
cover. Times are reference-scaled like the end-to-end timings; counts are
exact and must repeat from pass to pass. Which metrics are reported, and
their units, is BENCHMARK.json's "per_layer" list.
"""

from __future__ import annotations

from collections import Counter

PREDICATE = "entangle.predicate"

JSON_IO = ("cli.save_state", "cli.load_state", "cli.json.dump", "cli.json.dumps")


def _ancestor(spans, i, name) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[i].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def job_counters(spans, scale: float, job) -> tuple[Counter, Counter]:
    """Exact counts and reference-scaled ms (inclusive and self) for one job."""
    counts: Counter = Counter()
    ms: Counter = Counter()
    child = [0.0] * len(spans)
    enumerated_in: dict[int, int] = {}  # sector_basis span -> states enumerated under it
    for i, span in enumerate(spans):
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
        if span.name == "fock.enumerate_basis":
            owner = _ancestor(spans, i, "fock.sector_basis")
            if owner >= 0:
                enumerated_in[owner] = enumerated_in.get(owner, 0) + span.value
    for i, span in enumerate(spans):
        dur = span.end - span.start
        counts["calls:" + span.name] += 1
        ms["incl:" + span.name] += dur * scale
        ms["self:" + span.name] += (dur - child[i]) * scale
        if span.name == "fock.enumerate_basis":
            counts["enumerated"] += span.value
        elif span.name == "fock.sector_basis":
            counts["kept"] += span.value
            # a sector_basis that enumerates nothing examined only what it kept
            counts["examined"] += enumerated_in.get(i, span.value)
        elif span.name == "builder.build":
            vectors, diagnostics = span.value
            counts["vectors_built"] += vectors
            for entry in diagnostics:
                counts["repair_attempts"] += len(entry["repairs"])
                counts["repair_accepted"] += sum(r["accepted"] for r in entry["repairs"])
        elif span.name == PREDICATE and _ancestor(spans, i, "builder.build") >= 0:
            counts["predicates_in_build"] += 1
        elif span.name == "entangle.schmidt" and _ancestor(spans, i, PREDICATE) >= 0:
            counts["schmidt_in_predicate"] += 1
    if job.command == "basis":
        counts["cli_basis_calls"] += counts["calls:cli.main"]
        counts["sector_basis_in_cli_basis"] += counts["calls:fock.sector_basis"]
    elif job.command == "entangle":
        counts["schmidt_in_cli_entangle"] += counts["calls:entangle.schmidt"]
        counts["reported_cuts"] += job.reported_cuts
    return counts, ms


def _ratio(a, b, empty=0.0) -> float:
    """``a / b``; ``empty`` when there was nothing to divide by.

    Share metrics where higher is better pass ``empty=1.0``: a layer that
    stops doing the work it is a share of (no repairs tried, no states
    examined beyond the sector) has wasted none, and must not read as worse.
    """
    return a / b if b else empty


def pass_metrics(counts: Counter, ms: Counter) -> dict[str, float]:
    """Every per-layer metric for one pass, from that pass's summed counters."""
    c = counts
    return {
        "cli.main.calls": c["calls:cli.main"],
        "cli.self_ms": ms["self:cli.main"],
        "cli.json_io_ms": sum(ms["incl:" + name] for name in JSON_IO),
        "cli.files_written": c["calls:cli.save_state"] + c["calls:cli.json.dump"],
        "charges.load_registry.calls": c["calls:charges.load_registry"],
        "charges.load_registry_ms": ms["incl:charges.load_registry"],
        "fock.sector_basis.calls": c["calls:fock.sector_basis"],
        "fock.sector_basis_ms": ms["incl:fock.sector_basis"],
        "fock.states_enumerated": c["enumerated"],
        "fock.kept_ratio": _ratio(c["kept"], c["examined"], empty=1.0),
        "fock.sector_basis_per_cli_basis": _ratio(c["sector_basis_in_cli_basis"], c["cli_basis_calls"]),
        "states.require_single_sector.calls": c["calls:states.require_single_sector"],
        "states.require_single_sector_ms": ms["incl:states.require_single_sector"],
        "states.from_coordinates_ms": ms["incl:states.from_coordinates"],
        "entangle.amplitude_matrix.calls": c["calls:entangle.amplitude_matrix"],
        "entangle.amplitude_matrix_ms": ms["incl:entangle.amplitude_matrix"],
        "entangle.schmidt.calls": c["calls:entangle.schmidt"],
        "entangle.svd_ms": ms["self:entangle.schmidt"],
        "entangle.predicate.calls": c["calls:" + PREDICATE],
        "entangle.cuts_per_predicate": _ratio(c["schmidt_in_predicate"], c["calls:" + PREDICATE]),
        "entangle.schmidt_per_reported_cut": _ratio(c["schmidt_in_cli_entangle"], c["reported_cuts"]),
        "entangle.marginal_ms": ms["incl:entangle.marginal"],
        "entangle.ppt_ms": ms["incl:entangle.ppt"],
        "builder.build_ms": ms["incl:builder.build"],
        "builder.predicate_calls_per_vector": _ratio(c["predicates_in_build"], c["vectors_built"]),
        "builder.repair_attempts": c["repair_attempts"],
        "builder.repair_accept_ratio": _ratio(
            c["repair_accepted"], c["repair_attempts"], empty=1.0
        ),
        "builder.verify_ms": ms["incl:builder.verify"],
        "builder.metrics_ms": ms["incl:builder.metrics"],
        "measure.measure_spin.calls_per_shot": _ratio(
            c["calls:measure.measure_spin"], c["calls:measure.sample"]
        ),
        "measure.sample_ms": ms["incl:measure.sample"],
        "measure.measure_spin_ms": ms["incl:measure.measure_spin"],
    }
