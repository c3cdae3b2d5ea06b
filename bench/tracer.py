"""Spans at the package's layer boundaries, recorded from the benchmark's side.

``Tracer.install`` wraps each traced public function under every name a
``superselect`` module (or the package namespace the benchmark calls
through) binds it to, since that is the name its callers look it up by.
Spans live in memory: name, start, end, parent span and one value the
function's result yields (a count). They are recorded only while a job runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name, value taken from the result)
TARGETS = [
    ("superselect.cli", "main", "cli.main", None),
    ("superselect.cli", "save_state", "cli.save_state", None),
    ("superselect.cli", "load_state", "cli.load_state", None),
    ("superselect.charges", "load_registry", "charges.load_registry", None),
    ("superselect.fock", "enumerate_basis", "fock.enumerate_basis", len),
    ("superselect.fock", "sector_basis", "fock.sector_basis", len),
    ("superselect.states", "require_single_sector", "states.require_single_sector", None),
    ("superselect.states", "from_coordinates", "states.from_coordinates", None),
    ("superselect.entangle", "amplitude_matrix", "entangle.amplitude_matrix", None),
    ("superselect.entangle", "schmidt", "entangle.schmidt", None),
    ("superselect.entangle", "is_packaged_entangled", "entangle.predicate", None),
    ("superselect.entangle", "is_entangled_somewhere", "entangle.predicate", None),
    ("superselect.entangle", "internal_charge_marginal", "entangle.marginal", None),
    ("superselect.entangle", "ppt_check", "entangle.ppt", None),
    ("superselect.builder", "build_packaged_entangled_basis", "builder.build",
     lambda basis: (basis.dimension, basis.diagnostics)),
    ("superselect.builder", "verify_basis", "builder.verify", None),
    ("superselect.builder", "basis_metrics", "builder.metrics", None),
    ("superselect.measure", "measure_spin", "measure.measure_spin", None),
    ("superselect.measure", "sample_measurement", "measure.sample", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "value")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.value = None


class _TracedJson:
    """Stands in for the ``json`` module inside ``superselect.cli``."""

    def __init__(self, tracer, module):
        self._module = module
        self.dump = tracer.wrap("cli.json.dump", module.dump)
        self.dumps = tracer.wrap("cli.json.dumps", module.dumps)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, value_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if value_of is not None:
                span.value = value_of(result)
            return result

        return traced

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "superselect" or name.startswith("superselect."))
        ]
        for module_name, attr, span_name, value_of in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # the layer no longer has this function: its counts read 0
            traced = self.wrap(span_name, original, value_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        cli = sys.modules["superselect.cli"]
        self._patch(cli, "json", _TracedJson(self, cli.json))

    def _patch(self, module, key, value):
        self._restore.append((module, key, getattr(module, key)))
        setattr(module, key, value)

    def uninstall(self):
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """The spans recorded since the last call; clears them."""
        spans = list(self.spans)
        self.spans.clear()
        return spans
