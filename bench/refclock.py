"""Reference kernel and the reference-scaled clock.

The host this benchmark was written on (2 shared cores) switches between a
fast and a slow speed for seconds at a time; a fixed kernel took 7.3 ms or
12.5 ms depending on the phase, and CPU time tracked wall time. A raw
wall-clock latency therefore measures the host as much as the program. Every
timing in this benchmark is instead taken as a ratio to a fixed reference
kernel run just before and just after the timed work, and converted to
milliseconds through ``REF_MS``: a reading means "milliseconds at the
reference speed".

The kernel imports nothing from ``superselect``, and it runs with the cyclic
garbage collector off: a collection during the kernel would walk the
program's whole live heap, so a program that kept more objects alive (a
cache, say) would slow the reference and make its own timings look smaller.
Collections are charged to the jobs instead. It mimics the kinds of work the program does, because the
host's phases slow different kinds of work by different amounts: a sparse
map keyed by frozen dataclasses reshaped along register cuts into small
dense matrices and SVDs, a JSON round trip, and an allocation-heavy sort.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

#: Converts reference ratios into ms. It is close to the kernel's median on
#: an Intel Xeon (KVM, 2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread) in
#: its fast phase; changing it rescales every timing, so it stays fixed.
REF_MS = 2.0


@dataclass(frozen=True, order=True)
class _Label:
    species: str
    spin: int = 0


@dataclass(frozen=True, order=True)
class _Product:
    labels: tuple


_ALPHABET = (_Label("a", 0), _Label("a", 1), _Label("b", 0))
_CHECK = None


def reference_kernel() -> int:
    """Fixed work; returns a number that must be the same on every call."""
    amps = {
        _Product(labels): complex(i % 7, 1.0)
        for i, labels in enumerate(itertools.product(_ALPHABET, repeat=4))
    }
    total = 0
    for cut in (1, 2, 3):
        rows = {k: i for i, k in enumerate(sorted({p.labels[:cut] for p in amps}))}
        cols = {k: i for i, k in enumerate(sorted({p.labels[cut:] for p in amps}))}
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for p, a in amps.items():
            mat[rows[p.labels[:cut]], cols[p.labels[cut:]]] = a
        total += int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-9))
    doc = [
        {"labels": [{"species": l.species, "spin": l.spin} for l in p.labels], "re": a.real}
        for p, a in itertools.islice(amps.items(), 16)
    ]
    total += len(json.loads(json.dumps(doc, indent=2)))
    records = sorted(((i * 7919) % 4001, str(i), float(i)) for i in range(1500))
    total += len({r[1]: r for r in records})
    return total


def time_reference() -> float:
    """Wall seconds of one reference kernel run; checks the kernel's result."""
    global _CHECK
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = reference_kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    if _CHECK is None:
        _CHECK = value
    elif value != _CHECK:
        raise RuntimeError("reference kernel returned a different result")
    return elapsed


def scaled_ms(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of work as milliseconds at the reference speed."""
    return seconds / (0.5 * (ref_before + ref_after)) * REF_MS
