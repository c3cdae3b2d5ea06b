"""Canned example states and adversarial counterexamples.

Each scenario returns a registry, a state, and a machine-readable expectation
block. Scenarios never certify themselves: the expectation block is checked
against the analysis modules by the CLI demo and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charges import GAUGED, GLOBAL, ChargeComponentSpec, ChargeVector, Species, SpeciesRegistry
from .errors import DomainError
from .fock import BasisState, RegisterLabel, SectorIndex
from .states import StateVector

SCENARIO_NAMES = (
    "bell_plus",
    "bell_minus",
    "hybrid_pair",
    "forbidden_pm2e",
    "meson_superposition",
    "color_singlet_toy",
)

#: The scenarios that take amplitudes alpha and beta.
PAIR_SCENARIOS = ("hybrid_pair", "meson_superposition")

ROOT_HALF = 1.0 / math.sqrt(2.0)


def electron_positron_registry(spin_multiplicity: int = 1) -> SpeciesRegistry:
    """e- / e+ with a single gauged electric charge, in units of e."""
    return SpeciesRegistry(
        charge_specs=[ChargeComponentSpec("electric", GAUGED, "e")],
        species=[
            Species("e-", ChargeVector((-1,)), spin_multiplicity, "e+"),
            Species("e+", ChargeVector((1,)), spin_multiplicity, "e-"),
        ],
    )


def neutral_kaon_registry() -> SpeciesRegistry:
    """K0 / K0bar: zero gauged electric charge, opposite global flavor."""
    return SpeciesRegistry(
        charge_specs=[
            ChargeComponentSpec("electric", GAUGED, "e"),
            ChargeComponentSpec("flavor", GLOBAL, ""),
        ],
        species=[
            Species("K0", ChargeVector((0, 1)), 1, "K0bar"),
            Species("K0bar", ChargeVector((0, -1)), 1, "K0"),
        ],
    )


def color_toy_registry() -> SpeciesRegistry:
    """Quark/antiquark toy: gauged quark number plus a two-valued global color axis.

    The color axis is an additive stand-in label, not a non-Abelian charge.
    """
    return SpeciesRegistry(
        charge_specs=[
            ChargeComponentSpec("quark_number", GAUGED, ""),
            ChargeComponentSpec("color_axis", GLOBAL, ""),
        ],
        species=[
            Species("q_r", ChargeVector((1, 1)), 1, "qbar_r"),
            Species("q_g", ChargeVector((1, -1)), 1, "qbar_g"),
            Species("qbar_r", ChargeVector((-1, -1)), 1, "q_r"),
            Species("qbar_g", ChargeVector((-1, 1)), 1, "q_g"),
        ],
    )


@dataclass
class Expectation:
    """What the analysis modules should find for a scenario's state.

    ``None`` means "not applicable" (e.g. entanglement for a one-register
    state, entropy for a cross-sector state).
    """

    sector: SectorIndex | None = None
    superselection_violation: bool = False
    violation_sectors: tuple[SectorIndex, ...] = ()
    violation_weights: tuple[float, ...] = ()
    entangled: bool | None = None
    entropy_first_cut: float | None = None
    conjugation_parity: int | None = None
    internal_marginal_entangled: bool | None = None
    spin_outcome_probabilities: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "sector": str(self.sector) if self.sector is not None else None,
            "superselection_violation": self.superselection_violation,
            "violation_sectors": [str(q) for q in self.violation_sectors],
            "violation_weights": list(self.violation_weights),
            "entangled": self.entangled,
            "entropy_first_cut": self.entropy_first_cut,
            "conjugation_parity": self.conjugation_parity,
            "internal_marginal_entangled": self.internal_marginal_entangled,
            "spin_outcome_probabilities": list(self.spin_outcome_probabilities)
            if self.spin_outcome_probabilities is not None
            else None,
        }


def _pair_state(a_id: str, b_id: str, amp_ab: complex, amp_ba: complex) -> StateVector:
    ab = BasisState((RegisterLabel(a_id), RegisterLabel(b_id)))
    ba = BasisState((RegisterLabel(b_id), RegisterLabel(a_id)))
    return StateVector({ab: amp_ab, ba: amp_ba})


def _check_pair_amplitudes(alpha: complex, beta: complex) -> None:
    # a product, not ** 2: float ** raises OverflowError where * overflows to inf
    total = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)
    if not abs(total - 1.0) <= 1e-9:  # NaN fails here too
        raise DomainError(f"|alpha|^2 + |beta|^2 = {total:.12g}, expected 1")


def build_scenario(name: str, alpha: complex | None = None, beta: complex | None = None):
    """Return (registry, state, expectation) for a named scenario.

    ``alpha``/``beta`` apply to the scenarios in ``PAIR_SCENARIOS`` only and
    default to 1/sqrt(2) each; they must satisfy |alpha|^2 + |beta|^2 = 1.
    Any other scenario given either of them raises DomainError.
    """
    if name not in SCENARIO_NAMES:
        raise DomainError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if name not in PAIR_SCENARIOS and (alpha is not None or beta is not None):
        raise DomainError(
            f"scenario {name} takes no alpha or beta (--alpha/--beta); "
            f"only {' and '.join(PAIR_SCENARIOS)} do"
        )
    if alpha is None and beta is None:
        alpha = beta = ROOT_HALF
    elif alpha is None or beta is None:
        raise DomainError("provide both alpha and beta, or neither")

    if name in ("bell_plus", "bell_minus"):
        registry = electron_positron_registry(1)
        sign = 1.0 if name == "bell_plus" else -1.0
        state = _pair_state("e-", "e+", ROOT_HALF, sign * ROOT_HALF)
        expect = Expectation(
            sector=SectorIndex((0,)),
            entangled=True,
            entropy_first_cut=math.log(2.0),
            conjugation_parity=+1 if name == "bell_plus" else -1,
        )
        return registry, state, expect

    if name == "hybrid_pair":
        _check_pair_amplitudes(alpha, beta)
        pa, pb = abs(alpha) ** 2, abs(beta) ** 2
        if min(pa, pb) < 1e-12:
            raise DomainError("hybrid_pair needs both amplitudes nonzero to entangle the pair")
        registry = electron_positron_registry(2)
        # spin index 0 = up, 1 = down: alpha |e- up, e+ down> + beta |e+ down, e- up>
        first = BasisState((RegisterLabel("e-", 0), RegisterLabel("e+", 1)))
        second = BasisState((RegisterLabel("e+", 1), RegisterLabel("e-", 0)))
        state = StateVector({first: alpha, second: beta})
        expect = Expectation(
            sector=SectorIndex((0,)),
            entangled=True,
            entropy_first_cut=float(-(pa * math.log(pa) + pb * math.log(pb))),
            internal_marginal_entangled=False,
            spin_outcome_probabilities=(pa, pb),
        )
        return registry, state, expect

    if name == "forbidden_pm2e":
        registry = electron_positron_registry(1)
        mm = BasisState((RegisterLabel("e-"), RegisterLabel("e-")))
        pp = BasisState((RegisterLabel("e+"), RegisterLabel("e+")))
        state = StateVector({mm: ROOT_HALF, pp: ROOT_HALF})
        expect = Expectation(
            superselection_violation=True,
            violation_sectors=(SectorIndex((-2,)), SectorIndex((2,))),
            violation_weights=(0.5, 0.5),
        )
        return registry, state, expect

    if name == "meson_superposition":
        _check_pair_amplitudes(alpha, beta)
        registry = neutral_kaon_registry()
        k0 = BasisState((RegisterLabel("K0"),))
        k0bar = BasisState((RegisterLabel("K0bar"),))
        state = StateVector({k0: alpha, k0bar: beta})
        # one register: flavor superposition is legal, entanglement is undefined
        expect = Expectation(sector=SectorIndex((0,)), entangled=None)
        return registry, state, expect

    # color_singlet_toy
    registry = color_toy_registry()
    rr = BasisState((RegisterLabel("q_r"), RegisterLabel("qbar_r")))
    gg = BasisState((RegisterLabel("q_g"), RegisterLabel("qbar_g")))
    state = StateVector({rr: ROOT_HALF, gg: ROOT_HALF})
    expect = Expectation(
        sector=SectorIndex((0,)),
        entangled=True,
        entropy_first_cut=math.log(2.0),
    )
    return registry, state, expect
