"""superselect: a desk-scale simulator of multi-particle excitations whose
internal quantum numbers are packaged into indivisible species blocks.

The package enforces superselection sectors over gauged charges, decides
packaged entanglement via Schmidt spectra across register cuts, constructs
complete orthonormal entangled bases per charge sector, and simulates
projective spin measurements that collapse hybrid internal/external
entanglement.
"""

__version__ = "0.1.0"

from .charges import (
    ChargeComponentSpec,
    ChargeVector,
    Species,
    SpeciesRegistry,
    add_charges,
    conjugate_species,
    load_registry,
    save_registry,
    validate_registry,
)
from .fock import (
    BasisState,
    RegisterLabel,
    SectorIndex,
    attained_sectors,
    enumerate_basis,
    sector_basis,
    state_sector,
    total_charge,
)
from .states import (
    SectorDecomposition,
    StateVector,
    SuperselectionReport,
    apply_u1_gauge,
    charge_conjugate,
    inner_product,
    load_state,
    normalize,
    save_state,
    sector_decompose,
    superpose,
    validate_superselection,
)
from .entangle import (
    Bipartition,
    DensityMatrix,
    EntanglementReport,
    PptResult,
    SchmidtResult,
    all_bipartitions,
    cut_spectra,
    entanglement_entropy,
    internal_charge_marginal,
    is_entangled_somewhere,
    is_packaged_entangled,
    ppt_check,
    schmidt,
)
from .builder import (
    EntangledBasis,
    build_packaged_entangled_basis,
    check_basis,
    verify_basis,
)
from .measure import (
    MeasurementRecord,
    SpinObservable,
    measure_spin,
    read_sector_charge,
    sample_measurement,
    sample_measurements,
    spin_z_observable,
)
from .scenarios import SCENARIO_NAMES, Expectation, build_scenario
from .errors import (
    ConfigurationError,
    DomainError,
    ShapeError,
    SimulatorError,
    SuperselectionError,
    UnknownSpeciesError,
)
