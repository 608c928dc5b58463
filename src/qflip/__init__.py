"""qflip: numerical certification that exact flipping of three generic qubit
states would force deterministic conversion between LOCC-incomparable states.

The package builds the relevant composite states, computes their local
spectra along two independent routes (closed-form cubic roots and a numeric
eigensolver), applies the majorization criterion, and classifies the root
orderings across the whole parameter family.
"""

from .bloch import (
    FlipParams,
    canonical_triple,
    density_to_bloch,
    flip,
    great_circle_test,
    orthogonal_complement,
    qubit,
    qubit_to_bloch,
    random_qubit,
)
from .constructions import (
    FlipExperimentResult,
    VerificationError,
    axes_experiment,
    bob_qubit_reduction,
    build_family_state,
    build_family_state_flipped,
    build_flipper_pair,
    flipper_experiment,
    general_flip_experiment,
)
from .cubic import state_overlap
from .kernels import BACKEND
from .linalg import (
    DimensionError,
    HermiticityError,
    dagger,
    hermitian_eigenvalues,
    kron,
    partial_trace,
)
from .ordering import ALL_PATTERN_IDS, OrderingMismatchError
from .schmidt import (
    PureState,
    SpectrumTieError,
    Verdict,
    entanglement_entropy,
    incomparable_3dim,
    majorizes,
    schmidt_decompose,
    verdict,
)

__version__ = "0.1.0"
