"""qflip: numerical certification that exact flipping of three generic qubit
states would force deterministic conversion between LOCC-incomparable states.

The package computes the local spectra of the relevant states from Gram
matrices of Bob's blocks, without building the composite states, along two
independent routes (closed-form cubic roots and a numeric eigensolver),
applies the majorization criterion, and classifies the root orderings across
the whole parameter family.
"""

from .bloch import (
    FlipParams,
    density_to_bloch,
    flip,
    orthogonal_complement,
    qubit,
    qubit_to_bloch,
    random_qubit,
)
from .constructions import (
    FlipExperimentResult,
    VerificationError,
    axes_experiment,
    flipper_experiment,
    general_flip_experiment,
)
from .kernels import BACKEND
from .ordering import ALL_PATTERN_IDS, OrderingMismatchError
from .schmidt import (
    SpectrumTieError,
    Verdict,
    incomparable_3dim,
    majorizes,
    verdict,
)

__version__ = "0.1.0"
