"""Noise robustness of concatenated GHZ states.

Library layout:

- linalg:   operators held as their exactly nonzero entries (direct-sum blocks, trace norm, ...)
- states:   GHZ / concatenated-GHZ constructors, random pairs
- channels: single-qubit depolarizing channel, scalar transfer coefficients
- analytic: closed-form coherence norms, distillation fidelity, tail fits
- spectral: symmetry-exploiting exact spectra, negativity, Fisher information
- oracle:   dense brute-force ground truth for small systems
- circuits: MS-gate synthesis, phase accounting, simulation, text format
- cli:      eval / sweep / random-compare / synthesize front end
"""

from .errors import ConsistencyError, InputError, ResourceLimitError
from .channels import transfer_coefficients
from .states import BlockConfig, cghz, ghz, random_orthogonal_pair
from .analytic import (
    FitResult,
    ThresholdResult,
    coherence_bound,
    coherence_norm,
    coherence_norm_block,
    distill_fidelity,
    distill_threshold,
    fit_exponential_tail,
)
from .spectral import cghz_spectrum, cramer_rao_bound, doublet_algebra, fisher_information, negativity

__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "ConsistencyError",
    "FitResult",
    "InputError",
    "ResourceLimitError",
    "ThresholdResult",
    "cghz",
    "cghz_spectrum",
    "coherence_bound",
    "coherence_norm",
    "coherence_norm_block",
    "cramer_rao_bound",
    "distill_fidelity",
    "distill_threshold",
    "doublet_algebra",
    "fisher_information",
    "fit_exponential_tail",
    "ghz",
    "negativity",
    "random_orthogonal_pair",
    "transfer_coefficients",
    "__version__",
]
