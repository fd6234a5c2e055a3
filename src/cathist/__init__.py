"""Differentially private categorical histograms over large implicit domains.

Noise only the observed bins, threshold them, and account for the untouched
remainder of the domain analytically by injecting a binomially distributed
number of uniformly chosen extra bins weighted just above the threshold. The
zero-injection probability rho is an explicit dial.

The package root holds the names the README's Library section lists; every
other name is imported from its own module (cathist.sweep, cathist.numerics).
"""

from .core import (
    CatHistError,
    ExplicitList,
    Histogram,
    IngestError,
    NoisyBin,
    NoisyHistogram,
    PrivacyParams,
    SizeOnly,
    ValidityError,
    WordList,
    WordPairs,
    normalize,
)
from .domain import load_domain
from .ingest import load_histogram
from .mechanism import CatHistConfig, cat_hist, synthesize_records
from .metrics import fidelity
from .numerics import make_rng

__version__ = "0.1.0"

__all__ = [
    "CatHistConfig",
    "CatHistError",
    "ExplicitList",
    "Histogram",
    "IngestError",
    "NoisyBin",
    "NoisyHistogram",
    "PrivacyParams",
    "SizeOnly",
    "ValidityError",
    "WordList",
    "WordPairs",
    "cat_hist",
    "fidelity",
    "load_domain",
    "load_histogram",
    "make_rng",
    "normalize",
    "synthesize_records",
    "__version__",
]
