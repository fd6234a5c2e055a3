"""Differentially private categorical histograms over large implicit domains.

Noise only the observed bins, threshold them, and account for the untouched
remainder of the domain analytically by injecting a binomially distributed
number of uniformly chosen extra bins weighted just above the threshold. The
zero-injection probability rho is an explicit dial.
"""

from .core import (
    CatHistError,
    DomainSpec,
    ExplicitList,
    Histogram,
    IngestError,
    NoisyBin,
    NoisyHistogram,
    Origin,
    PrivacyParams,
    SizeOnly,
    ValidityError,
    WordList,
    WordPairs,
    normalize,
)
from .domain import DomainSampler, load_domain
from .ingest import ColumnSelector, load_histogram, read_histogram, write_histogram
from .mechanism import CatHistConfig, cat_hist, synthesize_records
from .metrics import FidelityScore, fidelity, fidelity_pointwise
from .numerics import (
    Rng,
    derive_seed,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_binomial,
    sample_laplace,
    sample_shifted_exponential,
    threshold_defined,
)
from .sweep import SweepConfig, SweepRow, run_sweep, write_sweep_csv

__version__ = "0.1.0"

__all__ = [
    "CatHistConfig",
    "CatHistError",
    "ColumnSelector",
    "DomainSampler",
    "DomainSpec",
    "ExplicitList",
    "FidelityScore",
    "Histogram",
    "IngestError",
    "NoisyBin",
    "NoisyHistogram",
    "Origin",
    "PrivacyParams",
    "Rng",
    "SizeOnly",
    "SweepConfig",
    "SweepRow",
    "ValidityError",
    "WordList",
    "WordPairs",
    "cat_hist",
    "derive_seed",
    "fidelity",
    "fidelity_pointwise",
    "inclusion_probability",
    "load_domain",
    "load_histogram",
    "make_rng",
    "noisy_threshold",
    "normalize",
    "read_histogram",
    "run_sweep",
    "sample_binomial",
    "sample_laplace",
    "sample_shifted_exponential",
    "synthesize_records",
    "threshold_defined",
    "write_histogram",
    "write_sweep_csv",
    "__version__",
]
