"""Beta-encoder bit streams as a randomness source: simulation and checking.

Exact-arithmetic models of the amplify-and-quantize loop, the transfer
from stream bits to binary digits, min-entropy accounting of output
words, extraction to nearly uniform bits, and a small statistical
battery.  Everything load-bearing is computed with rationals and decided
by exact comparisons; floats only appear in Monte-Carlo summaries and
p-values.
"""

__version__ = "0.1.0"

from .battery import TestResult, calibration_tolerance, rejection_rates, run_battery
from .bitio import (
    bits_to_word,
    pack_bits,
    read_bit_file,
    unpack_bits,
    word_to_bits,
    write_bit_file,
)
from .converter import (
    ConversionState,
    KResult,
    fresh_state,
    k_of_m,
    k_profile,
    push_bit,
    transfer_rows,
    uncertainty_interval,
)
from .encoder import (
    ConstantThreshold,
    EncoderTrace,
    ExplicitBetas,
    ExplicitThresholds,
    FixedBeta,
    IidSupportBetas,
    UniformBetas,
    UniformThresholds,
    apply_Tu,
    encode,
    encode_bits,
)
from .entropy import (
    BoundCheck,
    WordDistribution,
    min_entropy_bound_check,
    word_distribution,
)
from .errors import (
    BetaEncError,
    ConfigurationError,
    DomainError,
    InsufficientLengthError,
    ResourceBudgetError,
)
from .extract import (
    TWO_SOURCE_WARNING,
    PipelineConfig,
    SeededExtractor,
    adversarial_source,
    flat_avg_seed_tv,
    flat_source_family,
    leftover_hash_bound_ok,
    max_extractable_bits,
    pipeline_extract,
    required_block_length,
    two_source_bound_ok,
    two_source_tv,
)
from .lochs import (
    LochsExperiment,
    LochsReport,
    default_kbar,
    pm_bound_holds,
    pm_measure_exact,
    run_lochs,
)
from .numerics import (
    Interval,
    as_fraction,
    cmp_pow2,
    least_power_at_least,
    state_bound,
)
from .prng import PRNG_ID, SplitMix64

__all__ = [
    "__version__",
    "BetaEncError",
    "ConfigurationError",
    "DomainError",
    "InsufficientLengthError",
    "ResourceBudgetError",
    "Interval",
    "as_fraction",
    "cmp_pow2",
    "least_power_at_least",
    "state_bound",
    "SplitMix64",
    "PRNG_ID",
    "bits_to_word",
    "word_to_bits",
    "pack_bits",
    "unpack_bits",
    "read_bit_file",
    "write_bit_file",
    "FixedBeta",
    "ExplicitBetas",
    "IidSupportBetas",
    "UniformBetas",
    "ConstantThreshold",
    "ExplicitThresholds",
    "UniformThresholds",
    "EncoderTrace",
    "apply_Tu",
    "encode",
    "encode_bits",
    "ConversionState",
    "KResult",
    "fresh_state",
    "push_bit",
    "k_of_m",
    "k_profile",
    "uncertainty_interval",
    "transfer_rows",
    "LochsExperiment",
    "LochsReport",
    "run_lochs",
    "default_kbar",
    "pm_measure_exact",
    "pm_bound_holds",
    "WordDistribution",
    "word_distribution",
    "BoundCheck",
    "min_entropy_bound_check",
    "adversarial_source",
    "SeededExtractor",
    "flat_avg_seed_tv",
    "flat_source_family",
    "leftover_hash_bound_ok",
    "two_source_tv",
    "two_source_bound_ok",
    "PipelineConfig",
    "pipeline_extract",
    "max_extractable_bits",
    "required_block_length",
    "TWO_SOURCE_WARNING",
    "TestResult",
    "run_battery",
    "rejection_rates",
    "calibration_tolerance",
]
