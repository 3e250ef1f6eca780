"""Tree codes with provable distance: totally-non-singular triangular
generators, packed block codes, lagged composition, and the binary-input
pipeline with polylogarithmic output alphabets."""

from .core import (
    BLANK,
    AlphabetDescriptor,
    BudgetExceededError,
    FixedBits,
    IntPair,
    LengthMismatchError,
    hamming_distance,
    hamming_weight,
    serialize_symbol,
    split,
)
from .ecc import (
    CodeSpecC,
    InfeasibleCodeError,
    InnerCode,
    RSParams,
    build_code_c,
    find_inner_code,
    s_delta,
)
from .lagged import (
    LaggedParams,
    LaggedSymbol,
    StreamEncoderTruncatedLagged,
    StreamEncoderUntruncatedLagged,
    encode_truncated_lagged,
    encode_untruncated_lagged,
)
from .linearcode import (
    BoostParams,
    CxRxReport,
    StreamEncoderIntTreeCode,
    StreamEncoderTcA,
    StreamEncoderTcASr,
    cx_rx_report,
    encode_int_treecode,
    encode_tc_a,
    encode_tc_a_sr,
)
from .packing import (
    BoostedPackedParams,
    PackedCodeParams,
    StreamEncoderBlockTc,
    encode_block_tc,
)
from .pascal import (
    LowerTriangularMatrix,
    MinorIndexPair,
    TnsVerdict,
    all_staircase_minors_positive,
    bareiss_determinant,
    is_totally_nonsingular,
    iter_staircase_pairs,
    minor_determinant,
    pascal_matrix,
    search_tns,
    staircase_pair_count,
)
from .pipeline import (
    FinalSymbol,
    PipelineConfig,
    PipelineEncoder,
    Schedule,
    ScheduleError,
    ScheduleLevel,
    alphabet_at,
    boosted_config,
    build_schedule,
    level_c_delta,
)
from .verify import (
    BoundCheck,
    DistanceReport,
    ToeplitzCode,
    entropy_hr,
    is_mds,
    lagged_distance,
    largest_feasible_delta,
    sample_toeplitz_code,
    singleton_bound,
    toeplitz_condition,
    toeplitz_weight_distance,
    tree_distance_exhaustive,
    tree_distance_relaxed,
    verify_split0_lagged_bound,
    weight_distance_linear,
)

__version__ = "0.1.0"
