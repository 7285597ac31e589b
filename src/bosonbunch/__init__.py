"""Boson sampling in the collision regime.

Repeated output ports make the underlying permanents cheaper; this package
computes those permanents, draws exact samples from the output distribution,
and quantifies the speedup with occupied-port statistics and operation-count
bounds.
"""

from .bench import scaling_report, trace_sample, write_scaling_csv
from .errors import UnsupportedRegimeError
from .matrices import (
    UNITARITY_TOLERANCE,
    UnitaryMatrix,
    fingerprint,
    haar_unitary,
    identity_unitary,
    load_matrix,
    load_unitary,
    permutation_unitary,
    save_matrix,
    submatrix,
    unitarity_defect,
)
from .permanent import (
    CostEstimate,
    cost_estimate,
    output_probability,
    permanent_glynn,
    permanent_naive,
    permanent_repeated,
    permanent_ryser,
    repeated_column_expansion,
)
from .portstats import (
    BoundsReport,
    PortDistribution,
    binomial_envelope,
    entropy,
    max_bunching_cutoff,
    max_occupation_cdf,
    mean_occupied_ports,
    occupied_ports_pmf,
    probability_cost_bounds,
    sampling_cost_bounds,
    solve_tail_crossings,
    tail_half_width,
)
from .sampler import (
    PortSequence,
    SampleBatch,
    SampleOps,
    brute_force_distribution,
    chi_square_fit,
    conditional_weights,
    draw_sample,
    draw_sample_counted,
    empirical_counts,
    sample_batch,
    sample_permutation,
    total_variation_distance,
)

__version__ = "0.1.0"
