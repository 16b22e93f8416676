"""Density-ranked curriculum design and staged training for noisy-label
feature datasets."""

from .analysis import (
    NoiseAudit,
    SubsetNoiseRates,
    category_correct_rates,
    rate_interval_report,
    subset_noise_rates,
)
from .curriculum import (
    CurriculumDesign,
    CurriculumError,
    CurriculumParams,
    design_curriculum,
    design_curriculum_kmeans_baseline,
    load_curriculum,
    partition_category,
    save_curriculum,
)
from .data import (
    DatasetError,
    FeatureSet,
    SynthConfig,
    SyntheticTruth,
    generate_synthetic,
    load_features,
    load_truth,
    save_features,
    save_truth,
)
from .density import (
    DensityProfile,
    cutoff_dc,
    delta_and_center,
    density_profile,
    distance_matrix,
    local_density,
)
from .experiments import (
    STRATEGY_TAGS,
    build_strategy,
    run_grid,
    summarize,
)
from .schedule import (
    Batch,
    CurriculumSampler,
    StageSpec,
    default_schedule,
)
from .trainer import (
    ClassifierModel,
    EvalPoint,
    RunMetrics,
    TrainingDiverged,
    evaluate,
    holdout_split,
    train,
    weighted_ce_loss,
)

__version__ = "0.1.0"
