"""Training objectives and detection metrics for out-of-distribution
awareness, exercised on a synthetic Gaussian cluster benchmark."""

__version__ = "0.1.0"

from .datasynth import (
    CORRUPTION_KINDS,
    SEVERITIES,
    CorruptionSpec,
    DatasetSplit,
    GaussianSpec,
    corrupt,
    make_default_benchmark,
    read_split,
    sample_mixture,
    write_split,
)
from .metrics import (
    EvalReport,
    accuracy,
    auc_roc,
    classify,
    export_decision_grid,
    export_histograms,
    grid_bounds,
    mce,
)
from .nn import (
    DivergenceError,
    ForwardTrace,
    Gradients,
    MlpModel,
    ModelFileError,
    OptimizerState,
    backward,
    forward,
    init_mlp,
    load_model,
    save_model,
    sgd_step,
    softmax,
)
from .objectives import (
    LossResult,
    ObjectiveParams,
    ce_cosine_loss,
    cosine_margin_ranking_loss,
    cross_entropy_loss,
    outlier_exposure_loss,
    triplet_ranking_loss,
)
from .scores import (
    MahalanobisDetector,
    PredictiveSamples,
    confidence_score,
    entropy_score,
    fit_mahalanobis,
    mahalanobis_score,
    mc_dropout_predict,
    mutual_information_score,
    penultimate_features,
    predict_probs,
    predictive_samples,
)
from .trainer import (
    OBJECTIVES,
    OOD_OBJECTIVES,
    EpochRecord,
    SweepRow,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    WorkerExited,
    corruption_error_table,
    default_config,
    evaluate_model,
    init_model,
    run_experiment,
    sweep,
    train,
)
