"""Desk-scale lab for dynamic SFT+RL policy optimization.

Exactly-differentiable tabular softmax policies on synthetic verifiable-
reward tasks, with difficulty-routed training (discard / distill / mixed RL),
multi-teacher distillation, a pairwise group-alignment loss, and Monte Carlo
benches for the bias and variance laws the method relies on.
"""

from .errors import (
    ArtifactError,
    BenchError,
    ConfigError,
    DataError,
    DypoError,
    InputError,
    StateError,
    TrainingAborted,
)
from .grading import DifficultyGrade, grade
from .instrumentation import (
    BenchReport,
    StepMetrics,
    VarianceEstimate,
    bias_law_bench,
    measure_eta,
    read_metrics,
    variance_ordering_bench,
    write_metrics,
)
from .objectives import (
    GroupBatch,
    LossReport,
    MixConfig,
    gal_pass,
    grpo_pass,
    pair_arrays,
    rollout_groups,
    route_groups,
    sft_pass,
    standardize_advantages,
)
from .policy import (
    Context,
    ContextInterner,
    PolicyParams,
    RowBlock,
    Trajectory,
    mean_step_entropy,
    sample_lockstep,
)
from .tasks import (
    BiasTestbedConfig,
    Query,
    TaskConfig,
    TeacherOracle,
    batch_reward,
    bias_sq_norms,
    generate_query,
    make_teacher_ensemble,
    reward,
    teacher_sample,
)
from .trainer import (
    Checkpoint,
    EvalReport,
    QueryPool,
    TrainConfig,
    TrainResult,
    evaluate,
    load_checkpoint,
    load_train_config,
    run_comparison,
    save_checkpoint,
    train,
    train_config_from_dict,
    train_config_to_dict,
)

__version__ = "0.1.0"
