"""Noisy-label training via two-stage guidance learning.

Stage 1 trains a teacher with plain cross-entropy on all (clean + noisy)
training data. Stage 2 trains a teacher-initialized student under a
multi-task objective: temperature-softened teacher predictions fused with
the noisy labels supervise the noisy subset through a KL loss, while the
clean subset keeps ordinary cross-entropy.
"""
from .data import (
    CLEAN_TRAIN,
    NOISY_TRAIN,
    TEST,
    DataRecipe,
    Dataset,
    FlipMask,
    NoiseSpec,
    Slices,
    inject_noise,
    make_blobs,
    mixed_batch_iterator,
    save_csv,
    split,
)
from .evaluation import SweepGrid, SweepResult, accuracy, sweep
from .guidance import (
    GuidanceCache,
    compute_teacher_soft_targets,
    student_batch_loss,
    total_loss,
)
from .nn import (
    ModelParams,
    OptState,
    backward,
    cross_entropy,
    forward,
    init_params,
    kl_div,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax_t,
)
from .pipeline import (
    RunReport,
    TrainConfig,
    finetune_clean,
    run_baseline,
    train_student,
    train_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "CLEAN_TRAIN",
    "NOISY_TRAIN",
    "TEST",
    "DataRecipe",
    "Dataset",
    "FlipMask",
    "GuidanceCache",
    "ModelParams",
    "NoiseSpec",
    "OptState",
    "RunReport",
    "Slices",
    "SweepGrid",
    "SweepResult",
    "TrainConfig",
    "accuracy",
    "backward",
    "compute_teacher_soft_targets",
    "cross_entropy",
    "finetune_clean",
    "forward",
    "init_params",
    "inject_noise",
    "kl_div",
    "load_checkpoint",
    "make_blobs",
    "mixed_batch_iterator",
    "run_baseline",
    "save_checkpoint",
    "save_csv",
    "sgd_step",
    "softmax_t",
    "split",
    "student_batch_loss",
    "sweep",
    "total_loss",
    "train_student",
    "train_teacher",
]
