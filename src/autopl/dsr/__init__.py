"""Policy-gradient symbolic regression: a recurrent policy samples prefix
expressions under grammar constraints and is trained on their rewards."""

from autopl.dsr.optim import Adam
from autopl.dsr.policy import (
    PolicyNetwork,
    SampledBatch,
    sample_batch,
    surrogate_loss,
)
from autopl.dsr.train import TrainerConfig, rspg_step, train

__all__ = [
    "Adam",
    "PolicyNetwork",
    "SampledBatch",
    "TrainerConfig",
    "rspg_step",
    "sample_batch",
    "surrogate_loss",
    "train",
]
