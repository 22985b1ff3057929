from .network import Adam, QNetwork
from .replay import ReplayBuffer
from .training import (
    ScenarioSource,
    TrainedPolicy,
    TrainHyper,
    TrainResult,
    greedy_action,
    greedy_solve,
    load_policy,
    save_policy,
    select_action,
    td_targets,
    train,
    train_step,
)

__all__ = [
    "Adam",
    "QNetwork",
    "ReplayBuffer",
    "ScenarioSource",
    "TrainedPolicy",
    "TrainHyper",
    "TrainResult",
    "greedy_action",
    "greedy_solve",
    "load_policy",
    "save_policy",
    "select_action",
    "td_targets",
    "train",
    "train_step",
]
