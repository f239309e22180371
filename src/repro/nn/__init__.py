"""``repro.nn`` — a compact, fully-tested numpy neural-network framework.

This package replaces the PyTorch substrate of the original paper (no GPU /
no torch in this environment).  It provides layers with hand-written,
gradient-checked backward passes, standard optimisers, learning-rate
schedules and losses — everything needed to train the CIFAR-style ResNets
the paper evaluates.
"""

from .activations import Dropout, Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from .container import Residual, Sequential
from .conv import Conv2d
from .cost import (
    LayerCost,
    ModelCost,
    capture_shapes,
    crossbar_footprint,
    model_cost,
)
from .linear import Linear
from .loss import CrossEntropyLoss, MSELoss
from .lr_scheduler import (
    CosineAnnealingLR,
    LRScheduler,
    MultiStepLR,
    StepLR,
    WarmupLR,
)
from .module import (
    Module,
    Parameter,
    RemovableHandle,
    is_grad_enabled,
    no_grad,
)
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .pooling import AvgPool2d, Flatten, GlobalAvgPool2d, MaxPool2d
from .serialization import (
    load_checkpoint,
    save_checkpoint,
    state_dict_from_bytes,
    state_dict_to_bytes,
)

__all__ = [
    "Module",
    "Parameter",
    "RemovableHandle",
    "no_grad",
    "is_grad_enabled",
    "Sequential",
    "Residual",
    "Conv2d",
    "Linear",
    "BatchNorm1d",
    "BatchNorm2d",
    "GroupNorm",
    "clip_grad_norm",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Dropout",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "CrossEntropyLoss",
    "MSELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "CosineAnnealingLR",
    "StepLR",
    "MultiStepLR",
    "WarmupLR",
    "save_checkpoint",
    "load_checkpoint",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
    "LayerCost",
    "ModelCost",
    "capture_shapes",
    "model_cost",
    "crossbar_footprint",
]
