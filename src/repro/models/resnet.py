"""CIFAR-style ResNets (He et al., CVPR 2016).

These are the exact architecture family the paper evaluates: three stages of
``n`` basic blocks with 16/32/64 channels, depth = ``6n + 2`` (ResNet-20 has
n=3, ResNet-32 has n=5), global average pooling and a linear classifier.
The first conv adapts to arbitrary input sizes, so the same code runs the
paper-scale 32x32 configuration and the fast 8-16 pixel test configurations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn.fusion import conv_bn, relu_inplace
from ..seeding import resolve_rng

__all__ = [
    "BasicBlock",
    "ResNet",
    "resnet8",
    "resnet14",
    "resnet20",
    "resnet32",
    "resnet44",
    "resnet56",
]


class BasicBlock(nn.Module):
    """Two 3x3 conv-BN-ReLU units with an additive skip connection.

    When the block changes resolution or width, the shortcut is a strided
    1x1 conv + BN (ResNet "option B").  Under :func:`repro.nn.no_grad`
    each conv → BN (→ ReLU) unit runs as one fused conv pass and the
    output ReLU clamps the residual sum in place (:mod:`repro.nn.fusion`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.conv1 = nn.Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False,
            rng=rng,
        )
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.relu1 = nn.ReLU()
        self.conv2 = nn.Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng
        )
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: nn.Module = nn.Sequential(
                nn.Conv2d(
                    in_channels, out_channels, 1, stride=stride, bias=False, rng=rng
                ),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()
        self.relu_out = nn.ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = conv_bn(x, self.conv1, self.bn1, self.relu1)
        body = conv_bn(hidden, self.conv2, self.bn2)
        return relu_inplace(body + self.shortcut(x), self.relu_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_out)
        grad_body = self.conv1.backward(
            self.bn1.backward(
                self.relu1.backward(
                    self.conv2.backward(self.bn2.backward(grad_sum))
                )
            )
        )
        grad_short = self.shortcut.backward(grad_sum)
        return grad_body + grad_short


class ResNet(nn.Module):
    """CIFAR ResNet with ``6 * blocks_per_stage + 2`` layers.

    Parameters
    ----------
    blocks_per_stage:
        ``n`` in the 6n+2 formula (3 -> ResNet-20, 5 -> ResNet-32).
    num_classes:
        Classifier width.
    base_width:
        Channels of the first stage (paper uses 16; tests may shrink it).
    in_channels:
        Input image channels.
    rng:
        Generator for all weight init.
    """

    def __init__(
        self,
        blocks_per_stage: int,
        num_classes: int,
        base_width: int = 16,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if blocks_per_stage < 1:
            raise ValueError("blocks_per_stage must be >= 1")
        rng = resolve_rng(rng)
        self.depth = 6 * blocks_per_stage + 2
        self.num_classes = num_classes

        widths = (base_width, base_width * 2, base_width * 4)
        self.stem = nn.Sequential(
            nn.Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(widths[0]),
            nn.ReLU(),
        )
        stages = []
        in_width = widths[0]
        for stage_index, width in enumerate(widths):
            for block_index in range(blocks_per_stage):
                stride = 2 if stage_index > 0 and block_index == 0 else 1
                stages.append(BasicBlock(in_width, width, stride=stride, rng=rng))
                in_width = width
        self.stages = nn.Sequential(*stages)
        self.head = nn.Sequential(nn.GlobalAvgPool2d())
        self.fc = nn.Linear(widths[2], num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc(self.head(self.stages(self.stem(x))))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.stem.backward(
            self.stages.backward(self.head.backward(self.fc.backward(grad_out)))
        )


def _make(blocks: int, num_classes: int, **kwargs) -> ResNet:
    return ResNet(blocks, num_classes, **kwargs)


def resnet8(num_classes: int = 10, **kwargs) -> ResNet:
    """Depth-8 variant (n=1) — the fast configuration for CI and tests."""
    return _make(1, num_classes, **kwargs)


def resnet14(num_classes: int = 10, **kwargs) -> ResNet:
    """Depth-14 variant (n=2)."""
    return _make(2, num_classes, **kwargs)


def resnet20(num_classes: int = 10, **kwargs) -> ResNet:
    """The paper's CIFAR-10 backbone."""
    return _make(3, num_classes, **kwargs)


def resnet32(num_classes: int = 100, **kwargs) -> ResNet:
    """The paper's CIFAR-100 backbone."""
    return _make(5, num_classes, **kwargs)


def resnet44(num_classes: int = 10, **kwargs) -> ResNet:
    """Depth-44 variant (n=7)."""
    return _make(7, num_classes, **kwargs)


def resnet56(num_classes: int = 10, **kwargs) -> ResNet:
    """Depth-56 variant (n=9), the deepest CIFAR ResNet we ship."""
    return _make(9, num_classes, **kwargs)
