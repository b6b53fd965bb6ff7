"""Common interface for the main-branch networks.

LCRS attaches its binary branch after the *first convolutional layer*
(§IV-D.2), so every network in the zoo is split into

* ``stem``  — the shared first conv block (conv1 + ReLU + pool where the
  original architecture pools early).  At deployment this is the only
  full-precision compute the mobile web browser performs, and its output
  is the intermediate tensor shipped to the edge on a binary-branch miss.
* ``trunk`` — everything after the stem up to the logits
  (``f_main^rest`` in Algorithm 2), which runs on the edge server.

``forward`` composes the two, so a branchable network trains and
evaluates exactly like the original architecture.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..nn.autograd import Tensor
from ..nn.module import Module, Sequential


class BranchableNetwork(Module):
    """A classifier split into a shared stem and an edge-side trunk."""

    def __init__(
        self,
        stem: Sequential,
        trunk: Sequential,
        in_channels: int,
        num_classes: int,
        input_size: int,
        name: str,
    ) -> None:
        super().__init__()
        self.stem = stem
        self.trunk = trunk
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.input_size = input_size
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self.trunk(self.stem(x))

    def forward_stem(self, x: Tensor) -> Tensor:
        """Run only the shared first conv block (browser-side compute)."""
        return self.stem(x)

    def forward_trunk(self, features: Tensor) -> Tensor:
        """Run the rest of the main branch (edge-side compute)."""
        return self.trunk(features)

    def stem_output_shape(self) -> tuple[int, int, int]:
        """Shape (C, H, W) of the stem output for this network's input size."""
        probe = Tensor(
            np.zeros((1, self.in_channels, self.input_size, self.input_size), dtype=np.float32)
        )
        with _eval_mode(self):
            out = self.stem(probe)
        return tuple(out.shape[1:])

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(name={self.name!r}, in={self.in_channels}, "
            f"classes={self.num_classes}, input={self.input_size})"
        )


@contextmanager
def _eval_mode(module: Module) -> Iterator[None]:
    """Run ``module`` in eval mode, then give each submodule its own mode back.

    ``module.train(flag)`` would reset every submodule to one flag, so a
    trunk put in eval mode under a training parent would come back in
    training mode.
    """
    modes = [(m, m.training) for m in module.modules()]
    module.eval()
    try:
        yield
    finally:
        for m, training in modes:
            m.training = training


def flattened_size(module: Module, in_channels: int, input_size: int) -> int:
    """Probe a conv stack to find its flattened feature dimension."""
    probe = Tensor(np.zeros((1, in_channels, input_size, input_size), dtype=np.float32))
    with _eval_mode(module):
        out = module(probe)
    size = int(np.prod(out.shape[1:]))
    return size
