"""LSTM cell and layer.

The ERAS controller (Section IV-B of the paper) holds its policy parameters in an
:class:`LSTMCell`.  It samples and computes its REINFORCE gradients in raw NumPy
(closed-form back-propagation through time, see ``repro.search.controller``); the
autodiff forward here is the reference those computations are tested against.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.autodiff import Tensor
from repro.autodiff.functional import concat
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import SeedLike, new_rng, spawn_rng


class LSTMCell(Module):
    """A single LSTM step: ``(x_t, (h, c)) -> (h', c')``."""

    def __init__(self, input_size: int, hidden_size: int, seed: SeedLike = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = new_rng(seed)
        seeds = spawn_rng(rng, 2)
        # One fused affine map produces the four gates (input, forget, cell, output).
        self.input_map = Linear(input_size, 4 * hidden_size, seed=seeds[0])
        self.hidden_map = Linear(hidden_size, 4 * hidden_size, bias=False, seed=seeds[1])

    def initial_state(self, batch_size: int = 1) -> Tuple[Tensor, Tensor]:
        """Zero hidden and cell states."""
        zeros = Tensor([[0.0] * self.hidden_size for _ in range(batch_size)])
        return zeros, Tensor(zeros.data.copy())

    def forward(self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None) -> Tuple[Tensor, Tensor]:
        x = Tensor._lift(x)
        if x.ndim != 2:
            raise ValueError(f"LSTMCell expects input of shape (batch, input_size), got {x.shape}")
        if state is None:
            state = self.initial_state(x.shape[0])
        hidden, cell = state
        gates = self.input_map(x) + self.hidden_map(hidden)
        h = self.hidden_size
        input_gate = gates[:, 0:h].sigmoid()
        forget_gate = gates[:, h : 2 * h].sigmoid()
        candidate = gates[:, 2 * h : 3 * h].tanh()
        output_gate = gates[:, 3 * h : 4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell


class LSTM(Module):
    """A single-layer LSTM unrolled over a sequence of shape (batch, time, input_size)."""

    def __init__(self, input_size: int, hidden_size: int, seed: SeedLike = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, seed=seed)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        sequence = Tensor._lift(sequence)
        if sequence.ndim != 3:
            raise ValueError(f"LSTM expects input of shape (batch, time, input_size), got {sequence.shape}")
        batch, time, _ = sequence.shape
        if state is None:
            state = self.cell.initial_state(batch)
        hidden, cell = state
        outputs = []
        for t in range(time):
            hidden, cell = self.cell(sequence[:, t, :], (hidden, cell))
            outputs.append(hidden.reshape(batch, 1, self.hidden_size))
        return concat(outputs, axis=1), (hidden, cell)
