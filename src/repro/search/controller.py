"""The LSTM architecture controller trained with REINFORCE (Section IV-B of the paper).

The controller generates a candidate autoregressively: at decision step ``v`` it emits a
distribution over the ``2M + 1`` operations, a token is sampled, embedded, and fed back
into the LSTM to produce step ``v + 1``.  The REINFORCE gradient (Eq. 7) with a moving
average baseline updates the controller towards candidates with a high one-shot reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn import Adam, Embedding, Linear, LSTMCell, Module
from repro.search.result import Candidate
from repro.search.space import RelationAwareSearchSpace
from repro.utils.rng import new_rng, spawn_rng


@dataclass
class ControllerConfig:
    """Controller hyper-parameters (Section IV-B, Eq. 7).

    Fields
    ------
    hidden_size:
        Hidden state width of the LSTM policy (default 64, > 0).
    token_embedding_dim:
        Dimension of the operation-token embeddings fed back into the LSTM
        (default 32, > 0).
    learning_rate:
        Adam learning rate of the REINFORCE update (default 0.01, > 0).
    baseline_decay:
        Decay of the exponential moving-average reward baseline b in Eq. 7
        (default 0.7, in [0, 1)).
    entropy_weight:
        Weight of the optional entropy bonus encouraging exploration: the update
        also ascends ``entropy_weight`` times the policy entropy summed over the
        decision steps of each sample (default 0.0, >= 0; 0 disables it).
    zero_operation_bias:
        Initial logit bias towards the zero operation so early candidates are sparse,
        mirroring AutoSF's budget prior (default 1.5; the controller unlearns it).
    seed:
        Seed of the parameter initialisation and fallback sampling stream (default 0).
    """

    hidden_size: int = 64
    token_embedding_dim: int = 32
    learning_rate: float = 0.01
    baseline_decay: float = 0.7
    entropy_weight: float = 0.0
    zero_operation_bias: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_size <= 0 or self.token_embedding_dim <= 0:
            raise ValueError("hidden_size and token_embedding_dim must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must be in [0, 1)")


@dataclass
class SampledCandidate:
    """A candidate together with the log-probability and entropy of sampling it."""

    candidate: Candidate
    tokens: np.ndarray
    log_prob: float
    entropy: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class _Unroll:
    """Activations of a teacher-forced policy unroll, stacked over the T decision steps.

    ``previous`` (T, rows) holds the token fed into each step.  ``hidden[t]`` and
    ``cell[t]`` are the LSTM state *entering* step ``t`` (index 0 is the zero initial
    state, index T the final state).  ``gates`` (T, rows, 4H) holds the activated
    input, forget, candidate and output gates; ``squashed_cell`` is ``tanh`` of the
    new cell state and ``log_probs`` the policy's log-softmax output.
    """

    previous: np.ndarray
    hidden: np.ndarray
    cell: np.ndarray
    gates: np.ndarray
    squashed_cell: np.ndarray
    log_probs: np.ndarray


class ArchitectureController(Module):
    """LSTM policy ``pi(A; theta)`` over token sequences of the search space.

    The parameters live in the ``token_embedding``, ``cell`` and ``output`` modules,
    whose Tensor forward is the reference implementation of the policy.  Sampling
    and the REINFORCE gradient run the same computation in raw NumPy over all rows
    at once, without building an autodiff graph: :meth:`sample` unrolls the policy
    step by step, and :meth:`accumulate_policy_gradient` back-propagates through
    time in closed form.
    """

    def __init__(self, space: RelationAwareSearchSpace, config: Optional[ControllerConfig] = None) -> None:
        super().__init__()
        self.space = space
        self.config = config or ControllerConfig()
        vocabulary = space.num_operations
        rng = new_rng(self.config.seed)
        seeds = spawn_rng(rng, 3)
        # Token "vocabulary + 1" reserves the last id as the start-of-sequence symbol.
        self.token_embedding = Embedding(vocabulary + 1, self.config.token_embedding_dim, seed=seeds[0])
        self.cell = LSTMCell(self.config.token_embedding_dim, self.config.hidden_size, seed=seeds[1])
        self.output = Linear(self.config.hidden_size, vocabulary, seed=seeds[2])
        # Bias the policy towards the zero operation so that early candidates are sparse,
        # mirroring AutoSF's budgeted structures; the controller unlearns it if dense
        # structures pay off.
        self.output.bias.data[0] = self.config.zero_operation_bias
        self._start_token = vocabulary
        self._rng = new_rng(self.config.seed)

    # ------------------------------------------------------------------ policy
    def _step(self, previous: np.ndarray, hidden: np.ndarray, cell: np.ndarray) -> tuple:
        """One decision step for a batch of rows: embedding -> LSTM cell -> linear ->
        log-softmax, in the op order of the Tensor modules (``LSTMCell.forward``,
        ``Linear.forward``, ``functional.log_softmax``).  Element-wise results
        match the Tensor path bit for bit; a matrix product over several rows can
        differ from the batch-of-one product in the last bits, because BLAS picks
        its kernel by shape.

        Returns ``(hidden, cell, log_probs, gates, squashed_cell)``; ``gates`` holds
        the activated input, forget, candidate and output gates side by side.
        """
        size = self.config.hidden_size
        input_map = self.cell.input_map
        gates = (self.token_embedding.weight.data[previous] @ input_map.weight.data + input_map.bias.data) + (
            hidden @ self.cell.hidden_map.weight.data
        )
        # Sigmoid is element-wise: applied to all four gates at once, it gives each
        # gate the same bits as a sigmoid of its own slice.
        activated = _sigmoid(gates)
        activated[:, 2 * size : 3 * size] = np.tanh(gates[:, 2 * size : 3 * size])
        cell = activated[:, size : 2 * size] * cell + activated[:, 0:size] * activated[:, 2 * size : 3 * size]
        squashed = np.tanh(cell)
        hidden = activated[:, 3 * size : 4 * size] * squashed
        logits = hidden @ self.output.weight.data + self.output.bias.data
        shift = logits.max(axis=-1, keepdims=True)
        log_probs = logits - (np.log(np.exp(logits - shift).sum(axis=-1, keepdims=True)) + shift)
        return hidden, cell, log_probs, activated, squashed

    def _initial_state(self, rows: int) -> tuple:
        zeros = np.zeros((rows, self.config.hidden_size))
        return zeros, zeros

    # ------------------------------------------------------------------ sampling
    def sample(
        self, count: int, rng: Optional[np.random.Generator] = None, greedy: bool = False
    ) -> List[SampledCandidate]:
        """Sample ``count`` candidates independently, all rows unrolled together.

        Token ``t`` of sample ``k`` is drawn by inverse-CDF from uniform ``[k, t]`` of
        one ``rng.random((count, token_count))`` call, which consumes the stream
        exactly as one ``rng.choice(num_operations, p=probabilities)`` per token,
        sample after sample, would.  Greedy decoding takes the arg-max and draws
        nothing.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rng = rng if rng is not None else self._rng
        steps = self.space.token_count
        uniforms = None if greedy else rng.random((count, steps))
        rows = np.arange(count)
        tokens = np.empty((count, steps), dtype=np.int64)
        log_prob = np.zeros(count)
        entropy = np.zeros(count)
        previous = np.full(count, self._start_token)
        hidden, cell = self._initial_state(count)
        for step in range(steps):
            hidden, cell, log_probs, _, _ = self._step(previous, hidden, cell)
            probabilities = np.exp(log_probs)
            probabilities /= probabilities.sum(axis=1, keepdims=True)
            if greedy:
                previous = probabilities.argmax(axis=1)
            else:
                cdf = probabilities.cumsum(axis=1)
                cdf /= cdf[:, -1:]
                previous = (cdf <= uniforms[:, step, None]).sum(axis=1)
            tokens[:, step] = previous
            log_prob += log_probs[rows, previous]
            entropy += -(probabilities * np.log(probabilities + 1e-12)).sum(axis=1)
        return [
            SampledCandidate(
                candidate=Candidate(tuple(self.space.structures_from_tokens(row))),
                tokens=row,
                log_prob=float(row_log_prob),
                entropy=float(row_entropy),
            )
            for row, row_log_prob, row_entropy in zip(tokens, log_prob, entropy)
        ]

    def sample_one(self, rng: Optional[np.random.Generator] = None, greedy: bool = False) -> SampledCandidate:
        """Sample a single candidate."""
        return self.sample(1, rng=rng, greedy=greedy)[0]

    # ------------------------------------------------------------------ gradients
    def _unroll(self, tokens: np.ndarray) -> _Unroll:
        """Run the policy over given token sequences of shape (rows, token_count)
        under teacher forcing, keeping every activation for back-propagation."""
        tokens = np.asarray(tokens, dtype=np.int64)
        previous = np.empty_like(tokens)
        previous[:, 0] = self._start_token
        previous[:, 1:] = tokens[:, :-1]
        hidden, cell = self._initial_state(tokens.shape[0])
        hiddens, cells, log_probs, gates, squashed = [hidden], [cell], [], [], []
        for step in range(tokens.shape[1]):
            hidden, cell, step_log_probs, step_gates, step_squashed = self._step(previous[:, step], hidden, cell)
            hiddens.append(hidden)
            cells.append(cell)
            log_probs.append(step_log_probs)
            gates.append(step_gates)
            squashed.append(step_squashed)
        return _Unroll(
            previous.T,
            np.stack(hiddens),
            np.stack(cells),
            np.stack(gates),
            np.stack(squashed),
            np.stack(log_probs),
        )

    def accumulate_policy_gradient(
        self, tokens: np.ndarray, log_prob_weights: np.ndarray, entropy_weight: float = 0.0
    ) -> None:
        """Add to every parameter's ``grad`` the gradient of
        ``sum_u w_u log pi(A_u) - entropy_weight * sum_u sum_t H_t(A_u)``.

        ``tokens`` holds one sequence ``A_u`` per row and ``log_prob_weights`` the
        ``w_u``; ``H_t`` is the entropy of the policy at step ``t`` of the
        teacher-forced unroll.  Back-propagation through time is written out in
        closed form and matches autodiff of the Tensor modules.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        weights = np.asarray(log_prob_weights, dtype=np.float64)
        trace = self._unroll(tokens)
        steps, rows = trace.previous.shape
        size = self.config.hidden_size

        # d/dlogits of w log p(a) is w (onehot(a) - p); of H it is -p (log p + H).
        probabilities = np.exp(trace.log_probs)
        d_logits = probabilities * -weights[None, :, None]
        d_logits[np.arange(steps)[:, None], np.arange(rows)[None, :], tokens.T] += weights[None, :]
        if entropy_weight:
            step_entropy = -(probabilities * trace.log_probs).sum(axis=-1, keepdims=True)
            d_logits += entropy_weight * probabilities * (trace.log_probs + step_entropy)

        # Every matrix product below spans one step or one token id, never all T x U
        # rows at once: OpenBLAS runs larger products on several threads, and
        # threaded products in concurrent worker processes oversubscribe the cores.
        hidden = trace.hidden
        d_hidden_out = d_logits @ self.output.weight.data.T
        d_output_weight = np.matmul(hidden[1:].transpose(0, 2, 1), d_logits).sum(axis=0)

        # The gates' local derivatives (sigmoid' and tanh') and the hidden -> cell
        # factor depend on no upstream gradient, so they are computed for all steps
        # at once; only the recurrence itself runs step by step.
        gates, squashed = trace.gates, trace.squashed_cell
        input_gate, forget_gate = gates[:, :, 0:size], gates[:, :, size : 2 * size]
        candidate, output_gate = gates[:, :, 2 * size : 3 * size], gates[:, :, 3 * size : 4 * size]
        local = gates * (1.0 - gates)
        local[:, :, 2 * size : 3 * size] = 1.0 - candidate**2
        hidden_to_cell = output_gate * (1.0 - squashed**2)
        hidden_weight = self.cell.hidden_map.weight.data
        d_hidden_weight = np.zeros_like(hidden_weight)
        d_gates = np.empty((steps, rows, 4 * size))
        d_hidden = np.zeros((rows, size))
        d_cell = np.zeros((rows, size))
        for step in reversed(range(steps)):
            d_hidden = d_hidden + d_hidden_out[step]
            d_cell = d_cell + d_hidden * hidden_to_cell[step]
            d_step = d_gates[step]
            d_step[:, 0:size] = d_cell * candidate[step]
            d_step[:, size : 2 * size] = d_cell * trace.cell[step]
            d_step[:, 2 * size : 3 * size] = d_cell * input_gate[step]
            d_step[:, 3 * size : 4 * size] = d_hidden * squashed[step]
            d_step *= local[step]
            d_hidden_weight += hidden[step].T @ d_step
            d_cell = d_cell * forget_gate[step]
            d_hidden = d_step @ hidden_weight.T

        # The input map only ever sees embedding rows, so its gradients and the
        # embedding's follow from the gate gradients summed per input token.
        input_map = self.cell.input_map
        embedding = self.token_embedding.weight.data
        d_token_gates = np.zeros((embedding.shape[0], 4 * size))
        np.add.at(d_token_gates, trace.previous.reshape(-1), d_gates.reshape(-1, 4 * size))
        gradients = (
            (self.token_embedding.weight, d_token_gates @ input_map.weight.data.T),
            (input_map.weight, embedding.T @ d_token_gates),
            (input_map.bias, d_token_gates.sum(axis=0)),
            (self.cell.hidden_map.weight, d_hidden_weight),
            (self.output.weight, d_output_weight),
            (self.output.bias, d_logits.sum(axis=(0, 1))),
        )
        for parameter, gradient in gradients:
            parameter.grad = gradient if parameter.grad is None else parameter.grad + gradient


class ReinforceUpdater:
    """Policy-gradient updates with an exponential moving-average baseline (Eq. 7)."""

    def __init__(self, controller: ArchitectureController) -> None:
        self.controller = controller
        self.optimizer = Adam(controller.parameters(), lr=controller.config.learning_rate)
        self.baseline: Optional[float] = None
        self._decay = controller.config.baseline_decay
        self._entropy_weight = controller.config.entropy_weight

    def update(self, samples: Sequence[SampledCandidate], rewards: Sequence[float]) -> float:
        """One REINFORCE step; returns the mean reward of the batch.

        Minimises ``(1/U) sum_u [-(R_u - b) log pi(A_u) - entropy_weight H(A_u)]``
        over the U samples, with ``H(A_u)`` the summed per-step policy entropy along
        the sampled sequence.
        """
        if len(samples) != len(rewards) or not samples:
            raise ValueError("samples and rewards must be non-empty and of equal length")
        mean_reward = float(np.mean(rewards))
        if self.baseline is None:
            self.baseline = mean_reward
        else:
            self.baseline = self._decay * self.baseline + (1.0 - self._decay) * mean_reward

        count = len(samples)
        advantages = np.asarray(rewards, dtype=np.float64) - self.baseline
        self.optimizer.zero_grad()
        self.controller.accumulate_policy_gradient(
            np.stack([sample.tokens for sample in samples]),
            -advantages / count,
            entropy_weight=self._entropy_weight / count,
        )
        self.optimizer.step()
        return mean_reward
