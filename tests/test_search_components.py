"""Tests for the search-space building blocks: space, supernet, controller, clustering,
predictor, results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import functional as F
from repro.search import (
    ArchitectureController,
    Candidate,
    ControllerConfig,
    EMRelationClustering,
    RelationAwareSearchSpace,
    SearchResult,
    SharedEmbeddingSupernet,
    StructurePerformancePredictor,
    SupernetConfig,
    TracePoint,
)
from repro.scoring import BlockStructure, named_structure
from repro.search.controller import ReinforceUpdater, SampledCandidate
from repro.search.predictor import candidate_features, structure_features


class TestSearchSpace:
    def test_geometry(self):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=3)
        assert space.tokens_per_structure == 16
        assert space.token_count == 48
        assert space.num_operations == 9
        assert space.log10_size() == pytest.approx(48 * np.log10(9))

    def test_relation_aware_space_is_larger_than_task_aware(self):
        relation_aware = RelationAwareSearchSpace(num_blocks=4, num_groups=3)
        task_aware = relation_aware.task_aware()
        assert relation_aware.log10_size() > task_aware.log10_size()
        assert task_aware.num_groups == 1

    def test_token_structure_roundtrip(self, rng):
        space = RelationAwareSearchSpace(num_blocks=3, num_groups=2)
        candidate = space.random_candidate(rng)
        tokens = space.tokens_from_structures(candidate)
        decoded = space.structures_from_tokens(tokens)
        assert all(a == b for a, b in zip(candidate, decoded))

    def test_token_length_validation(self):
        space = RelationAwareSearchSpace(num_blocks=2, num_groups=2)
        with pytest.raises(ValueError):
            space.structures_from_tokens([0, 1, 2])
        with pytest.raises(ValueError):
            space.tokens_from_structures([BlockStructure.diagonal(2)])

    def test_exploitative_constraint(self, rng):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=1)
        assert space.satisfies_exploitative_constraint([BlockStructure.diagonal(4)])
        missing_block = BlockStructure([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
        assert not space.satisfies_exploitative_constraint([missing_block])

    def test_budget_constraint(self):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=1, max_items_per_structure=4)
        assert space.satisfies_exploitative_constraint([BlockStructure.diagonal(4)])
        dense = named_structure("complex")
        assert not space.satisfies_exploitative_constraint([dense])

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            RelationAwareSearchSpace(num_blocks=0)
        with pytest.raises(ValueError):
            RelationAwareSearchSpace(num_blocks=4, num_groups=0)
        with pytest.raises(ValueError):
            RelationAwareSearchSpace(num_blocks=4, num_groups=1, max_items_per_structure=2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_candidates_satisfy_constraint(self, seed):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=2)
        rng = np.random.default_rng(seed)
        candidate = space.random_candidate(rng)
        assert space.satisfies_exploitative_constraint(candidate)


class TestCandidateAndResult:
    def test_candidate_requires_structures(self):
        with pytest.raises(ValueError):
            Candidate(())

    def test_signature_is_hashable_and_stable(self):
        candidate = Candidate((BlockStructure.diagonal(3),))
        assert candidate.signature() == Candidate((BlockStructure.diagonal(3),)).signature()
        assert hash(candidate.signature())

    def test_search_result_helpers(self):
        candidate = Candidate((BlockStructure.diagonal(2), BlockStructure.zeros(2)))
        result = SearchResult(
            searcher="test", dataset="toy", best_candidate=candidate,
            best_assignment=np.array([0, 1, 1]), best_valid_mrr=0.5,
            search_seconds=1.0, evaluations=3,
            trace=[TracePoint(0.1, 1, 0.2)],
        )
        assert result.group_of_relation(2) == 1
        assert result.relations_per_group() == {0: [0], 1: [1, 2]}
        assert result.summary()["groups"] == 2
        assert len(result.best_structures()) == 2


class TestSupernet:
    def test_training_step_reduces_loss_over_time(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=1, config=SupernetConfig(dim=16, seed=0))
        candidate = Candidate((named_structure("distmult"),))
        losses = []
        for _ in range(8):
            for batch in supernet.training_batches(seed=0):
                losses.append(supernet.training_step([candidate], batch))
        assert losses[-1] < losses[0]

    def test_reward_in_unit_interval(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=1, config=SupernetConfig(dim=16, seed=0))
        candidate = Candidate((named_structure("distmult"),))
        reward = supernet.reward(candidate, supernet.sample_validation_batch())
        assert 0.0 < reward <= 1.0

    def test_neg_loss_reward_is_negative(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=1, config=SupernetConfig(dim=16, seed=0))
        candidate = Candidate((named_structure("distmult"),))
        assert supernet.reward(candidate, supernet.sample_validation_batch(), metric="neg_loss") < 0.0
        with pytest.raises(ValueError):
            supernet.reward(candidate, supernet.sample_validation_batch(), metric="hits")

    def test_group_count_mismatch_rejected(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=2, config=SupernetConfig(dim=16, seed=0))
        with pytest.raises(ValueError):
            supernet.reward(Candidate((named_structure("distmult"),)), supernet.sample_validation_batch())

    def test_assignment_validation(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=2, config=SupernetConfig(dim=16, seed=0))
        with pytest.raises(ValueError):
            supernet.set_assignment(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            supernet.set_assignment(np.full(tiny_graph.num_relations, 5, dtype=np.int64))

    def test_shared_embeddings_persist_across_candidates(self, tiny_graph):
        supernet = SharedEmbeddingSupernet(tiny_graph, num_groups=1, config=SupernetConfig(dim=16, seed=0))
        before = supernet.relation_embeddings().copy()
        supernet.reward(Candidate((named_structure("complex"),)), supernet.sample_validation_batch())
        np.testing.assert_allclose(supernet.relation_embeddings(), before)


def _oracle_step(controller, previous, state):
    """One policy step through the controller's Tensor modules, the reference policy."""
    state = controller.cell(controller.token_embedding(np.asarray(previous)), state)
    return state, F.log_softmax(controller.output(state[0]), axis=-1)


def _oracle_sample(controller, count, rng):
    """Reference sampler: one sample after another, one ``rng.choice`` per token."""
    samples = []
    for _ in range(count):
        state = controller.cell.initial_state(1)
        previous, tokens, log_prob = controller.space.num_operations, [], 0.0
        for _ in range(controller.space.token_count):
            state, log_probs = _oracle_step(controller, [previous], state)
            probabilities = np.exp(log_probs.data[0])
            previous = int(rng.choice(len(probabilities), p=probabilities / probabilities.sum()))
            tokens.append(previous)
            log_prob += log_probs.data[0, previous]
        samples.append((np.array(tokens), log_prob))
    return samples


def _oracle_unroll(controller, tokens):
    """Teacher-forced Tensor unroll over token rows; the per-step log-softmax tensors."""
    rows = np.arange(len(tokens))
    state = controller.cell.initial_state(len(tokens))
    previous = np.full(len(tokens), controller.space.num_operations)
    steps = []
    for step in range(tokens.shape[1]):
        state, log_probs = _oracle_step(controller, previous, state)
        steps.append((log_probs, log_probs[rows, tokens[:, step]]))
        previous = tokens[:, step]
    return steps


def _oracle_log_probs(controller, tokens):
    return sum(picked.data for _, picked in _oracle_unroll(controller, tokens))


def _mean_step_entropy(controller, tokens):
    steps = _oracle_unroll(controller, tokens)
    return float(np.mean([-(np.exp(log_probs.data) * log_probs.data).sum(axis=-1) for log_probs, _ in steps]))


def _samples_from_tokens(space, tokens):
    return [
        SampledCandidate(Candidate(tuple(space.structures_from_tokens(row))), row, 0.0, 0.0) for row in tokens
    ]


class TestController:
    def test_sample_shapes_and_validity(self, tiny_graph):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=2)
        controller = ArchitectureController(space, ControllerConfig(seed=0))
        samples = controller.sample(3)
        assert len(samples) == 3
        for sample in samples:
            assert sample.tokens.shape == (space.token_count,)
            assert sample.candidate.num_groups == 2
            assert np.isfinite(sample.log_prob) and sample.log_prob <= 0.0
            assert sample.log_prob == pytest.approx(_oracle_log_probs(controller, sample.tokens[None])[0], abs=1e-12)
            assert sample.entropy > 0

    def test_zero_bias_makes_sparse_candidates(self):
        space = RelationAwareSearchSpace(num_blocks=4, num_groups=1)
        sparse_controller = ArchitectureController(space, ControllerConfig(zero_operation_bias=4.0, seed=0))
        dense_controller = ArchitectureController(space, ControllerConfig(zero_operation_bias=-4.0, seed=0))
        sparse = np.mean([s.candidate.structures[0].nonzero_count() for s in sparse_controller.sample(10)])
        dense = np.mean([s.candidate.structures[0].nonzero_count() for s in dense_controller.sample(10)])
        assert sparse < dense

    def test_greedy_sampling_is_deterministic(self):
        space = RelationAwareSearchSpace(num_blocks=3, num_groups=1)
        controller = ArchitectureController(space, ControllerConfig(seed=0))
        first = controller.sample_one(greedy=True).tokens
        second = controller.sample_one(greedy=True).tokens
        np.testing.assert_array_equal(first, second)

    def test_sample_count_validation(self):
        space = RelationAwareSearchSpace(num_blocks=3, num_groups=1)
        controller = ArchitectureController(space, ControllerConfig(seed=0))
        with pytest.raises(ValueError):
            controller.sample(0)

    def test_reinforce_update_shifts_policy_towards_rewarded_sample(self):
        space = RelationAwareSearchSpace(num_blocks=2, num_groups=1)
        controller = ArchitectureController(space, ControllerConfig(seed=0, learning_rate=0.1))
        updater = ReinforceUpdater(controller)
        rng = np.random.default_rng(0)
        for _ in range(30):
            samples = controller.sample(4, rng=rng)
            # Reward samples that choose the zero op at position 0.
            rewards = [1.0 if s.tokens[0] == 0 else 0.0 for s in samples]
            updater.update(samples, rewards)
        frequencies = np.mean([controller.sample_one(rng=rng).tokens[0] == 0 for _ in range(30)])
        assert frequencies > 0.5
        assert updater.baseline is not None

    @pytest.mark.parametrize("num_blocks,num_groups,hidden_size", [(4, 3, 64), (2, 1, 8), (3, 2, 16)])
    def test_sampler_matches_tensor_oracle(self, num_blocks, num_groups, hidden_size):
        space = RelationAwareSearchSpace(num_blocks=num_blocks, num_groups=num_groups)
        controller = ArchitectureController(space, ControllerConfig(hidden_size=hidden_size, seed=3))
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        for count in (1, 3):
            samples = controller.sample(count, rng=rng)
            reference = _oracle_sample(controller, count, reference_rng)
            for sample, (tokens, log_prob) in zip(samples, reference):
                np.testing.assert_array_equal(sample.tokens, tokens)
                assert sample.log_prob == pytest.approx(log_prob, abs=1e-12)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        before = rng.bit_generator.state
        greedy = controller.sample(2, rng=rng, greedy=True)
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(greedy[0].tokens, greedy[1].tokens)

    @pytest.mark.parametrize("entropy_weight", [0.0, 0.3])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_reinforce_gradient_matches_autodiff(self, count, entropy_weight):
        space = RelationAwareSearchSpace(num_blocks=3, num_groups=2)
        controller = ArchitectureController(
            space, ControllerConfig(hidden_size=16, token_embedding_dim=8, entropy_weight=entropy_weight, seed=count)
        )
        updater = ReinforceUpdater(controller)
        updater.optimizer.step = lambda: None  # keep the parameters; only the gradients are compared
        rng = np.random.default_rng(count)
        tokens = rng.integers(0, space.num_operations, size=(count, space.token_count))
        rewards = rng.random(count)
        updater.baseline = float(rng.random())
        decay = controller.config.baseline_decay
        baseline = decay * updater.baseline + (1.0 - decay) * float(np.mean(rewards))
        updater.update(_samples_from_tokens(space, tokens), list(rewards))
        closed_form = {name: parameter.grad.copy() for name, parameter in controller.named_parameters()}

        # Autodiff of the same loss over the teacher-forced Tensor unroll.
        controller.zero_grad()
        weights = -(rewards - baseline) / count
        loss = None
        for log_probs, picked in _oracle_unroll(controller, tokens):
            entropy = -(log_probs.exp() * log_probs).sum()
            term = (picked * weights).sum() - entropy * (entropy_weight / count)
            loss = term if loss is None else loss + term
        loss.backward()
        for name, parameter in controller.named_parameters():
            np.testing.assert_allclose(closed_form[name], parameter.grad, rtol=0, atol=1e-10, err_msg=name)

    def test_entropy_bonus_raises_policy_entropy(self):
        space = RelationAwareSearchSpace(num_blocks=3, num_groups=1)
        controller = ArchitectureController(space, ControllerConfig(entropy_weight=0.5, seed=0))
        updater = ReinforceUpdater(controller)
        samples = controller.sample(4, rng=np.random.default_rng(0))
        tokens = np.stack([sample.tokens for sample in samples])
        before = _mean_step_entropy(controller, tokens)
        # Equal rewards: the advantage is zero, so only the entropy bonus moves the policy.
        updater.update(samples, [0.5] * len(samples))
        assert _mean_step_entropy(controller, tokens) > before

    def test_reinforce_update_validation(self):
        space = RelationAwareSearchSpace(num_blocks=2, num_groups=1)
        controller = ArchitectureController(space, ControllerConfig(seed=0))
        updater = ReinforceUpdater(controller)
        with pytest.raises(ValueError):
            updater.update([], [])


class TestClustering:
    def test_well_separated_clusters_recovered(self, rng):
        first = rng.normal(loc=0.0, size=(10, 4))
        second = rng.normal(loc=8.0, size=(10, 4))
        embeddings = np.concatenate([first, second])
        assignment = EMRelationClustering(2, seed=0).assign(embeddings)
        assert len(set(assignment[:10])) == 1
        assert len(set(assignment[10:])) == 1
        assert assignment[0] != assignment[10]

    def test_single_group_everything_in_group_zero(self, rng):
        assignment = EMRelationClustering(1, seed=0).assign(rng.normal(size=(7, 3)))
        assert set(assignment) == {0}

    def test_more_groups_than_points(self, rng):
        assignment = EMRelationClustering(5, seed=0).assign(rng.normal(size=(3, 2)))
        assert assignment.shape == (3,)
        assert assignment.max() < 5

    def test_no_empty_groups(self, rng):
        embeddings = rng.normal(size=(12, 3))
        assignment = EMRelationClustering(3, seed=0).assign(embeddings)
        assert set(assignment) == {0, 1, 2}

    def test_warm_start_accepted(self, rng):
        embeddings = rng.normal(size=(8, 3))
        clustering = EMRelationClustering(2, seed=0)
        first = clustering.assign(embeddings)
        second = clustering.assign(embeddings, initial_assignment=first)
        assert second.shape == first.shape

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            EMRelationClustering(0)
        with pytest.raises(ValueError):
            EMRelationClustering(2).fit(rng.normal(size=(5,)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_inertia_non_negative_and_groups_valid(self, seed):
        rng = np.random.default_rng(seed)
        embeddings = rng.normal(size=(9, 4))
        result = EMRelationClustering(3, seed=0).fit(embeddings)
        assert result.inertia >= 0.0
        assert result.assignment.min() >= 0 and result.assignment.max() < 3


class TestPredictor:
    def test_features_are_deterministic_and_distinct(self):
        diag = structure_features(BlockStructure.diagonal(4))
        dense = structure_features(named_structure("complex"))
        np.testing.assert_allclose(diag, structure_features(BlockStructure.diagonal(4)))
        assert not np.allclose(diag, dense)

    def test_candidate_features_concatenate(self):
        features = candidate_features([BlockStructure.diagonal(4), named_structure("simple")])
        assert features.shape == (2 * structure_features(BlockStructure.diagonal(4)).shape[0],)

    def test_predictor_learns_simple_signal(self, rng):
        predictor = StructurePerformancePredictor()
        # Performance proportional to the number of diagonal items: learnable from features.
        for _ in range(30):
            structure = BlockStructure.random(4, rng, require_all_blocks=False)
            performance = np.count_nonzero(np.diag(structure.entries)) / 4.0
            predictor.observe(structure, performance)
        good = BlockStructure.diagonal(4)
        bad = BlockStructure([[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [4, 0, 0, 0]])
        assert predictor.predict(good) > predictor.predict(bad)

    def test_rank_returns_top_k(self, rng):
        predictor = StructurePerformancePredictor()
        structures = [BlockStructure.random(4, rng, require_all_blocks=False) for _ in range(6)]
        for index, structure in enumerate(structures):
            predictor.observe(structure, index / 10.0)
        top = predictor.rank(structures, top_k=2)
        assert len(top) == 2
        with pytest.raises(ValueError):
            predictor.rank(structures, top_k=0)

    def test_untrained_predictor_returns_mean(self):
        predictor = StructurePerformancePredictor()
        assert predictor.predict(BlockStructure.diagonal(4)) == 0.0
        predictor.observe(BlockStructure.diagonal(4), 0.4)
        assert predictor.predict(BlockStructure.zeros(4)) == pytest.approx(0.4)

    def test_invalid_ridge(self):
        with pytest.raises(ValueError):
            StructurePerformancePredictor(ridge=0.0)
