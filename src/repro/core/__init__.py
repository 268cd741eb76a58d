"""Core contribution: MDP, bipartite graph, structural similarity,
exact solvers, competitiveness bounds, and the online scheduler."""

from .abstraction import Clustering, abstract_mdp, cluster_states, lift_policy
from .bounds import (
    BoundCheck,
    competitiveness_factor,
    value_difference_bound,
    verify_action_bound,
    verify_value_bound,
)
from .emd import EMDStats, PairwiseEMD, emd, emd_1d, emd_dicts
from .graph import ActionNode, MDPGraph
from .hausdorff import directed_hausdorff, hausdorff, hausdorff_matrix
from .mdp import MDP, random_mdp
from .minflow import MinCostFlow, transport, transport_dense
from .online import OnlineScheduler
from .policy import Policy, RandomPolicy, TabularPolicy, rollout_return
from .similarity import SimilarityResult, SolverStats, StructuralSimilarity
from .solver import Solution, policy_evaluation, policy_iteration, value_iteration

__all__ = [
    "Clustering",
    "abstract_mdp",
    "cluster_states",
    "lift_policy",
    "BoundCheck",
    "competitiveness_factor",
    "value_difference_bound",
    "verify_action_bound",
    "verify_value_bound",
    "EMDStats",
    "PairwiseEMD",
    "emd",
    "emd_1d",
    "emd_dicts",
    "ActionNode",
    "MDPGraph",
    "directed_hausdorff",
    "hausdorff",
    "hausdorff_matrix",
    "MDP",
    "random_mdp",
    "MinCostFlow",
    "transport",
    "transport_dense",
    "OnlineScheduler",
    "Policy",
    "RandomPolicy",
    "TabularPolicy",
    "rollout_return",
    "SimilarityResult",
    "SolverStats",
    "StructuralSimilarity",
    "Solution",
    "policy_evaluation",
    "policy_iteration",
    "value_iteration",
]
