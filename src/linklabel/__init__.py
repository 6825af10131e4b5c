"""Statistical link-label prediction for signed directed networks.

A library and CLI for predicting the missing label (sign) of a directed
edge from the labels an initiator has handed out before, blending sparse
node-level co-occurrence statistics with dense cluster-level statistics
through Dirichlet smoothing, plus the entropy-minimizing clustering engine
and the evaluation harness the models are studied with.
"""

from .clustering import (ClusterConfig, Partition, boltzmann_pick, cluster,
                         delta_objective, gibbs_sweep, objective,
                         read_partition, write_partition)
from .counts import (ANY, BatchReport, BudgetExceededError, ClusterCounts,
                     CooccurrenceCounts, apply_edge_batch, build_precomputed_nam,
                     projected_pair_cost, save_cam_snapshot, save_nam_snapshot)
from .evaluation import (EvalReport, FoldPlan, balanced_accuracy, evaluate,
                         make_folds, param_sample_cdf, sparsity_sweep)
from .graph import (SIGNED, Context, EdgeListParseError, LabelAlphabet,
                    LoadOptions, LoadReport, PredictionQuery, SignedGraph,
                    context_of, generate_planted, graph_stats, load_edge_list,
                    sparsify, write_edge_list)
from .predictors import (CLUSTER_KINDS, LOCAL_KINDS, MODEL_KINDS,
                         LabelDistribution, SmoothingConfig, class_prior,
                         decide, decide_many, predict, predict_many)

__version__ = "0.1.0"

__all__ = [
    "ANY", "BatchReport", "BudgetExceededError", "CLUSTER_KINDS",
    "ClusterConfig", "ClusterCounts", "Context", "CooccurrenceCounts",
    "EdgeListParseError", "EvalReport", "FoldPlan", "LOCAL_KINDS",
    "LabelAlphabet", "LabelDistribution", "LoadOptions", "LoadReport",
    "MODEL_KINDS", "Partition", "PredictionQuery", "SIGNED", "SignedGraph",
    "SmoothingConfig", "apply_edge_batch", "balanced_accuracy",
    "boltzmann_pick", "build_precomputed_nam", "class_prior",
    "cluster", "context_of", "decide", "decide_many", "delta_objective", "evaluate",
    "generate_planted", "gibbs_sweep", "graph_stats", "load_edge_list",
    "make_folds", "objective", "param_sample_cdf", "predict",
    "predict_many", "projected_pair_cost", "read_partition",
    "save_cam_snapshot", "save_nam_snapshot", "sparsify", "sparsity_sweep",
    "write_edge_list", "write_partition",
]
