"""Packing prediction for FPGA global placements.

Generate or parse a placed design, build its circuit graph with the
neighbor-priority rules, train the imbalance-aware graph model over a
cluster partition, and evaluate the per-node unpacked-probability
predictions with ranking metrics.
"""

from .design import (
    DesignError,
    Instance,
    LabelSet,
    Net,
    PlacementDesign,
    parse_design,
    parse_labels,
    write_design,
    write_labels,
)
from .features import build_feature_matrix, encode_region, encode_type, feature_dim
from .graphs import (
    BuildConfig,
    CircuitGraph,
    GraphFormatError,
    build_congeneric_edges,
    build_correlation_edges,
    build_graph,
    build_residual_edges,
    clique_expansion_count,
    read_graph,
    write_graph,
)
from .metrics import (
    EvalReport,
    auc,
    confusion_at,
    f1_at,
    render_report,
    report,
    roc_curve,
    roc_lines,
    tpr_at_fpr,
)
from .model import HyperParams, forward, init_params
from .optim import Adam, ParamStore
from .partition import Partition, partition_graph
from .synth import GenConfig, generate_design, generate_labeled, packing_oracle
from .train import (
    CheckpointError,
    PredictionError,
    TrainConfig,
    TrainLog,
    infer,
    load_checkpoint,
    read_predictions,
    save_checkpoint,
    train,
    write_predictions,
)

__version__ = "0.1.0"
