"""Multi-target rule learning over knowledge graphs.

Sparse per-predicate operators, saturation/bifurcation structure indicators,
a differentiable multi-target rule reasoner with exact hand-derived gradients,
mini-batch Adam training, rule extraction, and a filtered link-prediction
evaluation harness.
"""

from .kg import (
    DatasetSplits,
    KnowledgeGraph,
    MultiTargetQuery,
    TripleParseError,
    group_queries,
    load_dataset,
)
from .operators import (
    IDENTITY_OP,
    OperatorSet,
    RulePattern,
    build_operators,
    count_paths,
)
from .indicators import (
    BifurcationRecord,
    CostBudgetError,
    EmptySubgraphError,
    SaturationRecord,
    bifurcation,
    sample_subgraph,
    saturation_report,
)
from .model import (
    AttentionTensor,
    ExtractedRule,
    ModelParams,
    attention_forward,
    extract_rules,
    load_checkpoint,
    logit_loss,
    save_checkpoint,
    score_entities,
)
from .training import (
    AdamOptimizer,
    EvalReport,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    hit_upper_bound,
    train,
)

__version__ = "0.1.0"
