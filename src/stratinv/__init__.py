"""Stratified invariance for discrete models and prompted classifiers.

The package enumerates small structural causal models exactly, checks
candidate adjustment sets on causal graphs, measures stratified-invariance
bias and counterfactual-invariance probability, performs context-resampling
augmentation with exact or user-supplied samplers, and realizes the same
augmentation through chat-service prompting with a deterministic mock for
offline runs.
"""

from ._version import __version__
from .augment import (
    Aggregator,
    AugmentedPredictor,
    AugmentResult,
    IdentitySampler,
    ReplicateTrace,
    augment_once,
    augment_predict,
    augmented_kernel,
    exact_augmented_distribution,
    hoeffding_envelope,
)
from .causal_graph import (
    LATENT,
    OBSERVED,
    SELECTED,
    AdjustmentReport,
    CausalDag,
    dag,
    format_path,
    is_adjustment_set,
    load_dag,
    minimal_adjustment_sets,
    open_paths,
)
from .chat import (
    CachingChatClient,
    ChatClient,
    ChatTurnRequest,
    HttpChatClient,
)
from .errors import (
    AmbiguousContext,
    BalanceError,
    DomainMismatch,
    EmptyCell,
    EnumerationTooLarge,
    GraphError,
    InconsistentEvidence,
    MissingBaseline,
    OocFailed,
    SamplerFailure,
    ServiceError,
    StratinvError,
    TemplateError,
    UnparsableAnswer,
    UnrecognizedRole,
    ZeroMassStratum,
)
from .metrics import (
    LabeledRecord,
    RecordTable,
    balanced_subsample,
    check_stratified_invariance_exact,
    ci_permutation_test,
    ci_probability,
    dump_records,
    exact_prediction_law,
    load_record_table,
    load_records,
    macro_f1,
    max_context_deviation,
    potential_prediction_map,
    si_bias,
)
from .mock import MockStructuredLm
from .ooc import (
    TaskConfig,
    builtin_task,
    builtin_task_names,
    load_task,
    ooc_predict,
    ooc_predict_many,
    predict_label,
    render_template,
)
from .scm import (
    AMBIGUOUS,
    DiscreteScm,
    ExactConditionalSampler,
    ExactRecoverer,
    FiniteDomain,
    World,
    dump_scm,
    enumerate_joint,
    load_scm,
    observed,
    potential,
    sample_world,
    scm_from_tables,
)
from .structured import StructuredText, parse_structured

__all__ = [name for name in dir() if not name.startswith("_")]
