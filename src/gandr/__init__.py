"""Retrieval-augmented semantic parsing: generate, retrieve, regenerate.

The package retrieves training exemplars for a query by input text
similarity, prompts a model for a preliminary parse, re-retrieves with
that parse folded into the similarity, and prompts again for the final
parse. See the README for the command line and file formats.
"""

from .augment import AugmentedInput, build_augmented_input
from .errors import GandrError
from .evaluation import EvalReport, evaluate, exact_match, run_sweep
from .generator import (
    Generator,
    OracleLookupGenerator,
    RecordingGenerator,
    RemoteGenerator,
    ReplayGenerator,
    StaticGenerator,
)
from .pipeline import (
    FailurePolicy,
    PipelineConfig,
    PipelineMode,
    PredictionRecord,
    Sample,
    emit_training_pairs,
    run_pipeline,
)
from .retrieval import (
    Exemplar,
    ExemplarStore,
    ScoredExemplar,
    retrieve_sampled,
    retrieve_topk,
)
from .tfidf import tokenize_text
from .top_parse import (
    ParseTree,
    Template,
    parse_top,
    serialize,
    structure_tokens,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedInput",
    "EvalReport",
    "Exemplar",
    "ExemplarStore",
    "FailurePolicy",
    "GandrError",
    "Generator",
    "OracleLookupGenerator",
    "ParseTree",
    "PipelineConfig",
    "PipelineMode",
    "PredictionRecord",
    "RecordingGenerator",
    "RemoteGenerator",
    "ReplayGenerator",
    "Sample",
    "ScoredExemplar",
    "StaticGenerator",
    "Template",
    "build_augmented_input",
    "emit_training_pairs",
    "evaluate",
    "exact_match",
    "parse_top",
    "retrieve_sampled",
    "retrieve_topk",
    "run_pipeline",
    "run_sweep",
    "serialize",
    "structure_tokens",
    "tokenize_text",
]
