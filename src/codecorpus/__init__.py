"""Deterministic corpus workbench for Java source analysis.

Catalogs project trees into id-keyed metadata, derives token, tree, path
and graph representations per method, computes source metrics and a
static call graph, generates split datasets for prediction tasks, and
measures subword-tokenized entity sizes against context-window budgets.
"""

from .catalog import (CALLGRAPH_KEYS, Catalog, METRIC_KEYS, ProjectData,
                      catalog_project, read_metadata, write_metadata)
from .callgraph import (CALL_TYPES, CallEdge, CallGraph, build_callgraph,
                        classify_distribution, connectivity_props,
                        n_hop_context)
from .errors import (CorpusError, EmptyProjectError, InputError,
                     InvalidArgumentError, LexError, NotFoundError,
                     ParseError)
from .featuregraph import (EDGE_TYPES, FeatureGraph, ast_graph,
                           build_feature_graph, filter_edges, graph_payload,
                           parse_graph_payload)
from .identity import assign_id
from .lexer import Token, lex, tkna_text, tknb_text
from .metrics import compute_metrics, token_census
from .parser import FileView, MethodSource, file_view
from .pathcontexts import extract_paths, to_c2sq, to_c2vc
from .pipeline import REPRESENTATION_TYPES, Workspace, WorkspaceConfig
from .taskgen import (TaskDataset, TaskSample, augment_with_context,
                      baseline_context_unigram, baseline_most_frequent,
                      bias_table, evaluate_exact_match,
                      make_call_masking_task, make_mutation_task,
                      make_property_task, unmask_payload)
from .tokenstats import (WINDOW_THRESHOLDS, BpeVocab, bpe_decode, bpe_encode,
                         entity_sizes, tokenizer_ratio, train_bpe, window_fit)

__version__ = "0.1.0"

__all__ = [
    "CALLGRAPH_KEYS", "CALL_TYPES", "BpeVocab", "CallEdge", "CallGraph",
    "Catalog", "CorpusError", "EDGE_TYPES", "EmptyProjectError",
    "FeatureGraph", "FileView", "InputError",
    "InvalidArgumentError", "LexError", "METRIC_KEYS", "MethodSource",
    "NotFoundError", "ParseError", "ProjectData", "REPRESENTATION_TYPES",
    "TaskDataset", "TaskSample", "Token",
    "WINDOW_THRESHOLDS", "Workspace", "WorkspaceConfig", "assign_id",
    "ast_graph", "augment_with_context", "baseline_context_unigram",
    "baseline_most_frequent", "bias_table", "bpe_decode", "bpe_encode",
    "build_callgraph", "build_feature_graph", "catalog_project",
    "classify_distribution", "compute_metrics", "connectivity_props",
    "entity_sizes", "evaluate_exact_match", "extract_paths", "file_view",
    "filter_edges", "graph_payload", "lex", "make_call_masking_task",
    "make_mutation_task", "make_property_task", "n_hop_context",
    "parse_graph_payload", "read_metadata", "tkna_text", "tknb_text",
    "to_c2sq", "to_c2vc", "token_census", "tokenizer_ratio", "train_bpe",
    "unmask_payload", "window_fit", "write_metadata",
]
