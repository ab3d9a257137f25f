"""Claim verification through knowledge-graph-grounded contrastive questioning."""

from .contrastive import ContrastiveQuestion, formulate, generate_candidates, mmr_rank
from .corpus import ClaimCase, DatasetLoader, Report, dataset_stats
from .kg import Entity, KnowledgeGraph, Term, Triple, merge
from .metrics import distance_weight, prf, weighted_alignscore, weighted_rquge
from .reasoning import answer_questions, summarise
from .runner import PipelineRecord, RunConfig, StageModels, run
from .verification import LabelScheme, Verdict, load_scheme, map_binary, verify

__version__ = "0.1.0"

__all__ = [
    "ClaimCase",
    "ContrastiveQuestion",
    "DatasetLoader",
    "Entity",
    "KnowledgeGraph",
    "LabelScheme",
    "PipelineRecord",
    "Report",
    "RunConfig",
    "StageModels",
    "Term",
    "Triple",
    "Verdict",
    "answer_questions",
    "dataset_stats",
    "distance_weight",
    "formulate",
    "generate_candidates",
    "load_scheme",
    "map_binary",
    "merge",
    "mmr_rank",
    "prf",
    "run",
    "summarise",
    "verify",
    "weighted_alignscore",
    "weighted_rquge",
]
