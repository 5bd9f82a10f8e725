"""Multi-stage text-to-SQL over SQLite.

The pipeline runs extraction, demonstration selection, sampled SQL
generation, consistency rewrites, execution-guided correction, and a
result vote. Model access goes through a gateway object, so every
deterministic part runs offline against recorded transcripts.
"""

from .embedding import TrigramEmbedder
from .errors import GatewayError, T2SError
from .fewshot import CoTBody, FewShot, FewShotLibrary, mask_question
from .gateway import Completion, HttpGateway, RecordingGateway, ScriptedGateway
from .pipeline import Deps, PipelineConfig, preprocess_database, run_pipeline
from .schema import SchemaCatalog, ingest_schema
from .value_index import ValueIndex

__version__ = "0.1.0"

__all__ = [
    "CoTBody",
    "Completion",
    "Deps",
    "FewShot",
    "FewShotLibrary",
    "GatewayError",
    "HttpGateway",
    "PipelineConfig",
    "RecordingGateway",
    "SchemaCatalog",
    "ScriptedGateway",
    "T2SError",
    "TrigramEmbedder",
    "ValueIndex",
    "ingest_schema",
    "mask_question",
    "preprocess_database",
    "run_pipeline",
]
