"""Explainable voice screening: MFCC features, a Poisson degradation
mask, a residual-CNN biomarker ensemble with metadata fusion, and
per-subject saliency reports."""

from .aggregation import AggregationScheme, Diagnosis, aggregate, decide
from .audio_io import (
    AudioClip,
    SubjectRecord,
    SynthSpec,
    load_wav,
    parse_manifest,
    synth_clip,
    write_wav,
)
from .chunker import ChunkPlan, Chunks, chunk_plan, extract_chunks
from .degradation import apply_poisson_mask, poisson_pmf
from .fusion import (
    FusionModel,
    build_fusion,
    load_ensemble,
    metadata_vector,
    save_ensemble,
    train_fusion,
)
from .mfcc import MfccImage, MfccParams, mfcc, mfcc_oracle
from .models import (
    MEMBERS,
    ROSTER,
    BiomarkerModel,
    CnnArch,
    TrainConfig,
    init_cnn,
    load_model,
    save_model,
    train,
    trainable_layers,
)
from .pipeline import (
    RunConfig,
    TrainedPipeline,
    load_pipeline,
    run_training,
    save_pipeline,
    subject_saliency,
)
from .saliency import (
    SaliencyMap,
    ablation_report,
    compare_maps,
    saliency_map,
    uniqueness_report,
)
from .synthesis import surrogate_dataset, write_corpus
from .util import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AggregationScheme", "Diagnosis", "aggregate", "decide",
    "AudioClip", "SubjectRecord", "SynthSpec", "load_wav", "parse_manifest",
    "synth_clip", "write_wav",
    "ChunkPlan", "Chunks", "chunk_plan", "extract_chunks",
    "apply_poisson_mask", "poisson_pmf",
    "FusionModel", "build_fusion", "load_ensemble",
    "metadata_vector", "save_ensemble", "train_fusion",
    "MfccImage", "MfccParams", "mfcc", "mfcc_oracle",
    "MEMBERS", "ROSTER", "BiomarkerModel", "CnnArch", "TrainConfig",
    "init_cnn", "load_model", "save_model", "train", "trainable_layers",
    "RunConfig", "TrainedPipeline", "load_pipeline", "run_training",
    "save_pipeline", "subject_saliency",
    "SaliencyMap", "ablation_report", "compare_maps", "saliency_map",
    "uniqueness_report",
    "surrogate_dataset", "write_corpus",
    "derive_seed",
    "__version__",
]
