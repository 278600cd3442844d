"""Explainable voice screening: MFCC features, a Poisson degradation
mask, a residual-CNN biomarker ensemble with metadata fusion, and
per-subject saliency reports.

The API is the submodules (`ovbm.pipeline`, `ovbm.models`, ...); the
package root binds only `__version__`."""

__version__ = "0.1.0"
