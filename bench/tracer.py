"""Outside-in tracer: times the library's public functions without
touching its source.

`Tracer.install` wraps every public function defined in each `ovbm`
module and rebinds the wrapper wherever the library binds that function,
including names pulled in with `from .x import f` (`chunker.mfcc`,
`fusion.apply_poisson_mask`, `saliency.forward_batch`, ...). Modules are
resolved with `importlib.import_module`, because the package re-exports
a function `mfcc` that shadows the `ovbm.mfcc` submodule.

Spans (name, start, end, parent, run id) stay in memory and are written
once, when the run ends. Counters are read from arguments and results at
the same boundaries. `metrics` turns both into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("util", "audio_io", "mfcc", "degradation", "chunker", "nn", "models",
           "fusion", "aggregation", "synthesis", "saliency", "pipeline")
# Rebinding targets also include the package itself and the CLI.
BINDERS = MODULES + ("cli",)

WEIGHT_IO = frozenset(f"models.{f}" for f in (
    "pack_tensor_records", "unpack_tensor_records", "read_weight_file",
    "model_file_bytes", "save_model", "load_model"))

MB = 1e6


def _conv_flop(x, w) -> float:
    batch, c_in, height, width = x.shape
    return 2.0 * 9 * batch * c_in * w.shape[0] * height * width


def _conv_backward(args, kwargs, result, token):
    need_dx = kwargs.get("need_dx", args[3] if len(args) > 3 else True)
    passes = 2 if need_dx else 1  # weight gradient, plus input gradient
    return {"nn.conv3x3_backward.gflop":
            passes * _conv_flop(args[1], args[2]) / 1e9}


def _resample(args, kwargs, result, token):
    changed = int(args[1]) != args[0].sample_rate
    return {"audio_io.resampled_samples": result.samples.size if changed else 0}


def _store_after(args, kwargs, result, token):
    return {"pipeline.feature_store.calls": 1,
            "pipeline.feature_store.hits": len(args[0]._chunks) == token}


# Counters read at the call boundary. name -> (post, pre): post(args,
# kwargs, result, token) returns increments; pre(args, kwargs) returns
# the token.
HOOKS = {
    "audio_io.load_wav": (lambda a, k, r, t: {
        "audio_io.decoded_mb": os.path.getsize(a[0]) / MB}, None),
    "audio_io.resample_linear": (_resample, None),
    "mfcc.mfcc": (lambda a, k, r, t: {
        "mfcc.frames": r.values.shape[0], "mfcc.audio_s": a[0].duration}, None),
    "chunker.extract_chunks": (lambda a, k, r, t: {
        "chunker.chunks": len(r)}, None),
    "degradation.apply_poisson_mask": (lambda a, k, r, t: {
        "degradation.masked_values": a[0].values.size}, None),
    "nn.conv3x3": (lambda a, k, r, t: {
        "nn.conv3x3.gflop": _conv_flop(a[0], a[1]) / 1e9,
        "nn.conv3x3.images": a[0].shape[0]}, None),
    "nn.conv3x3_backward": (_conv_backward, None),
    # Adam reads w, g, m, v and writes w, m, v.
    "nn.adam_update": (lambda a, k, r, t: {
        "nn.adam_update.mb": 7 * a[0].nbytes / MB}, None),
    "models.forward_batch": (lambda a, k, r, t: {
        "models.images": a[1].shape[0]}, None),
    "models.model_file_bytes": (lambda a, k, r, t: {
        "models.weight_io.mb": len(r) / MB}, None),
    "models.read_weight_file": (lambda a, k, r, t: {
        "models.weight_io.mb": os.path.getsize(a[0]) / MB}, None),
    "fusion.member_embeddings": (lambda a, k, r, t: {
        "fusion.member_embeddings.images": len(a[1])}, None),
    "synthesis.surrogate_dataset": (lambda a, k, r, t: {
        "synthesis.surrogate_clips": len(r)}, None),
    "util.sha256_file": (lambda a, k, r, t: {
        "fusion.digest_mb": os.path.getsize(a[0]) / MB}, None),
    "pipeline.load_clip": (lambda a, k, r, t: {
        "pipeline.scored_s": r.duration}, None),
    # A call that stored nothing new was served from the cache.
    "pipeline.FeatureStore.chunks": (_store_after,
                                     lambda a, k: len(a[0]._chunks)),
}

# Conv time is split by shape: the Ci=1 stem and the Ci=C blocks respond
# differently to the same kernel change.
SPAN_NAME = {
    "nn.conv3x3": lambda args: ("nn.conv3x3.stem" if args[0].shape[1] == 1
                                else "nn.conv3x3.block"),
}


class Tracer:
    def __init__(self):
        self.run_id = ""
        self.spans: list = []   # [name, start, end, parent index, run id]
        self.counts = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        post, pre = HOOKS.get(name, (None, None))
        span_name = SPAN_NAME.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            span = [span_name(args) if span_name else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                for key, amount in post(args, kwargs, result, token).items():
                    counts[key] += amount
            return result

        return traced

    def _rebind(self, original, wrapped, binders) -> None:
        for owner in binders:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    def install(self) -> None:
        binders = [importlib.import_module("ovbm")] + [
            importlib.import_module(f"ovbm.{m}") for m in BINDERS]
        for short in MODULES:
            module = importlib.import_module(f"ovbm.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._rebind(fn, self._wrap(f"{short}.{attr}", fn), binders)
        store = importlib.import_module("ovbm.pipeline").FeatureStore
        self._patches.append((store, "chunks", store.chunks))
        store.chunks = self._wrap("pipeline.FeatureStore.chunks", store.chunks)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- output

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def totals(self):
        """Per span name: (calls, inclusive s, self s); plus the time
        covered by outermost weight-IO spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        weight_io = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if name in WEIGHT_IO and not self._has_ancestor(i, WEIGHT_IO):
                weight_io += dur
        return calls, incl, self_s, weight_io

    def _has_ancestor(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def call_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a direct call, measured on a no-op
    (best of `repeats`)."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        times = []
        for fn in (noop, traced):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        best = min(best, (times[1] - times[0]) / calls)
    return max(best, 0.0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name, unit, better. `.s` is self time (span minus child spans) unless
# marked inclusive below; counts are exact; gflop and mb are computed
# from argument shapes.
PER_LAYER = [
    ("audio_io.load_wav.calls", "count", "lower"),
    ("audio_io.load_wav.s", "s", "lower"),
    ("audio_io.decoded_mb", "MB", "lower"),
    ("audio_io.resample_linear.s", "s", "lower"),
    ("audio_io.resampled_samples", "count", "lower"),
    ("mfcc.mfcc.calls", "count", "lower"),
    ("mfcc.frames", "count", "lower"),
    ("mfcc.audio_s", "s", "lower"),
    ("mfcc.power_spectrum.s", "s", "lower"),          # inclusive: the FFT
    ("mfcc.frame_signal.s", "s", "lower"),            # inclusive: pre-emphasis
    ("mfcc.mel_filterbank.calls", "count", "lower"),
    ("mfcc.mel_filterbank.s", "s", "lower"),          # inclusive
    ("chunker.extract_chunks.calls", "count", "lower"),
    ("chunker.extract_chunks.s", "s", "lower"),       # inclusive
    ("chunker.chunks", "count", "lower"),
    ("chunker.featurized_ratio", "ratio", "lower"),
    ("degradation.apply_poisson_mask.calls", "count", "lower"),
    ("degradation.apply_poisson_mask.s", "s", "lower"),  # inclusive: pmf
    ("degradation.masked_values", "count", "lower"),
    ("nn.conv3x3.stem.s", "s", "lower"),
    ("nn.conv3x3.block.s", "s", "lower"),
    ("nn.conv3x3.calls", "count", "lower"),
    ("nn.conv3x3.mean_batch", "images", "higher"),
    ("nn.conv3x3.gflop", "GFLOP", "lower"),
    ("nn.conv3x3_backward.s", "s", "lower"),
    ("nn.conv3x3_backward.gflop", "GFLOP", "lower"),
    ("nn.adam_update.calls", "count", "lower"),
    ("nn.adam_update.s", "s", "lower"),
    ("nn.adam_update.mb", "MB", "lower"),
    ("nn.linear.s", "s", "lower"),
    ("models.forward_batch.calls", "count", "lower"),
    ("models.forward_batch.s", "s", "lower"),
    ("models.images", "count", "lower"),
    ("models.images_per_chunk", "ratio", "lower"),
    ("models.backward_from_embedding.s", "s", "lower"),
    ("models.train.s", "s", "lower"),                 # inclusive
    ("models.weight_io.s", "s", "lower"),             # outermost weight-file calls
    ("models.weight_io.mb", "MB", "lower"),
    ("fusion.member_embeddings.calls", "count", "lower"),
    ("fusion.member_embeddings.images", "count", "lower"),
    ("fusion.fuse_from_embeddings.s", "s", "lower"),
    ("fusion.fusion_backward.s", "s", "lower"),
    ("fusion.train_fusion.s", "s", "lower"),
    ("fusion.save_ensemble.s", "s", "lower"),         # inclusive
    ("fusion.load_ensemble.s", "s", "lower"),         # inclusive
    ("fusion.digest_mb", "MB", "lower"),
    ("aggregation.ensemble_chunk_probs.calls", "count", "lower"),
    ("aggregation.ensemble_chunk_probs.s", "s", "lower"),  # inclusive
    ("synthesis.surrogate_dataset.s", "s", "lower"),  # inclusive
    ("synthesis.surrogate_clips", "count", "lower"),
    ("saliency.saliency_map.s", "s", "lower"),        # inclusive
    ("saliency.saliency_map.self_s", "s", "lower"),
    ("pipeline.run_training.s", "s", "lower"),        # inclusive
    ("pipeline.save_pipeline.s", "s", "lower"),       # inclusive
    ("pipeline.load_pipeline.s", "s", "lower"),       # inclusive
    ("pipeline.evaluate_manifest.s", "s", "lower"),   # inclusive
    ("pipeline.feature_store.hit_ratio", "ratio", "higher"),
    ("trace.pass_s", "s", "lower"),      # wall time of the traced pass
    ("trace.overhead_s", "s", "lower"),  # spans x call_cost()
    ("trace.spans", "count", "lower"),
]

_INCLUSIVE = {
    "mfcc.power_spectrum", "mfcc.frame_signal", "mfcc.mel_filterbank",
    "chunker.extract_chunks", "degradation.apply_poisson_mask", "models.train",
    "fusion.save_ensemble", "fusion.load_ensemble",
    "aggregation.ensemble_chunk_probs", "synthesis.surrogate_dataset",
    "saliency.saliency_map", "pipeline.run_training", "pipeline.save_pipeline",
    "pipeline.load_pipeline", "pipeline.evaluate_manifest",
}


def metrics(tracer: Tracer, pass_s: float) -> dict:
    """Every PER_LAYER metric as a number; layers that did not run
    read 0."""
    calls, incl, self_s, weight_io = tracer.totals()
    c = tracer.counts
    conv_calls = calls["nn.conv3x3.stem"] + calls["nn.conv3x3.block"]
    derived = {
        "nn.conv3x3.calls": conv_calls,
        "nn.conv3x3.mean_batch": _ratio(c["nn.conv3x3.images"], conv_calls),
        "models.images_per_chunk": _ratio(c["models.images"], c["chunker.chunks"]),
        "models.weight_io.s": weight_io,
        "chunker.featurized_ratio": _ratio(c["mfcc.audio_s"], c["pipeline.scored_s"]),
        "pipeline.feature_store.hit_ratio": _ratio(
            c["pipeline.feature_store.hits"], c["pipeline.feature_store.calls"]),
        "saliency.saliency_map.self_s": self_s["saliency.saliency_map"],
        "trace.pass_s": pass_s,
        "trace.overhead_s": len(tracer.spans) * call_cost(),
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in c:
            value = c[name]
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        elif name.endswith(".s"):
            fn = name[:-len(".s")]
            value = incl[fn] if fn in _INCLUSIVE else self_s[fn]
        else:
            value = 0.0  # a counter whose layer never ran
        out[name] = value
    return out
