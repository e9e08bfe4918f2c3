"""Timing shims around the public functions of each embhist module.

A `Tracer` replaces each target function with a wrapper that records a
span (name, start, end, parent) and, for a few targets, a counter taken
from the call's arguments or result. Names that another embhist module
bound at import (`pipeline.make_fm_batch`, `seqstore.dequantize_batch`,
...) are patched as well, so no call escapes the shim. Nothing is patched
until `install()`; `uninstall()` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public callables timed from outside; "Class.method" for methods
TARGETS = {
    "synthworld": ("generate", "enumerate_world"),
    "pipeline": ("train_fm", "log_teacher", "fit_codec", "append_store",
                 "train_vm", "eval_vm"),
    "models": ("make_fm_batch", "make_vm_batch"),
    "nncore": ("backward", "adam_step"),
    "compression": ("ae_train", "MatryoshkaAE.encode_batch"),
    "quantization": ("fit_kmeans_int4", "quantize", "dequantize_batch"),
    "seqstore": ("SequenceStore.build_sequence", "SequenceStore.append"),
    "infotheory": ("JointTable.remap", "JointTable.entropy", "verify_pipeline",
                   "tr_delta_sweep"),
    "metrics": ("evaluate",),
}

# per-layer metrics reported by a traced run, with their units
PER_LAYER = {
    "synthworld.generate_s": "s",
    "synthworld.events": "count",
    "synthworld.enumerate_world_s": "s",
    "synthworld.enumerate_cells": "count",
    "pipeline.train_fm_s": "s",
    "pipeline.train_fm_calls": "count",
    "pipeline.teacher_reuse_ratio": "ratio",
    "pipeline.log_teacher_s": "s",
    "pipeline.fit_codec_s": "s",
    "pipeline.append_store_s": "s",
    "pipeline.train_vm_s": "s",
    "pipeline.eval_vm_s": "s",
    "pipeline.report_identical": "count",
    "models.make_fm_batch_s": "s",
    "models.make_fm_batch_calls": "count",
    "models.make_vm_batch_s": "s",
    "nncore.backward_s": "s",
    "nncore.adam_step_s": "s",
    "nncore.adam_step_calls": "count",
    "compression.ae_train_s": "s",
    "compression.encode_batch_s": "s",
    "quantization.fit_kmeans_int4_s": "s",
    "quantization.quantize_calls": "count",
    "quantization.quantize_s": "s",
    "quantization.dequantize_batch_calls": "count",
    "quantization.dequantize_batch_s": "s",
    "seqstore.build_sequence_calls": "count",
    "seqstore.build_sequence_s": "s",
    "seqstore.hit_ratio": "ratio",
    "seqstore.mean_seq_len": "records",
    "seqstore.append_calls": "count",
    "seqstore.append_s": "s",
    "infotheory.remap_calls": "count",
    "infotheory.remap_s": "s",
    "infotheory.remap_cells": "count",
    "infotheory.entropy_calls": "count",
    "infotheory.entropy_s": "s",
    "infotheory.verify_pipeline_s": "s",
    "infotheory.tr_delta_sweep_s": "s",
    "metrics.evaluate_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def _patch_points():
    """(span name, owner, attribute, original object, plain function) for
    every target, plus each alias another embhist module bound at import."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "embhist" or n.startswith("embhist.")]
    for module_name, paths in TARGETS.items():
        module = importlib.import_module(f"embhist.{module_name}")
        for path in paths:
            cls_name, _, attr = path.rpartition(".")
            name = f"{module_name}.{attr}"
            if cls_name:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                yield name, cls, attr, raw, func
                continue
            func = getattr(module, attr)
            for mod in modules:
                if vars(mod).get(attr) is func:
                    yield name, mod, attr, func, func


def shimmed_attributes() -> list[tuple]:
    """Every (owner, attribute, original object) a Tracer patches."""
    return [(owner, attr, raw) for _, owner, attr, raw, _ in _patch_points()]


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, hash(value.tobytes()))
    try:
        return hash(value)
    except TypeError:
        return repr(value)


class Tracer:
    """Spans and counters for one run; patching is active only between
    install() and uninstall()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []   # (name, start, end, parent, outermost)
        self.counters: Counter = Counter()
        self.teacher_keys: set = set()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, raw, func in list(_patch_points()):
            if name not in wrappers:
                wrappers[name] = self._wrap(name, func)
            new = wrappers[name]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(new)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, func):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(func)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[sid] = (name, start, end, parent, outermost)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time of outermost calls and call count per span name,
        plus the counters, keyed as in PER_LAYER."""
        total = defaultdict(float)
        calls = Counter()
        for name, start, end, _, outermost in self.spans:
            calls[name] += 1
            if outermost:
                total[name] += end - start
        out = {}
        for metric in PER_LAYER:
            stem, _, kind = metric.rpartition("_")
            if kind == "s" and stem in _SPAN_NAMES:
                out[metric] = total[stem]
            elif kind == "calls" and stem in _SPAN_NAMES:
                out[metric] = calls[stem]
        c = self.counters
        n_fm = calls["pipeline.train_fm"]
        n_seq = c["build_sequence_queries"]
        out.update({
            "synthworld.events": c["events"],
            "synthworld.enumerate_cells": c["enumerate_cells"],
            "pipeline.teacher_reuse_ratio": len(self.teacher_keys) / n_fm if n_fm else 0.0,
            "seqstore.hit_ratio": c["build_sequence_hits"] / n_seq if n_seq else 0.0,
            "seqstore.mean_seq_len": c["build_sequence_len"] / n_seq if n_seq else 0.0,
            "infotheory.remap_cells": c["remap_cells"],
        })
        return out

    def write_spans(self, path) -> None:
        """One line per span: run id, span id, parent, name, start, end,
        self time (duration minus the direct children's durations)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tspan\tparent\tname\tstart_s\tend_s\tself_s\n")
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{end - start - child_time[sid]:.9f}\n")


_SPAN_NAMES = {f"{m}.{p.rpartition('.')[2]}" for m, ps in TARGETS.items() for p in ps}


def _count_events(tracer, args, result):
    tracer.counters["events"] += len(result.samples)


def _count_cells(tracer, args, result):
    tracer.counters["enumerate_cells"] += result.table.probs.size


def _teacher_key(tracer, args, result):
    tracer.teacher_keys.add(tuple(_fingerprint(v) for v in args.values()))


def _count_sequence(tracer, args, result):
    c = tracer.counters
    c["build_sequence_queries"] += 1
    c["build_sequence_hits"] += result.length > 0
    c["build_sequence_len"] += result.length


def _count_remap(tracer, args, result):
    tracer.counters["remap_cells"] += args["self"].probs.size


_OBSERVERS = {
    "synthworld.generate": _count_events,
    "synthworld.enumerate_world": _count_cells,
    "pipeline.train_fm": _teacher_key,
    "seqstore.build_sequence": _count_sequence,
    "infotheory.remap": _count_remap,
}
