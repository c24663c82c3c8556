"""Spans around the calls into each layer of the program, and the
per-layer metrics made from them.

The program is not changed: `install` replaces module attributes that
callers look up (for example `denseadapt.training.encode_ids` and every
other module's binding of the same function) with wrappers that record a
span. A span holds a name, a start, an end, the index of the span that was
open when it began, and a count taken from the call (rows, bytes, hits).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, count]
        self._stack: list[int] = []

    def inside(self, name: str) -> bool:
        """Whether a span with this name is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, fn: Callable, name, count: Callable | None = None
             ) -> Callable:
        """A function that calls fn inside a span.

        `name` is a string or a function of (tracer, args) giving one;
        `count(args, result)` gives the span's count. Arguments, return
        values and exceptions pass through unchanged.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(self, args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, count in self.spans:
                f.write(json.dumps([name, start, end, parent, count]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# --- where the spans go -----------------------------------------------------------


def _size(path) -> int:
    return os.path.getsize(path)


def _retrieval(tracer: Tracer, args) -> str:
    if tracer.inside("evaluation.full_rank"):
        return "evaluation.query"
    return f"mining.{getattr(args[0], 'name', 'bm25')}_query"


def _corpus_encode(tracer: Tracer, args) -> str:
    return ("evaluation.corpus_encode" if tracer.inside("evaluation.full_rank")
            else "mining.corpus_encode")


def _cross_encoder(tracer: Tracer, args) -> str:
    return ("labeling.ce" if tracer.inside("labeling.build")
            else "evaluation.ce")


@dataclass(frozen=True)
class Probe:
    """One wrapped function: `module:qualname`, the span name (or a
    function choosing it), and how to count the call."""

    target: str
    name: object
    count: Callable | None = None


_STAGES = ("ingest", "generate", "mine", "label", "pretrain", "train",
           "evaluate", "rerank")

PROBES = (
    *(Probe(f"denseadapt.pipeline:stage_{s}", f"pipeline.{s}") for s in _STAGES),
    Probe("denseadapt.pipeline:CacheManifest.resolve", "pipeline.cache_lookup",
          lambda a, r: int(bool(r))),
    Probe("denseadapt.util:sha256_files", "pipeline.hash",
          lambda a, r: sum(_size(p) for p in a[0])),
    *(Probe(f"denseadapt.corpus:{f}", "corpus.load")
      for f in ("load_corpus", "load_queries", "load_qrels")),
    *(Probe(f"denseadapt.corpus:{f}", "corpus.save")
      for f in ("save_corpus", "save_queries", "save_qrels")),
    Probe("denseadapt.qgen:generate_queries", "qgen.generate",
          lambda a, r: len(r)),
    Probe("denseadapt.qgen:_decode", "qgen.decode", lambda a, r: len(r)),
    Probe("denseadapt.qgen:nucleus_filter", "qgen.nucleus"),
    Probe("denseadapt.mining:build_bm25_index", "mining.index"),
    Probe("denseadapt.mining:DenseRetriever.__init__", _corpus_encode),
    Probe("denseadapt.mining:retrieve_top_k", _retrieval),
    Probe("denseadapt.mining:write_hard_negatives", "mining.write"),
    Probe("denseadapt.mining:read_hard_negatives", "mining.read"),
    Probe("denseadapt.labeling:build_dataset", "labeling.build",
          lambda a, r: len(r.tuples)),
    Probe("denseadapt.labeling:sample_tuple", "labeling.sample"),
    Probe("denseadapt.models:CrossEncoderScorer.__call__", _cross_encoder),
    Probe("denseadapt.labeling:write_dataset", "labeling.write",
          lambda a, r: _size(a[1])),
    Probe("denseadapt.labeling:read_dataset", "labeling.read"),
    Probe("denseadapt.training:gpl_train", "training.gpl"),
    Probe("denseadapt.training:qgen_train", "training.qgen"),
    Probe("denseadapt.training:margin_mse_loss", "training.loss",
          lambda a, r: len(a[0])),
    Probe("denseadapt.training:mnrl_loss", "training.loss",
          lambda a, r: len(a[0])),
    Probe("denseadapt.models:encode_ids", "models.forward",
          lambda a, r: len(a[1])),
    Probe("denseadapt.models:encode_backward", "models.backward"),
    Probe("denseadapt.models:new_grads", "models.grad_alloc"),
    Probe("denseadapt.models:apply_gradients", "models.sgd"),
    Probe("denseadapt.models:encode_batch", "models.encode_batch"),
    Probe("denseadapt.models:save_model", "models.save",
          lambda a, r: _size(a[1])),
    Probe("denseadapt.models:load_model", "models.load"),
    Probe("denseadapt.pretraining:pretrain", "pretraining.pretrain"),
    Probe("denseadapt.pretraining:tsdae_loss", "pretraining.loss"),
    Probe("denseadapt.evaluation:full_rank", "evaluation.full_rank"),
    Probe("denseadapt.evaluation:evaluate", "evaluation.metrics"),
    Probe("denseadapt.evaluation:write_trec_run", "evaluation.write"),
    Probe("denseadapt.evaluation:EvalReport.save", "evaluation.write"),
    Probe("denseadapt.evaluation:ce_rerank", "evaluation.rerank"),
    Probe("denseadapt.util:derive_seed", "util.derive_seed"),
)


PACKAGE = "denseadapt"


def install(tracer: Tracer):
    """Wrap every probe's function wherever the package binds it.

    A module-level function is replaced in every module of the package
    that holds a reference to it, so calls through `from x import f`
    copies are traced too. A method is replaced on its class. Generators
    built by `mock_generator` get their `next_token_logits` wrapped.
    Returns (undo, missing): a function that restores every attribute, and
    the probe targets that were not found.
    """
    patched: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr, new):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def rebind(original, new):
        modules = [m for name, m in list(sys.modules.items()) if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, new)

    for probe in PROBES:
        module_name, _, qualname = probe.target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(probe.target)
            continue
        wrapper = tracer.wrap(original, probe.name, probe.count)
        if path:
            patch(owner, attr, wrapper)
        else:
            rebind(original, wrapper)

    try:
        make_generator = importlib.import_module(f"{PACKAGE}.qgen").mock_generator
    except (ImportError, AttributeError):
        missing.append(f"{PACKAGE}.qgen:mock_generator")
    else:
        @functools.wraps(make_generator)
        def mock_generator(*args, **kwargs):
            gen = make_generator(*args, **kwargs)
            gen.next_token_logits = tracer.wrap(gen.next_token_logits,
                                                "qgen.logits")
            return gen

        rebind(make_generator, mock_generator)

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo, missing


# --- per-layer metrics --------------------------------------------------------------

MIB = float(1 << 20)

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, better: str = "lower") -> None:
    LAYER_METRICS[name] = (unit, better)


# Per-call timings: (median metric, prefix of its companions, span name).
# A generated query is timed over its `_decode` calls (see `query_times`).
PER_CALL = (("qgen.ms_per_query", "qgen.query", "qgen.decode"),
            ("mining.bm25_query_ms", "mining.bm25_query", "mining.bm25_query"),
            ("mining.dense_query_ms", "mining.dense_query", "mining.dense_query"),
            ("evaluation.query_ms", "evaluation.query", "evaluation.query"))


def _per_call(median: str) -> None:
    base = next(b for m, b, _ in PER_CALL if m == median)
    _metric(median, "ms")
    _metric(f"{base}_calls", "count")
    _metric(f"{base}_tail_ms", "ms")


for _s in _STAGES:
    _metric(f"pipeline.{_s}_s", "s")
_metric("pipeline.self_s", "s")
_metric("pipeline.hash_s", "s")
_metric("pipeline.hashed_mib", "MiB")
_metric("pipeline.cache_hits", "count", "higher")
_metric("pipeline.cache_lookups", "count")
_metric("corpus.load_s", "s")
_metric("corpus.loads", "count")
_metric("corpus.save_s", "s")
_metric("qgen.generate_s", "s")
_metric("qgen.queries", "count", "higher")
_per_call("qgen.ms_per_query")
_metric("qgen.nucleus_s", "s")
_metric("qgen.logits_s", "s")
_metric("qgen.self_s", "s")
_metric("mining.index_s", "s")
_metric("mining.corpus_encode_s", "s")
_per_call("mining.bm25_query_ms")
_per_call("mining.dense_query_ms")
_metric("mining.write_s", "s")
_metric("mining.read_s", "s")
_metric("labeling.build_s", "s")
_metric("labeling.tuples", "count", "higher")
_metric("labeling.tuples_per_s", "1/s", "higher")
_metric("labeling.sample_s", "s")
_metric("labeling.ce_s", "s")
_metric("labeling.ce_calls", "count")
_metric("labeling.write_s", "s")
_metric("labeling.read_s", "s")
_metric("labeling.tsv_mib", "MiB")
_metric("training.gpl_s", "s")
_metric("training.gpl_examples", "count", "higher")
_metric("training.gpl_examples_per_s", "1/s", "higher")
_metric("training.qgen_s", "s")
_metric("training.qgen_examples", "count", "higher")
_metric("training.qgen_examples_per_s", "1/s", "higher")
_metric("training.loss_s", "s")
_metric("training.self_s", "s")
_metric("models.forward_s", "s")
_metric("models.forward_rows", "count")
_metric("models.backward_s", "s")
_metric("models.grad_alloc_s", "s")
_metric("models.sgd_s", "s")
_metric("models.encode_batch_s", "s")
_metric("models.save_s", "s")
_metric("models.load_s", "s")
_metric("models.checkpoint_mib", "MiB")
_metric("pretraining.pretrain_s", "s")
_metric("pretraining.items", "count", "higher")
_metric("pretraining.items_per_s", "1/s", "higher")
_metric("pretraining.loss_s", "s")
_metric("evaluation.full_rank_s", "s")
_per_call("evaluation.query_ms")
_metric("evaluation.corpus_encode_s", "s")
_metric("evaluation.metrics_s", "s")
_metric("evaluation.write_s", "s")
_metric("evaluation.rerank_s", "s")
_metric("util.derive_seed_calls", "count")
_metric("util.derive_seed_s", "s")
_metric("trace.traced_wall_s", "s")
_metric("trace.untraced_wall_s", "s")
_metric("trace.overhead_s", "s")


def tail(durations: list[float]) -> float:
    """The value at the highest percentile with at least ten calls beyond
    it, 100 * (n - 10) / n for n calls; the median below forty calls."""
    n = len(durations)
    if n < 40:
        return statistics.median(durations) if durations else 0.0
    return sorted(durations)[n - 11]


def query_times(decodes: list[tuple[float, int]]) -> list[float]:
    """Decode time per generated query from (duration, tokens) of each
    `_decode` call in order: `generate_queries` decodes once more right
    after an empty first attempt, and that retry belongs to the same query."""
    out: list[float] = []
    retry = False
    for duration, tokens in decodes:
        if retry:
            out[-1] += duration
            retry = False
        else:
            out.append(duration)
            retry = tokens == 0
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric from a finished run's spans. A layer that did
    not run reads 0."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    decodes: list[tuple[float, int]] = []
    self_by: dict[str, float] = {}
    examples = {"training.gpl": 0, "training.qgen": 0}
    for i, (name, start, end, parent, count) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        durations.setdefault(name, []).append(end - start)
        self_by[name] = self_by.get(name, 0.0) + own[i]
        if name == "qgen.decode":
            decodes.append((end - start, count))
        if name == "training.loss":
            j = parent
            while j >= 0 and spans[j][0] not in examples:
                j = spans[j][3]
            if j >= 0:
                examples[spans[j][0]] += count

    def s(name):
        return total.get(name, 0.0)

    m: dict[str, float] = {}
    for stage in _STAGES:
        m[f"pipeline.{stage}_s"] = s(f"pipeline.{stage}")
    m["pipeline.self_s"] = sum(self_by.get(f"pipeline.{x}", 0.0)
                               for x in (*_STAGES, "cache_lookup"))
    m["pipeline.hash_s"] = s("pipeline.hash")
    m["pipeline.hashed_mib"] = counts.get("pipeline.hash", 0) / MIB
    m["pipeline.cache_hits"] = counts.get("pipeline.cache_lookup", 0)
    m["pipeline.cache_lookups"] = calls.get("pipeline.cache_lookup", 0)
    m["corpus.load_s"] = s("corpus.load")
    m["corpus.loads"] = calls.get("corpus.load", 0)
    m["corpus.save_s"] = s("corpus.save")
    m["qgen.generate_s"] = s("qgen.generate")
    m["qgen.queries"] = counts.get("qgen.generate", 0)
    m["qgen.nucleus_s"] = s("qgen.nucleus")
    m["qgen.logits_s"] = s("qgen.logits")
    m["qgen.self_s"] = self_by.get("qgen.generate", 0.0) + self_by.get("qgen.decode", 0.0)
    m["mining.index_s"] = s("mining.index")
    m["mining.corpus_encode_s"] = s("mining.corpus_encode")
    m["mining.write_s"] = s("mining.write")
    m["mining.read_s"] = s("mining.read")
    for median, base, span in PER_CALL:
        d = query_times(decodes) if span == "qgen.decode" else durations.get(span, [])
        m[median] = 1e3 * statistics.median(d) if d else 0.0
        m[f"{base}_calls"] = len(d)
        m[f"{base}_tail_ms"] = 1e3 * tail(d)
    m["labeling.build_s"] = s("labeling.build")
    m["labeling.tuples"] = counts.get("labeling.build", 0)
    m["labeling.tuples_per_s"] = _rate(m["labeling.tuples"], m["labeling.build_s"])
    m["labeling.sample_s"] = s("labeling.sample")
    m["labeling.ce_s"] = s("labeling.ce")
    m["labeling.ce_calls"] = calls.get("labeling.ce", 0)
    m["labeling.write_s"] = s("labeling.write")
    m["labeling.read_s"] = s("labeling.read")
    m["labeling.tsv_mib"] = counts.get("labeling.write", 0) / MIB
    for kind in ("gpl", "qgen"):
        m[f"training.{kind}_s"] = s(f"training.{kind}")
        m[f"training.{kind}_examples"] = examples[f"training.{kind}"]
        m[f"training.{kind}_examples_per_s"] = _rate(
            examples[f"training.{kind}"], s(f"training.{kind}"))
    m["training.loss_s"] = s("training.loss")
    m["training.self_s"] = self_by.get("training.gpl", 0.0) + self_by.get("training.qgen", 0.0)
    m["models.forward_s"] = s("models.forward")
    m["models.forward_rows"] = counts.get("models.forward", 0)
    m["models.backward_s"] = s("models.backward")
    m["models.grad_alloc_s"] = s("models.grad_alloc")
    m["models.sgd_s"] = s("models.sgd")
    m["models.encode_batch_s"] = s("models.encode_batch")
    m["models.save_s"] = s("models.save")
    m["models.load_s"] = s("models.load")
    m["models.checkpoint_mib"] = counts.get("models.save", 0) / MIB
    m["pretraining.pretrain_s"] = s("pretraining.pretrain")
    m["pretraining.items"] = calls.get("pretraining.loss", 0)
    m["pretraining.items_per_s"] = _rate(m["pretraining.items"],
                                         m["pretraining.pretrain_s"])
    m["pretraining.loss_s"] = s("pretraining.loss")
    m["evaluation.full_rank_s"] = s("evaluation.full_rank")
    m["evaluation.corpus_encode_s"] = s("evaluation.corpus_encode")
    m["evaluation.metrics_s"] = s("evaluation.metrics")
    m["evaluation.write_s"] = s("evaluation.write")
    m["evaluation.rerank_s"] = s("evaluation.rerank")
    m["util.derive_seed_calls"] = calls.get("util.derive_seed", 0)
    m["util.derive_seed_s"] = s("util.derive_seed")
    m["trace.traced_wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    if set(m) != set(LAYER_METRICS):
        raise KeyError(f"metrics out of step with LAYER_METRICS: "
                       f"{sorted(set(m) ^ set(LAYER_METRICS))}")
    return {name: float(m[name]) for name in LAYER_METRICS}
