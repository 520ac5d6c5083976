"""Wall-clock spans around the program's layer entry points.

The traced run wraps the public entry points of every layer with
``perf_counter`` spans.  Each span records ``(metric, start, end,
parent)`` into plain in-memory lists; nothing is written until the run
ends.  A layer's self time is its span time minus the time covered by
its child spans, so the self times of all spans add up to the traced
wall time minus whatever ran outside every span
(``trace.unattributed_s``).

Nothing under ``src/`` changes: :func:`install` swaps the wrappers onto
the classes and modules at run time and returns a function that puts
the originals back.  Executors bind op methods when a model is built,
so the wrappers must be installed before the model is trained.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

import numpy as np

# Span metrics whose self time is reported, in report order.  Each name
# is also the reported per-layer metric.
TIMED = (
    "hdc.fit_s",
    "tflite.convert_s",
    "edgetpu.compile_s",
    "runtime.compile_cache_s",
    "runtime.train_self_s",
    "edgetpu.deploy_s",
    "tflite.quantize_s",
    "tflite.fc_encode_s",
    "tflite.tanh_s",
    "tflite.fc_classify_s",
    "tflite.argmax_s",
    "edgetpu.invoke_s",
    "edgetpu.invoke_cost_s",
    "runtime.host_tail_s",
    "serving.batch_trigger_s",
    "serving.self_s",
    "cluster.self_s",
    "cluster.traffic_s",
    "cluster.route_s",
    "cluster.engine_self_s",
    "cluster.autoscaler_s",
    "cluster.epilogue_s",
    "observability.metrics_s",
)

# Counters the wrappers increment (calls, rows, events).
COUNTED = (
    "hdc.fit_calls",
    "edgetpu.compile_calls",
    "runtime.compile_cache_calls",
    "runtime.compile_cache_hits",
    "tflite.fc_encode_rows",
    "tflite.tanh_calls",
    "tflite.fc_classify_rows",
    "edgetpu.invoke_calls",
    "edgetpu.invoke_rows",
    "edgetpu.invoke_cost_calls",
    "runtime.host_tail_calls",
    "serving.batch_trigger_calls",
    "cluster.route_calls",
    "cluster.events_scheduled",
    "cluster.events_cancelled",
    "cluster.submit_calls",
    "cluster.autoscaler_ticks",
    "observability.metric_updates",
)


class SpanLog:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.metrics: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack = [-1]

    def timed(self, metric: str, fn, calls: str | None = None,
              rows: str | None = None):
        """Wrap ``fn`` in a span; optionally count calls and the rows
        of its first positional argument after ``self``."""
        metrics, starts, ends = self.metrics, self.starts, self.ends
        parents, stack, counts = self.parents, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(metrics)
            metrics.append(metric)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            if calls is not None:
                counts[calls] += 1
            if rows is not None:
                counts[rows] += len(args[1])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def timed_iter(self, metric: str, fn):
        """Wrap a generator function: each ``next`` is one span."""
        metrics, starts, ends = self.metrics, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        def iterate(inner):
            while True:
                index = len(metrics)
                metrics.append(metric)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[index] = clock()
                    stack.pop()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return wrapper

    def counted(self, key: str, fn):
        """Wrap ``fn`` to count its calls (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per metric: (self seconds, span count)."""
        if not self.metrics:
            return {}
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.zeros(len(duration))
        np.add.at(child, parents[nested], duration[nested])
        names, inverse = np.unique(np.array(self.metrics),
                                   return_inverse=True)
        own = np.bincount(inverse, weights=duration - child)
        spans = np.bincount(inverse)
        return {str(name): (float(own[i]), int(spans[i]))
                for i, name in enumerate(names)}


def _fc_run(log: SpanLog, run):
    """``FullyConnectedOp.run`` outside a fused stage: the op's name
    (``encode`` / ``classify`` from :mod:`repro.nn.builder`) tells the
    encoder projection from the class scorer."""
    encode = log.timed("tflite.fc_encode_s", run,
                       rows="tflite.fc_encode_rows")
    classify = log.timed("tflite.fc_classify_s", run,
                         rows="tflite.fc_classify_rows")

    @functools.wraps(run)
    def wrapper(op, x):
        if op.name.startswith("encode"):
            return encode(op, x)
        return classify(op, x)

    return wrapper


def _cache_hits(log: SpanLog, get_or_compile):
    timed = log.timed("runtime.compile_cache_s", get_or_compile,
                      calls="runtime.compile_cache_calls")
    counts = log.counts

    @functools.wraps(get_or_compile)
    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        counts["runtime.compile_cache_hits"] += int(result[2])
        return result

    return wrapper


def _cancel(log: SpanLog, cancel):
    counts = log.counts

    @functools.wraps(cancel)
    def wrapper(engine, event):
        if not event.cancelled:
            counts["cluster.events_cancelled"] += 1
        return cancel(engine, event)

    return wrapper


def _method_patches(log: SpanLog):
    """``(class, attribute, wrap)`` for every wrapped method."""
    from repro.cluster.autoscaler import Autoscaler
    from repro.cluster.engine import EventEngine
    from repro.cluster.replica import Replica
    from repro.cluster.report import ClusterReport
    from repro.cluster.router import Router
    from repro.cluster.traffic import MultiTenantTraffic
    from repro.edgetpu.device import EdgeTpuDevice
    from repro.edgetpu.multidevice import DevicePool
    from repro.hdc.model import HDCClassifier
    from repro.observability.metrics import (
        Counter,
        Gauge,
        LatencyTracker,
        MetricsRegistry,
    )
    from repro.runtime.pipeline import CompileCache
    from repro.serving.batcher import DynamicBatcher, FixedSizeBatcher
    from repro.serving.server import InferenceServer, ServeReport
    from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
    from repro.tflite.quantization import QuantParams

    def timed(metric, calls=None, rows=None):
        return lambda fn: log.timed(metric, fn, calls=calls, rows=rows)

    trigger = timed("serving.batch_trigger_s",
                    calls="serving.batch_trigger_calls")
    serving = timed("serving.self_s")
    epilogue = timed("cluster.epilogue_s")
    metrics = timed("observability.metrics_s",
                    calls="observability.metric_updates")
    submit = functools.partial(log.counted, "cluster.submit_calls")
    return [
        (HDCClassifier, "fit", timed("hdc.fit_s", calls="hdc.fit_calls")),
        (CompileCache, "get_or_compile",
         functools.partial(_cache_hits, log)),
        (QuantParams, "quantize", timed("tflite.quantize_s")),
        (FullyConnectedOp, "run", functools.partial(_fc_run, log)),
        (FullyConnectedOp, "run_tanh_fused",
         timed("tflite.fc_encode_s", rows="tflite.fc_encode_rows")),
        (FullyConnectedOp, "run_argmax_fused",
         timed("tflite.fc_classify_s", rows="tflite.fc_classify_rows")),
        (TanhOp, "run", timed("tflite.tanh_s", calls="tflite.tanh_calls")),
        (ArgmaxOp, "run", timed("tflite.argmax_s")),
        (EdgeTpuDevice, "invoke",
         timed("edgetpu.invoke_s", calls="edgetpu.invoke_calls",
               rows="edgetpu.invoke_rows")),
        (DevicePool, "try_invoke", timed("edgetpu.invoke_s")),
        (EdgeTpuDevice, "invoke_cost",
         timed("edgetpu.invoke_cost_s",
               calls="edgetpu.invoke_cost_calls")),
        (DevicePool, "invoke_cost", timed("edgetpu.invoke_cost_s")),
        (DynamicBatcher, "ready_at", trigger),
        (FixedSizeBatcher, "ready_at", trigger),
        (InferenceServer, "service_estimate", trigger),
        (InferenceServer, "serve", serving),
        (Replica, "_on_arrival", serving),
        (Replica, "_on_dispatch", serving),
        (Replica, "_on_dispatch_fast", serving),
        (Replica, "submit", submit),
        (Replica, "_submit_fast", submit),
        (MultiTenantTraffic, "chunks",
         functools.partial(log.timed_iter, "cluster.traffic_s")),
        (MultiTenantTraffic, "requests",
         functools.partial(log.timed_iter, "cluster.traffic_s")),
        (Router, "route",
         timed("cluster.route_s", calls="cluster.route_calls")),
        (Router, "route_chunk",
         timed("cluster.route_s", calls="cluster.route_calls")),
        (EventEngine, "run", timed("cluster.engine_self_s")),
        (EventEngine, "at",
         functools.partial(log.counted, "cluster.events_scheduled")),
        (EventEngine, "cancel", functools.partial(_cancel, log)),
        (Autoscaler, "_tick",
         timed("cluster.autoscaler_s", calls="cluster.autoscaler_ticks")),
        (Replica, "resolve_deferred", epilogue),
        (Replica, "finalize", epilogue),
        (LatencyTracker, "merge_all", epilogue),
        (ClusterReport, "summary", epilogue),
        (ServeReport, "summary", epilogue),
        (Counter, "inc", metrics),
        (Gauge, "set", metrics),
        (MetricsRegistry, "histogram", metrics),
    ]


def _function_patches(log: SpanLog):
    """``(function, wrapper)`` for module-level functions; every module
    that imported the function by name gets the wrapper."""
    from repro import api
    from repro.cluster.report import tenant_stats
    from repro.edgetpu.compiler import compile_model
    from repro.runtime.executor import run_host_tail
    from repro.tflite.converter import convert

    return [
        (api.train, log.timed("runtime.train_self_s", api.train)),
        (api.deploy, log.timed("edgetpu.deploy_s", api.deploy)),
        (api.serve, log.timed("serving.self_s", api.serve)),
        (api.serve_cluster,
         log.timed("cluster.self_s", api.serve_cluster)),
        (convert, log.timed("tflite.convert_s", convert)),
        (compile_model, log.timed("edgetpu.compile_s", compile_model,
                                  calls="edgetpu.compile_calls")),
        (run_host_tail, log.timed("runtime.host_tail_s", run_host_tail,
                                  calls="runtime.host_tail_calls")),
        (tenant_stats, log.timed("cluster.epilogue_s", tenant_stats)),
    ]


def install(log: SpanLog):
    """Swap the span wrappers in; returns the function that undoes it."""
    saved = []
    for owner, name, wrap in _method_patches(log):
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        saved.append((owner, name, raw))
        setattr(owner, name, wrapped)
    for original, wrapped in _function_patches(log):
        for module in list(sys.modules.values()):
            if (module is None
                    or not getattr(module, "__name__", "").startswith("repro")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapped)

    def uninstall() -> None:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)

    return uninstall
