"""Span recording around the package's public functions, and per-layer metrics.

`Tracer.install()` replaces every public function of the package modules,
in every module namespace that binds it (so `cli.train_student` and
`evaluation.train_student` are both wrapped), with a wrapper that records
a span: name, start, end, parent span and job id. Generator functions get
one span per `next()`. Spans stay in memory until `write()`.

The four encoding helpers below are not wrapped: their time belongs to the
operation that encodes (fingerprint, save_checkpoint, save_cache,
write_canonical_json), so that operation's self time shows the whole cost.

Op counts (`flops`, `rows`) are computed from array shapes and byte counts
from file sizes; they are not hardware counters.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
from time import perf_counter

MODULES = ("data", "nn", "guidance", "pipeline", "evaluation", "serialize", "cli")
NOT_WRAPPED = {"checkpoint_dict", "checkpoint_bytes", "cache_dict", "canonical_json"}
METHODS = (("data", "DataRecipe", "build"),)

# Forward passes made by these callers are evaluation, not training steps.
_EVAL_CALLERS = {"evaluation.accuracy", "evaluation.confusion_matrix",
                 "guidance.compute_teacher_soft_targets"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dense(params) -> int:
    """Weights of one dense pass: a row costs 2 flops per weight."""
    total = 0
    for W in params.weights:
        total += W.size
    return total


def _measure_forward(args, kwargs, result):
    rows = result.shape[0] if result.ndim == 2 else 1
    return {"rows": rows, "flops": 2 * rows * _dense(_arg(args, kwargs, 0, "params"))}


def _measure_backward(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    spec = _arg(args, kwargs, 2, "loss_spec")
    # The combined loss delegates its clean branch to a nested backward
    # (its own span) and skips the noisy branch entirely when alpha == 0.
    if type(spec).__name__ == "GuidanceTotalSpec" and spec.alpha == 0.0:
        return {"rows": 0, "flops": 0}
    batch = _arg(args, kwargs, 1, "batch")
    rows = batch.shape[0] if batch.ndim == 2 else 1
    # forward recompute + weight gradients + deltas for every layer but the first
    return {"rows": rows,
            "flops": 2 * rows * (3 * _dense(params) - params.weights[0].size)}


def _measure_written(index, name):
    def measure(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return measure


_MEASURES = {
    "nn.forward": _measure_forward,
    "nn.backward": _measure_backward,
    "nn.save_checkpoint": _measure_written(1, "path"),
    "nn.load_checkpoint": _measure_written(0, "path"),
    "guidance.save_cache": _measure_written(1, "path"),
    "serialize.write_canonical_json": _measure_written(0, "path"),
}


class Tracer:
    """Spans in columns (one list per field, a span's id is its index), so
    recording adds no per-span container for the garbage collector to scan."""

    def __init__(self, package: str = "guidance_learn"):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.extras: dict[int, dict] = {}
        self.job = -1
        self._stack = [-1]  # open spans; -1 is the parent of a root span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        measure = _MEASURES.get(name)
        names, starts, ends, parents, jobs, extras, stack = (
            self.names, self.starts, self.ends, self.parents, self.jobs, self.extras,
            self._stack)

        def open_span() -> int:
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            return sid

        def close_span(sid: int) -> None:
            ends[sid] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    extras[sid] = {"items": 1}
                    yield item
            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            sid = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if measure is not None:
                extras[sid] = measure(args, kwargs, result)
            return result
        return call

    def install(self) -> None:
        """Wrap every public package function in every namespace binding it."""
        import importlib

        namespaces = [importlib.import_module(self.package)] + [
            importlib.import_module(f"{self.package}.{m}") for m in MODULES]
        wrappers: dict[object, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (attr.startswith("_") or attr in NOT_WRAPPED
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(self.package + ".")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._patches.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
        for module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{self.package}.{module}"), cls_name)
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{module}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """JSON lines: first {"fields": [...], "names": [...]}, then one
        [name index, start, end, parent, job, extra] array per span. A
        span's id is its line number minus one; parent -1 marks a root."""
        index: dict[str, int] = {}
        for name in self.names:
            index.setdefault(name, len(index))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job", "extra"],
                                 "names": list(index)}) + "\n")
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([index[name], self.starts[sid], self.ends[sid],
                                     self.parents[sid], self.jobs[sid],
                                     self.extras.get(sid)]) + "\n")


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it; the median (percentile 50) when fewer than 21 samples leave
    no such percentile above it."""
    xs = sorted(values)
    n = len(xs)
    if n - 11 < n // 2:
        return statistics.median(xs), 50
    return xs[n - 11], (100 * (n - 10)) // n


def job_metrics(tracer: Tracer, job_ids: set[int], plan: dict) -> dict:
    """Per-layer metrics of each traced job (medians over jobs) plus the
    per-step and per-cell timings pooled over all traced jobs."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    mine = [sid for sid, job in enumerate(tracer.jobs) if job in job_ids]
    children: dict[int, list[int]] = {}
    for sid in mine:
        if parents[sid] >= 0:
            children.setdefault(parents[sid], []).append(sid)

    def dur(sid):
        return ends[sid] - starts[sid]

    per_job: dict[int, dict[str, float]] = {j: {} for j in job_ids}
    step_ms: list[float] = []
    cell_s: list[float] = []

    for sid in mine:
        name, parent, extra = names[sid], parents[sid], tracer.extras.get(sid)
        acc = per_job[tracer.jobs[sid]]

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        self_s = dur(sid) - sum(dur(c) for c in children.get(sid, ()))
        add(f"{name.split('.', 1)[0]}.layer_self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{name}.s", dur(sid))
        for key, value in (extra or {}).items():
            add(f"{name}.{key}", value)
        if name == "nn.forward" and (parent < 0 or names[parent] not in _EVAL_CALLERS):
            add("nn.train_rows", extra["rows"])
        if name == "pipeline.train_student":
            kids = children.get(sid, ())
            step_ms.extend(_step_times(tracer, kids))
            add("student_steps", sum(1 for c in kids if names[c] == "nn.sgd_step"))
        if name == "evaluation.sweep":
            cell_s.extend(_cell_times(tracer, children.get(sid, ())))

    def get(acc, key):
        return acc.get(key, 0.0)

    rows = []
    for acc in per_job.values():
        forward_s = get(acc, "nn.forward.self_s") + get(acc, "nn.backward.self_s")
        flops = get(acc, "nn.forward.flops") + get(acc, "nn.backward.flops")
        iter_names = ("data.mixed_batch_iterator", "data.batch_indices")
        rows.append({
            "data.build_s": get(acc, "data.DataRecipe.build.s"),
            "data.iter_s": sum(get(acc, f"{n}.s") for n in iter_names),
            "data.batches": sum(get(acc, f"{n}.items") for n in iter_names),
            "nn.forward.calls": get(acc, "nn.forward.calls"),
            "nn.forward.self_s": get(acc, "nn.forward.self_s"),
            "nn.backward.calls": get(acc, "nn.backward.calls"),
            "nn.backward.self_s": get(acc, "nn.backward.self_s"),
            "nn.sgd_step.calls": get(acc, "nn.sgd_step.calls"),
            "nn.sgd_step.self_s": get(acc, "nn.sgd_step.self_s"),
            "nn.rows_per_trained_row":
                (get(acc, "nn.train_rows") + get(acc, "nn.backward.rows")) / plan["rows"],
            "nn.fingerprint.calls": get(acc, "nn.fingerprint.calls"),
            "nn.fingerprint.self_s": get(acc, "nn.fingerprint.self_s"),
            "nn.save_checkpoint.s": get(acc, "nn.save_checkpoint.s"),
            "nn.save_checkpoint.bytes": get(acc, "nn.save_checkpoint.bytes"),
            "nn.load_checkpoint.s": get(acc, "nn.load_checkpoint.s"),
            "nn.load_checkpoint.bytes": get(acc, "nn.load_checkpoint.bytes"),
            "nn.flops": flops,
            "nn.gflops_per_s": flops / forward_s / 1e9 if forward_s > 0 else 0.0,
            "guidance.fuse.calls": get(acc, "guidance.guidance_targets.calls"),
            "guidance.fuse.self_s": get(acc, "guidance.guidance_targets.self_s"),
            "guidance.fuse_per_step":
                get(acc, "guidance.guidance_targets.calls") / get(acc, "student_steps"),
            "guidance.batch_loss.self_s": get(acc, "guidance.student_batch_loss.self_s"),
            "guidance.soft_targets.calls":
                get(acc, "guidance.compute_teacher_soft_targets.calls"),
            "guidance.soft_targets.self_s":
                get(acc, "guidance.compute_teacher_soft_targets.self_s"),
            "guidance.save_cache.s": get(acc, "guidance.save_cache.s"),
            "guidance.save_cache.bytes": get(acc, "guidance.save_cache.bytes"),
            "pipeline.teacher.s": get(acc, "pipeline.train_teacher.s"),
            "pipeline.student.s": get(acc, "pipeline.train_student.s"),
            "pipeline.finetune.s": get(acc, "pipeline.finetune_clean.s"),
            "pipeline.self_s": get(acc, "pipeline.layer_self_s"),
            "pipeline.steps": get(acc, "nn.sgd_step.calls"),
            "evaluation.accuracy.calls": get(acc, "evaluation.accuracy.calls"),
            "evaluation.accuracy.self_s": get(acc, "evaluation.accuracy.self_s"),
            "evaluation.accuracy_per_epoch":
                get(acc, "evaluation.accuracy.calls") / plan["epochs"],
            "evaluation.sweep.self_s": get(acc, "evaluation.sweep.self_s"),
            "serialize.json.s": get(acc, "serialize.write_canonical_json.s"),
            "serialize.json.bytes": get(acc, "serialize.write_canonical_json.bytes"),
            "cli.self_s": get(acc, "cli.layer_self_s"),
        })
    out = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    out["pipeline.student_step_ms_p50"] = statistics.median(step_ms)
    out["pipeline.student_step_ms_tail"] = tail(step_ms)[0]
    out["evaluation.cell_s_p50"] = statistics.median(cell_s) if cell_s else 0.0
    return out


def _step_times(tracer: Tracer, kids) -> list[float]:
    """Student step: from the batch iterator's next() to the end of sgd_step."""
    times, start = [], None
    for c in kids:
        name = tracer.names[c]
        if name == "data.mixed_batch_iterator":
            start = tracer.starts[c]
        elif name == "nn.sgd_step" and start is not None:
            times.append((tracer.ends[c] - start) * 1e3)
            start = None
    return times


def _cell_times(tracer: Tracer, kids) -> list[float]:
    """Sweep cell: from the start of its train_student to the end of the
    last span before the next cell, teacher or dataset build."""
    times, start, end = [], None, None
    for c in kids:
        name = tracer.names[c]
        if name in ("pipeline.train_student", "pipeline.train_teacher", "data.DataRecipe.build"):
            if start is not None:
                times.append(end - start)
            start = tracer.starts[c] if name == "pipeline.train_student" else None
        end = tracer.ends[c]
    if start is not None:
        times.append(end - start)
    return times
