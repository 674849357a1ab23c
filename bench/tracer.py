"""In-memory span tracer for the benchmark's traced runs.

The tracer patches allg's public functions at the module attribute their
callers look them up through (for example ``allg.training.pretrain``, which
``run_selection`` calls as a module global), records one span per call and
restores the originals on ``uninstall``.  Spans stay in memory as
``[name, start, end, parent, note]`` lists; the benchmark writes them out
when the run ends.
"""

import functools
import gc
import resource
import statistics
import time
import weakref

OP = "bench.op"

# (module, attribute, span name).  Each attribute is the one the calling
# code looks up at call time, so patching it is seen by every caller.
PATCH_POINTS = (
    ("allg.data", "load_csv", "data.load_csv"),
    ("allg.cli", "run_selection", "training.run_selection"),
    ("allg.evaluate", "run_selection", "training.run_selection"),
    ("allg.training", "knn_graph", "graph.knn_graph"),
    ("allg.training", "pretrain", "training.pretrain"),
    ("allg.training", "train", "training.train"),
    ("allg.training", "build_loss_graph", "model.build_loss_graph"),
    ("allg.training", "forward", "model.forward"),
    ("allg.autodiff", "adam_step", "autodiff.adam_step"),
    ("allg.cli", "save_checkpoint", "model.save_checkpoint"),
    ("allg.cli", "run_protocol", "evaluate.run_protocol"),
    ("allg.evaluate", "rank_candidates", "baselines.rank_candidates"),
    ("allg.evaluate", "train_linear_svm", "evaluate.train_linear_svm"),
    ("allg.evaluate", "train_logreg", "evaluate.train_logreg"),
)

# Per-operation totals reported in seconds: metric name -> span name.
PER_OP_SECONDS = {
    "data.load_csv_s": "data.load_csv",
    "graph.knn_graph_s": "graph.knn_graph",
    "training.pretrain_s": "training.pretrain",
    "training.train_s": "training.train",
    "model.forward_s": "model.forward",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "baselines.rank_candidates_s": "baselines.rank_candidates",
    "evaluate.train_linear_svm_s": "evaluate.train_linear_svm",
    "evaluate.train_logreg_s": "evaluate.train_logreg",
    "evaluate.run_protocol_s": "evaluate.run_protocol",
}
# Per-operation call counts: metric name -> span name.
PER_OP_CALLS = {
    "evaluate.svm_fits": "evaluate.train_linear_svm",
    "evaluate.logreg_fits": "evaluate.train_logreg",
}
# Medians over the calls made inside stage-2 training, in milliseconds.
STAGE2_MS = {
    "model.build_loss_graph_ms": "model.build_loss_graph",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.adam_step_ms": "autodiff.adam_step",
}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Spans, live-tape and GC-pause bookkeeping for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._tapes = weakref.WeakSet()
        self.live_tapes_max = 0
        self.gc_pause_s = 0.0
        self._gc_start = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = note
        self._stack.pop()

    def _wrap(self, original, name, note_fn=None, faults=False):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            note = note_fn(args) if note_fn else None
            flt = _minflt() if faults else 0
            idx = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                if faults:
                    note = _minflt() - flt
                tracer.end(idx, note)

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> None:
        """Patch every point in PATCH_POINTS; `modules` maps names to modules."""
        for mod_name, attr, span in PATCH_POINTS:
            owner = modules[mod_name]
            faults = span == "training.train"
            self._patch(owner, attr, self._wrap(getattr(owner, attr), span, faults=faults))
        tape_cls = modules["allg.autodiff"].Tape
        self._patch(tape_cls, "backward",
                    self._wrap(tape_cls.backward, "autodiff.backward", note_fn=lambda a: len(a[0])))
        init = tape_cls.__init__
        tracer = self

        @functools.wraps(init)
        def tracked_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            tracer._tapes.add(tape)
            tracer.live_tapes_max = max(tracer.live_tapes_max, len(tracer._tapes))

        self._patch(tape_cls, "__init__", tracked_init)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def as_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "note": note}
                for n, s, e, p, note in self.spans]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(tracer: Tracer, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer metrics {name: (value, unit)} from the spans of traced ops."""
    spans = tracer.spans
    op_of, in_train = [], []
    for i, (name, _, _, parent, _) in enumerate(spans):
        op_of.append(i if name == OP else op_of[parent] if parent >= 0 else -1)
        in_train.append(name == "training.train" or (parent >= 0 and in_train[parent]))
    ops = [i for i, s in enumerate(spans) if s[0] == OP]
    totals = {i: {} for i in ops}
    calls = {i: {} for i in ops}
    covered = {i: 0.0 for i in ops}
    minflt = {i: 0 for i in ops}
    stage2 = {}
    tape_nodes = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        op = op_of[i]
        if name == OP or op < 0:
            continue
        dur = end - start
        totals[op][name] = totals[op].get(name, 0.0) + dur
        calls[op][name] = calls[op].get(name, 0) + 1
        if parent == op:
            covered[op] += dur
        if name == "training.train":
            minflt[op] += note
        if in_train[i] and name != "training.train":
            stage2.setdefault(name, []).append(dur * 1e3)
            if name == "autodiff.backward":
                tape_nodes.append(note)
    out = {}
    for metric, span in PER_OP_SECONDS.items():
        out[metric] = (_median([totals[op].get(span, 0.0) for op in ops]), "s")
    for metric, span in PER_OP_CALLS.items():
        out[metric] = (_median([calls[op].get(span, 0) for op in ops]), "count")
    for metric, span in STAGE2_MS.items():
        out[metric] = (_median(stage2.get(span, [])), "ms")
    out["training.train_minflt"] = (_median([minflt[op] for op in ops]), "count")
    out["autodiff.tape_nodes"] = (_median(tape_nodes), "count")
    out["autodiff.live_tapes_max"] = (float(tracer.live_tapes_max), "count")
    out["autodiff.gc_pause_s"] = (_median([spans[op][4] for op in ops]), "s")
    out["trace.coverage"] = (_median([covered[op] / (spans[op][2] - spans[op][1])
                                      for op in ops]), "fraction")
    if traced_walls and untraced_walls:
        overhead = 100.0 * (_median(traced_walls) / _median(untraced_walls) - 1.0)
        out["trace.overhead_pct"] = (overhead, "%")
    return out
