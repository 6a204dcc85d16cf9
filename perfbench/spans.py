"""Layer spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` wraps every public function of each ``lipsync`` module at
each name a caller looks it up by: the module attribute (``model.forward``
as the CLI calls it) and every ``from .x import f`` binding in the other
modules (``training.forward_with_cache``). Nothing in the package's source
changes. A span is ``[name, start, end, parent, request, work]``; ``work``
is a count taken at the boundary (frames, items, a clip flag) where the
metric needs one. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("audio", "features", "mesh", "model", "training", "synthdata", "evaluation", "cli")

# model.forward is forward_with_cache without the tape: the call inside
# model's own namespace is forward's own work, so it opens no span of its own.
_UNWRAPPED = {("lipsync.model", "forward_with_cache")}

# Work done per call, read from the arguments or result at the boundary.
WORK = {
    "model.forward": lambda args, out: out.n_frames,
    "model.forward_with_cache": lambda args, out: out[0].n_frames,
    "model.backward": lambda args, out: len(args[2]),
    "training.evaluate_loss": lambda args, out: sum(s.features.n_frames for s in args[0]),
    "training.clip_gradients": lambda args, out: int(out[1]),
    "evaluation.project_landmarks": lambda args, out: len(out),
    "evaluation.evaluate": lambda args, out: sum(s.features.n_frames for s in args[2]),
    "synthdata.load_split": lambda args, out: len(out),
}

NAME, START, END, PARENT, REQUEST, WORK_DONE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def request(self, request_id: int, call, *args):
        """Run ``call(*args)`` as the root span of one request."""
        self._request = request_id
        span = self._open("request")
        try:
            return call(*args)
        finally:
            self._close(span)
            self._request = None

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[WORK_DONE] = work(args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"lipsync.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and (mod.__name__, attr) not in _UNWRAPPED:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


class _Layer:
    __slots__ = ("calls", "total", "self_", "self_infer", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        self.self_infer = 0.0
        self.work = 0


def _ratio(num, den):
    return num / den if den else 0.0


# Statistic named by the last part of a metric name, on the span named by the
# rest: (unit, value from the layer and the run-wide denominators). Times are
# inclusive span time unless the name says ``self``. ``share`` is self time
# inside infer requests over the total time of those requests.
STATS = {
    "calls": ("count", lambda l, run: l.calls),
    "share": ("share", lambda l, run: _ratio(l.self_infer, run["infer_s"])),
    "ms_per_audio_s": ("ms/audio_s", lambda l, run: _ratio(1e3 * l.total, run["infer_audio_s"])),
    "ms_per_call": ("ms/call", lambda l, run: _ratio(1e3 * l.total, l.calls)),
    "ms_per_step": ("ms/step", lambda l, run: _ratio(1e3 * l.total, l.calls)),
    "ms_per_frame": ("ms/frame", lambda l, run: _ratio(1e3 * l.total, l.work)),
    "ms_per_item": ("ms/item", lambda l, run: _ratio(1e3 * l.total, l.work)),
    "self_ms_per_call": ("ms/call", lambda l, run: _ratio(1e3 * l.self_, l.calls)),
    "self_ms_per_frame": ("ms/frame", lambda l, run: _ratio(1e3 * l.self_, l.work)),
    "self_ms_per_step": ("ms/step", lambda l, run: _ratio(1e3 * l.self_, run["steps"])),
}


def per_layer_metrics(names, spans, request_kinds: dict, infer_audio_s: float, overhead_share: float):
    """``{name: (value, unit, samples)}`` for each per-layer metric name, and
    the span name with the most self time inside infer requests.

    ``request_kinds`` maps request id to "infer", "train" or "eval"; samples
    is the number of calls behind a value, or of requests for ``trace.*``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    layers: dict[str, _Layer] = {}
    requests = _Layer()  # the root spans; self_infer is unused there
    infer_s = 0.0
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        own = duration - child_time[i]
        infer = request_kinds[s[REQUEST]] == "infer"
        if s[NAME] == "request":
            layer = requests
            infer_s += duration if infer else 0.0
        else:
            layer = layers.setdefault(s[NAME], _Layer())
            layer.self_infer += own if infer else 0.0
        layer.calls += 1
        layer.total += duration
        layer.self_ += own
        layer.work += s[WORK_DONE] or 0

    steps = layers.get("training.adam_step", _Layer()).calls
    clips = layers.get("training.clip_gradients", _Layer())
    run = {"infer_s": infer_s, "infer_audio_s": infer_audio_s, "steps": steps}
    special = {
        "training.steps": (steps, "count", steps),
        "training.clip_ratio": (_ratio(clips.work, steps), "share", steps),
        "trace.overhead_share": (overhead_share, "share", requests.calls),
        "trace.unaccounted_share": (_ratio(requests.self_, requests.total), "share", requests.calls),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span_name, stat = name.rsplit(".", 1)
        unit, value = STATS[stat]
        layer = layers.get(span_name, _Layer())
        out[name] = (value(layer, run), unit, layer.calls)
    largest = max(layers, key=lambda n: layers[n].self_infer, default=None)
    return out, largest
