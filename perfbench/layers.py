"""Span tracing at the layer boundaries, from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (the
table :data:`BOUNDARIES`) in place: class attributes on the classes,
and module functions in every ``repro`` module that imported them by
name.  :meth:`LayerTracer.uninstall` restores the originals, so the
untraced and traced runs execute the same program.

Each call records one span: name, start, end, parent span and request
id (its own when the call identifies a request, else its parent's).
Spans live in flat arrays in memory and are written out once, at the
end.  A span's self time is its duration minus what its direct children
cover; calls are nested on one thread, so the self times of the spans
under a root add up to the root's duration and the layer shares of the
roots sum to 1.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "plan", "control", "issuer", "runtime", "engine", "kernels",
    "journal", "telemetry", "integrity", "recorder",
)

#: (module, owner, [attributes], layer); ``owner`` None means module
#: functions.  Spans are named ``Owner.attr`` or ``function``.
BOUNDARIES: List[Tuple[str, Optional[str], List[str], str]] = [
    ("repro.core.region", "TargetRegion", ["parse", "bind", "plan_for", "run"], "plan"),
    ("repro.core.autotune", None, ["autotune"], "plan"),
    ("repro.core.memlimit", None, ["tune_plan"], "plan"),
    ("repro.serve.cache", "PlanCache", ["get", "put", "key_for"], "plan"),
    ("repro.core.plan", "RegionPlan", ["device_bytes"], "plan"),
    ("repro.serve.scheduler", "RegionScheduler", ["submit_all", "submit", "run"], "control"),
    ("repro.serve.pool", "DevicePool",
     ["fits", "headroom", "reserve", "release", "best_fit"], "control"),
    ("repro.core.executor", None, ["execute_pipeline"], "issuer"),
    ("repro.core.executor", "PipelineIssuer",
     ["open", "issue_next", "drain", "recover", "finalize"], "issuer"),
    ("repro.core.multidevice", "ShardedIssuer",
     ["open", "issue_next", "drain", "recover", "finalize"], "issuer"),
    ("repro.gpu.runtime", "Runtime",
     ["memcpy_h2d_async", "memcpy_d2h_async", "memcpy_h2d", "memcpy_d2h",
      "launch", "event", "record_event", "stream_wait_event",
      "stream_synchronize", "event_synchronize", "synchronize",
      "malloc", "free", "create_stream"], "runtime"),
    ("repro.sim.engine", "Simulator",
     ["enqueue", "run_until", "wait_command", "wait_event", "advance_to",
      "run_all"], "engine"),
    ("repro.serve.journal", "JournalWriter", ["append"], "journal"),
    ("repro.obs.telemetry", "TelemetrySampler", ["advance", "finish"], "telemetry"),
    ("repro.integrity", None, ["digest"], "integrity"),
    ("repro.obs.recorder", "FlightRecorder", ["record"], "recorder"),
]

#: root spans: the measured call of each workload
ROOTS = ("RegionScheduler.submit_all", "RegionScheduler.run", "TargetRegion.run")

_PREFIX_ID = re.compile(r"^t(\d+)\.")


def _kernel_classes() -> List[type]:
    """``RegionKernel`` and every subclass that defines its own ``run``."""
    from repro.core.kernel import RegionKernel

    out, todo = [], [RegionKernel]
    while todo:
        cls = todo.pop()
        if "run" in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class LayerTracer:
    """Installs span wrappers and accumulates spans while :attr:`on`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.on = False
        #: id(TargetRegion) -> request id, registered by the benchmark
        self.region_ids: Dict[int, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------------
    # span storage
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_req = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_self = array("d")
        self._stack: List[int] = []
        self._child: List[float] = []

    def __len__(self) -> int:
        return len(self.s_name)

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    # ------------------------------------------------------------------
    # request ids
    # ------------------------------------------------------------------
    def _req_region(self, args) -> int:
        return self.region_ids.get(id(args[0]), -1)

    @staticmethod
    def _req_issuer(args) -> int:
        m = _PREFIX_ID.match(getattr(args[0], "stream_prefix", ""))
        return int(m.group(1)) if m else -1

    @staticmethod
    def _req_submit(args) -> int:
        return getattr(args[0], "_seq", -1)

    def _req_fn(self, owner: Optional[str], attr: str) -> Optional[Callable]:
        if owner == "TargetRegion" and attr != "parse":
            return self._req_region
        if owner in ("PipelineIssuer", "ShardedIssuer"):
            return self._req_issuer
        if owner == "RegionScheduler" and attr == "submit":
            return self._req_submit
        return None

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str, req_fn: Optional[Callable]):
        tracer = self
        nid = self._name_id(name, layer)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            child = tracer._child
            idx = len(tracer.s_name)
            parent = stack[-1] if stack else -1
            req = req_fn(args) if req_fn is not None else -1
            if req < 0 and parent >= 0:
                req = tracer.s_req[parent]
            tracer.s_name.append(nid)
            tracer.s_parent.append(parent)
            tracer.s_req.append(req)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            tracer.s_self.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                tracer.s_start[idx] = t0
                tracer.s_end[idx] = t1
                tracer.s_self[idx] = dur - covered
                if child:
                    child[-1] += dur

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _patch(self, owner_obj, attr: str, value) -> None:
        self._patches.append((owner_obj, attr, owner_obj.__dict__[attr]))
        setattr(owner_obj, attr, value)

    def install(self) -> None:
        """Wrap every boundary; idempotent only through :meth:`uninstall`."""
        import importlib

        if self._patches:
            raise RuntimeError("layer tracer already installed")
        functions: Dict[int, object] = {}
        for modname, owner, attrs, layer in BOUNDARIES:
            mod = importlib.import_module(modname)
            for attr in attrs:
                if owner is None:
                    fn = getattr(mod, attr)
                    functions[id(fn)] = self._wrap(fn, attr, layer, None)
                    continue
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                name = f"{owner}.{attr}"
                req_fn = self._req_fn(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer, req_fn))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, name, layer, req_fn))
                else:
                    wrapped = self._wrap(raw, name, layer, req_fn)
                self._patch(cls, attr, wrapped)
        for cls in _kernel_classes():
            self._patch(cls, "run", self._wrap(
                cls.__dict__["run"], "RegionKernel.run", "kernels", None
            ))
        # module functions: replace every binding of the same object
        originals = {fid: w.__wrapped__ for fid, w in functions.items()}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                w = functions.get(id(value))
                if w is not None and originals[id(value)] is value:
                    self._patch(mod, attr, w)

    def uninstall(self) -> None:
        for owner_obj, attr, original in reversed(self._patches):
            setattr(owner_obj, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def summary(self, first: int = 0, last: Optional[int] = None,
                roots: Tuple[str, ...] = ROOTS) -> Dict[str, object]:
        """Per-layer self time, per-name call counts and self time, and
        the summed duration of the top-level spans, over spans
        ``[first, last)``.  ``unrooted`` counts top-level spans whose
        name is not in ``roots``."""
        last = len(self) if last is None else last
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.names)
        name_self = [0.0] * len(self.names)
        root_total = 0.0
        unrooted = 0
        root_ids = {self._ids[r] for r in roots if r in self._ids}
        layer_of = self.layer_of
        for nid, parent, start, end, own in zip(
            self.s_name[first:last], self.s_parent[first:last],
            self.s_start[first:last], self.s_end[first:last],
            self.s_self[first:last],
        ):
            calls[nid] += 1
            name_self[nid] += own
            layer_self[layer_of[nid]] += own
            if parent < 0:
                root_total += end - start
                unrooted += nid not in root_ids
        return {
            "layer_self_s": layer_self,
            "calls": {self.names[i]: c for i, c in enumerate(calls) if c},
            "name_self_s": {
                self.names[i]: s for i, s in enumerate(name_self) if calls[i]
            },
            "root_s": root_total,
            "unrooted": unrooted,
        }

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Spans as gzipped JSON lines: a header, then one span per line
        with name, layer, start/end (s, relative to the first span),
        parent index and request id."""
        t_base = self.s_start[0] if len(self) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta, "layers": list(LAYERS)}) + "\n")
            for i in range(len(self)):
                nid = self.s_name[i]
                fh.write(json.dumps([
                    self.names[nid], self.layer_of[nid],
                    round(self.s_start[i] - t_base, 9),
                    round(self.s_end[i] - t_base, 9),
                    self.s_parent[i], self.s_req[i],
                ]) + "\n")
