"""Outside-in layer tracing for the end-to-end benchmark.

The program has no per-layer timers yet, so the traced repetition times
each layer from outside: at run time it wraps the public callables that
make up a layer (:data:`LAYERS`) and records one span per call.

* Methods are wrapped on the class that defines them.
* Functions are wrapped in every loaded ``repro.*`` module (and the
  bench script) that binds them, found by identity, so ``from x import
  f`` copies are caught too.

Spans are recorded only inside a bench-side phase (:meth:`Tracer.phase`),
so the bench's own correctness checks never count.  A span's self time is
its duration minus the time its direct children cover, so the self
times of all layers plus the phases' own self time sum exactly to the
phases' total.  Per-layer totals are kept for every call; the raw spans
are kept for the first :data:`SPAN_CAP` calls, enough to inspect the
call structure without holding millions of spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from pathlib import Path

#: Layer name -> public callables it is timed by, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "topology": ("repro.topology.generators:build_alvc_fabric",),
    "core.cluster": ("repro.core.cluster:ClusterManager.create_cluster",),
    "core.abstraction_layer": (
        "repro.core.abstraction_layer:AlConstructor.construct",
        "repro.core.abstraction_layer:AlConstructor.construct_for_servers",
    ),
    "core.orchestrator": (
        "repro.core.orchestrator:NetworkOrchestrator.provision_chain",
        "repro.core.orchestrator:NetworkOrchestrator.teardown_chain",
        "repro.core.orchestrator:NetworkOrchestrator.handle_ops_failure",
        "repro.core.orchestrator:NetworkOrchestrator.handle_vm_migration",
    ),
    "core.placement": ("repro.core.placement:PlacementSolver.solve",),
    "core.slicing": (
        "repro.core.slicing:SliceAllocator.allocate",
        "repro.core.slicing:SliceAllocator.release",
    ),
    "sdn.controller": ("repro.sdn.controller:SdnController.install_path",),
    "sdn.routing": (
        "repro.sdn.routing:chain_path",
        "repro.sdn.routing:shortest_path_in_al",
        "repro.sdn.routing:k_shortest_paths",
        "repro.sdn.routing:routes_from",
        "repro.sdn.routing:shortest_surviving_path",
        "repro.sim.admission:resolve_tree_path",
    ),
    "service.journal": ("repro.service.journal:Journal.append",),
    "service.snapshot": (
        "repro.service.snapshot:write_snapshot",
        "repro.service.snapshot:load_snapshot",
        "repro.service.snapshot:state_digest",
    ),
    "service.restore": (
        "repro.service.restore:restore_stack",
        "repro.service.restore:replay",
    ),
    "workload.admission": (
        "repro.workload.admission:AdmissionController.preflight",
        "repro.workload.admission:AdmissionController.headroom",
        "repro.workload.admission:AdmissionController.fragmentation",
        "repro.workload.admission:AdmissionController.should_defrag",
        "repro.workload.admission:AdmissionController.defrag",
    ),
    "workload.scaling": (
        "repro.workload.scaling:ElasticScaler.observe_epoch",
    ),
    "workload.runner": ("repro.workload.runner:WorkloadRunner.run",),
    "chaos": ("repro.stack:AlvcStack.inject_faults",),
    "virtualization": (
        "repro.virtualization.vm_placement:VmPlacementEngine.place",
        "repro.virtualization.machines:MachineInventory.create_vm",
        "repro.virtualization.machines:MachineInventory.place",
        "repro.virtualization.machines:MachineInventory.remaining_capacity",
    ),
    "sim.admission": (
        "repro.sim.admission:plan_admission",
        "repro.sim.admission:AdmissionPlan.lookup",
        "repro.sim.admission:AdmissionPlan.invalidate_crossing",
    ),
    "sim.vector": (
        "repro.sim.vector:BatchedFairShareEngine.recompute",
        "repro.sim.vector:BatchedFairShareEngine.add_interned",
        "repro.sim.vector:BatchedFairShareEngine.add_flow",
        "repro.sim.vector:VectorFairShareEngine.recompute",
        "repro.sim.vector:VectorFairShareEngine.add_flow",
        "repro.sim.vector:VectorFairShareEngine.remove_flow",
        "repro.sim.vector:VectorFairShareEngine.remove_link",
        "repro.sim.vector:VectorFairShareEngine.set_capacity",
    ),
    "sim.event_simulator": (
        "repro.sim.event_simulator:EventDrivenFlowSimulator.run",
    ),
    "stack": (
        "repro.stack:AlvcStack.provision",
        "repro.stack:AlvcStack.teardown",
        "repro.stack:AlvcStack.cluster",
        "repro.stack:AlvcStack.build",
    ),
}

#: The bench-side root: phase spans' own self time is reported under it.
ROOT = "bench"

#: Raw spans kept for the trace file; later calls are only aggregated.
SPAN_CAP = 20_000


class NullTracer:
    """The untraced repetition: phases cost nothing and record nothing."""

    def phase(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Wraps the :data:`LAYERS` callables and aggregates their spans."""

    def __init__(self, rep: int) -> None:
        self.rep = rep
        self.calls = {layer: 0 for layer in (*LAYERS, ROOT)}
        self.self_ns = {layer: 0 for layer in (*LAYERS, ROOT)}
        #: Calls per wrapped callable (``qualname`` -> count).
        self.callable_calls: dict[str, int] = {}
        self.root_ns = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every callable in :data:`LAYERS` (modules must be loaded)."""
        for layer, specs in LAYERS.items():
            for spec in specs:
                module_name, qualname = spec.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    self._wrap_method(module, qualname, layer)
                else:
                    self._wrap_function(module, qualname, layer)

    def _wrap_method(self, module, qualname: str, layer: str) -> None:
        class_name, attribute = qualname.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[attribute]  # KeyError: not defined on cls
        if isinstance(raw, classmethod):
            setattr(cls, attribute, classmethod(
                self._wrapper(raw.__func__, qualname, layer)
            ))
        else:
            setattr(cls, attribute, self._wrapper(raw, qualname, layer))

    def _wrap_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrapper(original, name, layer)
        for loaded_name, loaded in list(sys.modules.items()):
            # The bench script itself (``__main__``) calls some of these
            # directly, so its bindings are rewired too.
            if loaded is None or not (
                loaded_name in ("repro", "__main__")
                or loaded_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapped)

    def _wrapper(self, fn, name: str, layer: str):
        close = self._close
        stack = self._stack
        clock = time.perf_counter_ns
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [clock(), 0, next(ids)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, name, frame, clock())

        return traced

    def _close(self, layer: str, name: str, frame: list, end: int) -> None:
        """Pop ``frame`` and charge it to ``layer`` and its parent."""
        self._stack.pop()
        start, inner, span = frame
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][2]
        else:
            self.root_ns += duration
        self.calls[layer] += 1
        self.self_ns[layer] += duration - inner
        self.callable_calls[name] = self.callable_calls.get(name, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                name, start - self._origin, end - self._origin, span,
                parent, self.rep,
            ))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A bench-side root span; layer calls inside it are recorded."""
        frame = [time.perf_counter_ns(), 0, next(self._ids)]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(ROOT, name, frame, time.perf_counter_ns())

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``.self_s`` and ``.share`` for every layer."""
        root = self.root_ns or 1
        out: dict[str, float] = {}
        for layer in (*LAYERS, ROOT):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            out[f"{layer}.share"] = self.self_ns[layer] / root
        return out

    def write(self, path: Path, workload: str) -> None:
        """Dump aggregates and the kept raw spans as JSON."""
        document = {
            "workload": workload,
            "rep": self.rep,
            "root_s": self.root_ns / 1e9,
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "self_s": self.self_ns[layer] / 1e9,
                }
                for layer in (*LAYERS, ROOT)
            },
            "callable_calls": self.callable_calls,
            "span_fields": ["name", "start_ns", "end_ns", "id", "parent",
                            "rep"],
            "spans": self.spans,
            "spans_dropped": sum(self.calls.values()) - len(self.spans),
        }
        path.write_text(json.dumps(document))
