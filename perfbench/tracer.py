"""Span tracer that measures nclayer's layers from outside the package.

Each layer is a public function wrapped at the module attribute its caller
looks up at call time (``nclayer.codec.gf_rref`` is what ``decode_gop``
calls, ``nclayer.simulator.sender_epoch`` is what ``run`` calls). A wrapper
records one span: id, layer, start, end, parent span and trace id, where the
trace id is shared by every span of one GOP. Spans stay in memory until the
benchmark writes them out. Nothing under ``src/`` is modified; patches are
undone when ``active()`` exits.

A site whose attribute no longer exists is reported in ``absent`` and left
alone, so a refactor that removes a layer does not break the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _gf_matmul_bytes(tracer, args, kwargs, result):
    coeffs, data = args[:2]
    tracer.count("kernels.gf_matmul.bytes", coeffs.nbytes + data.nbytes + result.nbytes)


def _gf_rref_bytes(tracer, args, kwargs, result):
    # Elimination reads and rewrites the augmented matrix in place.
    tracer.count("kernels.gf_rref.bytes", 2 * args[0].nbytes)


def _encode_packets(tracer, args, kwargs, result):
    tracer.count("codec.encode_gop.packets", len(result))


def _decode_packets(tracer, args, kwargs, result):
    tracer.count("codec.decode_gop.packets", len(args[0]))


def _transmit_packets(tracer, args, kwargs, result):
    tracer.count("channel.transmit.packets_in", len(args[1]))
    tracer.count("channel.transmit.packets_out", len(result))


def _probe_error(tracer, args, kwargs, result):
    links = args[0]
    truth = math.prod(getattr(link, "delivery_prob", math.nan) for link in links)
    tracer.count("channel.probe_abs_err.sum", abs(result - truth))
    tracer.count("channel.probe_abs_err.n", 1)


def _strategy_switch(tracer, args, kwargs, result):
    state = args[0]
    strategy = getattr(state, "strategy", None)
    with tracer.lock:
        previous = tracer.last_strategy.get(id(state))
        tracer.last_strategy[id(state)] = strategy
    if previous is not None and strategy != previous:
        tracer.count("spt.strategy_switches", 1)


def _relay_depth(tracer, args, kwargs, result):
    state = args[0]
    if getattr(state, "mode", None) != "nc":
        return
    depth = getattr(state, "last_decoded", 0)
    tracer.count("nodes.relay_decoded_depth.sum", depth)
    tracer.count("nodes.relay_decoded_depth.n", 1)
    if depth == 0:
        tracer.count("nodes.relay_zero_decodes", 1)


# Layer name -> (call sites as (module, attribute path), optional hook run on
# the result). Wrap at layer boundaries only: per-probe calls such as
# LinkModel.send_one run hundreds of times per GOP and would dominate the
# trace's own cost.
LAYERS = {
    "kernels.expected_layers_batch": ((("nclayer.spt", "expected_layers_batch"),), None),
    "kernels.gf_matmul": ((("nclayer.codec", "gf_matmul"),), _gf_matmul_bytes),
    "kernels.gf_rref": ((("nclayer.codec", "gf_rref"),), _gf_rref_bytes),
    "codec.encode_gop": ((("nclayer.nodes", "encode_gop"),), _encode_packets),
    "codec.decode_gop": ((("nclayer.nodes", "decode_gop"),), _decode_packets),
    "spt.build_table": (
        (("nclayer.spt", "build_table"), ("nclayer.simulator", "build_table")),
        None,
    ),
    "spt.select_best": ((("nclayer.nodes", "select_best"),), None),
    "spt.best_restricted": ((("nclayer.nodes", "best_restricted"),), None),
    "heuristic.select_strategy": ((("nclayer.nodes", "select_strategy"),), None),
    "channel.transmit": ((("nclayer.channel", "LinkModel.transmit"),), _transmit_packets),
    "channel.chain_e2e_pdr": ((("nclayer.simulator", "chain_e2e_pdr"),), _probe_error),
    "media.make_synthetic_gop": ((("nclayer.simulator", "make_synthetic_gop"),), None),
    "nodes.sender_epoch": ((("nclayer.simulator", "sender_epoch"),), _strategy_switch),
    "nodes.relay_step": ((("nclayer.simulator", "relay_step"),), _relay_depth),
    "nodes.receiver_ingest": ((("nclayer.simulator", "receiver_ingest"),), None),
    "nodes.receiver_finalize_gop": ((("nclayer.simulator", "receiver_finalize_gop"),), None),
    "simulator.run": ((("nclayer.simulator", "run"),), None),
    "simulator.no_nc_baseline": ((("nclayer.simulator", "no_nc_baseline"),), None),
    "simulator.sweep": ((("nclayer.simulator", "sweep"),), None),
}

# Closing one of these spans ends a GOP: later spans on that thread get a new
# trace id.
GOP_END = "nodes.receiver_finalize_gop"


def resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted path, or None if any
    part of it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.last_strategy: dict[int, object] = {}
        self.lock = threading.Lock()
        self._ids = itertools.count()
        self._trace_ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._state()[0]
        self.absent = sorted(
            layer
            for layer, (sites, _) in self.layers.items()
            if not any(resolve(m, p) for m, p in sites)
        )

    def count(self, key: str, amount: float) -> None:
        with self.lock:
            self.counters[key] += amount

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trace_id = next(self._trace_ids)
        return local.stack, local

    def _wrap(self, layer: str, fn, hook):
        tracer = self
        ends_gop = layer == GOP_END

        def traced(*args, **kwargs):
            stack, local = tracer._state()
            # Worker threads of a pool start with an empty stack; their spans
            # belong to whatever the main thread has open (the sweep).
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            trace_id = local.trace_id
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, layer, start, end, parent, trace_id))
                if ends_gop:
                    local.trace_id = next(tracer._trace_ids)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Installs every wrapper for the duration of the block."""
        installed = []
        try:
            for layer, (sites, hook) in self.layers.items():
                for module_name, path in sites:
                    found = resolve(module_name, path)
                    if found is None:
                        continue
                    owner, attr, original = found
                    setattr(owner, attr, self._wrap(layer, original, hook))
                    installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per layer. Self time is
        a span's duration minus the part of it that child spans cover; the
        union is taken so that children running in parallel count once."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in self.layers}
        for span_id, layer, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = totals[layer]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def write(self, path) -> None:
        """Writes every span, one row each, as JSON."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "columns": ["id", "layer", "start", "end", "parent", "trace_id"],
                    "absent": self.absent,
                    "spans": sorted(self.spans),
                },
                fh,
            )
