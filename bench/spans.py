"""Span recording around the public functions of each maxdeficit module.

install() replaces each traced function, in its defining module and in
every other maxdeficit module that imported it, with a wrapper that
opens a span while the function runs.  Spans nest on one stack, so a
span's self time is its duration minus the time of the spans it
directly encloses; the self times of all spans in a request add up to
the request's own span.

Calls that happen thousands of times per request (the distortion g, the
ruin curve, the pooled tail, one path's events) are folded: they are
timed like any span and counted into the enclosing recorded span, but
not stored one by one, so a traced round stays small in memory.  The
callables handed to tail_integral and brent_root are wrapped to count
integrand and root-function evaluations on the enclosing span.
"""

import json
import sys
import time

from maxdeficit import DeficitFunctional, Distortion

# layer name -> traced names, as "module:attribute" or "module:Class.method"
LAYERS = {
    "numerics.tail_integral": ["numerics:tail_integral"],
    "numerics.brent_root": ["numerics:brent_root"],
    "numerics.lambert_w0": ["numerics:lambert_w0"],
    "distortion.choquet": [
        "distortion:choquet_empirical",
        "distortion:choquet_se",
        "distortion:choquet_tail",
        "distortion:choquet_weights",
    ],
    "model.ultimate_ruin": ["model:ultimate_ruin"],
    "deficit.build": [
        "deficit:DeficitFunctional.closed_form_ph",
        "deficit:DeficitFunctional.closed_form_tvar",
        "deficit:DeficitFunctional.quadrature",
        "deficit:DeficitFunctional.empirical",
    ],
    "measures": [
        "measures:coherent_measure",
        "measures:convex_measure",
        "measures:proportional_measure",
        "measures:critical_threshold",
        "measures:ear_convex_measure",
        "measures:premium_lower_bound",
    ],
    "allocate.method1": [
        "allocate:method1_exponential",
        "allocate:method1_generic",
        "allocate:invariance_check",
    ],
    "allocate.method2_two_line": [
        "allocate:method2_two_line",
        "allocate:rho2_two_line",
    ],
    "allocate.method2_generic": ["allocate:method2_generic"],
    "allocate.psi_tilde": ["allocate:psi_tilde"],
    "simulate.path_events": ["simulate:path_events"],
    "simulate.path_max": ["simulate:max_loss_from_events"],
    "simulate.batch": [
        "simulate:simulate_max_loss",
        "simulate:simulate_path_states",
        "simulate:simulate_aggregate_claims",
        "simulate:estimate_finite_ruin",
    ],
    "simulate.nested": [
        "simulate:supermartingale_check",
        "simulate:conditional_max_samples",
    ],
    "simulate.io": ["simulate:save_batch", "simulate:load_batch"],
    "cli": ["cli:main"],
}

# DeficitFunctional.__call__ and Distortion.__call__ are named by source
_DEFICIT_LAYER = {
    "closed-ph": "deficit.closed",
    "closed-tvar": "deficit.closed",
    "quadrature": "deficit.quadrature",
    "empirical": "deficit.empirical",
}

FOLDED = {
    "distortion.g",
    "model.ultimate_ruin",
    "allocate.psi_tilde",
    "simulate.path_events",
    "simulate.path_max",
}



class Tracer:
    """In-memory span store.  Frames on the stack are lists
    [span_id, layer, start, child_seconds, counters]."""

    def __init__(self):
        self.stack = []
        self.spans = []  # recorded spans, written out by dump()
        self.layers = {}  # layer -> [calls, self_seconds]
        self.counts = {}  # counter name -> total
        self.request = None
        self._next_id = 0

    def enter(self, layer):
        self._next_id += 1
        frame = [self._next_id, layer, time.perf_counter(), 0.0, None]
        self.stack.append(frame)
        return frame

    def leave(self, frame, folded=False):
        end = time.perf_counter()
        self.stack.pop()
        span_id, layer, start, child, counters = frame
        duration = end - start
        own = duration - child
        agg = self.layers.get(layer)
        if agg is None:
            agg = self.layers[layer] = [0, 0.0]
        agg[0] += 1
        agg[1] += own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if folded:
            # fold into the nearest recorded ancestor
            for anc in reversed(self.stack):
                if anc[1] not in FOLDED:
                    c = anc[4] = anc[4] or {}
                    c[layer] = c.get(layer, 0) + 1
                    if counters:
                        for key, val in counters.items():
                            c[key] = c.get(key, 0) + val
                    break
        else:
            parent_id = parent[0] if parent is not None else None
            self.spans.append(
                (self.request, span_id, parent_id, layer, start, duration, own, counters)
            )

    def bump(self, frame, key, by=1):
        """Add to a run-wide counter and to the frame's copy for the trace."""
        c = frame[4] = frame[4] or {}
        c[key] = c.get(key, 0) + by
        self.counts[key] = self.counts.get(key, 0) + by

    def dump(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for req, sid, pid, layer, start, dur, own, counters in self.spans:
                rec = {
                    "request": req,
                    "span": sid,
                    "parent": pid,
                    "layer": layer,
                    "start_s": start,
                    "duration_ms": dur * 1e3,
                    "self_ms": own * 1e3,
                }
                if counters:
                    rec["counts"] = counters
                fh.write(json.dumps(rec) + "\n")


def _wrap(tracer, layer, fn, folded):
    evals = f"{layer}.evals" if layer in ("numerics.tail_integral", "numerics.brent_root") else None
    events = layer == "simulate.path_events"

    def traced(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            if evals is not None:
                # count integrand or root-function calls on this span
                inner = args[0]

                def count(*a):
                    tracer.bump(frame, evals)
                    return inner(*a)

                args = (count,) + args[1:]
            result = fn(*args, **kwargs)
            if events:
                tracer.bump(frame, "simulate.events", len(result[0]))
            return result
        finally:
            tracer.leave(frame, folded)

    return traced


def install(tracer):
    """Wrap every traced name wherever maxdeficit modules hold it; returns
    a function that puts the originals back."""
    saved = []

    def replace(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "maxdeficit"]
    for layer, names in LAYERS.items():
        for qualified in names:
            mod_name, attr = qualified.split(":")
            mod = sys.modules[f"maxdeficit.{mod_name}"]
            folded = layer in FOLDED
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth].__func__  # the constructors are classmethods
                replace(cls, meth, classmethod(_wrap(tracer, layer, fn, folded)))
                continue
            original = getattr(mod, attr)
            wrapped = _wrap(tracer, layer, original, folded)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        replace(m, key, wrapped)

    replace(Distortion, "__call__", _wrap(tracer, "distortion.g", Distortion.__call__, True))

    d_call = DeficitFunctional.__call__
    by_layer = {
        layer: _wrap(tracer, layer, d_call, False) for layer in set(_DEFICIT_LAYER.values())
    }

    def deficit_call(self, u):
        return by_layer[_DEFICIT_LAYER[self.kind]](self, u)

    replace(DeficitFunctional, "__call__", deficit_call)

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall
