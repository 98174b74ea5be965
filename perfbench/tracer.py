"""In-memory spans around the package's layer boundaries, and per-layer metrics.

The tracer replaces a layer's public functions, where the calling module
looks them up, with wrappers that record one span per call: a name, its
parent span, start and end times, and the number of rows the call worked
on.  Names a module imported with ``from ... import`` are wrapped in that
module (``convergence.rows_l2_sq`` and ``engine.rows_l2_sq`` are distinct
lookups of one function).  Nothing in the package is edited; ``uninstall``
puts every original back.

Spans live in per-thread arrays and are written out once, at the end.  A
span's self time is its duration minus the part of it its child spans
cover; children of ``parallel.map`` run on pool threads and may overlap, so
their union is taken there.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

from tamedspde import coefficients, convergence, engine, ergodicity, noise


def _rows(a) -> int:
    return a.shape[0] if a.ndim == 2 else 1


# (owner, attribute, span name, rows of one call from (args, result)).
# Span names start with the layer their self time belongs to.
POINTS = (
    (engine.BatchChains, "advance", "engine.advance", lambda a, out: a[1].shape[0]),
    (engine.BatchChains, "run", "engine.run", None),
    (engine, "step_rows", "engine.step_rows", lambda a, out: a[1].shape[0]),
    (engine, "drift_diffusion_rows", "coefficients.eval", lambda a, out: _rows(a[1])),
    (engine, "mass_matvec_rows", "fem.mass_matvec", lambda a, out: _rows(a[1])),
    (engine, "_dpbtrs", "fem.dpbtrs", lambda a, out: a[1].shape[1] if a[1].ndim == 2 else 1),
    (engine, "rows_l2_sq", "norms.rows_l2_sq", lambda a, out: _rows(a[0])),
    (convergence, "rows_l2_sq", "norms.rows_l2_sq", lambda a, out: _rows(a[0])),
    (ergodicity, "rows_l2_sq", "norms.rows_l2_sq", lambda a, out: _rows(a[0])),
    (ergodicity, "rows_lyapunov", "norms.rows_lyapunov", lambda a, out: _rows(a[0])),
    (noise.PathSampler, "coeffs", "noise.draw", None),
    (engine.EnsembleNoise, "__init__", "noise.ensemble_init", None),
    (engine.EnsembleNoise, "coeff_rows", "noise.coeff_rows", lambda a, out: out.shape[0]),
    (engine.EnsembleNoise, "value_rows", "noise.value_rows", lambda a, out: out.shape[0]),
    (coefficients, "check_assumptions", "coefficients.check_assumptions", None),
    (convergence, "strong_error_ladder", "convergence.strong_error_ladder", None),
    (ergodicity, "long_run_moment_test", "ergodicity.long_run_moment_test", None),
)
# Modules whose parallel_map lookup is wrapped; each work item becomes a
# "<module>.chunk" span whose parent is the "parallel.map" span.
MAP_CALLERS = ((convergence, "convergence"), (ergodicity, "ergodicity"))

_FIELDS = (("id", "q"), ("code", "i"), ("parent", "q"), ("t0", "d"), ("t1", "d"), ("rows", "q"))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()
        self._saved: list = []  # (owner, attribute, original) while installed

    # --- recording --------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [-1]
            local.buf = {f: array(t) for f, t in _FIELDS}
            with self._lock:
                self._buffers.append(local.buf)
        return local.stack, local.buf

    def _run(self, code, rows, parent, fn, args, kwargs):
        stack, buf = self._thread_state()
        sid = next(self._ids)
        par = stack[-1] if parent is None else parent
        stack.append(sid)
        out, ok = None, False
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            buf["id"].append(sid)
            buf["code"].append(code)
            buf["parent"].append(par)
            buf["t0"].append(t0)
            buf["t1"].append(t1)
            buf["rows"].append(rows(args, out) if rows and ok else 1)

    def _span(self, name, fn, rows):
        code = self._code(name)

        def traced(*args, **kwargs):
            return self._run(code, rows, None, fn, args, kwargs)

        return traced

    def _map_span(self, caller, fn):
        map_code, chunk_code = self._code("parallel.map"), self._code(f"{caller}.chunk")

        def traced_map(work, items, *args, **kwargs):
            stack, _ = self._thread_state()
            map_id = []  # the id the map span gets, read by the work items

            def chunk(item):
                return self._run(chunk_code, None, map_id[0], work, (item,), {})

            def run_map():
                map_id.append(stack[-1])
                return fn(chunk, items, *args, **kwargs)

            return self._run(map_code, None, None, run_map, (), {})

        return traced_map

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows in POINTS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), rows))
        for module, caller in MAP_CALLERS:
            self._patch(module, "parallel_map", self._map_span(caller, module.parallel_map))

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def spans(self) -> dict:
        """Every recorded span as numpy columns, plus the name table."""
        with self._lock:
            bufs = list(self._buffers)
        out = {  # array typecodes double as numpy dtype codes
            f: np.concatenate([np.frombuffer(b[f], dtype=t) for b in bufs])
            if bufs
            else np.empty(0, dtype=t)
            for f, t in _FIELDS
        }
        out["names"] = np.array(self.names)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.spans())


def self_times(sp: dict) -> np.ndarray:
    """Duration of each span minus the part its children cover."""
    ids, parent = sp["id"], sp["parent"]
    dur = sp["t1"] - sp["t0"]
    n = len(ids)
    if n == 0:
        return dur
    pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    pos[ids] = np.arange(n)
    has = parent >= 0
    cover = np.bincount(pos[parent[has]], weights=dur[has], minlength=n)
    names = list(sp["names"])
    if "parallel.map" in names:
        for m in np.nonzero(sp["code"] == names.index("parallel.map"))[0]:
            kids = np.nonzero(parent == ids[m])[0]
            cover[m] = _union_length(sp["t0"][kids], sp["t1"][kids])
    return dur - cover


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(sp: dict, rounds: int, paths: int, workers: int) -> dict:
    """Per-layer metrics of the traced rounds, as {name: (value, unit)}.

    Counts are per path and times per round, so both are fixed by the inputs
    rather than by how many rounds fitted into the run.  A layer the workload
    never calls reads 0.
    """
    names = [str(x) for x in sp["names"]]
    dur = sp["t1"] - sp["t0"]
    self_t = self_times(sp)

    def tot(*span_names):
        codes = [names.index(n) for n in span_names if n in names]
        m = np.isin(sp["code"], codes)
        return {
            "count": int(m.sum()),
            "dur": float(dur[m].sum()),
            "self": float(self_t[m].sum()),
            "rows": int(sp["rows"][m].sum()),
        }

    adv = tot("engine.advance")
    stepping = tot("engine.advance", "engine.step_rows", "engine.run")
    norms = tot("norms.rows_l2_sq", "norms.rows_lyapunov")
    draw = tot("noise.draw")
    synth = tot("noise.value_rows")
    ens = tot("noise.ensemble_init")
    ev = tot("coefficients.eval")
    mass, solve = tot("fem.mass_matvec"), tot("fem.dpbtrs")
    chunks = tot("convergence.chunk", "ergodicity.chunk")
    pmap = tot("parallel.map")
    conv = tot("convergence.strong_error_ladder", "convergence.chunk")
    ergo = tot("ergodicity.long_run_moment_test", "ergodicity.chunk")
    return {
        "engine.advance_calls": (_div(adv["count"], paths), "calls/path"),
        "engine.rows_per_advance": (_div(adv["rows"], adv["count"]), "rows"),
        "engine.advance_us_per_row": (_div(adv["dur"], adv["rows"]) * 1e6, "us"),
        "engine.step_overhead_us_per_row": (_div(stepping["self"], adv["rows"]) * 1e6, "us"),
        "engine.norms_us_per_call": (_div(norms["dur"], norms["count"]) * 1e6, "us"),
        "noise.draw_calls": (_div(draw["count"], paths), "calls/path"),
        "noise.draw_us_per_call": (_div(draw["dur"], draw["count"]) * 1e6, "us"),
        "noise.synth_us_per_row": (_div(synth["self"], synth["rows"]) * 1e6, "us"),
        "noise.ensemble_init_ms": (_div(ens["dur"], ens["count"]) * 1e3, "ms"),
        "coefficients.eval_us_per_row": (_div(ev["dur"], ev["rows"]) * 1e6, "us"),
        "coefficients.check_assumptions_s": (tot("coefficients.check_assumptions")["dur"], "s"),
        "fem.resolvent_us_per_row": (_div(mass["dur"] + solve["dur"], mass["rows"]) * 1e6, "us"),
        "convergence.self_s": (_div(conv["self"], rounds), "s"),
        "ergodicity.self_s": (_div(ergo["self"], rounds), "s"),
        "parallel.chunks": (_div(chunks["count"], rounds), "count"),
        "parallel.busy_s": (_div(chunks["dur"], rounds), "s"),
        "parallel.utilization": (_div(chunks["dur"], workers * pmap["dur"]), "ratio"),
    }
