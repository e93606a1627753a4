"""Spans around calls into deltasum's layers, recorded from outside the
library.

``Tracer.install`` wraps each function in ``TRACED`` in every ``deltasum``
module namespace that binds it (``expsums.kloosterman``,
``pipeline.kloosterman`` and ``cli.kloosterman`` are one wrapper), so calls
made inside the package are seen too.  A span is (name, start, end, parent,
thread, attribute); the parent is the innermost open span on the same
thread.  Spans stay in memory and are written out when the child ends.
``summarize`` runs in run.py's parent process and needs no ``deltasum``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kloosterman_meter(args, kwargs, result):
    use_crt = kwargs.get("use_crt", args[3] if len(args) > 3 else False)
    return [bool(use_crt), abs(result.value) / result.weil_bound]


def _bessel_meter(args, kwargs, result):
    from deltasum.kernels import BESSEL_CROSSOVER

    xs = np.asarray(_arg(args, kwargs, 1, "xs"), dtype=float)
    return [int(xs.size), int(np.count_nonzero(xs > BESSEL_CROSSOVER))]


def _shifted_meter(args, kwargs, result):
    from deltasum.pipeline import IDENTITY_ABS_TOL, IDENTITY_REL_TOL

    tol = max(IDENTITY_REL_TOL * abs(result.direct_value), IDENTITY_ABS_TOL)
    return [_arg(args, kwargs, 0, "spec").x_scale, result.identity_residual / tol]


# (module, function, meter).  A meter maps (args, kwargs, result) to the
# span's attribute: the work count or outcome run.py aggregates.
TRACED = (
    ("_backend", "kloosterman_raw", lambda a, k, r: a[2]),
    ("expsums", "kloosterman", _kloosterman_meter),
    ("arith", "factorize", None),
    ("characters", "enumerate_characters", None),
    ("characters", "gauss_sum", None),
    ("modforms", "eta_product_series", lambda a, k, r: _arg(a, k, 1, "bound")),
    ("modforms", "builtin_form", None),
    ("kernels", "bessel_j_array", _bessel_meter),
    ("kernels", "delta_weight_array",
     lambda a, k, r: [int(r.size), int(np.count_nonzero(r))]),
    ("kernels", "double_bessel_integral", lambda a, k, r: r.panels),
    ("kernels", "delta_decompose", None),
    ("kernels", "delta_decompose_lowered", None),
    ("kernels", "calibrate", None),
    ("pipeline", "shifted_sum_delta", _shifted_meter),
    ("pipeline", "shifted_sum_direct", None),
    # eta margin: ||eta| - 1| over the 1e-6 gate of the Voronoi check
    ("pipeline", "verify_voronoi",
     lambda a, k, r: [r.dual_terms, r.eta_abs_error / 1e-6]),
    ("verify", "run_all", None),
    ("cli", "main", None),
)

# lru_cache'd functions whose hit ratio is reported, read from cache_info()
CACHES = (
    ("modforms", "builtin_form"),
    ("characters", "_group"),
    ("kernels", "_unit_roots"),
    ("kernels", "_coprime_residues"),
    ("kernels", "_phi_cache"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._local = threading.local()
        self._originals: dict[str, object] = {}

    def wrap(self, name: str, fn, meter=None):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [nid, clock(), 0.0, stack[-1] if stack else None,
                      threading.get_ident(), None]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if meter is not None:
                record[5] = meter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever deltasum binds it, and each
        registry check as ``verify.<check-name>``."""
        from deltasum import verify

        modules = [m for n, m in sys.modules.items()
                   if n == "deltasum" or n.startswith("deltasum.")]
        for mod_name, fn_name, meter in TRACED:
            original = getattr(sys.modules[f"deltasum.{mod_name}"], fn_name)
            self._originals[f"{mod_name}.{fn_name}"] = original
            # metric names must start with a letter: _backend -> backend
            wrapper = self.wrap(f"{mod_name.lstrip('_')}.{fn_name}", original, meter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        verify.REGISTRY = tuple(
            (name, self.wrap(f"verify.{name}", fn)) for name, fn in verify.REGISTRY
        )

    def cache_report(self) -> dict:
        out = {}
        for mod_name, fn_name in CACHES:
            key = f"{mod_name}.{fn_name}"
            fn = self._originals.get(key) or getattr(
                sys.modules[f"deltasum.{mod_name}"], fn_name
            )
            info = fn.cache_info()
            out[key] = [info.hits, info.misses]
        return out

    def dump(self) -> dict:
        """Spans as plain lists: [name, start, end, parent index, thread
        index, attribute]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        threads: dict[int, int] = {}
        rows = []
        for rec in self.spans:
            parent = index[id(rec[3])] if rec[3] is not None else -1
            tid = threads.setdefault(rec[4], len(threads))
            rows.append([rec[0], rec[1], rec[2], parent, tid, rec[5]])
        return {"names": self.names, "spans": rows}


def summarize(dump: dict) -> dict:
    """Per span name: calls, busy time ``s`` (spans with no ancestor of the
    same name, so recursion is not counted twice), ``self_s`` (duration
    minus the direct children's durations), and the attributes with the
    durations of the spans that carry them."""
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (nid, start, end, parent, _, attr) in enumerate(spans):
        entry = out.setdefault(
            names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": [], "attr_durs": []}
        )
        dur = end - start
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[i]
        if attr is not None:
            entry["attrs"].append(attr)
            entry["attr_durs"].append(dur)
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            entry["s"] += dur
    return out
