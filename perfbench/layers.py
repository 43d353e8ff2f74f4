"""Per-layer tracing from outside the library.

Each traced public function is replaced by a wrapper in every
``hypertree_lab`` module that holds it under its own name, because the
modules import one another's functions by name (``from .simplexes import
link`` in ``bounds``, ``constructions``, ``garland`` and ``cli``).  A wrapper
keeps a span stack: a layer's self time is its span time minus the time of
the traced spans it contains.  Calls, self time and a work count are summed
per layer in memory; nothing is recorded while the tracer is inactive.

The run empties the library's memos before every group of items; the
memo counters are summed over the groups, and a memo's size is the largest
it reached.  A function that a later version of the library removes or
renames is skipped, and its metrics read 0.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

PACKAGE = "hypertree_lab"


def _link_faces(args, result):
    faces = getattr(result, "faces", None)
    return len(faces if faces is not None else result.top_faces)


# (module, function, work counter name or None, work from (args, result))
LAYERS = (
    ("linalg", "rank_by_rows", "nnz_in", lambda a, r: len(a[0])),
    ("simplexes", "link", "faces_out", _link_faces),
    ("bounds", "lambda_sum", None, None),
    ("homology", "boundary_matrix", "nnz", lambda a, r: len(r.entries)),
    ("homology", "betti", None, None),
    ("garland", "weighted_laplacian", "dim_sum", lambda a, r: r.matrix.shape[0]),
    ("garland", "jacobi_eigenvalues", "dim3_sum", lambda a, r: len(a[0]) ** 3),
    ("garland", "garland_check", None, None),
    ("constructions", "sum_complex", None, None),
    ("constructions", "build_X_nkl", None, None),
    ("randomness", "random_skeleton_complex", None, None),
    ("cli", "run_command", None, None),
    ("reports", "emit_report", "bytes", lambda a, r: len(r)),
)

# the memos behind homology.boundary_rank, read through cache_info()
MEMOS = (("full_boundary_rank", "homology.full_boundary_rank"),
         ("_rank_cached", "homology.rank_memo"))


class Layer:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.layers: dict[str, Layer] = {}
        self._stack = [0.0]  # time of finished child spans, per open span
        self._patched: list[tuple[object, str, object]] = []
        self._memo_start: dict[str, tuple[int, int, int]] = {}
        self._memo_sum: dict[str, list[int]] = {}   # hits, misses, peak size

    def _wrap(self, name, fn, work):
        layer = self.layers[name] = Layer()
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                children = stack.pop()
                stack[-1] += span
                layer.calls += 1
                layer.self_s += span - children
            if work is not None:
                layer.work += work(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, fn_name, _, work in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, work)
            for m in list(sys.modules.values()):
                name = getattr(m, "__name__", "")
                if (name == PACKAGE or name.startswith(PACKAGE + ".")) \
                        and m.__dict__.get(fn_name) is orig:
                    self._patched.append((m, fn_name, orig))
                    setattr(m, fn_name, wrapper)
        span_cls = getattr(importlib.import_module(f"{PACKAGE}.linalg"),
                           "IncrementalSpan", None)
        if span_cls is not None:
            orig = span_cls.add
            self._patched.append((span_cls, "add", orig))
            span_cls.add = self._wrap("linalg.incremental_span", orig,
                                      lambda a, r: 1 if r else 0)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def _memo_counts(self) -> dict[str, tuple[int, int, int]]:
        homology = importlib.import_module(f"{PACKAGE}.homology")
        out = {}
        for attr, name in MEMOS:
            info = getattr(getattr(homology, attr, None), "cache_info", None)
            out[name] = (info().hits, info().misses, info().currsize) if info else (0, 0, 0)
        return out

    def _bank_memos(self) -> None:
        for name, (h1, m1, size) in self._memo_counts().items():
            h0, m0, _ = self._memo_start[name]
            acc = self._memo_sum.setdefault(name, [0, 0, 0])
            acc[0] += h1 - h0
            acc[1] += m1 - m0
            acc[2] = max(acc[2], size)

    def start(self) -> None:
        self._memo_start = self._memo_counts()
        self.active = True

    def clear_memos(self, memos) -> None:
        """Empty the library's memos, keeping the counts they gathered."""
        self._bank_memos()
        for memo in memos:
            memo.cache_clear()
        self._memo_start = self._memo_counts()

    def stop(self) -> None:
        self.active = False
        self._bank_memos()

    def self_time_sum(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); absent layers read 0."""
        out: dict[str, tuple[float, str]] = {}
        for mod_name, fn_name, work_name, _ in LAYERS:
            name = f"{mod_name}.{fn_name}"
            layer = self.layers.get(name, Layer())
            out[f"{name}.calls"] = (layer.calls, "count")
            out[f"{name}.self_s"] = (layer.self_s, "s")
            if work_name:
                out[f"{name}.{work_name}"] = (layer.work, "count")
        span = self.layers.get("linalg.incremental_span", Layer())
        out["linalg.incremental_span.adds"] = (span.calls, "count")
        out["linalg.incremental_span.grew"] = (span.work, "count")
        out["linalg.incremental_span.self_s"] = (span.self_s, "s")
        for _, name in MEMOS:
            hits, misses, size = self._memo_sum.get(name, (0, 0, 0))
            out[f"{name}.hits"] = (hits, "count")
            out[f"{name}.misses"] = (misses, "count")
            if name == "homology.rank_memo":
                out[f"{name}.size"] = (size, "count")
        return out
