"""Spans and counts recorded from outside the program.

SpanRecorder wraps every public function of each `lemniscate` module, in
every module namespace that binds it, so a call through any import path
opens a span (name, start, end, parent). `Point.__post_init__` is wrapped
to count Point constructions without a span each. Nothing under `src/`
changes: `install` swaps the attributes in and `uninstall` restores them.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("geometry", "curves", "constructions", "tracer", "figures", "verify", "cli")
VERIFY_FNS = (
    "check_defining_product",
    "threebar_states",
    "check_threebar",
    "check_inversion_pairing",
    "check_hyperbola_inverse",
    "check_sameside_locus",
    "check_maclaurin",
    "check_rightangle",
    "check_normals",
    "check_tangent_circle",
    "check_lemma1",
    "check_coefficients",
    "check_unit_hyperbola",
    "check_area",
)
CONSTRUCTION_FNS = (
    "three_bar_solve",
    "maclaurin_sample",
    "right_angle_solve",
    "normal_by_angle",
    "invert_between",
    "tangent_circle_at",
)
GEOMETRY_FNS = (
    "circle_circle_intersection",
    "line_circle_intersection",
    "line_line_intersection",
    "invert_point",
    "invert_line",
    "reflect_across_line",
)

# per-layer metric names and units, in the order they are reported
PER_LAYER = (
    [(f"verify.{fn}.s", "s") for fn in VERIFY_FNS]
    + [("verify.run_verification.self_s", "s")]
    + [(f"constructions.{fn}.{m}", u) for fn in CONSTRUCTION_FNS for m, u in (("calls", "count"), ("us_per_call", "us"))]
    + [("geometry.point_new", "count")]
    + [(f"geometry.{fn}.calls", "count") for fn in GEOMETRY_FNS]
    + [("geometry.self_s", "s")]
    + [
        ("curves.lemniscate_field.calls", "count"),
        ("curves.lemniscate_gradient.calls", "count"),
        ("curves.self_s", "s"),
        ("curves.expand_coefficients.s", "s"),
        ("tracer.trace.calls", "count"),
        ("tracer.trace.s", "s"),
        ("tracer.trace.self_s", "s"),
        ("tracer.refine.calls", "count"),
        ("tracer.refine.s", "s"),
        ("tracer.newton_steps", "count"),
        ("tracer.grid_points", "count"),
        ("tracer.vertices_out", "count"),
        ("tracer.trace.peak_mb", "MB"),
        ("tracer.contours_to_csv.s", "s"),
        ("figures.figure_scene.self_s", "s"),
        ("figures.emit_svg.s", "s"),
        ("figures.svg_bytes", "bytes"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("tracing.untraced_wall_s", "s"),
        ("tracing.overhead_s", "s"),
    ]
)
COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "bytes")]


class SpanRecorder:
    """In-memory spans of the wrapped calls, plus the work counts that
    spans cannot give: Point constructions, grid points, output vertices
    and SVG bytes."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, name) for name in LAYERS]
        self.names: list[str] = []
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    self.wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
                    self.originals[id(fn)] = fn
        self.trace_fn = package.tracer.trace
        self.swapped: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.ops = array("i")
        self.stack = [-1]
        self.op = -1
        self.points = 0
        self.grid_points = 0
        self.vertices_out = 0
        self.svg_bytes = 0
        self.largest_trace = None  # (grid points, args) of the biggest trace call

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        on_return = {
            "tracer.trace": self._count_trace,
            "figures.emit_svg": self._count_svg,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(fid)
            self.parents.append(self.stack[-1])
            self.ops.append(self.op)
            self.ends.append(0)
            self.stack.append(idx)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter_ns()
                self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _count_trace(self, args, contours) -> None:
        w = args[1]
        points = (w.nx + 1) * (w.ny + 1)
        self.grid_points += points
        self.vertices_out += sum(len(c.points) for c in contours)
        if self.largest_trace is None or points > self.largest_trace[0]:
            self.largest_trace = (points, args)

    def _count_svg(self, args, text) -> None:
        self.svg_bytes += len(text.encode("utf-8"))

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None and self.originals[id(value)] is value:
                    setattr(module, attr, wrapper)
                    self.swapped.append((module, attr, value))
        point = self.package.geometry.Point
        post_init = point.__post_init__

        def counted(p):
            self.points += 1
            post_init(p)

        point.__post_init__ = counted
        self.swapped.append((point, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self.swapped:
            owner, attr, value = self.swapped.pop()
            setattr(owner, attr, value)

    def trace_peak_mb(self) -> float:
        """tracemalloc peak of the largest trace call, replayed without spans."""
        if self.largest_trace is None:
            return 0.0
        tracemalloc.start()
        try:
            self.trace_fn(*self.largest_trace[1])
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def arrays(self):
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, parents, dur, dur - child

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        names, parents, dur, self_ns = self.arrays()
        fid = {name: k for k, name in enumerate(self.names)}
        layer_of = np.array([n.split(".")[0] for n in self.names])
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names)) / 1e9
        own = np.bincount(names, weights=self_ns, minlength=len(self.names)) / 1e9

        def layer_self(layer: str) -> float:
            return float(own[layer_of == layer].sum())

        out: dict[str, float] = {}
        for fn in VERIFY_FNS:
            out[f"verify.{fn}.s"] = total[fid[f"verify.{fn}"]]
        out["verify.run_verification.self_s"] = own[fid["verify.run_verification"]]
        for fn in CONSTRUCTION_FNS:
            k = fid[f"constructions.{fn}"]
            out[f"constructions.{fn}.calls"] = calls[k]
            out[f"constructions.{fn}.us_per_call"] = 1e6 * total[k] / calls[k] if calls[k] else 0.0
        out["geometry.point_new"] = self.points
        for fn in GEOMETRY_FNS:
            out[f"geometry.{fn}.calls"] = calls[fid[f"geometry.{fn}"]]
        out["geometry.self_s"] = layer_self("geometry")
        refine = fid["tracer.refine"]
        under_refine = parents >= 0
        under_refine[under_refine] = names[parents[under_refine]] == refine
        out.update(
            {
                "curves.lemniscate_field.calls": calls[fid["curves.lemniscate_field"]],
                "curves.lemniscate_gradient.calls": calls[fid["curves.lemniscate_gradient"]],
                "curves.self_s": layer_self("curves"),
                "curves.expand_coefficients.s": total[fid["curves.expand_coefficients"]],
                "tracer.trace.calls": calls[fid["tracer.trace"]],
                "tracer.trace.s": total[fid["tracer.trace"]],
                "tracer.trace.self_s": own[fid["tracer.trace"]],
                "tracer.refine.calls": calls[refine],
                "tracer.refine.s": total[refine],
                "tracer.newton_steps": int(
                    np.count_nonzero(under_refine & (names == fid["curves.lemniscate_gradient"]))
                ),
                "tracer.grid_points": self.grid_points,
                "tracer.vertices_out": self.vertices_out,
                "tracer.contours_to_csv.s": total[fid["tracer.contours_to_csv"]],
                "figures.figure_scene.self_s": own[fid["figures.figure_scene"]],
                "figures.emit_svg.s": total[fid["figures.emit_svg"]],
                "figures.svg_bytes": self.svg_bytes,
                "cli.main.calls": calls[fid["cli.main"]],
                "cli.main.self_s": own[fid["cli.main"]],
            }
        )
        return {k: (int(v) if k in COUNTS else float(v)) for k, v in out.items()}

    def write(self, path, t0_ns: int) -> None:
        """One CSV row per span: name, start and end in ns since t0, parent
        row (-1 for a root), and the index of the operation in its pass."""
        names, parents, _, _ = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for k in range(len(names)):
                fh.write(
                    f"{self.names[names[k]]},{self.starts[k] - t0_ns},{self.ends[k] - t0_ns},{parents[k]},{self.ops[k]}\n"
                )


def format_table(metrics: dict[str, float]) -> str:
    """The per-layer metrics grouped by module, one per line."""
    units = dict(PER_LAYER)
    lines = [f"{'module':<14}{'metric':<44}{'value':>16}  unit"]
    for name, _ in PER_LAYER:
        value = metrics[name]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"{name.split('.')[0]:<14}{name:<44}{text:>16}  {units[name]}")
    return "\n".join(lines)

