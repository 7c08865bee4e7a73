"""Per-layer spans for the traced benchmark run.

The tracer replaces the module attributes through which hullmap's layers
call each other with timing and counting wrappers, so no file of the package
changes.  Every wrapped call opens a span; a span's self time is its duration
minus the durations of the spans opened inside it.  Spans are summed per pass
in memory and turned into the per-layer metrics once the pass ends.

A wrapped attribute that no longer exists raises at install time, and a
layer a workload must exercise that records no call raises after the pass,
so a refactor cannot drop a layer's numbers without the benchmark noticing.
"""

from __future__ import annotations

import time
from collections import Counter

import hullmap.cli
import hullmap.fit
import hullmap.search
from hullmap.errors import SingularSystemError

ROOT = "pass"

# Span name -> layer that owns its self time.
LAYER_OF = {
    ROOT: "bench",
    "cli": "cli",
    "section.load": "section",
    "mapping.lewis": "mapping",
    "mapping.eval": "mapping",
    "report.build": "report",
    "report.ns": "report",
    "search": "search",
    "fit": "fit",
    "fit.error": "fit",
    "theta": "theta",
    "linsys.assemble": "linsys",
    "linsys.solve": "linsys",
}

# (module, attribute, span).  Each entry is a call from one layer into the next.
WRAPPED = (
    (hullmap.cli, "main", "cli"),
    (hullmap.cli, "load_offsets", "section.load"),
    (hullmap.cli, "lewis_initial_guess", "mapping.lewis"),
    (hullmap.cli, "evaluate_boundary", "mapping.eval"),
    (hullmap.cli, "build_report", "report.build"),
    (hullmap.cli, "nash_sutcliffe", "report.ns"),
    (hullmap.cli, "search_optimum", "search"),
    (hullmap.cli, "fit_section", "fit"),
    (hullmap.search, "search_optimum", "search"),
    (hullmap.search, "fit_section", "fit"),
    (hullmap.fit, "fit_section", "fit"),
    (hullmap.fit, "compute_error", "fit.error"),
    (hullmap.fit, "boundary_from_scaled", "fit.error"),
    (hullmap.fit, "assign_thetas", "theta"),
    (hullmap.fit, "assemble_symmetric", "linsys.assemble"),
    (hullmap.fit, "assemble_general", "linsys.assemble"),
    (hullmap.fit, "lu_solve", "linsys.solve"),
)


class _Frame:
    __slots__ = ("span", "start", "children", "fits")

    def __init__(self, span: str, start: float):
        self.span = span
        self.start = start
        self.children = 0.0
        self.fits: list[tuple[int, float, int]] | None = [] if span == "search" else None


class Tracer:
    """Span stack plus per-pass sums of span time, self time and work counts."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError(f"spans still open: {[f.span for f in self.stack]}")
        self.seconds: Counter = Counter()  # span name -> summed duration
        self.calls: Counter = Counter()  # span name -> call count
        self.self_seconds: Counter = Counter()  # layer -> summed self time
        self.counts: Counter = Counter()  # sums taken from calls, keyed by metric name

    def enter(self, span: str) -> _Frame:
        for frame in self.stack:
            if frame.span == span:
                raise RuntimeError(f"span {span!r} opened inside itself")
        frame = _Frame(span, time.perf_counter())
        self.stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame.span!r} closed out of order")
        self.seconds[frame.span] += duration
        self.calls[frame.span] += 1
        self.self_seconds[LAYER_OF[frame.span]] += duration - frame.children
        if self.stack:
            self.stack[-1].children += duration
        return duration

    def parent(self) -> _Frame | None:
        return self.stack[-1] if self.stack else None

    # Work counts taken from each wrapped call's arguments and result.

    def _on_theta(self, frame, args, result, duration):
        self.counts["theta.points"] += len(args[1].points)
        self.counts["theta.unresolved"] += len(result.unresolved)
        previous = args[2] if len(args) > 2 else None
        if previous is None:
            self.counts["theta.first_sweep_s"] += duration

    def _on_solve(self, frame, args, result, duration):
        self.counts["linsys.unknowns"] += len(args[0].rhs)

    def _on_fit(self, frame, args, result, duration):
        self.counts["fit.sweeps"] += result.iterations
        self.counts["fit.converged"] += int(result.converged)
        parent = self.parent()
        if parent is not None and parent.fits is not None:
            parent.fits.append((args[1].order, duration, result.iterations))

    def _on_search(self, frame, args, result, duration):
        accepted = {record.order for record in result.per_order}
        tried = frame.fits
        self.counts["search.orders_tried"] += len(tried)
        self.counts["search.orders_accepted"] += len(accepted)
        self.counts["search.sweeps_tried"] += sum(sweeps for _, _, sweeps in tried)
        self.counts["search.rejected_s"] += sum(s for order, s, _ in tried if order not in accepted)

    def _on_eval(self, frame, args, result, duration):
        self.counts["mapping.eval_points"] += len(args[1])

    def wrap(self, original, span: str):
        on_return = {
            "theta": self._on_theta,
            "linsys.solve": self._on_solve,
            "fit": self._on_fit,
            "search": self._on_search,
            "mapping.eval": self._on_eval,
        }.get(span)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(span)
            try:
                result = original(*args, **kwargs)
            except SingularSystemError:
                tracer.counts[span + ".singular"] += 1
                raise
            finally:
                duration = tracer.leave(frame)
            if on_return is not None:
                on_return(frame, args, result, duration)
            return result

        return traced


class installed:
    """Context manager that puts a tracer's wrappers in place and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module, attr, span in WRAPPED:
            if not hasattr(module, attr):
                self.__exit__()
                raise RuntimeError(f"traced attribute {module.__name__}.{attr} no longer exists")
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(original, span))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, wall: float, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span lasted ``wall`` seconds."""
    s, n, own, c = tracer.seconds, tracer.calls, tracer.self_seconds, tracer.counts
    total_self = sum(own.values())
    if abs(total_self - wall) > 1e-9 + 1e-6 * wall:
        raise RuntimeError(f"self times sum to {total_self:.9f}s, traced wall is {wall:.9f}s")
    search_s = s["search"]
    return {
        "theta.calls": n["theta"],
        "theta.points": c["theta.points"],
        "theta.s": s["theta"],
        "theta.us_per_point": 1e6 * _ratio(s["theta"], c["theta.points"]),
        "theta.first_sweep_s": c["theta.first_sweep_s"],
        "theta.unresolved_ratio": _ratio(c["theta.unresolved"], c["theta.points"]),
        "linsys.assemble_calls": n["linsys.assemble"],
        "linsys.assemble_s": s["linsys.assemble"],
        "linsys.solve_calls": n["linsys.solve"],
        "linsys.solve_s": s["linsys.solve"],
        "linsys.unknowns": c["linsys.unknowns"],
        "linsys.singular": c["linsys.solve.singular"],
        "fit.calls": n["fit"],
        "fit.sweeps": c["fit.sweeps"],
        "fit.s": s["fit"],
        "fit.self_s": own["fit"],
        "fit.s_per_sweep": _ratio(s["fit"], c["fit.sweeps"]),
        "fit.error_s": s["fit.error"],
        "fit.converged_ratio": _ratio(c["fit.converged"], n["fit"]),
        "search.calls": n["search"],
        "search.s": search_s,
        "search.self_s": own["search"],
        "search.orders_tried": c["search.orders_tried"],
        "search.orders_accepted": c["search.orders_accepted"],
        "search.accept_ratio": _ratio(c["search.orders_accepted"], c["search.orders_tried"]),
        "search.rejected_s": c["search.rejected_s"],
        "search.rejected_share": _ratio(c["search.rejected_s"], search_s),
        "search.sweeps_tried": c["search.sweeps_tried"],
        "section.load_calls": n["section.load"],
        "section.load_s": s["section.load"],
        "mapping.lewis_s": s["mapping.lewis"],
        "mapping.eval_points": c["mapping.eval_points"],
        "mapping.eval_s": s["mapping.eval"],
        "report.build_s": s["report.build"],
        "report.ns_s": s["report.ns"],
        "cli.calls": n["cli"],
        "cli.s": s["cli"],
        "cli.self_s": own["cli"],
        "cli.bytes_written": bytes_written,
    }


def check_required(tracer: Tracer, required: tuple[str, ...], workload: str) -> None:
    missing = [span for span in required if tracer.calls[span] == 0]
    if missing:
        raise RuntimeError(f"workload {workload!r} recorded no call of {', '.join(missing)}")


UNITS = {
    "theta.calls": "count",
    "theta.points": "count",
    "theta.s": "s",
    "theta.us_per_point": "us",
    "theta.first_sweep_s": "s",
    "theta.unresolved_ratio": "ratio",
    "linsys.assemble_calls": "count",
    "linsys.assemble_s": "s",
    "linsys.solve_calls": "count",
    "linsys.solve_s": "s",
    "linsys.unknowns": "count",
    "linsys.singular": "count",
    "fit.calls": "count",
    "fit.sweeps": "count",
    "fit.s": "s",
    "fit.self_s": "s",
    "fit.s_per_sweep": "s",
    "fit.error_s": "s",
    "fit.converged_ratio": "ratio",
    "search.calls": "count",
    "search.s": "s",
    "search.self_s": "s",
    "search.orders_tried": "count",
    "search.orders_accepted": "count",
    "search.accept_ratio": "ratio",
    "search.rejected_s": "s",
    "search.rejected_share": "ratio",
    "search.sweeps_tried": "count",
    "section.load_calls": "count",
    "section.load_s": "s",
    "mapping.lewis_s": "s",
    "mapping.eval_points": "count",
    "mapping.eval_s": "s",
    "report.build_s": "s",
    "report.ns_s": "s",
    "cli.calls": "count",
    "cli.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def fastest(per_pass: list[dict[str, float]], walls: list[float]) -> dict[str, float]:
    """The metrics of the fastest traced pass, after checking that counts repeat exactly."""
    for name, unit in UNITS.items():
        if unit in ("count", "bytes") and name in per_pass[0]:
            values = [metrics[name] for metrics in per_pass]
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between identical passes: {values}")
    return dict(per_pass[walls.index(min(walls))])
