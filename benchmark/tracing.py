"""Per-layer tracing by wrapping the package's functions where the calling
module binds them.

Each wrapped name records calls and busy time (wall clock, perf_counter);
its self time is busy time minus the busy time of wrapped functions it
called.  A name that no longer exists is listed as absent and its metrics
read 0.  The wrappers are in place only during traced passes.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import shogi_frieze as sf

# (module, attribute, span name).  One span name may cover several bindings
# of the same function.
SPANS = (
    ("cli", "main", "command"),
    ("cli", "parse", "parse"),
    ("cli", "serialize", "serialize"),
    ("cli", "render", "render"),
    ("cli", "classify_frieze", "classify"),
    ("cli", "detect_symmetries", "detect"),
    ("cli", "control_of_pattern", "control"),
    ("cli", "ncc_status", "ncc"),
    ("cli", "find_crystal", "find_crystal"),
    ("cli", "fragility_check", "fragility"),
    ("cli", "satisfies_table", "table"),
    ("pattern", "parse", "parse"),
    ("pattern", "canonicalize", "canonicalize"),
    ("symmetry", "canonicalize", "canonicalize"),
    ("symmetry", "classify_frieze", "classify"),
    ("symmetry", "detect_symmetries", "detect"),
    ("symmetry", "is_symmetry", "is_symmetry"),
    ("render", "canonicalize", "canonicalize"),
    ("render", "neighborhood", "neighborhood"),
    ("render", "partition_neighborhood", "partition"),
    ("render", "control_of_pattern", "control"),
    ("control", "neighborhood", "neighborhood"),
    ("control", "partition_neighborhood", "partition"),
    ("control", "control_of_pattern", "control"),
    ("control", "ray_march", "ray_march"),
    ("control", "_verdict_from_parts", "verdict"),
    ("control", "ncc_status", "ncc"),
    ("search", "find_crystal", "find_crystal"),
    ("search", "orbit_key", "orbit_key"),
    ("search", "_form_geometry", "form_geometry"),
    ("search", "classify_frieze", "classify"),
    ("search", "neighborhood", "neighborhood"),
    ("search", "partition_neighborhood", "partition"),
    ("search", "control_of_pattern", "control"),
    ("search", "_verdict_from_parts", "verdict"),
    ("search", "fragility_check", "fragility"),
    ("search", "satisfies_table", "table"),
)

PER_LAYER = (  # (metric, unit)
    ("search.forms_enumerated", "count"),
    ("search.orbit_key_s", "s"),
    ("search.orbit_reps", "count"),
    ("search.orbit_unique_ratio", "ratio"),
    ("search.period_redundant", "count"),
    ("search.reports", "count"),
    ("pattern.canonicalize_calls", "count"),
    ("pattern.canonicalize_s", "s"),
    ("pattern.parse_s", "s"),
    ("pattern.serialize_s", "s"),
    ("symmetry.classify_calls", "count"),
    ("symmetry.classify_s", "s"),
    ("symmetry.is_symmetry_calls", "count"),
    ("symmetry.is_symmetry_s", "s"),
    ("symmetry.candidates_per_classify", "count"),
    ("control.partition_calls", "count"),
    ("control.geometry_s", "s"),
    ("control.control_calls", "count"),
    ("control.control_s", "s"),
    ("control.ray_march_calls", "count"),
    ("control.ray_march_s", "s"),
    ("control.ray_classes", "count"),
    ("control.verdict_calls", "count"),
    ("control.verdict_s", "s"),
    ("control.contains_calls", "count"),
    ("render.render_s", "s"),
    ("cli.command_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._orbits: set = set()
        self._patches: list[tuple] | None = None

    def enable(self, on: bool) -> None:
        """Put the wrappers in place (on) or the original functions back,
        so untraced passes run the program's own code."""
        if self._patches is None:
            self._patches = self._make_patches()
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)

    def mark(self) -> tuple[dict, dict]:
        return dict(self.busy), dict(self.child)

    def rescale(self, mark: tuple[dict, dict], factor: float) -> None:
        """Scale the time recorded since `mark` by `factor`."""
        for table, before in zip((self.busy, self.child), mark):
            for name, value in table.items():
                old = before.get(name, 0.0)
                table[name] = old + (value - old) * factor

    # -- wrapping ----------------------------------------------------------

    def _make_patches(self) -> list[tuple]:
        hooks = {
            "find_crystal": self._on_reports,
            "orbit_key": self._on_orbit_key,
            "form_geometry": self._on_geometry,
            "ray_march": self._on_ray,
        }
        patches = []

        def patch(owner, owner_name, attr, make):
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{owner_name}.{attr}")
            else:
                patches.append((owner, attr, fn, make(fn)))

        for mod_name, attr, name in SPANS:
            patch(importlib.import_module(f"shogi_frieze.{mod_name}"),
                  mod_name, attr,
                  lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        patch(importlib.import_module("shogi_frieze.search"), "search",
              "_enumerate_forms", lambda fn: self._counted_generator(
                  "forms", fn))
        patch(sf.PeriodicCellSet, "PeriodicCellSet", "contains",
              lambda fn: self._counted("contains", fn))
        return patches

    def _span(self, name, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.child[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _counted_generator(self, name, gen):
        def counted(*args, **kwargs):
            for item in gen(*args, **kwargs):
                self.counts[name] += 1
                yield item
        return counted

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- result hooks ------------------------------------------------------

    def _on_reports(self, args, reports):
        self.counts["reports"] += len(reports)
        self._orbits = set()

    def _on_orbit_key(self, args, key):
        if key not in self._orbits:
            self._orbits.add(key)
            self.counts["orbit_reps"] += 1

    def _on_geometry(self, args, result):
        if result[0].t != args[0].t:
            self.counts["period_redundant"] += 1

    def _on_ray(self, args, result):
        self.counts["ray_classes"] += len(result.empty_classes)

    # -- report ------------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.busy[name] - self.child[name]

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of the per-layer metrics (trace.* excluded)."""
        c, s, n = self.calls, self.self_time, self.counts
        forms = n["forms"]
        detect = c["detect"]
        raw = {
            "search.forms_enumerated": forms,
            "search.orbit_key_s": s("orbit_key"),
            "search.orbit_reps": n["orbit_reps"],
            "search.orbit_unique_ratio": (n["orbit_reps"] / forms
                                          if forms else 0.0),
            "search.period_redundant": n["period_redundant"],
            "search.reports": n["reports"],
            "pattern.canonicalize_calls": c["canonicalize"],
            "pattern.canonicalize_s": s("canonicalize"),
            "pattern.parse_s": s("parse"),
            "pattern.serialize_s": s("serialize"),
            "symmetry.classify_calls": c["classify"],
            "symmetry.classify_s": s("classify") + s("detect"),
            "symmetry.is_symmetry_calls": c["is_symmetry"],
            "symmetry.is_symmetry_s": s("is_symmetry"),
            "symmetry.candidates_per_classify": (c["is_symmetry"] / detect
                                                 if detect else 0.0),
            "control.partition_calls": c["partition"],
            "control.geometry_s": s("neighborhood") + s("partition"),
            "control.control_calls": c["control"],
            "control.control_s": s("control"),
            "control.ray_march_calls": c["ray_march"],
            "control.ray_march_s": s("ray_march"),
            "control.ray_classes": n["ray_classes"],
            "control.verdict_calls": c["verdict"],
            "control.verdict_s": s("verdict"),
            "control.contains_calls": n["contains"],
            "render.render_s": s("render"),
            "cli.command_s": s("command"),
        }
        ratios = {"search.orbit_unique_ratio",
                  "symmetry.candidates_per_classify"}
        return {k: (v if k in ratios else v / passes) for k, v in raw.items()}

    def table(self, passes: int) -> dict:
        """Every span per pass: calls, busy and self seconds."""
        return {name: {"calls": self.calls[name] / passes,
                       "busy_s": self.busy[name] / passes,
                       "self_s": self.self_time(name) / passes}
                for name in sorted(self.calls)}
