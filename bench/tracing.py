"""Out-of-program tracing for the disptrack benchmark.

A traced run replaces public module functions of ``disptrack`` with wrappers
for the duration of the run only. This works because every caller looks the
names up on the module at call time (``phd_mod.prune_merge(...)`` or a global
lookup inside the module itself). Each wrapper records a span (name, start,
end, parent) and, where a layer can waste or multiply work, a count taken
from the call's arguments and result. A layer's self time is the length of
its spans minus the part covered by their child spans, so the self times of
all traced functions plus the untraced remainder add up to the traced wall.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# Counter hooks: hook(counts, args, kwargs, result, raised). They run after
# the span closes, so their cost, like the wrappers' own bookkeeping, lands
# in the caller's self time; trace.overhead_s measures the total.


def _count_prune_merge(counts, args, kwargs, result, raised):
    mix = args[0] if args else kwargs["mix"]
    threshold = _arg(args, kwargs, 1, "prune_threshold", 1e-6)
    counts["phd.components_in"] += len(mix)
    if raised:
        return
    counts["phd.components_out"] += len(result)
    kept = sum(c.weight for c in mix.components if c.weight >= threshold)
    # merging preserves weight, so what pruning did not remove and the output
    # does not hold was dropped by the component cap; the clamp drops
    # summation-order rounding when the cap did not act
    counts["phd.cap_weight_lost"] += max(0.0, kept - result.total_weight)


def _count_update(counts, args, kwargs, result, raised):
    detected = _arg(args, kwargs, 1, "detected")
    Z = _arg(args, kwargs, 2, "Z")
    counts["phd.update_pairs"] += len(Z) * len(detected)


def _count_split(counts, args, kwargs, result, raised):
    state = _arg(args, kwargs, 1, "state")
    counts["phd.split_components"] += 1
    if raised:
        return
    # both fast paths hand back the input state; a refit builds new ones
    if any(part is not None and part.state is not state for part in result):
        counts["phd.split_refits"] += 1


def _count_move(counts, args, kwargs, result, raised):
    counts["single_object.particles_moved"] += _arg(args, kwargs, 3, "n_particles")
    counts["single_object.move_failures"] += int(raised)


def _count_points(counts, args, kwargs, result, raised):
    points = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("y"))
    counts["geometry.points"] += _rows(points)


def _count_joint(counts, args, kwargs, result, raised):
    particles = _arg(args, kwargs, 0, "particles")
    counts["calibration.particle_steps"] += len(particles)


def _count_resample(counts, args, kwargs, result, raised):
    particles = _arg(args, kwargs, 0, "particles")
    w = np.array([p.weight for p in particles])
    ess = float(1.0 / np.sum(w**2))
    prev = counts.get("calibration.ess_min")
    counts["calibration.ess_min"] = ess if prev is None else min(prev, ess)
    if not raised and result is not particles:
        counts["calibration.resamples"] += 1


def _count_observations(counts, args, kwargs, result, raised):
    if not raised:
        counts["sim.observations"] += sum(len(s.observations) for s in result)


_GEOMETRY = (
    "to_disparity",
    "from_disparity",
    "to_disparity_homogeneous",
    "from_disparity_homogeneous",
    "project",
    "project_masked",
)
_DRIVERS = (
    "run_localise",
    "run_track",
    "run_phd",
    "run_calibrate",
    "_localise_one",
    "_track_one",
    "_phd_one",
    "_calibrate_one",
)

# (module, function, self-time metric or None for a count-only hook, hook)
TARGETS = [
    ("phd", "prune_merge", "phd.prune_merge_s", _count_prune_merge),
    ("phd", "phd_update_with_denominators", "phd.update_s", _count_update),
    ("phd", "phd_predict", "phd.predict_s", None),
    ("phd", "split_detection", "phd.split_s", None),
    ("phd", "split_component", None, _count_split),
    ("phd", "birth_from_observations", "phd.birth_s", None),
    ("phd", "phd_track", "phd.track_s", None),
    ("single_object", "particle_move", "single_object.particle_move_s", _count_move),
    ("single_object", "kalman_update", "single_object.kalman_update_s", None),
    ("single_object", "baseline_pf", "single_object.baseline_pf_s", None),
    ("single_object", "track_single", "single_object.track_s", None),
    *[("geometry", f, "geometry.transform_s", _count_points) for f in _GEOMETRY],
    ("calibration", "joint_update", "calibration.joint_update_s", _count_joint),
    ("calibration", "resample", "calibration.resample_s", _count_resample),
    ("calibration", "init_calibration", "calibration.init_s", None),
    ("calibration", "calibrate", "calibration.calibrate_s", None),
    ("sim", "generate_truth", "sim.truth_s", None),
    ("sim", "generate_observations", "sim.observations_s", _count_observations),
    ("sim", "monte_carlo", "sim.monte_carlo_s", None),
    ("metrics", "ospa", "metrics.ospa_s", None),
    *[("experiments", f, "experiments.self_s", None) for f in _DRIVERS],
]

# Every per-layer metric and its unit, in report order.
LAYER_METRICS = {
    "phd.prune_merge_s": "s",
    "phd.prune_merge_calls": "count",
    "phd.components_in": "count",
    "phd.components_out": "count",
    "phd.cap_weight_lost": "objects",
    "phd.update_s": "s",
    "phd.update_pairs": "count",
    "phd.predict_s": "s",
    "phd.split_s": "s",
    "phd.split_refit_frac": "fraction",
    "phd.birth_s": "s",
    "phd.track_s": "s",
    "single_object.particle_move_s": "s",
    "single_object.particles_moved": "count",
    "single_object.move_fail_frac": "fraction",
    "geometry.transform_s": "s",
    "geometry.points": "count",
    "single_object.kalman_update_s": "s",
    "single_object.kalman_update_calls": "count",
    "single_object.baseline_pf_s": "s",
    "single_object.track_s": "s",
    "calibration.joint_update_s": "s",
    "calibration.particle_steps": "count",
    "calibration.resample_s": "s",
    "calibration.resamples": "count",
    "calibration.ess_min": "particles",
    "calibration.init_s": "s",
    "calibration.calibrate_s": "s",
    "sim.truth_s": "s",
    "sim.observations_s": "s",
    "sim.observations": "count",
    "sim.monte_carlo_s": "s",
    "sim.pool_speedup": "ratio",
    "sim.result_bytes": "B",
    "metrics.ospa_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Spans and counts of one traced run.

    Spans are kept in flat arrays (name index, start, end, parent index) so
    a run of a few hundred thousand calls stays small in memory. Use as a
    context manager: entering installs the wrappers, leaving restores the
    original functions.
    """

    def __init__(self, package: str = "disptrack", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.originals: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn, metric, hook):
        calls = self.calls
        counts = self.counts
        if metric is None:

            def counted(*args, **kwargs):
                calls[qualname] += 1
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    hook(counts, args, kwargs, None, True)
                    raise
                hook(counts, args, kwargs, result, False)
                return result

            wrapper = counted
        else:
            if qualname not in self.name_index:
                self.name_index[qualname] = len(self.names)
                self.names.append(qualname)
            name_id = self.name_index[qualname]
            stack = self.stack
            span_name, span_start = self.span_name, self.span_start
            span_end, span_parent = self.span_end, self.span_parent
            clock = time.perf_counter

            def spanned(*args, **kwargs):
                calls[qualname] += 1
                idx = len(span_start)
                span_name.append(name_id)
                span_parent.append(stack[-1] if stack else -1)
                span_end.append(0.0)
                stack.append(idx)
                raised = True
                span_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                finally:
                    span_end[idx] = clock()
                    stack.pop()
                    if hook is not None:
                        hook(counts, args, kwargs, None if raised else result, raised)
                return result

            wrapper = spanned
        wrapper.__wrapped__ = fn
        wrapper.trace_wrapper = True
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        for module_name, fn_name, metric, hook in self.targets:
            module = importlib.import_module(f"{self.package}.{module_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            self.originals.append((module, fn_name, fn))
            wrapper = self._wrap(f"{module_name}.{fn_name}", fn, metric, hook)
            setattr(module, fn_name, wrapper)

    def remove(self) -> None:
        for module, fn_name, fn in reversed(self.originals):
            setattr(module, fn_name, fn)
        self.originals = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def self_times(self) -> dict[str, float]:
        """Self time per traced function: span length minus child spans."""
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = np.bincount(names, weights=duration - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """The trace's per-layer metrics (every key of LAYER_METRICS except
        the pool and overhead figures, which the caller measures)."""
        own = self.self_times()
        out = {m: 0.0 for m, unit in LAYER_METRICS.items() if unit == "s"}
        for module_name, fn_name, metric, _ in self.targets:
            if metric is not None:
                out[metric] += own.get(f"{module_name}.{fn_name}", 0.0)
        c, calls = self.counts, self.calls
        out["phd.prune_merge_calls"] = calls["phd.prune_merge"]
        out["phd.components_in"] = c["phd.components_in"]
        out["phd.components_out"] = c["phd.components_out"]
        out["phd.cap_weight_lost"] = float(c["phd.cap_weight_lost"])
        out["phd.update_pairs"] = c["phd.update_pairs"]
        out["phd.split_refit_frac"] = _ratio(c["phd.split_refits"], c["phd.split_components"])
        out["single_object.particles_moved"] = c["single_object.particles_moved"]
        out["single_object.move_fail_frac"] = _ratio(
            c["single_object.move_failures"], calls["single_object.particle_move"]
        )
        out["geometry.points"] = c["geometry.points"]
        out["single_object.kalman_update_calls"] = calls["single_object.kalman_update"]
        out["calibration.particle_steps"] = c["calibration.particle_steps"]
        out["calibration.resamples"] = c["calibration.resamples"]
        out["calibration.ess_min"] = float(c.get("calibration.ess_min", 0.0))
        out["sim.observations"] = c["sim.observations"]
        return {k: out[k] for k in LAYER_METRICS if k in out}


def assert_untraced(package: str = "disptrack", targets=TARGETS) -> None:
    """Raise if any target function of ``package`` is still a trace wrapper."""
    patched = []
    for module_name, fn_name, _, _ in targets:
        module = importlib.import_module(f"{package}.{module_name}")
        if getattr(getattr(module, fn_name, None), "trace_wrapper", False):
            patched.append(f"{module_name}.{fn_name}")
    if patched:
        raise RuntimeError(f"trace wrappers still installed: {patched}")


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
