"""Layer tracing from outside the program.

`Tracer.install` replaces public names of the loopsphere modules (and the
scipy names `radial` imports) with wrappers that record a span per call:
name, start, end, parent span, job id and the exception that ended it, if
any.  High-frequency names (the ODE right-hand side, coefficient
evaluations, the generator's inner draws) are counted, not timed.  Spans
stay in memory until `write`.  `restore` puts every original back.  A name
that does not exist is skipped, so its metrics read zero.

`layer_metrics` turns the spans and counts into the per-layer metrics.
"""

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# (module, dotted attribute) pairs timed as spans, besides every public
# function of the modules in WHOLE_MODULES.
TIMED = [
    ("cli", "main"),
    ("radial", "spectrum"),
    ("radial", "solve_truncated"),
    ("radial", "prufer_mismatch"),
    ("radial", "solve_truncated_fd"),
    ("radial", "classify_endpoint"),
    ("radial", "convexity_check"),
    ("radial", "oracle_comparison"),
    ("radial", "gap_analysis"),
    ("curvature", "CurvatureContext.__init__"),
    ("curvature", "CurvatureContext.ricci_matrix"),
    ("curvature", "CurvatureContext.closed_contractions"),
    ("curvature", "scalar_and_mean"),
    ("manifold", "radial_volume_quadrature"),
    ("manifold", "radial_volume_closed_form"),
    ("manifold", "stiefel_volume"),
    ("manifold", "volume_total"),
    ("prng", "SplitMix64.__init__"),
    ("prng", "SplitMix64.gauss_vector"),
]
WHOLE_MODULES = ("trigpoly", "resolution", "numerics", "angular")
COUNTED = [
    ("radial", "EffectivePotential.value"),
    ("radial", "EffectivePotential.derivative"),
    ("manifold", "weight_alg"),
    ("manifold", "weight_trig"),
    ("prng", "SplitMix64.gauss"),
]
# scipy names imported into radial; the callbacks they receive are counted.
SCIPY = [("solve_ivp", "rhs"), ("brentq", "evals"), ("eigh_tridiagonal", None)]

VOLUME = ("manifold.radial_volume_quadrature", "manifold.radial_volume_closed_form",
          "manifold.stiefel_volume", "manifold.volume_total")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, job, name, start, end, error, extra)
        self.counts = Counter()
        self.job = ""
        self._stack = [0]
        self._next = 1
        self._saved = []  # (owner, attribute, original)
        self.missing = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = extra(result) if extra is not None and error is None else None
                spans.append((sid, parent, self.job, name, start, end, error, info))

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _callback_counted(self, name, fn, position):
        """Wrap a scipy function so that the callback it is given is counted."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(callback, *args, **kwargs):
            calls = [0]

            def counted(*cargs):
                calls[0] += 1
                return callback(*cargs)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                counts[f"{name}.{position}"] += calls[0]

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, module, dotted, make):
        owner = module
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module.__name__}.{dotted}")
            return
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{dotted}"
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(name, original))

    def install(self, lib):
        """Wrap the traced names of the modules held by `lib`."""
        extras = {
            "radial.solve_truncated": len,
            "curvature.scalar_and_mean": lambda rep: (
                float(getattr(rep, "condition_gram", 0.0)),
                float(getattr(rep, "scalar_trace_residual", 0.0)),
            ),
        }
        for mod_name, dotted in TIMED:
            self._patch(getattr(lib, mod_name), dotted,
                        lambda name, fn: self._timed(name, fn, extras.get(name)))
        for mod_name in WHOLE_MODULES:
            module = getattr(lib, mod_name)
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == module.__name__:
                    self._patch(module, attr, self._timed)
        for mod_name, dotted in COUNTED:
            self._patch(getattr(lib, mod_name), dotted, self._counted)
        for attr, callback in SCIPY:
            def make(name, fn, scipy_name=f"scipy.{attr}", callback=callback):
                if callback is not None:
                    fn = self._callback_counted(scipy_name, fn, callback)
                return self._timed(scipy_name, fn)

            self._patch(lib.radial, attr, make)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans (one list per span, fields as named) and counts as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "job", "name", "start", "end", "error"],
                       "spans": [s[:7] for s in self.spans], "counts": dict(self.counts),
                       "missing": self.missing}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, counts, traced_wall, untraced_wall):
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s[3]].append(s)
        child_time[s[1]] += s[5] - s[4]

    def name_of(sid):
        return by_id[sid][3] if sid in by_id else ""

    def calls(name):
        return len(by_name[name])

    def inclusive(names):
        """Time inside any of `names`, counting nested calls once."""
        return sum(s[5] - s[4] for name in names for s in by_name[name]
                   if name_of(s[1]) not in names)

    def self_time(select):
        return sum(s[5] - s[4] - child_time[s[0]] for s in spans if select(s))

    def layer(prefix):
        return lambda s: s[3].startswith(prefix + ".")

    def parent_is(name, parent):
        return sum(1 for s in by_name[name] if name_of(s[1]) == parent)

    mismatch = calls("radial.prufer_mismatch")
    eigs = sum(s[7] or 0 for s in by_name["radial.solve_truncated"])
    contexts = by_name["curvature.CurvatureContext.__init__"]
    refused = [s for s in contexts if s[6] == "NearSingularStratumError"]
    reports = [s[7] for s in by_name["curvature.scalar_and_mean"] if s[7]]
    top_resolution = [s for s in spans if s[3].startswith("resolution.")
                      and not name_of(s[1]).startswith("resolution.")]
    seconds, count, ratio = "s", "count", "1"
    return {
        "radial.ode.calls": (calls("scipy.solve_ivp"), count),
        "radial.ode.rhs_evals": (counts["scipy.solve_ivp.rhs"], count),
        "radial.ode.s": (inclusive(["scipy.solve_ivp"]), seconds),
        "radial.mismatch.calls": (mismatch, count),
        "radial.mismatch.per_eig": (mismatch / eigs if eigs else 0.0, ratio),
        "radial.root.calls": (calls("scipy.brentq"), count),
        "radial.root.evals": (counts["scipy.brentq.evals"], count),
        "radial.bracket.evals": (parent_is("radial.prufer_mismatch", "radial.solve_truncated"),
                                 count),
        "radial.veff.evals": (counts["radial.EffectivePotential.value"]
                              + counts["radial.EffectivePotential.derivative"], count),
        "radial.self_s": (self_time(layer("radial")), seconds),
        "manifold.weight.evals": (counts["manifold.weight_alg"] + counts["manifold.weight_trig"],
                                  count),
        "radial.fd.calls": (calls("radial.solve_truncated_fd"), count),
        "radial.fd.s": (inclusive(["radial.solve_truncated_fd"]), seconds),
        "radial.fd.eig_s": (inclusive(["scipy.eigh_tridiagonal"]), seconds),
        "radial.levels": (parent_is("radial.solve_truncated", "radial.spectrum"), count),
        "radial.spectrum.calls": (calls("radial.spectrum"), count),
        "curvature.context.calls": (len(contexts), count),
        "curvature.context.self_s": (
            self_time(lambda s: s in contexts), seconds),
        "trigpoly.scalar_mul.calls": (calls("trigpoly.scalar_mul"), count),
        "curvature.refused_s": (sum(s[5] - s[4] for s in refused), seconds),
        "curvature.closed.s": (inclusive(["curvature.CurvatureContext.closed_contractions"]),
                               seconds),
        "curvature.ricci.s": (inclusive(["curvature.CurvatureContext.ricci_matrix"]), seconds),
        "numerics.eig_symmetric.calls": (calls("numerics.eig_symmetric"), count),
        "numerics.eig_symmetric.s": (inclusive(["numerics.eig_symmetric"]), seconds),
        "trigpoly.calls": (sum(1 for s in spans if s[3].startswith("trigpoly.")), count),
        "trigpoly.self_s": (self_time(layer("trigpoly")), seconds),
        "resolution.factorize.calls": (calls("resolution.factorize"), count),
        "resolution.apply_rotation.calls": (calls("resolution.apply_rotation"), count),
        "resolution.self_s": (self_time(layer("resolution")), seconds),
        "prng.s": (self_time(layer("prng")), seconds),
        "cli.main.calls": (calls("cli.main"), count),
        "cli.main.self_s": (self_time(lambda s: s[3] == "cli.main"), seconds),
        "radial.classify.s": (inclusive(["radial.classify_endpoint"]), seconds),
        "angular.s": (self_time(layer("angular")), seconds),
        "manifold.volume.s": (inclusive(VOLUME), seconds),
        "numerics.integrate.calls": (calls("numerics.integrate"), count),
        "curvature.refused": (len(refused), count),
        "curvature.route_resid_max": (max((r[1] for r in reports), default=0.0), ratio),
        "curvature.cond_max": (max((r[0] for r in reports), default=0.0), ratio),
        "resolution.errors": (sum(1 for s in top_resolution if s[6]), count),
        "trace.overhead_ratio": (traced_wall / untraced_wall, ratio),
    }
