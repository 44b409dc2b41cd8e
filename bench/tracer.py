"""Layer tracer for the ci2d benchmark.

Wraps module-level functions of each ci2d layer, two class methods and
the 2-D FFTs of numpy.fft and scipy.fft from outside the program.  Each
wrapper is installed at every place ci2d holds a reference to the
original (modules import functions by name), so no call slips past it.
Spans (name, start, end, parent) stay in memory; `metrics()` folds them
into per-layer totals, self times and call counts, and `write()` dumps
them when the run ends.  `uninstall()` restores every reference.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# (module, attribute, metric group).  "Class.method" names are patched on
# the class.  Several attributes may share one group.
LAYER_TARGETS = [
    ("ci2d.ci_step", "_perturbation_slice", "ci_step.perturbation_slice"),
    ("ci2d.ci_step", "_wave_slice", "ci_step.wave_slice"),
    ("ci2d.ci_step", "_pstar_slice", "ci_step.pstar_slice"),
    ("ci2d.ci_step", "_coefficient_slice", "ci_step.coefficient_slice"),
    ("ci2d.ci_step", "assemble_stress", "ci_step.assemble_stress"),
    ("ci2d.ci_step", "mollify", "ci_step.mollify"),
    ("ci2d.ci_step", "fd6_channel", "ci_step.fd6_channel"),
    ("ci2d.ci_step", "nsr_residual", "ci_step.nsr_residual"),
    ("ci2d.ci_step", "temporal_cutoff", "ci_step.temporal_cutoff"),
    ("ci2d.ci_step", "iterate_step", "ci_step.iterate_step"),
    ("ci2d.ci_step", "init_state", "ci_step.init_state"),
    ("ci2d.spectral_field", "multiply_mode", "spectral_field.multiply_mode"),
    ("ci2d.spectral_field", "_measure_band", "spectral_field.measure_band"),
    ("ci2d.spectral_field", "multiply", "spectral_field.multiply"),
    ("ci2d.spectral_field", "SpectralField.values", "spectral_field.values"),
    ("ci2d.spectral_field", "analyze", "spectral_field.analyze"),
    ("ci2d.spectral_field", "lp_norm", "spectral_field.norms"),
    ("ci2d.spectral_field", "l1_norm", "spectral_field.norms"),
    ("ci2d.spectral_field", "cn_norm", "spectral_field.norms"),
    ("ci2d.fourier_calculus", "tf_square", "fourier_calculus.products"),
    ("ci2d.fourier_calculus", "sym_tracefree_product", "fourier_calculus.products"),
    ("ci2d.fourier_calculus", "tracefree_product", "fourier_calculus.products"),
    ("ci2d.fourier_calculus", "anti_divergence", "fourier_calculus.anti_divergence"),
    ("ci2d.building_blocks", "eta", "building_blocks.eta"),
    ("ci2d.stress_geometry", "gamma", "stress_geometry.gamma"),
    ("ci2d.stress_geometry", "gamma_squared_grid", "stress_geometry.gamma"),
    ("ci2d.stress_geometry", "gamma_squared_grid_dt", "stress_geometry.gamma"),
    ("ci2d.mollifier", "spatial_mollify", "mollifier.spatial"),
    ("ci2d.mollifier", "TemporalKernel.apply_fields", "mollifier.temporal"),
    ("ci2d.state_io", "write_state", "state_io.write"),
    ("ci2d.state_io", "read_state", "state_io.read"),
    ("ci2d.state_io", "write_field", "state_io.write_field"),
    ("ci2d.state_io", "read_field", "state_io.read_field"),
    ("ci2d.diagnostics", "state_report", "diagnostics.state_report"),
    ("ci2d.diagnostics", "write_step_csv", "diagnostics.step_csv"),
    ("ci2d.checks", "run_all", "checks.run_all"),
]

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# Groups reported as "<group>_s" (outermost-span total) beside
# "<group>_self_s", and the call counts reported as "<group>_calls".
TIMED_GROUPS = [
    "ci_step.perturbation_slice", "ci_step.wave_slice", "ci_step.pstar_slice",
    "ci_step.coefficient_slice", "ci_step.assemble_stress", "ci_step.mollify",
    "ci_step.fd6_channel", "ci_step.nsr_residual", "ci_step.temporal_cutoff",
    "ci_step.init_state",
    "spectral_field.multiply_mode", "spectral_field.measure_band",
    "spectral_field.multiply", "spectral_field.values", "spectral_field.analyze",
    "spectral_field.norms",
    "fourier_calculus.products", "fourier_calculus.anti_divergence",
    "building_blocks.eta", "stress_geometry.gamma",
    "mollifier.spatial", "mollifier.temporal",
    "state_io.write", "state_io.read",
    "diagnostics.state_report", "diagnostics.step_csv", "checks.run_all",
]
COUNTED_GROUPS = [
    "ci_step.fd6_channel", "ci_step.nsr_residual",
    "spectral_field.multiply_mode", "spectral_field.measure_band",
    "spectral_field.multiply", "spectral_field.values", "spectral_field.analyze",
    "spectral_field.norms", "fourier_calculus.products",
    "fourier_calculus.anti_divergence", "building_blocks.eta",
    "stress_geometry.gamma", "mollifier.spatial", "mollifier.temporal",
]


class Tracer:
    """Span recorder; `install()` wraps, `uninstall()` restores."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.counts = {"fft.transforms": 0, "fft.points": 0,
                       "state_io.write_bytes": 0, "state_io.read_bytes": 0,
                       "ci_step.active_nodes": 0, "checks.properties": 0}

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, original, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Swap `original` for `wrapper` in every loaded ci2d module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ci2d" or mod_name.startswith("ci2d.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import importlib

        hooks = {
            "state_io.write_field": self._after_write_field,
            "state_io.read_field": self._after_read_field,
            "ci_step.temporal_cutoff": self._after_cutoff,
            "checks.run_all": self._after_run_all,
        }
        # import every target module first, so that the reference scan
        # below sees each module that imports a wrapped function by name
        modules = {m: importlib.import_module(m) for m, _, _ in LAYER_TARGETS}
        for mod_name, attr, group in LAYER_TARGETS:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(group, original, hooks.get(group)))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(group, original, hooks.get(group)))
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            for attr in FFT_NAMES:
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap("fft", original, self._after_fft)
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)
                self._replace_everywhere(original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters fed from call results -------------------------------------

    def _after_fft(self, args, kwargs, result):
        self.counts["fft.transforms"] += 1
        self.counts["fft.points"] += max(int(np.size(args[0])), int(np.size(result)))

    def _after_write_field(self, args, kwargs, result):
        self.counts["state_io.write_bytes"] += os.path.getsize(args[0])

    def _after_read_field(self, args, kwargs, result):
        self.counts["state_io.read_bytes"] += os.path.getsize(args[0])

    def _after_cutoff(self, args, kwargs, result):
        active = (result.values != 0.0) | (result.dvalues != 0.0)
        self.counts["ci_step.active_nodes"] += int(np.count_nonzero(active))

    def _after_run_all(self, args, kwargs, result):
        self.counts["checks.properties"] += len(result["properties"])

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Per span name: (outermost total, self time, calls)."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            total, self_time, calls = out.get(name, (0.0, 0.0, 0))
            dur = end - start
            outermost = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outermost = False
                    break
                p = self.spans[p][3]
            out[name] = (total + (dur if outermost else 0.0),
                         self_time + dur - child_time[i], calls + 1)
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        tot = self.totals()
        out = {}
        for group in TIMED_GROUPS:
            total, self_time, _ = tot.get(group, (0.0, 0.0, 0))
            out[f"{group}_s"] = (total, "s")
            out[f"{group}_self_s"] = (self_time, "s")
        for group in COUNTED_GROUPS:
            out[f"{group}_calls"] = (tot.get(group, (0.0, 0.0, 0))[2], "count")
        _, inline, _ = tot.get("ci_step.iterate_step", (0.0, 0.0, 0))
        out["ci_step.step_inline_s"] = (inline, "s")
        fft_total, _, _ = tot.get("fft", (0.0, 0.0, 0))
        out["fft.s"] = (fft_total, "s")
        out["fft.transforms"] = (self.counts["fft.transforms"], "count")
        out["fft.points"] = (self.counts["fft.points"], "count")
        out["ci_step.active_nodes"] = (self.counts["ci_step.active_nodes"], "count")
        out["checks.properties"] = (self.counts["checks.properties"], "count")
        out["state_io.write_mib"] = (self.counts["state_io.write_bytes"] / 2 ** 20, "MiB")
        out["state_io.read_mib"] = (self.counts["state_io.read_bytes"] / 2 ** 20, "MiB")
        return out

    def write(self, path: str):
        """Dump the spans as JSON: names table plus [name id, start, end, parent]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
