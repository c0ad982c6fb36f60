"""Layer tracing of qutritcr from the benchmark side.

The package binds most names with ``from .x import y``, so a wrapper placed
only where a function is defined records nothing for callers that hold their
own reference.  ``Patches.replace_everywhere`` therefore rebinds the wrapper
at every ``qutritcr.*`` module attribute that holds the original.  Methods
and the ``_pieces`` cached property are wrapped on their class, which every
caller reaches.

Spans ``[name, start, end, parent, leaf_s]`` and counters stay in memory
until ``Tracer.report``.  H(t) evaluations are too many for one span each:
they go to a counter and a timer, and their time is charged to the
enclosing span (``leaf_s``) so that self times stay correct.  Evaluation
counts of the optimizer and the integrator come from the ``nfev`` of the
results they return.
"""

from __future__ import annotations

import builtins
import functools
import sys
import time
from collections import defaultdict

_ABSENT = object()


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        old = vars(owner).get(name, _ABSENT)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def replace_everywhere(self, original, replacement) -> int:
        """Rebind every qutritcr module attribute that is ``original``."""
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "qutritcr":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    sites += 1
        return sites

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


class _CountingFile:
    """File proxy that times writes and counts the characters of CSV files."""

    def __init__(self, counts, f, csv: bool):
        self._counts, self._f, self._csv = counts, f, csv

    def write(self, data):
        t0 = time.perf_counter()
        n = self._f.write(data)
        self._counts["experiments.write_s"] += time.perf_counter() - t0
        if self._csv:
            self._counts["experiments.csv_bytes"] += len(data)
        return n

    def close(self):
        t0 = time.perf_counter()
        self._f.close()
        self._counts["experiments.write_s"] += time.perf_counter() - t0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._f, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.sites = {}
        self._stack = []
        self._edge_keys = set()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name, fn, on_result=None):
        """Wrap fn in a span; on_result(result, args, kwargs, seconds)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, args, kwargs, spans[idx][2] - spans[idx][1])
            return result

        return traced

    @staticmethod
    def hook(fn, on_result):
        """Wrap fn without a span; on_result(result) sees each return value."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return hooked

    def install(self, patches: Patches) -> None:
        from qutritcr import calibrate, crpulse, experiments, fitting, hamiltonian, metrics, propagate

        counts, stack, spans = self.counts, self._stack, self.spans

        def everywhere(site, fn, wrapper):
            self.sites[site] = self.sites.get(site, 0) + patches.replace_everywhere(fn, wrapper)

        def spanned(name, fn, on_result=None):
            everywhere(name, fn, self.span(name, fn, on_result))

        # calibrate
        def phase_opt_nfev(res):
            if self.current() == "calibrate.phase_opt":
                counts["calibrate.phase_opt.nfev"] += res.nfev

        spanned("calibrate.phase_opt", calibrate.optimize_phase_correction)
        everywhere("calibrate.minimize", calibrate.minimize, self.hook(calibrate.minimize, phase_opt_nfev))
        spanned("calibrate.single", calibrate.calibrate_single_qutrit)
        spanned("calibrate.cr", calibrate.calibrate_cr_gate)
        spanned("calibrate.refine", calibrate.refine_full_model)
        spanned("calibrate.compose", calibrate.compose_calibrated)
        spanned("calibrate.cmd", experiments.cmd_calibrate)
        store_cls = calibrate.CalibrationStore
        patches.set(store_cls, "save", self.span("calibrate.store_save", store_cls.save))
        load = vars(store_cls)["load"].__func__
        patches.set(store_cls, "load", classmethod(self.span("calibrate.store_load", load)))
        self.sites["calibrate.store"] = 2

        # propagate
        for fn in (propagate.evolve_state, propagate.evolve_unitary, propagate.evolve_trace):
            everywhere("propagate", fn, self.span("propagate", fn))

        def ivp_nfev(sol):
            counts["propagate.nfev"] += sol.nfev

        everywhere("propagate.solve_ivp", propagate.solve_ivp, self.hook(propagate.solve_ivp, ivp_nfev))

        # hamiltonian: counted and timed per call, charged to the open span
        cls = hamiltonian.RotatingFrameHamiltonian
        init, call = cls.__init__, cls.__call__

        def traced_init(obj, *args, **kwargs):
            counts["hamiltonian.builds"] += 1
            init(obj, *args, **kwargs)

        def traced_call(obj, t):
            t0 = time.perf_counter()
            h = call(obj, t)
            dt = time.perf_counter() - t0
            counts["hamiltonian.evals"] += 1
            counts["hamiltonian.s"] += dt
            if stack:
                spans[stack[-1]][4] += dt
            return h

        patches.set(cls, "__init__", traced_init)
        patches.set(cls, "__call__", traced_call)
        self.sites["hamiltonian"] = 2

        # crpulse: the width-independent edge propagators of one pulse
        pieces = vars(crpulse.FlatTopCRPulse).get("_pieces")
        if isinstance(pieces, functools.cached_property):
            def edge_key(res, args, kwargs, seconds):
                pulse = args[0]
                self._edge_keys.add((pulse.subspace, pulse.amp, pulse.risefall, pulse.phase))

            prop = functools.cached_property(self.span("crpulse.edges", pieces.func, edge_key))
            prop.__set_name__(crpulse.FlatTopCRPulse, "_pieces")
            patches.set(crpulse.FlatTopCRPulse, "_pieces", prop)
            self.sites["crpulse.edges"] = 1
        if hasattr(crpulse, "_stepped_unitary"):
            spanned("crpulse.magnus", crpulse._stepped_unitary)

        # fitting, experiments, metrics
        spanned("fitting", fitting.fit_rabi)

        def bell_time(res, args, kwargs, seconds):
            counts[f"experiments.bell_{res.extras.get('method', 'full')}_s"] += seconds

        spanned("experiments.bell", experiments.cmd_bell, bell_time)
        spanned("experiments.rabi", experiments.cmd_rabi)

        conc = metrics.concurrence

        def counted_concurrence(psi):
            counts["metrics.concurrence.calls"] += 1
            return conc(psi)

        everywhere("metrics.concurrence", conc, counted_concurrence)

        def traced_open(file, mode="r", *args, **kwargs):
            if not any(c in mode for c in "wax"):
                return builtins.open(file, mode, *args, **kwargs)
            t0 = time.perf_counter()
            f = builtins.open(file, mode, *args, **kwargs)
            counts["experiments.write_s"] += time.perf_counter() - t0
            return _CountingFile(counts, f, str(file).endswith(".csv"))

        # a module global shadows the builtin for experiments' own open() calls
        patches.set(experiments, "open", traced_open)

    def report(self) -> dict:
        """Per-layer totals: inclusive seconds, self seconds, calls, counters."""
        total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, leaf in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, leaf) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += (end - start) - child[i] - leaf
        c = self.counts
        pulses = calls["crpulse.edges"]
        return {
            "calibrate.s": total["calibrate.cmd"],
            "calibrate.phase_opt.calls": calls["calibrate.phase_opt"],
            "calibrate.phase_opt.nfev": c["calibrate.phase_opt.nfev"],
            "calibrate.phase_opt.s": total["calibrate.phase_opt"],
            "calibrate.phase_opt.self_s": self_s["calibrate.phase_opt"],
            "calibrate.single.calls": calls["calibrate.single"],
            "calibrate.single.s": total["calibrate.single"],
            "calibrate.cr.calls": calls["calibrate.cr"],
            "calibrate.cr.s": total["calibrate.cr"],
            "calibrate.refine.calls": calls["calibrate.refine"],
            "calibrate.refine.s": total["calibrate.refine"],
            "calibrate.compose.s": total["calibrate.compose"],
            "calibrate.store_save_s": total["calibrate.store_save"],
            "calibrate.store_load_s": total["calibrate.store_load"],
            "propagate.calls": calls["propagate"],
            "propagate.nfev": c["propagate.nfev"],
            "propagate.s": total["propagate"],
            "propagate.self_s": self_s["propagate"],
            "hamiltonian.evals": c["hamiltonian.evals"],
            "hamiltonian.builds": c["hamiltonian.builds"],
            "hamiltonian.s": c["hamiltonian.s"],
            "crpulse.pulses": pulses,
            "crpulse.distinct_amps": len(self._edge_keys),
            "crpulse.edge_reuse": len(self._edge_keys) / pulses if pulses else 0.0,
            "crpulse.s": total["crpulse.edges"],
            "crpulse.magnus.calls": calls["crpulse.magnus"],
            "crpulse.magnus.self_s": self_s["crpulse.magnus"],
            "fitting.calls": calls["fitting"],
            "fitting.failed": c["fitting.errors"],
            "fitting.s": total["fitting"],
            "experiments.bell_full_s": c["experiments.bell_full_s"],
            "experiments.bell_rwa_s": c["experiments.bell_rwa_s"],
            "experiments.bell_store_s": c["experiments.bell_store_s"],
            "experiments.rabi.calls": calls["experiments.rabi"],
            "experiments.rabi.s": total["experiments.rabi"],
            "experiments.write_s": c["experiments.write_s"],
            "experiments.csv_bytes": c["experiments.csv_bytes"],
            "metrics.concurrence.calls": c["metrics.concurrence.calls"],
            "trace.spans": len(self.spans),
        }
