"""Span tracing of the program's layers, from the benchmark's own code.

``Tracer.install`` wraps the public entry points of the grs4 modules (and
the ``jet`` methods of the two meridian family classes) wherever a grs4
module holds a reference to them, so calls between modules and inside one
module are both seen.  Each wrapped call records a span ``[name, start,
end, parent, pass_id]`` in memory; counters sit at the same boundaries.
At the end of a pass the spans are reduced to calls and self time (span
duration minus the time of its direct child spans) and dropped, so memory
stays bounded by one pass.  The tracer assumes one thread (``GRS_THREADS``
unset), which is the program's default.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

# Plain spans: (module, function).  The span name is "<module>.<function>".
_SPANS = (
    ("cli", "cmd_dispatch"),
    ("verifier", "verify_family"),
    ("verifier", "check_fd_connection"),
    ("verifier", "cross_check"),
    ("surfaces", "position_jets"),
    ("surfaces", "frames"),
    ("surfaces", "geometric_functions"),
    ("surfaces", "curvatures"),
    ("surfaces", "invariant_record"),
    ("odeint", "hermite_eval"),
)
_WRITERS = ("export_invariants_csv", "export_mesh", "dump_report_json")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, pass id]
        self.stack = []          # indices of open spans
        self.pass_id = None
        self.counts = defaultdict(int)
        self.jet_keys = set()    # distinct (family, u) pairs of the pass
        self.families = {}       # keeps families alive so ids stay distinct
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _jet(self, name, fn):
        traced = self.span(name, fn)
        counts, keys, families = self.counts, self.jet_keys, self.families

        def jet(fam, u):
            counts["jet"] += 1
            keys.add((id(fam), float(u)))
            families[id(fam)] = fam
            return traced(fam, u)
        return jet

    def _scan(self, fn):
        traced = self.span("verifier.admissible_domain", fn)
        counts = self.counts

        def admissible_domain(*args, **kwargs):
            before = counts["jet"]
            try:
                return traced(*args, **kwargs)
            finally:
                counts["scan_jet"] += counts["jet"] - before
        return admissible_domain

    def _rk4(self, fn):
        traced = self.span("odeint.rk4_integrate", fn)
        counts = self.counts

        def rk4_integrate(field, *args, **kwargs):
            # the field is the meridians layer's per-step root solve
            traced_field = self.span("meridians.field", field)

            def counted_field(t, y):
                counts["field"] += 1
                return traced_field(t, y)
            traj = traced(counted_field, *args, **kwargs)
            counts["steps"] += len(traj.ts) - 1
            return traj
        return rk4_integrate

    def _writer(self, name, fn):
        traced = self.span(name, fn)
        counts, sig = self.counts, inspect.signature(fn)

        def writer(*args, **kwargs):
            out = traced(*args, **kwargs)
            counts["bytes"] += os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])
            return out
        return writer

    def _inner(self, fn):
        counts = self.counts

        def inner(a, b):
            counts["inner"] += 1
            return fn(a, b)
        return inner

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point in every loaded grs4 module."""
        from grs4 import cli, meridians, odeint, pe4, reporting, surfaces, verifier
        mods = {"cli": cli, "meridians": meridians, "odeint": odeint,
                "pe4": pe4, "reporting": reporting, "surfaces": surfaces,
                "verifier": verifier}
        plan = [(mods[m], f, self.span(f"{m}.{f}", getattr(mods[m], f)))
                for m, f in _SPANS]
        plan += [(reporting, f, self._writer(f"reporting.{f}", getattr(reporting, f)))
                 for f in _WRITERS]
        plan += [
            (verifier, "admissible_domain", self._scan(verifier.admissible_domain)),
            (meridians, "integrate_constrained",
             self.span("meridians.realize", meridians.integrate_constrained)),
            (odeint, "rk4_integrate", self._rk4(odeint.rk4_integrate)),
            (pe4, "inner", self._inner(pe4.inner)),
        ]
        grs4_mods = [m for n, m in sys.modules.items()
                     if n == "grs4" or n.startswith("grs4.")]
        for home, attr, wrapped in plan:
            orig = getattr(home, attr)
            for mod in grs4_mods:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        for cls, name in ((meridians._ClosedFormFamily, "meridians.jet_closed"),
                          (meridians._SampledFamily, "meridians.jet_sampled")):
            self._patch(cls, "jet", self._jet(name, cls.jet))

    def _patch(self, owner, attr, wrapped) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- per-pass reduction -------------------------------------------------

    def begin_pass(self, pass_id) -> None:
        self.spans.clear()
        self.counts.clear()
        self.jet_keys.clear()
        self.families.clear()
        self.pass_id = pass_id

    def end_pass(self, names) -> dict:
        """The per-layer metrics ``names`` of the pass since ``begin_pass``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, _, _), inside in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - inside
        c = self.counts
        jets = calls["meridians.jet_closed"] + calls["meridians.jet_sampled"]
        rk4 = calls["odeint.rk4_integrate"]
        derived = {
            "meridians.jet.distinct_ratio": len(self.jet_keys) / jets if jets else 0.0,
            "meridians.realize.accept_ratio":
                calls["meridians.realize"] / rk4 if rk4 else 0.0,
            "odeint.steps": c["steps"],
            "odeint.field_calls_per_step": c["field"] / c["steps"] if c["steps"] else 0.0,
            "pe4.inner.calls": c["inner"],
            "verifier.admissible_domain.jet_calls": c["scan_jet"],
            "reporting.bytes_written": c["bytes"],
        }
        out = {}
        for metric in names:
            if metric in derived:
                out[metric] = derived[metric]
            else:
                span, _, kind = metric.rpartition(".")
                out[metric] = calls[span] if kind == "calls" else self_s[span]
        self.pass_id = None
        return out
