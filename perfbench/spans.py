"""Spans around the public functions of ``vecspin``, timed from outside.

``Tracer.installed()`` replaces each listed function in every ``vecspin``
module namespace that binds it (``parisi.increments`` and
``rpc.increments`` are the same function and both get the wrapper), and
puts the originals back on exit.  While ``tracer.enabled`` is true, each
call records a span: label, start, end, parent span, and an optional
observation of its arguments and result.  Spans stay in memory.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded (``threads=1``), so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    label: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _eval_phi_points(args, kwargs, result):
    """Nominal tensor-grid points nodes**(kappa*r) of a quadrature call."""
    path = _arg(args, kwargs, 3, "path")
    spec = _arg(args, kwargs, 4, "spec")
    if not spec.is_quadrature:
        return None
    return spec.nodes_per_level ** (path.kappa * path.r)


#: label -> (module, attribute, observer or None).  The observer maps
#: (args, kwargs, result) to the span's ``info``.
TARGETS = {
    "mixing.xi_prime_matrix": ("vecspin.mixing", "xi_prime_matrix", None),
    "parisi.increments": ("vecspin.parisi", "increments", None),
    "parisi.eval_phi": ("vecspin.parisi", "eval_phi", _eval_phi_points),
    "parisi.phi_grad_lambda": ("vecspin.parisi", "phi_grad_lambda", None),
    "parisi.eval_parisi": ("vecspin.parisi", "eval_parisi", None),
    "parisi.phi_star": ("vecspin.parisi", "phi_star",
                        lambda a, k, res: (res.iterations, res.converged)),
    "parisi.optimize": ("vecspin.parisi", "optimize", lambda a, k, res: res.value),
    "rpc.simulate_phi": ("vecspin.rpc", "simulate_phi", lambda a, k, res: res[1]),
    "rpc.sample_cascade": ("vecspin.rpc", "sample_cascade",
                           lambda a, k, res: res.n_leaves),
    "rpc.simulate_y_functional": ("vecspin.rpc", "simulate_y_functional", None),
    "system.enumerate_configs": ("vecspin.system", "enumerate_configs", None),
    "system.sample_disorder": ("vecspin.system", "sample_disorder", None),
    "system.hamiltonian_batch": ("vecspin.system", "hamiltonian_batch", None),
    "system.perturbation_h": ("vecspin.system", "perturbation_h", None),
    "system.gg_discrepancy": ("vecspin.system", "gg_discrepancy", None),
    "prior.build_modifier": ("vecspin.prior", "build_modifier", None),
}


class Tracer:
    def __init__(self, targets=None, package: str = "vecspin"):
        self.targets = TARGETS if targets is None else targets
        self.package = package
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    def _wrap(self, label, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(label, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return wrapper

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        saved = []
        try:
            namespaces = self._namespaces()
            for label, (module, attr, observe) in self.targets.items():
                fn = getattr(sys.modules[module], attr)
                wrapper = self._wrap(label, fn, observe)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            saved.append((ns, name, fn))
                            setattr(ns, name, wrapper)
            yield self
        finally:
            for ns, name, fn in reversed(saved):
                setattr(ns, name, fn)

    @contextlib.contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False


@dataclass
class LabelStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, LabelStats]:
    """Calls, total and self time per label."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    out: dict[str, LabelStats] = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s.label, LabelStats())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += s.duration - child_time[i]
    return out


def count_within(spans: list[Span], label: str, ancestor: str) -> int:
    """Spans labelled ``label`` with an ancestor labelled ``ancestor``."""
    n = 0
    for s in spans:
        if s.label != label:
            continue
        p = s.parent
        while p >= 0:
            if spans[p].label == ancestor:
                n += 1
                break
            p = spans[p].parent
    return n


def root_time(spans: list[Span]) -> float:
    """Wall time covered by spans without a parent."""
    return sum(s.duration for s in spans if s.parent < 0)
