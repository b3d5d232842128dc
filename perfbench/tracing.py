"""In-memory span tracing of bargmann's layers, from outside the package.

A :class:`Tracer` replaces a layer function by a timing wrapper at every
module attribute of the package that is bound to it.  Callers import names
with ``from .x import y``, so one function can be bound in several modules
(``kernel_matrix`` lives in ``kernels``, ``transforms``, ``verify`` and
``cli``); each binding is wrapped.  The entries of ``verify.SUITES`` are
wrapped in the dict that ``run_suite`` reads.  Leaving the ``with`` block
restores every original.

Each call becomes one span: name, start, end, parent and counts.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.  A name's busy time
counts only its outermost spans, so a rule builder that calls another rule
builder is not counted twice.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("classical", "second", "generalized_second", "dirichlet",
            "gen_bergman_dirichlet")
PRIMARY_ROUTE = {"classical": "closed", "second": "closed",
                 "generalized_second": "closed", "dirichlet": "integral",
                 "gen_bergman_dirichlet": "integral"}
TRACED_SUITES = ("special", "quadrature", "operators")
CLI_COMMANDS = ("kernel-eval", "transform", "operator")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _entries(z, x) -> int:
    return int(np.broadcast(np.asarray(z), np.asarray(x)).size)


class Tracer:
    """Wraps the layer functions of an imported ``bargmann`` package."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._seen: set = set()

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name, describe=None):
        """Wrap ``fn`` in a span called ``name``.

        ``describe(arguments, result)`` returns the span's counts, or a
        (name, counts) pair when the name depends on the arguments.
        """
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = describe(bound.arguments, result)
                if isinstance(counts, tuple):
                    span.name, counts = counts
                span.counts = counts
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap(self, fn, name, describe=None):
        wrapped = self._wrapper(fn, name, describe)
        pkg = self.pkg
        for module in (pkg, pkg.special, pkg.quadrature, pkg.kernels, pkg.transforms,
                       pkg.operators, pkg.verify, pkg.cli):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def _build(self, builder, size_key, size_attr):
        """Counts for a builder whose repeated arguments mark wasted work."""
        def describe(args, out):
            key = (builder,) + tuple(repr(v) for v in args.values())
            repeat = key in self._seen
            self._seen.add(key)
            return {"builds": 1, size_key: int(getattr(out, size_attr).size),
                    "repeats": int(repeat)}
        return describe

    def __enter__(self):
        pkg = self.pkg
        k, t, q, o = pkg.kernels, pkg.transforms, pkg.quadrature, pkg.operators

        def closed(args, out):
            return {"entries": _entries(args["z"], args["x"])}

        self._wrap(k.classical_kernel, "kernels.classical.closed", closed)
        self._wrap(k.second_kernel, "kernels.second.closed", closed)
        self._wrap(k.generalized_second_kernel, "kernels.generalized_second.closed", closed)

        # t_samples is computed as entries x t-nodes of the rule or weight
        # the call used; the defaults are the cached ones the kernel reached.
        def dirichlet(args, out):
            rule = k._default_t_rule() if args["rule"] is None else args["rule"]
            n = _entries(args["z"], args["x"])
            return {"entries": n, "t_samples": n * rule.nodes.shape[0]}

        def gen_dirichlet(args, out):
            weight = args["weight"]
            if weight is None:
                weight = k._default_omega(args["alpha"], int(args["m"]))
            n = _entries(args["z"], args["x"])
            return {"entries": n, "t_samples": n * weight.values.shape[0]}

        def series(args, out):
            return (f"kernels.{args['family'].kind}.series", {"entries": int(np.size(out))})

        self._wrap(k.dirichlet_kernel, "kernels.dirichlet.integral", dirichlet)
        self._wrap(k.gen_dirichlet_kernel, "kernels.gen_bergman_dirichlet.integral",
                   gen_dirichlet)
        self._wrap(k.kernel_series, "kernels.series", series)
        self._wrap(k.omega, "omega", self._build("omega", "samples", "values"))
        for builder in (q.gauss_line, q.gauss_halfline, q.disk_rule, q.gaussian_plane_rule):
            self._wrap(builder, "quadrature",
                       self._build(builder.__name__, "nodes", "nodes"))
        self._wrap(pkg.special.basis_matrix, "special.basis_matrix",
                   lambda args, out: {"calls": 1, "values": int(np.size(out))})
        self._wrap(pkg.special.hyp_series, "special.hyp", lambda args, out: {"calls": 1})
        self._wrap(t.make_transform, "transforms.make_transform",
                   lambda args, out: {"calls": 1})
        self._wrap(t.forward_map, "transforms.forward_map",
                   lambda args, out: {"entries": int(np.size(out))})
        self._wrap(t.circle_points, "transforms.circle_points",
                   lambda args, out: {"points": int(np.size(out))})
        self._wrap(t.inverse_integral, "transforms.inverse_integral")
        self._wrap(o.apply_exact, "operators.apply_exact", lambda args, out: {"calls": 1})
        self._wrap(o.apply_fd, "operators.apply_fd", lambda args, out: {"calls": 1})

        def cli_main(args, out):
            argv = args["argv"] or ["?"]
            return (f"cli.{argv[0]}", {"calls": 1, "exit_nonzero": int(out != 0)})

        self._wrap(pkg.cli.main, "cli.main", cli_main)
        suites = pkg.verify.SUITES
        for name, fn in list(suites.items()):
            self._restore.append((suites, name, fn))
            suites[name] = self._wrapper(fn, f"verify.{name}")
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()
        return False

    # -- reporting -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; every name always present."""
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, dict] = {}
        for span in self.spans:
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent >= 0:
                continue          # nested in a span of the same name
            busy[span.name] = busy.get(span.name, 0.0) + span.duration
            bucket = counts.setdefault(span.name, {})
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0) + value

        def c(name, key):
            return counts.get(name, {}).get(key, 0)

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        m: dict[str, tuple] = {}
        for fam in FAMILIES:
            for route in (PRIMARY_ROUTE[fam], "series"):
                name = f"kernels.{fam}.{route}"
                entries = c(name, "entries")
                m[f"{name}.entries"] = (entries, "count")
                m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
                m[f"{name}.us_per_entry"] = (per(1e6 * busy.get(name, 0.0), entries), "us")
            if PRIMARY_ROUTE[fam] == "integral":
                name = f"kernels.{fam}.integral.t_samples"
                m[name] = (c(f"kernels.{fam}.integral", "t_samples"), "count")
        for layer, size_key in (("omega", "samples"), ("quadrature", "nodes")):
            builds = c(layer, "builds")
            m[f"{layer}.builds"] = (builds, "count")
            m[f"{layer}.{size_key}"] = (c(layer, size_key), "count")
            m[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
            m[f"{layer}.repeat_frac"] = (per(c(layer, "repeats"), builds), "ratio")
        for name, keys in (("special.basis_matrix", ("calls", "values")),
                           ("special.hyp", ("calls",)),
                           ("transforms.make_transform", ("calls",)),
                           ("transforms.forward_map", ("entries",)),
                           ("transforms.inverse_integral", ()),
                           ("operators.apply_exact", ("calls",)),
                           ("operators.apply_fd", ("calls",))):
            for key in keys:
                m[f"{name}.{key}"] = (c(name, key), "count")
            m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
        m["transforms.forward_map.self_s"] = (self_s.get("transforms.forward_map", 0.0), "s")
        m["transforms.circle_points.points"] = (c("transforms.circle_points", "points"),
                                                "count")
        for suite in TRACED_SUITES:
            m[f"verify.{suite}.wall_s"] = (busy.get(f"verify.{suite}", 0.0), "s")
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.calls"] = (c(f"cli.{cmd}", "calls"), "count")
            m[f"cli.{cmd}.self_s"] = (self_s.get(f"cli.{cmd}", 0.0), "s")
        m["cli.exit_nonzero"] = (sum(c(f"cli.{cmd}", "exit_nonzero")
                                     for cmd in CLI_COMMANDS), "count")
        return m

    def self_time_shares(self, wall: float) -> dict:
        """Self time per span name as a share of ``wall``, largest first."""
        total: dict[str, float] = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.self_s
        return {k: v / wall for k, v in sorted(total.items(), key=lambda kv: -kv[1])}

    def write(self, path, meta: dict) -> None:
        """Write a metadata line, then every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_metadata": meta}) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end, "self_s": span.self_s,
                    **span.counts,
                }) + "\n")
