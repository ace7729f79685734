"""Spans around setidetect's public functions, recorded from outside.

`Tracer.install` wraps every function a layer module lists in `__all__`,
the `cdf`/`pdf` methods of the law classes and the simulator's chunk
synthesizer, then rebinds each wrapped function under every name a loaded
setidetect module holds for it (so `cli.roc_curve` is traced as well as
`roc.roc_curve`).  `uninstall` puts the originals back.  Spans stay in
memory; `write` saves them and `layer_metrics` turns them into the
per-layer figures of one workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref

import numpy as np

LAYERS = ("distributions", "scenario", "roc", "simulator", "cli")
LAW_CLASSES = ("ScaledGamma", "NoncentralChi2C", "FLaw", "GammaDifference")


def _points(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _curve_points(args, kwargs, out):
    return int(np.size(out.pfa))


def _pairs(fn, count: str):
    """Work of a synthesis call: `count` streams × N complex sample pairs."""
    sig = inspect.signature(fn)

    def work(args, kwargs, out):
        got = sig.bind(*args, **kwargs).arguments
        return int(got[count]) * int(got["spec"].n_samples)

    return work


_WORK = {
    "roc_curve": lambda fn: _curve_points,
    "run_paired_estimates": lambda fn: _pairs(fn, "trials"),
}


class Tracer:
    def __init__(self):
        # one entry per span: name, start ns, end ns, parent index, run id,
        # work (points, pairs ...), first evaluation of a law object
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._seen: dict[int, weakref.ref] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work=None, law=False):
        spans, stack, seen = self.spans, self._stack, self._seen
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = False
            if law:
                ref = seen.get(id(args[0]))
                if ref is None or ref() is not args[0]:
                    seen[id(args[0])] = weakref.ref(args[0])
                    first = True
            i = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.run_id, 0, first]
            spans.append(span)
            stack.append(i)
            out = None
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if work is not None and out is not None:
                    span[5] = work(args, kwargs, out)

        return traced

    def install(self):
        import setidetect.distributions as dist
        import setidetect.simulator as sim

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"setidetect.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    work = _WORK[name](fn) if name in _WORK else None
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn, work)
        # private, but the only place that shows chunk synthesis beyond the
        # requested trials; the figure reads 0 if it is renamed
        if hasattr(sim, "_synth_pair"):
            fn = sim._synth_pair
            wrapped[fn] = self._wrap("simulator._synth_pair", fn, _pairs(fn, "m"))
        for cls_name in LAW_CLASSES:
            cls = getattr(dist, cls_name)
            for meth in ("cdf", "pdf"):
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(
                    cls,
                    meth,
                    self._wrap(f"distributions.{cls_name}.{meth}", fn, _points, law=True),
                )
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "setidetect" and not mod_name.startswith("setidetect."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._seen.clear()

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("id,name,start_ns,end_ns,parent,run,work,first\n")
            for i, (name, t0, t1, parent, run, work, first) in enumerate(self.spans):
                handle.write(f"{i},{name},{t0},{t1},{parent},{run},{work},{int(first)}\n")


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round from a span list.

    Self time is a span's duration minus that of its direct children; the
    self times of all spans add up to the duration of the root spans.
    Ratios with an empty base (no such call in the workload) read 0.
    """
    if not spans:
        raise ValueError("no spans recorded")
    names = np.array([s[0] for s in spans])
    dur = np.array([s[2] - s[1] for s in spans], dtype=float) * 1e-9
    parent = np.array([s[3] for s in spans])
    work = np.array([s[5] for s in spans], dtype=float)
    first = np.array([s[6] for s in spans], dtype=bool)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    layer = np.array([n.split(".", 1)[0] for n in names])
    # nearest enclosing roc_curve span (parents always precede children)
    in_curve = np.full(len(spans), -1)
    for i, (name, p) in enumerate(zip(names, parent)):
        in_curve[i] = i if name == "roc.roc_curve" else (in_curve[p] if p >= 0 else -1)

    def is_(name):
        return names == name

    def per_round(x):
        return float(np.sum(x)) / rounds

    def ratio(num, den):
        return float(num / den) if den else 0.0

    cdf = np.char.endswith(names.astype(str), ".cdf")
    pdf = np.char.endswith(names.astype(str), ".pdf")
    quantile = is_("distributions.law_quantile")
    curve = is_("roc.roc_curve")
    rpe = is_("simulator.run_paired_estimates")
    flaw = is_("distributions.FLaw.cdf")
    m = {f"{lay}.self_s": per_round(self_s[layer == lay]) for lay in LAYERS}
    m.update(
        {
            "distributions.FLaw.cdf_s": per_round(dur[flaw]),
            "distributions.FLaw.cdf_points": per_round(work[flaw]),
            "distributions.FLaw.cdf_us_per_point": 1e6
            * ratio(dur[flaw].sum(), work[flaw].sum()),
            "distributions.NoncentralChi2C.cdf_s": per_round(
                dur[is_("distributions.NoncentralChi2C.cdf")]
            ),
            "distributions.NoncentralChi2C.cdf_points": per_round(
                work[is_("distributions.NoncentralChi2C.cdf")]
            ),
            "distributions.GammaDifference.cdf_s": per_round(
                dur[is_("distributions.GammaDifference.cdf")]
            ),
            "distributions.GammaDifference.cdf_points": per_round(
                work[is_("distributions.GammaDifference.cdf")]
            ),
            "distributions.ScaledGamma.cdf_s": per_round(
                dur[is_("distributions.ScaledGamma.cdf")]
            ),
            "distributions.pdf_s": per_round(dur[pdf]),
            "distributions.law_setup_s": per_round(dur[first]),
            "distributions.law_quantile_calls": per_round(quantile),
            "distributions.law_quantile_s": per_round(dur[quantile]),
            "distributions.law_quantile_cdf_calls": ratio(
                np.sum(cdf & has_parent & quantile[np.maximum(parent, 0)]),
                quantile.sum(),
            ),
            "scenario.detector_laws_calls": per_round(is_("scenario.detector_laws")),
            "scenario.detector_laws_s": per_round(dur[is_("scenario.detector_laws")]),
            "roc.roc_curve_calls": per_round(curve),
            "roc.roc_curve_s": per_round(dur[curve]),
            "roc.roc_curve_self_s": per_round(self_s[curve]),
            "roc.roc_curve_p50_s": float(np.median(dur[curve])) if curve.any() else 0.0,
            "roc.threshold_for_pfa_s": per_round(dur[is_("roc.threshold_for_pfa")]),
            "roc.compare_detectors_s": per_round(dur[is_("roc.compare_detectors")]),
            "roc.cdf_points_per_curve_point": ratio(
                work[cdf & (in_curve >= 0)].sum(), work[curve].sum()
            ),
            "simulator.run_paired_estimates_s": per_round(dur[rpe]),
            "simulator.sample_pairs_per_s": ratio(work[rpe].sum(), dur[rpe].sum()),
            "simulator.synthesized_per_requested": ratio(
                work[is_("simulator._synth_pair")].sum(), work[rpe].sum()
            ),
            "trace.spans": len(spans) / rounds,
        }
    )
    return m
