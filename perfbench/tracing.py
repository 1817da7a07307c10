"""Outside-in tracing of stabilab's layers, from the benchmark's side only.

:class:`Tracer` wraps the public entry points of each ``src/stabilab``
module and rebinds every loaded ``stabilab`` module attribute that refers
to one of them, so calls between modules and from the benchmark both go
through the wrapper. Nothing under ``src/`` changes; uninstalling restores
the original bindings.

Each wrapped call records a span (layer, start, end, parent span, pass id)
in memory. A layer's self time is its spans' duration minus the time their
child spans cover, so the self times of all layers, ``bench`` included
(the pass span itself, which holds the benchmark's checks), add up to the
traced pass time exactly.

Counters are taken at the same boundaries, from call arguments and
results. They depend only on the workload's inputs, so they repeat exactly
from run to run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# layer -> (module, entry points). Names a later refactor removes are
# reported as missing instead of failing the traced run.
LAYERS = {
    "seeding": ("stabilab.seeding", ("substream",)),
    "datagen": ("stabilab.datagen", ("draw_sample",)),
    "datagen.risk": ("stabilab.datagen", ("true_risk",)),
    "learners.ridge": ("stabilab.learners", ("fit_ridge",)),
    "learners.rerm": ("stabilab.learners", ("fit_rerm",)),
    "learners.sgd": ("stabilab.learners", ("run_sgd", "sgd_twin_distances", "fit_batch")),
    "stability": ("stabilab.stability", ("measure_argument_stability",)),
    "complexity": ("stabilab.complexity", ("estimate_center", "ball_rademacher")),
    "concentration": (
        "stabilab.concentration",
        ("center_concentration_experiment", "pinelis_tail_experiment"),
    ),
    "bounds": (
        "stabilab.bounds",
        (
            "complexity_bound",
            "plain_gap_bound",
            "fast_rate_bound",
            "rerm_gap_bound",
            "sgd_gap_bound",
        ),
    ),
    "lab": ("stabilab.lab", ("run_experiment",)),
    "lab.report_io": ("stabilab.lab", ("report_digest", "write_report_files")),
}
BENCH = "bench"
ALL_LAYERS = (*LAYERS, BENCH)
# Named counters per traced pass, with their units.
COUNTS = {
    "seeding.streams": "count",
    "datagen.rows": "count",
    "learners.sgd.cell_steps": "count",
    "learners.rerm.prox_per_fit": "prox/fit",
    "stability.cells": "count",
    "stability.zero_share": "fraction",
    "complexity.sign_draws": "count",
    "lab.report_bytes": "bytes",
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _fitter_layer(algorithm) -> str:
    """fit_batch serves every preset; attribute it to the preset's fitter."""
    from stabilab.learners import LpRermAlgorithm, RidgeAlgorithm

    if isinstance(algorithm, RidgeAlgorithm):
        return "learners.ridge"
    if isinstance(algorithm, LpRermAlgorithm):
        return "learners.rerm"
    return "learners.sgd"


def _sgd_steps(algorithm, n: int) -> int:
    return algorithm.spec_for(n, 0).steps


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        """Build the wrappers; stabilab must already be imported."""
        self.spans = []  # (layer, start, end, parent index or -1, pass id)
        self.counts = Counter()
        self.missing = []
        self._stack = []  # (span index, layer) of the open spans
        self._pass_id = -1
        self._bindings = []
        self._wrappers = self._build_wrappers()  # id(original) -> (original, wrapper)

    # -- spans ---------------------------------------------------------------

    def _span(self, layer: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((index, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self._pass_id)

    def run_pass(self, pass_id: int, run):
        """Run one pass under a ``bench`` root span."""
        self._pass_id = pass_id
        return self._span(BENCH, run, (), {})

    def _inside(self, layer: str) -> bool:
        return any(open_layer == layer for _, open_layer in self._stack)

    def _wrap(self, layer, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            result = self._span(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters --------------------------------------------------------------

    def _hooks(self):
        """name -> (before, after) counting hooks."""
        counts = self.counts

        def streams(args, kwargs):
            counts["seeding.streams"] += 1

        def rows(args, kwargs):
            counts["datagen.rows"] += int(_arg(args, kwargs, 1, "n"))

        def cells(args, kwargs, report):
            counts["stability.cells"] += report.trials
            counts["stability.zero_cells"] += sum(1 for cell in report.cells if cell[2] == 0.0)

        def sign_draws(args, kwargs):
            counts["complexity.sign_draws"] += int(_arg(args, kwargs, 2, "draws"))

        # The files' bytes, less the digits of the report's wall time, the
        # one field whose length varies between passes.
        def report_bytes(args, kwargs, paths):
            written = sum(os.path.getsize(p) for p in paths.values())
            wall_time = _arg(args, kwargs, 0, "report").wall_time
            counts["lab.report_bytes"] += written - len(repr(wall_time))

        def rerm_fits(args, kwargs):
            counts["learners.rerm.fits"] += 1

        # cell_steps is cells x steps from the arguments, a twin pair counting
        # as one cell. Only the outermost SGD entry point counts, since
        # fit_batch may fall back to run_sgd per sample.
        def cell_steps(cells_times_steps):
            def before(args, kwargs):
                if not self._inside("learners.sgd"):
                    counts["learners.sgd.cell_steps"] += cells_times_steps(args, kwargs)

            return before

        def run_sgd(args, kwargs):
            return _arg(args, kwargs, 2, "spec").steps

        def twins(args, kwargs):
            algorithm = _arg(args, kwargs, 0, "algorithm")
            n = _arg(args, kwargs, 1, "features").shape[-2]
            return len(_arg(args, kwargs, 6, "seeds")) * _sgd_steps(algorithm, n)

        def fit_batch(args, kwargs):
            algorithm = _arg(args, kwargs, 0, "algorithm")
            if _fitter_layer(algorithm) != "learners.sgd":
                return 0
            return sum(_sgd_steps(algorithm, s.n) for s in _arg(args, kwargs, 1, "samples"))

        return {
            "substream": (streams, None),
            "draw_sample": (rows, None),
            "measure_argument_stability": (None, cells),
            "ball_rademacher": (sign_draws, None),
            "write_report_files": (None, report_bytes),
            "fit_rerm": (rerm_fits, None),
            "run_sgd": (cell_steps(run_sgd), None),
            "sgd_twin_distances": (cell_steps(twins), None),
            "fit_batch": (cell_steps(fit_batch), None),
        }

    # -- installation -------------------------------------------------------------

    def _build_wrappers(self) -> dict:
        hooks = self._hooks()
        wrappers = {}
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                span_layer = layer
                if name == "fit_batch":
                    span_layer = lambda args, kwargs: _fitter_layer(
                        _arg(args, kwargs, 0, "algorithm")
                    )
                before, after = hooks.get(name, (None, None))
                wrappers[id(fn)] = (fn, self._wrap(span_layer, fn, before, after))
        return wrappers

    def install(self) -> None:
        """Rebind every stabilab module attribute that names an entry point."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.partition(".")[0] != "stabilab":
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._install_prox_counter()

    def _install_prox_counter(self) -> None:
        from stabilab.learners import PenaltySpec

        prox = PenaltySpec.__dict__.get("prox")
        if prox is None:
            if "stabilab.learners.PenaltySpec.prox" not in self.missing:
                self.missing.append("stabilab.learners.PenaltySpec.prox")
            return
        counts = self.counts

        @functools.wraps(prox)
        def counted(*args, **kwargs):
            counts["learners.rerm.prox"] += 1
            return prox(*args, **kwargs)

        self._bindings.append((PenaltySpec, "prox", prox))
        PenaltySpec.prox = counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._bindings):
            setattr(owner, attr, value)
        self._bindings.clear()

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """Total self seconds and span count per layer, over every traced pass."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(ALL_LAYERS, 0.0)
        calls = dict.fromkeys(ALL_LAYERS, 0)
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child_time[index]
            calls[layer] += 1
        return totals, calls

    def count_metrics(self, passes: int) -> dict:
        """name -> (value per traced pass, unit) for every named counter."""
        c = self.counts
        values = {name: c[name] / passes for name in COUNTS}
        fits, cells = c["learners.rerm.fits"], c["stability.cells"]
        values["learners.rerm.prox_per_fit"] = c["learners.rerm.prox"] / fits if fits else 0.0
        values["stability.zero_share"] = c["stability.zero_cells"] / cells if cells else 0.0
        return {name: (value, COUNTS[name]) for name, value in values.items()}

    def write_spans(self, path: str) -> None:
        """One JSON array per line: layer, start, end, parent, pass id."""
        with open(path, "w") as fh:
            for layer, start, end, parent, pass_id in self.spans:
                fh.write(f'["{layer}",{start!r},{end!r},{parent},{pass_id}]\n')
