"""Stage tracer that wraps autopl's layers from outside.

`install` replaces public functions and methods at the module attributes
through which autopl calls them with timing wrappers. Nothing under
src/ changes. Each wrapper records one span: its self time (its
duration minus the time of spans that ran inside it) and a call count,
plus counters read off the wrapped call's result.
Objective evaluations inside constant fitting are counted, never timed,
so the tracer stays at stage level.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

FAMILIES = ("zero", "identity", "square", "cube", "sqrt", "reciprocal",
            "log10", "exp", "sin", "cos")

# Per-layer metrics of a traced run, in report order. Every ".s" value is
# self time: the span minus the spans nested inside it.
PER_LAYER = (
    ("expr.constfit.calls", "count"),
    ("expr.constfit.s", "s"),
    ("expr.constfit.evals", "count"),
    ("expr.constfit.unfittable", "count"),
    ("expr.mask.calls", "count"),
    ("expr.mask.s", "s"),
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.s", "s"),
    ("dsr.sample.calls", "count"),
    ("dsr.sample.s", "s"),
    ("dsr.sample.sequences", "count"),
    ("dsr.reward.calls", "count"),
    ("dsr.reward.s", "s"),
    ("dsr.reward.zero", "count"),
    ("dsr.cache_hit_frac", "fraction"),
    ("dsr.update.calls", "count"),
    ("dsr.update.s", "s"),
    ("dsr.update.no_survivors", "count"),
    ("dsr.train.s", "s"),
    ("kan.train.s", "s"),
    ("kan.train.nit", "count"),
    ("kan.forward.calls", "count"),
    ("kan.forward.s", "s"),
    ("kan.backward.calls", "count"),
    ("kan.backward.s", "s"),
    ("kan.auto_symbolic.s", "s"),
    ("kan.fit_edge.calls", "count"),
    ("kan.fit_edge.s", "s"),
    *((f"kan.fit_edge.won.{f}", "count") for f in FAMILIES),
    ("kan.retrain_affine.s", "s"),
    ("kan.extract.s", "s"),
    ("evalharness.mc.s", "s"),
    ("evalharness.validity.s", "s"),
    ("evalharness.metrics.s", "s"),
    ("plmodels.read_csv.s", "s"),
    ("plmodels.split.s", "s"),
    ("cli.self.s", "s"),
    ("trace.wall_s", "s"),
)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(counts, result)
        may add counters derived from the return value."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.self_s[name] += dt - child[0]
                self.calls[name] += 1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn to count its calls without timing them."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The PER_LAYER values: `<span>.s` is the span's self time,
        `<span>.calls` its call count, any other name a counter; spans and
        counters that never ran read 0."""
        drawn = self.counts["dsr.sample.sequences"]
        derived = {"dsr.cache_hit_frac":
                       (drawn - self.calls["dsr.reward"]) / drawn if drawn else 0.0,
                   "trace.wall_s": wall_s}
        out = {}
        for name, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".s"):
                out[name] = self.self_s[name[:-len(".s")]]
            elif name.endswith(".calls"):
                out[name] = self.calls[name[:-len(".calls")]]
            else:
                out[name] = self.counts[name]
        return out


def _count_unfittable(counts, res):
    counts["expr.constfit.unfittable"] += not res.fittable


def _count_sequences(counts, batch):
    counts["dsr.sample.sequences"] += batch.n


def _count_zero_reward(counts, r):
    counts["dsr.reward.zero"] += r == 0.0


def _count_no_survivors(counts, stats):
    counts["dsr.update.no_survivors"] += bool(stats["no_survivors"])


def _count_nit(counts, result):
    # train() appends one history row per L-BFGS iteration plus a final one
    counts["kan.train.nit"] += len(result.history) - 1


def _count_winner(counts, fit):
    counts[f"kan.fit_edge.won.{fit.name}"] += 1


def install(tracer: Tracer) -> None:
    """Patch autopl's call sites; the process keeps the wrappers until exit."""
    mod = importlib.import_module
    cli = mod("autopl.cli")
    dsr_pkg = mod("autopl.dsr")
    dsr_train = mod("autopl.dsr.train")
    dsr_reward = mod("autopl.dsr.reward")
    constfit = mod("autopl.expr.constfit")
    constraints = mod("autopl.expr.constraints")
    eh = mod("autopl.evalharness")
    kan = mod("autopl.kan")
    network = mod("autopl.kan.network")
    symbolic = mod("autopl.kan.symbolic")

    def wrap(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), on_result))

    wrap(dsr_train, "optimize_constants", "expr.constfit", _count_unfittable)
    constfit.evaluate = tracer.counter("expr.constfit.evals", constfit.evaluate)
    wrap(constraints.PrefixState, "mask", "expr.mask")
    for owner in (dsr_reward, cli, eh):
        wrap(owner, "evaluate", "expr.evaluate")

    wrap(dsr_train, "sample_batch", "dsr.sample", _count_sequences)
    wrap(dsr_train, "reward", "dsr.reward", _count_zero_reward)
    wrap(dsr_train, "rspg_step", "dsr.update", _count_no_survivors)
    wrap(cli, "dsr_train", "dsr.train")
    wrap(dsr_pkg, "train", "dsr.train")

    wrap(kan, "train", "kan.train", _count_nit)
    wrap(network.KanNetwork, "forward", "kan.forward")
    wrap(network.KanLayer, "backward", "kan.backward")
    wrap(kan, "auto_symbolic", "kan.auto_symbolic")
    wrap(symbolic, "fit_edge", "kan.fit_edge", _count_winner)
    wrap(kan, "retrain_affine", "kan.retrain_affine")
    wrap(kan, "extract_expression", "kan.extract")

    wrap(eh, "monte_carlo_eval", "evalharness.mc")
    wrap(eh, "check_validity", "evalharness.validity")
    for key in list(eh.METRICS):
        eh.METRICS[key] = tracer.span("evalharness.metrics", eh.METRICS[key])

    wrap(cli, "main", "cli.self")
    wrap(cli, "read_csv", "plmodels.read_csv")
    wrap(cli, "split", "plmodels.split")
    wrap(eh, "split", "plmodels.split")
