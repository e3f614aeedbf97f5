"""Timing wrappers installed on cbwk's module attributes from outside the package.

Callers inside cbwk look their collaborators up by module attribute at call
time (``cbwk.policy.sample_outcome``, ``cbwk.oracles._project_a_norm``, the
predictor classes' ``predict_matrix``/``update`` ...).  ``install`` replaces
each of those attributes with a wrapper that records one span per call, and
the returned ``Patches`` object puts every original back.  Spans (name,
start, end, parent) are kept in flat arrays and written out at the end; self
time is derived from them afterwards.
"""

import importlib
import time
import warnings
from array import array

import numpy as np

from .workloads import PRECONDITION_WARNING

_MARK = "__perfbench_wrapped__"


class Tracer:
    """In-memory span recorder with a few counters kept at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts = {}
        self.cells = []  # (span index, algorithm) of every traced sweep cell
        self.oracles = []  # predictors created by the policy, for reinit counts

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, span: str, fn, on_exit=None):
        """A wrapper that records ``span`` around each call of ``fn``."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, idx, args, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """(name ids, start, end, parent) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy())

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def totals(self) -> dict:
        """Per span name: calls, inclusive ms and self ms."""
        ids, start, end, _ = self.arrays()
        own = self.self_times()
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=end - start, minlength=n)
        selfs = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "ms": float(incl[i] * 1e3),
                       "self_ms": float(selfs[i] * 1e3)}
                for i, name in enumerate(self.names)}

    def subtree_self_sum(self, root: int) -> float:
        """Sum of self times over a span and all its descendants, in seconds.

        One thread records spans in start order, so a span's descendants are
        exactly the spans after it that start before it ends.
        """
        _, start, end, _ = self.arrays()
        stop = int(np.searchsorted(start, end[root], side="left"))
        return float(self.self_times()[root:stop].sum())

    def save(self, path: str) -> None:
        ids, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=ids, start=start, end=end,
                 parent=parent)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- counters recorded on span exit ------------------------------------------

def _on_cell(tracer, idx, args, row):
    tracer.cells.append((idx, args[0]["algorithm"]))
    tracer.count("harness.cells")
    if row.error is not None:
        tracer.count("harness.cells_failed")


def _on_update(tracer, idx, args, result):
    predictor = args[0]
    if predictor.kind == "glmtron":
        tracer.count("oracles.glmtron_row_updates", getattr(predictor, "d", 1))


def _on_project(tracer, idx, args, result):
    tracer.count("oracles.project.rows", len(args[1]))


def _on_solve(tracer, idx, args, solution):
    tracer.count("lp.solves")
    tracer.count("lp.pivots", solution.iterations)


def _on_online_to_batch(tracer, idx, args, result):
    tracer.count("oracles.online_to_batch.samples", len(args[2]))


def _on_policy_run(tracer, idx, args, trace):
    tracer.count("policy.rounds", trace.tau)


def _on_linucb_run(tracer, idx, args, trace):
    tracer.count("baseline.rounds", trace.tau)


def _on_oracle_made(tracer, idx, args, oracle):
    tracer.oracles.append(oracle)


def _counting_precondition_warnings(tracer: Tracer, run_cell):
    """Count the two-stage precondition warning per cell instead of printing it."""

    def run(spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = run_cell(spec)
        for w in caught:
            if issubclass(w.category, RuntimeWarning) and \
                    str(w.message).startswith(PRECONDITION_WARNING):
                tracer.count("twostage.precondition_warnings")
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return row

    return run


# (module, attribute, span name, on_exit)
_FUNCTIONS = (
    ("cbwk.harness", "make_fixed_linear_env", "core.make_env", None),
    ("cbwk.harness", "exact_opt_fixed_context", "lp.exact_opt", None),
    ("cbwk.harness", "run_squarecbwk", "policy.run_squarecbwk", _on_policy_run),
    ("cbwk.harness", "run_linucb", "baseline.run_linucb", _on_linucb_run),
    ("cbwk.harness", "run_twostage", "twostage.run_twostage", None),
    ("cbwk.policy", "make_predictor", "oracles.make", _on_oracle_made),
    ("cbwk.policy", "make_vector_predictor", "oracles.make", _on_oracle_made),
    ("cbwk.policy", "lagrangian_scores", "policy.lagrangian_scores", None),
    ("cbwk.policy", "igw_distribution", "policy.igw_distribution", None),
    ("cbwk.policy", "_sample_arm", "policy.sample_arm", None),
    ("cbwk.policy", "sample_outcome", "core.sample_outcome", None),
    ("cbwk.policy", "dual_lambda", "dual.lambda", None),
    ("cbwk.policy", "dual_update", "dual.update", None),
    ("cbwk.baseline", "sample_outcome", "core.sample_outcome", None),
    ("cbwk.baseline", "dual_lambda", "dual.lambda", None),
    ("cbwk.baseline", "dual_update", "dual.update", None),
    ("cbwk.twostage", "phase_one", "twostage.phase_one", None),
    ("cbwk.twostage", "explore", "twostage.explore", None),
    ("cbwk.twostage", "online_to_batch", "oracles.online_to_batch", _on_online_to_batch),
    ("cbwk.twostage", "empirical_opt", "twostage.empirical_opt", None),
    ("cbwk.twostage", "solve_lp", "lp.solve_lp", _on_solve),
    ("cbwk.twostage", "sample_outcome", "core.sample_outcome", None),
    ("cbwk.twostage", "run_squarecbwk", "policy.run_squarecbwk", _on_policy_run),
    ("cbwk.lp", "solve_lp", "lp.solve_lp", _on_solve),
    ("cbwk.oracles", "_project_a_norm", "oracles.project", _on_project),
)

# (module, class, method, span name, on_exit)
_METHODS = (
    ("cbwk.oracles", "OnlinePredictor", "predict_matrix", "oracles.predict", None),
    ("cbwk.oracles", "VectorPredictor", "predict_matrix", "oracles.predict", None),
    ("cbwk.oracles", "BatchPredictor", "predict_matrix", "oracles.batch_predict", None),
    ("cbwk.oracles", "OnlinePredictor", "update", "oracles.update", _on_update),
    ("cbwk.oracles", "VectorPredictor", "update", "oracles.update", _on_update),
)


def targets():
    """Every (owner, attribute) pair ``install`` replaces."""
    pairs = [(importlib.import_module(mod), attr) for mod, attr, _, _ in _FUNCTIONS]
    pairs += [(getattr(importlib.import_module(mod), cls), attr)
              for mod, cls, attr, _, _ in _METHODS]
    pairs.append((importlib.import_module("cbwk.harness"), "_run_cell"))
    return pairs


def install(tracer: Tracer) -> Patches:
    """Wrap every traced attribute; the caller restores them with the result."""
    patches = Patches()
    try:
        for mod, attr, span, on_exit in _FUNCTIONS:
            module = importlib.import_module(mod)
            patches.set(module, attr, tracer.wrap(span, getattr(module, attr), on_exit))
        for mod, cls, attr, span, on_exit in _METHODS:
            owner = getattr(importlib.import_module(mod), cls)
            patches.set(owner, attr, tracer.wrap(span, getattr(owner, attr), on_exit))
        harness = importlib.import_module("cbwk.harness")
        run = _counting_precondition_warnings(tracer, harness._run_cell)
        patches.set(harness, "_run_cell", tracer.wrap("harness.run_cell", run, _on_cell))
    except BaseException:
        patches.restore()
        raise
    return patches


def is_wrapped(obj) -> bool:
    return hasattr(obj, _MARK)
