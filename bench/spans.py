"""Span recorder for the traced run.

The recorder wraps divprog's public functions from outside the package:
it replaces the function object in every divprog module that holds it
(so `mainterm.divisor_sum_progressions`, `voronoi.bessel_y0` and
`voronoi.sieve_tau` are wrapped along with their home modules), and it
replaces `KloostermanEvaluator.build`, `KloostermanEvaluator.batch_over_a`
and `SmoothCutoff.__call__` on their classes.  `uninstall` restores every
original, so untraced passes run the unmodified program.

Each span records name, start, end, parent span and a few counts taken
from the call's arguments or result.  `rollup` turns the spans into
per-module metrics; busy time is self time, the span's duration minus
the time its child spans cover (calls nest on one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np


def _points(index):
    return lambda args, kwargs, result, pre: {"points": int(np.size(args[index]))}


def _sieve_entries(args, kwargs, result, pre):
    return {"entries": len(result.values)}


def _progressions_key(args, kwargs, result, pre):
    return {"key": (result.X, result.q, kwargs.get("method", args[2] if len(args) > 2 else "auto"))}


def _error_vector_key(args, kwargs, result, pre):
    return {"key": (result.X, result.q)}


def _evaluator_bytes(args, kwargs, result, pre):
    arrays = (result.units, result.inverses, result.twiddle)
    return {"bytes": sum(a.nbytes for a in arrays if a is not None)}


def _batch_points(args, kwargs, result, pre):
    return {"modulus_points": args[0].d}


def _weight_flags(args, kwargs, result, pre):
    return {"panels": result.panels, "unconverged": int(not result.converged)}


def _dual_terms(args, kwargs, result, pre):
    report = result[0].truncation_report if result else ()
    return {"dual_terms": sum(entry.n_terms for entry in report)}


def _poisson_freqs(args, kwargs, result, pre):
    return {"frequencies": sum(result.m_cutoffs), "freq_unconverged": int(not result.freq_converged)}


def _sweep_rows(args, kwargs, result, pre):
    return {"rows": len(result.rows)}


def _out_dir(argv) -> Path:
    argv = list(argv or ())
    return Path(argv[argv.index("--out-dir") + 1]) if "--out-dir" in argv else Path(".")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.is_dir() else 0


def _report_bytes_before(args, kwargs):
    return _dir_bytes(_out_dir(args[0] if args else kwargs.get("argv")))


def _report_bytes(args, kwargs, result, pre):
    return {"report_bytes": _dir_bytes(_out_dir(args[0] if args else kwargs.get("argv"))) - pre}


# (span name, module, attribute path, counter, pre-call hook)
TARGETS = (
    ("tausieve.sieve_tau", "divprog.tausieve", "sieve_tau", _sieve_entries, None),
    ("tausieve.progressions", "divprog.tausieve", "divisor_sum_progressions", _progressions_key, None),
    ("mainterm.main_term_vector", "divprog.mainterm", "main_term_vector", None, None),
    ("mainterm.error_vector", "divprog.mainterm", "error_vector", _error_vector_key, None),
    ("mainterm.exceptional_set", "divprog.mainterm", "exceptional_set", None, None),
    ("arith.factorize", "divprog.arith", "factorize", None, None),
    ("kloosterman.evaluator", "divprog.kloosterman", "KloostermanEvaluator.build", _evaluator_bytes, None),
    ("kloosterman.scalar", "divprog.kloosterman", "kloosterman", None, None),
    ("kloosterman.batch", "divprog.kloosterman", "KloostermanEvaluator.batch_over_a", _batch_points, None),
    ("kloosterman.table", "divprog.kloosterman", "kloosterman_table", None, None),
    ("bilinear.brute", "divprog.bilinear", "bilinear_sum", None, None),
    ("bilinear.fast", "divprog.bilinear", "bilinear_sum_unweighted_a", None, None),
    ("characters.fourth_moment", "divprog.characters", "fourth_moment", None, None),
    ("characters.congruence_count", "divprog.characters", "multiplicative_congruence_count", None, None),
    ("bessel.k0", "divprog.bessel", "bessel_k0", _points(0), None),
    ("bessel.y0", "divprog.bessel", "bessel_y0", _points(0), None),
    ("cutoff", "divprog.cutoff", "SmoothCutoff.__call__", _points(1), None),
    ("voronoi.weight_u", "divprog.voronoi", "weight_u", _weight_flags, None),
    ("voronoi.expansion", "divprog.voronoi", "voronoi_error_terms", _dual_terms, None),
    ("poisson.check", "divprog.poisson", "poisson_tau", _poisson_freqs, None),
    ("poisson.check", "divprog.poisson", "poisson_tau_twisted", _poisson_freqs, None),
    ("sweeps.run", "divprog.sweeps", "run_theorem_sweep", _sweep_rows, None),
    ("cli.main", "divprog.cli", "main", _report_bytes, _report_bytes_before),
)

# metric name, unit, span name, field of the rolled-up span
MODULE_METRICS = (
    ("tausieve.sieve_tau.busy_s", "s", "tausieve.sieve_tau", "busy_s"),
    ("tausieve.sieve_tau.entries", "count", "tausieve.sieve_tau", "entries"),
    ("tausieve.progressions.calls", "count", "tausieve.progressions", "calls"),
    ("tausieve.progressions.busy_s", "s", "tausieve.progressions", "busy_s"),
    ("mainterm.main_term_vector.busy_s", "s", "mainterm.main_term_vector", "busy_s"),
    ("mainterm.error_vector.calls", "count", "mainterm.error_vector", "calls"),
    ("mainterm.error_vector.repeats", "count", "mainterm.error_vector", "repeats"),
    ("mainterm.exceptional_set.busy_s", "s", "mainterm.exceptional_set", "busy_s"),
    ("arith.factorize.calls", "count", "arith.factorize", "calls"),
    ("arith.factorize.busy_s", "s", "arith.factorize", "busy_s"),
    ("kloosterman.evaluator.builds", "count", "kloosterman.evaluator", "calls"),
    ("kloosterman.evaluator.build_s", "s", "kloosterman.evaluator", "busy_s"),
    ("kloosterman.evaluator.bytes_built", "B", "kloosterman.evaluator", "bytes"),
    ("kloosterman.scalar.calls", "count", "kloosterman.scalar", "calls"),
    ("kloosterman.scalar.busy_s", "s", "kloosterman.scalar", "busy_s"),
    ("kloosterman.batch.calls", "count", "kloosterman.batch", "calls"),
    ("kloosterman.batch.busy_s", "s", "kloosterman.batch", "busy_s"),
    ("kloosterman.batch.modulus_points", "count", "kloosterman.batch", "modulus_points"),
    ("kloosterman.table.busy_s", "s", "kloosterman.table", "busy_s"),
    ("bilinear.brute.busy_s", "s", "bilinear.brute", "busy_s"),
    ("bilinear.fast.busy_s", "s", "bilinear.fast", "busy_s"),
    ("characters.fourth_moment.busy_s", "s", "characters.fourth_moment", "busy_s"),
    ("characters.congruence_count.busy_s", "s", "characters.congruence_count", "busy_s"),
    ("bessel.k0.points", "count", "bessel.k0", "points"),
    ("bessel.k0.busy_s", "s", "bessel.k0", "busy_s"),
    ("bessel.y0.points", "count", "bessel.y0", "points"),
    ("bessel.y0.busy_s", "s", "bessel.y0", "busy_s"),
    ("cutoff.points", "count", "cutoff", "points"),
    ("cutoff.busy_s", "s", "cutoff", "busy_s"),
    ("voronoi.weight_u.calls", "count", "voronoi.weight_u", "calls"),
    ("voronoi.weight_u.busy_s", "s", "voronoi.weight_u", "busy_s"),
    ("voronoi.weight_u.panels", "count", "voronoi.weight_u", "panels"),
    ("voronoi.weight_u.unconverged", "count", "voronoi.weight_u", "unconverged"),
    ("voronoi.dual_terms", "count", "voronoi.expansion", "dual_terms"),
    ("voronoi.expansion.busy_s", "s", "voronoi.expansion", "busy_s"),
    ("poisson.check.busy_s", "s", "poisson.check", "busy_s"),
    ("poisson.frequencies", "count", "poisson.check", "frequencies"),
    ("poisson.freq_unconverged", "count", "poisson.check", "freq_unconverged"),
    ("sweeps.run.busy_s", "s", "sweeps.run", "busy_s"),
    ("sweeps.rows", "count", "sweeps.run", "rows"),
    ("cli.main.busy_s", "s", "cli.main", "busy_s"),
    ("cli.report_bytes", "B", "cli.main", "report_bytes"),
)


class Recorder:
    """Collects spans while installed; a no-op once uninstalled."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count, pre_hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result, pre)
            return result

        return wrapper

    def install(self) -> None:
        for name, module, attr, count, pre_hook in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count, pre_hook))
                else:
                    new = self._wrap(name, raw, count, pre_hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, count, pre_hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "divprog":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                counts = {k: list(v) if isinstance(v, tuple) else v for k, v in (counts or {}).items()}
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def rollup(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_s (self time), summed counts, distinct keys."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "keys": set()})
        agg["calls"] += 1
        agg["busy_s"] += (end - start) - child[i]
        for key, value in (counts or {}).items():
            if key == "key":
                agg["keys"].add(value)
            else:
                agg[key] = agg.get(key, 0) + value
    for agg in out.values():
        agg["repeats"] = agg["calls"] - len(agg["keys"]) if agg["keys"] else 0
    return out


def module_metrics(agg: dict[str, dict]) -> dict[str, dict]:
    """Every per-module metric; 0 where the workload never reached that span."""
    metrics = {}
    for metric, unit, span, field in MODULE_METRICS:
        value = agg.get(span, {}).get(field, 0)
        metrics[metric] = {"value": value if isinstance(value, float) else int(value), "unit": unit}
    return metrics
