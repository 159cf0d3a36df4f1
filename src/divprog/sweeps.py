"""Experiment sweeps: reference bounds, configs, and deterministic reports.

The bounds below are the reference envelopes with every o(1) exponent
set to zero, so sweeps assert bounded *ratios*, never ratio <= 1:

  interval, absolute average D (prime modulus):
      A X^(1/2) p^(-1/2) + A^(3/2) X^(1/2) p^(-5/8)
        + A^(1/2) X^(1/2) p^(-1/8) + A^(5/6) X^(5/18) p^(11/72),
      stated for A <= p and X >= p >= X^(4/7);

  interval, signed average E (any modulus):
      A X^(1/2) q^(-1/2) + A^(1/8) X^(1/4) q^(1/2) + A^(1/2) X^(1/4) q^(1/4),
      stated for A <= q and X >= q >= X^(19/31);

  arbitrary set, absolute average D (prime modulus):
      A^(3/4) X^(1/4) p^(1/4) + A^(2/3) X^(1/3),
      an improvement over the trivial bounds exactly when
      p <= min{A X^(1/3-eps), X^(1-eps)/A};

  exceptional-set cardinality:  max{p X^(-1/3+4 kappa), X^(3 kappa)}.

Each sweep row is labeled in/out of regime for every bound; nothing is
dropped.  Reports are byte-deterministic: sorted grids, a seeded PCG64
generator for random sets, %.12g float formatting, and the seed recorded
in every header.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .arith import euler_phi, is_prime, units_by_rank
from .errors import ConfigInvalid
from .mainterm import (
    error_set,
    error_sums,
    error_vector,
    exceptional_members,
    exceptional_threshold,
    interval_residues,
)

REPORT_FLOAT_FORMAT = "%.12g"


# ---------------------------------------------------------------- bounds

def interval_abs_error_bound(A: int, X: int, p: int) -> float:
    """Reference envelope for D over a length-A interval, prime modulus."""
    return (
        A * X**0.5 * p**-0.5
        + A**1.5 * X**0.5 * p**-0.625
        + A**0.5 * X**0.5 * p**-0.125
        + A ** (5 / 6) * X ** (5 / 18) * p ** (11 / 72)
    )


def interval_abs_regime(A: int, X: int, p: int) -> bool:
    return A <= p and X >= p >= X ** (4 / 7) and is_prime(p)


def interval_signed_error_bound(A: int, X: int, q: int) -> float:
    """Reference envelope for |E| over a length-A interval, any modulus."""
    return A * X**0.5 * q**-0.5 + A**0.125 * X**0.25 * q**0.5 + A**0.5 * X**0.25 * q**0.25


def interval_signed_regime(A: int, X: int, q: int) -> bool:
    return A <= q and X >= q >= X ** (19 / 31)


def set_abs_error_bound(A: int, X: int, p: int) -> float:
    """Reference envelope for D over an arbitrary A-element set, prime p."""
    return A**0.75 * X**0.25 * p**0.25 + A ** (2 / 3) * X ** (1 / 3)


def set_abs_regime(A: int, X: int, p: int, eps: float = 0.05) -> bool:
    """The range where the set bound beats both trivial estimates."""
    return is_prime(p) and p <= min(A * X ** (1 / 3 - eps), X ** (1 - eps) / A)


def exceptional_count_bound(X: int, p: int, kappa: float) -> float:
    return max(p * X ** (-1 / 3 + 4 * kappa), X ** (3 * kappa))


# ---------------------------------------------------------------- config

_EXPERIMENTS = ("interval_abs", "interval_signed", "set_abs", "exceptional")


def _finite_number(value: Any) -> bool:
    """An int or a finite float, not a bool: NaN and inf compare false with every bound."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    x_grid: tuple[int, ...]
    modulus_grid: tuple[int, ...]
    set_kind: str = "interval"  # interval | random
    lengths: tuple[Any, ...] = ()  # ints, or "sqrt" for floor(sqrt(q))
    offsets: tuple[int, ...] = (0,)
    kappas: tuple[float, ...] = ()
    seed: int = 0
    eps: float = 0.05
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigInvalid(f"experiment: expected one of {_EXPERIMENTS}, got {self.experiment!r}")
        for name in ("x_grid", "modulus_grid", "lengths", "offsets", "kappas"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ConfigInvalid(f"{name}: must be an array, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        for name, values in (("x_grid", self.x_grid), ("modulus_grid", self.modulus_grid),
                             ("offsets", self.offsets), ("seed", (self.seed,))):
            for v in values:
                if not _integer(v):
                    raise ConfigInvalid(f"{name}: expected integers, got {v!r}")
        for B in self.offsets:
            if B < 0:
                raise ConfigInvalid(f"offsets: need B >= 0, got {B}")
        for spec in self.lengths:
            if spec != "sqrt" and not (_integer(spec) and spec >= 1):
                raise ConfigInvalid(f"lengths: expected positive integers or 'sqrt', got {spec!r}")
        for name, values in (("kappas", self.kappas), ("eps", (self.eps,))):
            for v in values:
                if not _finite_number(v):
                    raise ConfigInvalid(f"{name}: must be a finite number, got {v!r}")
        if not isinstance(self.thresholds, dict):
            raise ConfigInvalid(f"thresholds: must be an object, got {self.thresholds!r}")
        if not self.x_grid:
            raise ConfigInvalid("x_grid: must be nonempty")
        if not self.modulus_grid:
            raise ConfigInvalid("modulus_grid: must be nonempty")
        for X in self.x_grid:
            for q in self.modulus_grid:
                if q > X:
                    raise ConfigInvalid(f"grid: modulus {q} exceeds X {X}")
                if q < 2:
                    raise ConfigInvalid(f"modulus_grid: need q >= 2, got {q}")
        if self.experiment == "exceptional":
            if not self.kappas:
                raise ConfigInvalid("kappas: required for the exceptional experiment")
            for k in self.kappas:
                if not 0 < k < 1 / 3:
                    raise ConfigInvalid(f"kappas: need values in (0, 1/3), got {k}")
            for p in self.modulus_grid:
                if not is_prime(p):
                    raise ConfigInvalid(f"modulus_grid: exceptional needs primes, got {p}")
        elif not self.lengths:
            raise ConfigInvalid("lengths: must be nonempty")
        if self.set_kind not in ("interval", "random"):
            raise ConfigInvalid(f"set_kind: expected interval or random, got {self.set_kind!r}")
        if self.set_kind == "random" and self.offsets != (0,):
            raise ConfigInvalid(f"sets.offsets: random sets have no offsets, got {list(self.offsets)}")
        if self.experiment == "exceptional":
            allowed = {"ratio_exceptional"}
        else:
            allowed = {"ratio_interval_abs", "ratio_interval_signed", "ratio_set_abs"}
        for name, limit in self.thresholds.items():
            if name not in allowed:
                raise ConfigInvalid(
                    f"thresholds: unknown key {name!r}; expected one of {sorted(allowed)}"
                )
            if not _finite_number(limit):
                raise ConfigInvalid(f"thresholds: {name} must be a finite number, got {limit!r}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed: must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{path}:{exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be an object")
        known = {
            "experiment", "x_grid", "modulus_grid", "sets", "kappas",
            "seed", "eps", "thresholds",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        sets = raw.get("sets", {})
        if not isinstance(sets, dict):
            raise ConfigInvalid("sets: must be an object")
        unknown = set(sets) - {"kind", "lengths", "offsets"}
        if unknown:
            raise ConfigInvalid(f"unknown sets keys: {sorted(unknown)}")
        return cls(
            experiment=raw.get("experiment", ""),
            x_grid=raw.get("x_grid", ()),
            modulus_grid=raw.get("modulus_grid", ()),
            set_kind=sets.get("kind", "interval"),
            lengths=sets.get("lengths", ()),
            offsets=sets.get("offsets", (0,)),
            kappas=raw.get("kappas", ()),
            seed=raw.get("seed", 0),
            eps=raw.get("eps", 0.05),
            thresholds=raw.get("thresholds", {}),
        )


def _resolve_length(spec: Any, q: int) -> int:
    return max(1, math.isqrt(q)) if spec == "sqrt" else spec


# ----------------------------------------------------------------- sweep

@dataclass(frozen=True)
class SweepResult:
    rows: list[dict]
    summary: dict
    paths: tuple[str, ...]
    breaches: tuple[str, ...]


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return REPORT_FLOAT_FORMAT % v
    return str(v)


def _csv_field(text: str) -> str:
    """Minimal RFC 4180 quoting: only fields holding a comma, quote or line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_value(v: Any) -> str:
    """One CSV field of a row: a bool, int or float never holds a comma, quote or line break."""
    text = _format_value(v)
    return text if isinstance(v, (bool, int, float)) else _csv_field(text)


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ConfigInvalid(f"format: expected csv or json, got {fmt!r}")


def emit_report(rows: list[dict], fmt: str, path: str | Path, seed: int) -> str:
    """Write rows deterministically, the seed in the header; returns the path written."""
    _check_format(fmt)
    path = Path(path)
    if fmt == "csv":
        lines = [f"# seed={seed}"]
        if rows:
            keys = list(rows[0].keys())
            lines.append(",".join(_csv_field(k) for k in keys))
            for row in rows:
                lines.append(",".join(_csv_value(row[k]) for k in keys))
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(_json_dumps({"rows": rows, "seed": seed}) + "\n")
    return str(path)


def _json_normalize(v):
    if isinstance(v, dict):
        return {k: _json_normalize(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_json_normalize(x) for x in v]
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float(REPORT_FLOAT_FORMAT % v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(REPORT_FLOAT_FORMAT % float(v))
    return v


def _json_dumps(doc) -> str:
    return json.dumps(_json_normalize(doc), sort_keys=True, indent=1)


def _row_sets(cfg: ExperimentConfig, q: int, rng: np.random.Generator) -> list[tuple]:
    """(B, residues, dropped, descriptor) of every row at modulus q, in row order."""
    phi = euler_phi(q) if cfg.set_kind == "random" else None
    sets = []
    for spec in cfg.lengths:
        A_req = _resolve_length(spec, q)
        for B in sorted(cfg.offsets):
            if cfg.set_kind == "interval":
                residues, dropped = interval_residues(q, B, A_req)
                descriptor = f"interval({B},{A_req})"
            else:
                size = min(A_req, phi)
                # the same draw as choosing from the unit list, which is never built
                ranks = rng.choice(phi, size=size, replace=False)
                residues = sorted(units_by_rank(q, ranks).tolist())
                dropped = 0
                descriptor = f"random({size})"
            sets.append((B, residues, dropped, descriptor))
    return sets


def _interval_rows(cfg: ExperimentConfig, rng: np.random.Generator) -> list[dict]:
    rows = []
    for X in sorted(cfg.x_grid):
        for q in sorted(cfg.modulus_grid):
            sets = _row_sets(cfg, q, rng)
            # one error_set call on all rows' residues, then each row's slice
            R = error_set(X, q, [a for _, residues, _, _ in sets for a in residues])
            prime = is_prime(q)
            start = 0
            for B, residues, dropped, descriptor in sets:
                A_eff = len(residues)
                D, E = error_sums(R[start : start + A_eff])
                start += A_eff
                r11 = interval_abs_error_bound(A_eff, X, q) if A_eff else float("nan")
                r12 = interval_signed_error_bound(A_eff, X, q) if A_eff else float("nan")
                r13 = set_abs_error_bound(A_eff, X, q) if A_eff else float("nan")
                rows.append({
                    "experiment": cfg.experiment,
                    "X": X,
                    "q": q,
                    "prime": prime,
                    "set": descriptor,
                    "B": B,
                    "A": A_eff,
                    "dropped": dropped,
                    "D": D,
                    "E": E,
                    "interval_set": cfg.set_kind == "interval",
                    "rhs_interval_abs": r11,
                    "ratio_interval_abs": D / r11 if A_eff else float("nan"),
                    "in_regime_interval_abs": bool(
                        A_eff and cfg.set_kind == "interval" and interval_abs_regime(A_eff, X, q)
                    ),
                    "rhs_interval_signed": r12,
                    "ratio_interval_signed": abs(E) / r12 if A_eff else float("nan"),
                    "in_regime_interval_signed": bool(
                        A_eff and cfg.set_kind == "interval"
                        and interval_signed_regime(A_eff, X, q)
                    ),
                    "rhs_set_abs": r13,
                    "ratio_set_abs": D / r13 if A_eff else float("nan"),
                    "in_regime_set_abs": bool(A_eff and set_abs_regime(A_eff, X, q, cfg.eps)),
                })
    return rows


def _exceptional_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for X in sorted(cfg.x_grid):
        for p in sorted(cfg.modulus_grid):
            R = error_vector(X, p).R
            for kappa in sorted(cfg.kappas):
                members = exceptional_members(R, X, kappa)
                rhs = exceptional_count_bound(X, p, kappa)
                rows.append({
                    "experiment": "exceptional",
                    "X": X,
                    "p": p,
                    "kappa": kappa,
                    "threshold": exceptional_threshold(X, kappa),
                    "count": len(members),
                    "rhs_exceptional": rhs,
                    "ratio_exceptional": len(members) / rhs,
                    "in_regime_exceptional": True,
                })
    return rows


def run_theorem_sweep(cfg: ExperimentConfig, out_dir: str | Path, fmt: str = "csv") -> SweepResult:
    """Measure D/E/#A_kappa over the grid, emit rows plus a summary file."""
    _check_format(fmt)
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    if cfg.experiment == "exceptional":
        rows = _exceptional_rows(cfg)
    else:
        rows = _interval_rows(cfg, rng)

    ratio_keys = [k for k in (rows[0].keys() if rows else []) if k.startswith("ratio_")]
    summary: dict[str, Any] = {"experiment": cfg.experiment, "seed": cfg.seed, "rows": len(rows)}
    breaches: list[str] = []
    for key in ratio_keys:
        regime_key = "in_regime_" + key.removeprefix("ratio_")
        in_rows = [r[key] for r in rows if r.get(regime_key) and math.isfinite(r[key])]
        all_rows = [r[key] for r in rows if math.isfinite(r[key])]
        summary["max_" + key] = max(all_rows) if all_rows else None
        summary["max_" + key + "_in_regime"] = max(in_rows) if in_rows else None
        limit = cfg.thresholds.get(key)
        if limit is not None and in_rows and max(in_rows) > limit:
            breaches.append(f"max_{key}={max(in_rows):.6g} exceeds threshold {limit}")
    summary["breaches"] = breaches

    # made only now, so a run that fails leaves no directory behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / f"sweep_{cfg.experiment}.{fmt}"
    emit_report(rows, fmt, rows_path, seed=cfg.seed)
    summary_path = out_dir / f"sweep_{cfg.experiment}_summary.json"
    summary_path.write_text(_json_dumps(summary) + "\n")
    return SweepResult(
        rows=rows,
        summary=summary,
        paths=(str(rows_path), str(summary_path)),
        breaches=tuple(breaches),
    )
