"""Command-line front end.

Subcommands map one-to-one onto library operations; table-like results
go to report files under --out-dir, named <stem>.csv or <stem>.json
after --format, and single-object results go to stdout as JSON.

The residue-level commands compute only the residues they print: tau --a
takes the single route (progression_sum_single), and errors and
voronoi-check the set route (progression_sums_set, error_set), which
reads a large set off the whole vector by its own choice.  errors drops
the non-reduced members of an interval 'B,A' and refuses a non-reduced
residue listed in a --set file (NonReducedResidue, exit 2).  tau
without --a and exceptional read every residue, so they build the
whole vector.

Exit codes: 0 success, 2 for configuration or usage problems (the
package's own error types, see errors.py), 3 when a sweep's configured
envelope threshold is breached (CI gating), 4 for an internal failure: a
numerical self-check (an arithmetic or runtime error, such as a
Kloosterman sum whose imaginary part is not rounding noise) or any other
ValueError, numpy's included; exits 2 and 4 print one line on stderr.

--threads is accepted for interface stability and has no effect:
computation is vectorized in one thread, and reports do not record it
(their only header line is '# seed=').  voronoi-check warns on stderr,
one line per divisor block, when weight quadratures did not converge;
its report is the same either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bilinear as bl
from . import sweeps
from .arith import reduced_residues
from .characters import congruence_bound_report, fourth_moment, multiplicative_congruence_count
from .errors import ConfigInvalid, DivprogError
from .kloosterman import check_weil, kloosterman_batch_over_a
from .mainterm import error_set, exceptional_set, interval_residues, reduced_main_term
from .poisson import BumpFunction, ProductTestFunction, poisson_tau, poisson_tau_twisted
from .tausieve import (
    divisor_sum_progressions,
    progression_sum_single,
    progression_sums_set,
    total_divisor_sum,
)
from .voronoi import voronoi_error_terms

_DEFAULT_BUMPS = ((2.5, 1.6), (3.0, 2.2))  # the documented Poisson test function


def _json_out(doc) -> None:
    print(sweeps._json_dumps(doc))


def _parse_ints(text: str, flag: str, sep: str | None = ",") -> list[int]:
    try:
        return [int(t) for t in text.split(sep)]
    except ValueError as exc:
        raise ConfigInvalid(f"{flag}: {exc}") from exc


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = _parse_ints(text, flag)
    if len(parts) != 2:
        raise ConfigInvalid(f"{flag}: expected two comma-separated integers, got {text!r}")
    return parts[0], parts[1]


def _parse_float_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigInvalid(f"{flag}: expected center,radius, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigInvalid(f"{flag}: expected two numbers, got {text!r}") from exc


def _residue_set(text: str, q: int) -> list[int]:
    """Either 'B,A' (interval, non-reduced members dropped) or a file of residues.

    A file's residues are taken as listed; the set route refuses a
    non-reduced one.
    """
    path = Path(text)
    if path.is_file():
        residues = _parse_ints(path.read_text(), f"--set {path}", sep=None)
        return sorted({a % q for a in residues})
    try:
        B, A = _parse_pair(text, "--set")
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"--set: neither a file nor 'B,A': {text!r}") from exc
    residues, _ = interval_residues(q, B, A)
    return sorted(set(residues))


def _write_rows(args, rows: list[dict], stem: str) -> int:
    """Write rows to stem.<format> under --out-dir; print the path, return exit 0."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.{args.format}"
    sweeps.emit_report(rows, args.format, path, seed=args.seed)
    print(path)
    return 0


def _cmd_tau(args) -> int:
    if args.a is not None:
        S = progression_sum_single(args.x, args.q, args.a)
        _json_out({"X": args.x, "q": args.q, "a": args.a % args.q, "S": S})
        return 0
    vec = divisor_sum_progressions(args.x, args.q)
    rows = [{"a": a, "S": int(vec.sums[a])} for a in range(args.q)]
    if vec.total() != total_divisor_sum(args.x):
        raise RuntimeError(
            f"internal check failed: S(X; a, q) summed over a is {vec.total()}, "
            f"not sum_(n <= X) tau(n) = {total_divisor_sum(args.x)}"
        )
    return _write_rows(args, rows, f"tau_x{args.x}_q{args.q}")


def _cmd_errors(args) -> int:
    residues = _residue_set(args.set, args.q)
    M = reduced_main_term(args.x, args.q)
    S = progression_sums_set(args.x, args.q, residues).tolist()
    rows = [{"a": a, "S": s, "M": M, "R": s - M} for a, s in zip(residues, S)]
    return _write_rows(args, rows, f"errors_x{args.x}_q{args.q}")


def _cmd_exceptional(args) -> int:
    members = exceptional_set(args.x, args.p, args.kappa)
    rows = [{"a": a} for a in members]
    return _write_rows(args, rows, f"exceptional_x{args.x}_p{args.p}")


def _cmd_kloosterman(args) -> int:
    if args.batch_a:
        lo, hi = _parse_pair(args.batch_a, "--batch-a")
        a_vals = list(range(lo, hi + 1))
        ks = kloosterman_batch_over_a(args.d, args.m, a_vals)
        rows = [{"a": a, "K": float(k)} for a, k in zip(a_vals, ks)]
        return _write_rows(args, rows, f"kloosterman_d{args.d}_m{args.m}")
    if args.n is None:
        raise ConfigInvalid("kloosterman: need --n or --batch-a")
    w = check_weil(args.d, args.m, args.n)
    _json_out({
        "d": args.d, "m": args.m, "n": args.n,
        "value": w.value, "weil_bound": w.bound, "weil_ok": w.ok,
    })
    return 0


def _cmd_bilinear(args) -> int:
    B, A = _parse_pair(args.I, "--I")
    M, N = _parse_pair(args.J, "--J")
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    if args.weights == "pm1":
        alpha = rng.choice([-1.0, 1.0], size=A)
        nu = rng.choice([-1.0, 1.0], size=N)
    else:
        try:
            data = json.loads(Path(args.weights).read_text())
            alpha = np.asarray(data["alpha"], dtype=np.complex128)
            nu = np.asarray(data["nu"], dtype=np.complex128)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"--weights: {type(exc).__name__}: {exc}") from exc
    if args.fast:
        alpha = np.ones(A)
    inst = bl.BilinearInstance(d=args.d, I=(B, A), J=(M, N), alpha=alpha, nu=nu)
    value = bl.bilinear_sum_unweighted_a(inst) if args.fast else bl.bilinear_sum(inst)
    b21 = bl.bilinear_bound_initial_interval(A, N, args.d)
    b22 = bl.bilinear_bound_general(A, N, args.d)
    _json_out({
        "d": args.d, "A": A, "N": N,
        "value_re": value.real, "value_im": value.imag,
        "bound_21": b21, "bound_22": b22,
        "ratios": {"initial_interval": abs(value) / b21, "general": abs(value) / b22},
        "conditions_initial_interval": bool(
            M == 0 and bl.initial_interval_conditions(A, N, args.d)
        ),
    })
    return 0


def _cmd_voronoi_check(args) -> int:
    q = args.q
    if args.a == "all-coprime":
        residues = reduced_residues(q).tolist()
    else:
        residues = sorted({a % q for a in _parse_ints(args.a, "--a")})
    exact = error_set(args.x, q, residues).tolist()
    results = voronoi_error_terms(args.x, q, residues, args.y, eps=args.eps)
    for entry in results[0].truncation_report if results else ():
        if entry.n_flagged:
            print(f"divprog: voronoi-check: d={entry.d}: {entry.n_flagged} of "
                  f"{2 * entry.n_terms} weights did not converge", file=sys.stderr)
    rows = [
        {"a": r.a, "R_exact": R, "R_voronoi": r.approx_R, "residual": R - r.approx_R,
         "budget": r.budget}
        for r, R in zip(results, exact)
    ]
    return _write_rows(args, rows, f"voronoi_x{args.x}_q{q}")


def _cmd_poisson_check(args) -> int:
    (cx, rx) = _parse_float_pair(args.gx, "--gx")
    (cy, ry) = _parse_float_pair(args.gy, "--gy")
    g = ProductTestFunction(BumpFunction(cx, rx), BumpFunction(cy, ry))
    if args.chi is not None:
        chk = poisson_tau_twisted(g, args.q, args.chi)
        _json_out({
            "q": args.q, "chi": args.chi,
            "lhs_re": chk.lhs.real, "lhs_im": chk.lhs.imag,
            "rhs_re": chk.rhs.real, "rhs_im": chk.rhs.imag,
            "eta_re": chk.eta.real, "eta_im": chk.eta.imag,
            "residual": chk.residual,
            "m_cutoffs": list(chk.m_cutoffs), "freq_converged": chk.freq_converged,
        })
        return 0
    if args.z is None:
        raise ConfigInvalid("poisson-check: need --z or --chi")
    chk = poisson_tau(g, args.q, args.z)
    _json_out({
        "q": args.q, "z": args.z,
        "lhs_re": chk.lhs.real, "lhs_im": chk.lhs.imag,
        "rhs_re": chk.rhs.real, "rhs_im": chk.rhs.imag,
        "tau_h0": chk.tau_h0, "residual": chk.residual,
        "m_cutoffs": list(chk.m_cutoffs), "freq_converged": chk.freq_converged,
    })
    return 0


def _cmd_moment4(args) -> int:
    moment = fourth_moment(args.p, args.k, args.h)
    _json_out({
        "p": args.p, "K": args.k, "H": args.h,
        "moment": int(moment) if moment.is_integer() else moment,  # exact: no report rounding
        "h_squared_ratio": moment / max(args.h, 1) ** 2,
    })
    return 0


def _cmd_congcount(args) -> int:
    parts = _parse_ints(args.boxes, "--boxes")
    if len(parts) != 8:
        raise ConfigInvalid("--boxes: expected 8 comma-separated integers a1,b1,...,a4,b4")
    boxes = [(parts[i], parts[i + 1]) for i in range(0, 8, 2)]
    count = multiplicative_congruence_count(args.p, *boxes)
    rep = congruence_bound_report(count, args.p, *boxes)
    _json_out({"p": args.p, "count": count, "bound_ratio": rep.ratio, "envelope": rep.envelope})
    return 0


def _cmd_sweep(args) -> int:
    cfg = sweeps.ExperimentConfig.from_json(args.config)
    if args.seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed_override)
    result = sweeps.run_theorem_sweep(cfg, args.out_dir, fmt=args.format)
    _json_out(result.summary)
    for p in result.paths:
        print(p, file=sys.stderr)
    return 3 if result.breaches else 0


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are attached to the top-level parser (with real
    # defaults) and to every subparser (defaulting to SUPPRESS), so
    # they are accepted on either side of the subcommand name.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--threads", type=int,
                        default=d if suppress else 1,
                        help="accepted for compatibility; no-op")
    parser.add_argument("--seed", type=int, default=d if suppress else 0,
                        help="seed for any randomized inputs")
    parser.add_argument("--out-dir", default=d if suppress else ".",
                        help="directory for report files")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=d if suppress else "csv")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --out must not turn into --out-dir
    ap = argparse.ArgumentParser(
        prog="divprog",
        allow_abbrev=False,
        description="Divisor sums over progressions: exact computations and bound experiments.",
    )
    _add_global_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _add_global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common], allow_abbrev=False)

    p = add("tau", "S(X; a, q) for one or all residues")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int)
    p.set_defaults(fn=_cmd_tau)

    p = add("errors", "S, M, R over a residue set")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--set", required=True, help="interval 'B,A' or a file of residues")
    p.set_defaults(fn=_cmd_errors)

    p = add("exceptional", "residues with R >= X^(1/3 - kappa)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(fn=_cmd_exceptional)

    p = add("kloosterman", "K_d(m, n) scalar or batched over a")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--batch-a", help="inclusive range 'lo,hi' of a values")
    p.set_defaults(fn=_cmd_kloosterman)

    p = add("bilinear", "bilinear Kloosterman sum and bound ratios")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--I", required=True, help="interval 'B,A'")
    p.add_argument("--J", required=True, help="interval 'M,N'")
    p.add_argument("--weights", default="pm1", help="'pm1' or a JSON file {alpha, nu}")
    p.add_argument("--fast", action="store_true", help="alpha=1 collapsed-kernel route")
    p.set_defaults(fn=_cmd_bilinear)

    p = add("voronoi-check", "transform-side R against the exact R")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--a", required=True, help="comma list of residues or 'all-coprime'")
    p.add_argument("--eps", type=float, default=0.05)
    p.set_defaults(fn=_cmd_voronoi_check)

    p = add("poisson-check", "both sides of the summation formula")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", type=int)
    p.add_argument("--chi", type=int, help="character index (twisted variant)")
    p.add_argument("--gx", default=f"{_DEFAULT_BUMPS[0][0]},{_DEFAULT_BUMPS[0][1]}")
    p.add_argument("--gy", default=f"{_DEFAULT_BUMPS[1][0]},{_DEFAULT_BUMPS[1][1]}")
    p.set_defaults(fn=_cmd_poisson_check)

    p = add("moment4", "fourth moment of window character sums")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(fn=_cmd_moment4)

    p = add("congcount", "x1 x2 = x3 x4 (mod p) box count")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--boxes", required=True, help="a1,b1,a2,b2,a3,b3,a4,b4 inclusive")
    p.set_defaults(fn=_cmd_congcount)

    p = add("sweep", "run a configured experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed-override", type=int, dest="seed_override")
    p.set_defaults(fn=_cmd_sweep)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; each parse_args call fills a fresh namespace
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"divprog: config error: {exc}", file=sys.stderr)
        return 2
    except DivprogError as exc:
        print(f"divprog: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"divprog: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
