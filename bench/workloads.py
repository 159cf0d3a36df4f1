"""The four benchmark workloads: inputs, one pass of operations, output checks.

Each workload is built from a seed (its set-up), runs a fixed list of
operations per pass through divprog's public functions or `cli.main`,
and checks the pass's outputs against computations made apart from the
code path under test, or against properties the method must have.

Interface of a workload object:

  operations(pass_dir) -> [(name, callable)]   one pass, timed by the caller
  collect(results, pass_dir) -> outputs        plain data read back untimed
  reference() -> ref                           independent figures, untimed
  checks(outputs, ref) -> [(check, message)]   failures; empty when correct
  perturbations() -> [(check, mutate)]         one corrupted output per check;
                                               `mutate(outputs, ref)` edits in
                                               place and `check` must fail
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from functools import partial
from pathlib import Path

import numpy as np

from divprog import arith, bilinear, characters, cli, mainterm, poisson, tausieve
from divprog import voronoi as voronoi_mod

# the package re-exports the function kloosterman under the module's name
kloosterman = importlib.import_module("divprog.kloosterman")

NPROC = len(os.sched_getaffinity(0))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def run_cli(argv: list[str]) -> int:
    """cli.main with its console output captured; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"divprog {argv[0]} exited {code}: {err.getvalue().strip()}")
    return code


def split_fields(line: str) -> list[str]:
    """Split a report line at commas outside parentheses.

    Sweep reports write set descriptors such as interval(0,40) unquoted.
    """
    fields, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            fields.append(line[start:i])
            start = i + 1
    fields.append(line[start:])
    return fields


def read_csv(path: Path) -> tuple[bytes, list[dict]]:
    """Raw bytes plus rows; the '# seed=' header line is skipped."""
    raw = path.read_bytes()
    lines = [line for line in raw.decode().splitlines() if not line.startswith("#")]
    keys = split_fields(lines[0]) if lines else []
    rows = [split_fields(line) for line in lines[1:]]
    if any(len(row) != len(keys) for row in rows):
        raise ValueError(f"{path}: a row has another number of fields than the header")
    return raw, [dict(zip(keys, row)) for row in rows]


def divisor_count(n: int) -> int:
    """tau(n) by trial division; independent of divprog.arith."""
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def prev_prime(n: int) -> int:
    while not arith.is_prime(n):
        n -= 1
    return n


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


# ---------------------------------------------------------------- ladder

# The paper's rungs q ~ X^(2/3) (largest prime below), then a small and a
# highly composite modulus at the top X.
LADDER_RUNGS = ((10**4, 463), (10**5, 2153), (10**6, 9973), (10**7, 46411),
                (10**7, 463), (10**7, 720720))
# hyperbola does isqrt(X)*q bucket updates; above this it runs for tens of
# seconds (about 40 s at X = 1e7, q = 720720), so neither the check nor the
# route timing runs it there.
HYPERBOLA_LIMIT = 4 * 10**8


def rung_label(X: int, q: int) -> str:
    return f"x1e{round(math.log10(X))}_q{q}"


class Ladder:
    name = "ladder"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 1)
        self.rungs = LADDER_RUNGS
        self.residues = {
            (X, q): sorted({0, 1, q - 1, *rng.integers(0, q, 13).tolist()}) for X, q in self.rungs
        }
        self.tau_points = {X: sorted(set(rng.integers(1, X + 1, 48).tolist()))
                           for X in sorted({X for X, _ in self.rungs})}

    def operations(self, pass_dir: Path):
        return [(f"error_vector X={X} q={q}", partial(mainterm.error_vector, X, q))
                for X, q in self.rungs]

    def collect(self, results, pass_dir: Path):
        out = {}
        for X, q in self.rungs:
            vec = results.get(f"error_vector X={X} q={q}")
            if vec is not None:
                out[(X, q)] = {"S": vec.S.copy(), "M": vec.M.copy(), "R": vec.R.copy()}
        return out

    def reference(self):
        ref = {"total": {}, "single": {}, "main": {}, "naive": {}, "hyperbola": {}, "tau": {}}
        for X, points in self.tau_points.items():
            ref["total"][X] = tausieve.total_divisor_sum(X)
            table = tausieve.sieve_tau(1, X)
            ref["tau"][X] = [(n, table[n], arith.tau_of(n)) for n in points]
        for X, q in self.rungs:
            ref["single"][(X, q)] = {a: tausieve.progression_sum_single(X, q, a)
                                     for a in self.residues[(X, q)]}
            ref["main"][(X, q)] = {
                a: mainterm.main_term_coprime(X, q) if math.gcd(a, q) == 1
                else mainterm.main_term(X, q, a)
                for a in self.residues[(X, q)]
            }
            ref["naive"][(X, q)] = tausieve.divisor_sum_progressions(X, q, method="naive").sums
            if math.isqrt(X) * q <= HYPERBOLA_LIMIT:
                ref["hyperbola"][(X, q)] = tausieve.divisor_sum_progressions(
                    X, q, method="hyperbola").sums
        return ref

    def checks(self, outputs, ref):
        fails = []
        for (X, q), o in outputs.items():
            S, M, R = o["S"], o["M"], o["R"]
            tag = f"X={X} q={q}"
            if int(S.sum()) != ref["total"][X]:
                fails.append(("row_sum", f"{tag}: sum S = {int(S.sum())}, expected {ref['total'][X]}"))
            for a, s in ref["single"][(X, q)].items():
                if int(S[a]) != s:
                    fails.append(("single_residue", f"{tag} a={a}: S = {int(S[a])}, single route {s}"))
            naive = ref["naive"][(X, q)]
            if not np.array_equal(S, naive):
                fails.append(("routes_agree", f"{tag}: S differs from the naive route"))
            hyper = ref["hyperbola"].get((X, q))
            if hyper is not None and not np.array_equal(naive, hyper):
                fails.append(("routes_agree", f"{tag}: naive and hyperbola differ"))
            for a, m in ref["main"][(X, q)].items():
                if not close(float(M[a]), m, 1e-9, 1e-9):
                    fails.append(("main_term", f"{tag} a={a}: M = {M[a]!r}, expected {m!r}"))
            if not np.array_equal(R, S - M):
                fails.append(("error_is_S_minus_M", f"{tag}: R != S - M"))
        for X, rows in ref["tau"].items():
            for n, t_sieve, t_arith in rows:
                if t_sieve != t_arith:
                    fails.append(("tau_values", f"tau({n}): sieve {t_sieve}, tau_of {t_arith}"))
        return fails

    def perturbations(self):
        top = (10**7, 46411)

        def bump_s(o, ref):
            o[top]["S"][5] += 1

        def bump_m(o, ref):
            o[top]["M"][1] *= 1 + 1e-6

        def bump_r(o, ref):
            o[top]["R"][7] += 1e-3

        def bump_tau(o, ref):
            n, t, t2 = ref["tau"][10**7][0]
            ref["tau"][10**7][0] = (n, t + 1, t2)

        def bump_hyperbola(o, ref):
            ref["hyperbola"][top][3] += 1

        def bump_single(o, ref):
            o[top]["S"][1] += 1
            o[top]["S"][2] -= 1  # keeps the row sum

        return [("row_sum", bump_s), ("main_term", bump_m), ("error_is_S_minus_M", bump_r),
                ("tau_values", bump_tau), ("routes_agree", bump_hyperbola),
                ("single_residue", bump_single)]


# --------------------------------------------------------------- voronoi

# A composite modulus with many divisor blocks, a prime at X = 1e6, and
# the demo's instance.
VORONOI_INSTANCES = ((10**5, 420), (10**6, 1009), (2000, 20))
ACCEPTANCE_C = 50.0  # acceptance criterion 05: |R_exact - R_voronoi| <= 50 budget


class Voronoi:
    name = "voronoi"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 2)
        self.seed = seed
        self.instances = [(X, q, math.sqrt(q * X)) for X, q in VORONOI_INSTANCES]
        self.coprime = {q: [a for a in range(1, q) if math.gcd(a, q) == 1]
                        for _, q in VORONOI_INSTANCES}
        self.samples = {q: sorted(rng.choice(self.coprime[q], size=6, replace=False).tolist())
                        for _, q in VORONOI_INSTANCES}
        self.unconverged = 0

    def _voronoi_check(self, argv):
        # voronoi-check drops n_flagged from its CSV, so count the weights
        # that report no convergence on the way out of weight_u.
        inner = voronoi_mod.weight_u

        def counted(*args, **kwargs):
            w = inner(*args, **kwargs)
            self.unconverged += not w.converged
            return w

        voronoi_mod.weight_u = counted
        try:
            return run_cli(argv)
        finally:
            voronoi_mod.weight_u = inner

    def operations(self, pass_dir: Path):
        self.unconverged = 0
        return [
            (f"voronoi-check X={X} q={q}", partial(self._voronoi_check, [
                "voronoi-check", "--x", str(X), "--q", str(q), "--y", repr(Y),
                "--a", "all-coprime", "--out-dir", str(pass_dir),
                "--seed", str(self.seed), "--threads", str(NPROC)]))
            for X, q, Y in self.instances
        ]

    def collect(self, results, pass_dir: Path):
        out = {"unconverged": self.unconverged, "reports": {}}
        for X, q, Y in self.instances:
            if f"voronoi-check X={X} q={q}" in results:
                raw, rows = read_csv(pass_dir / f"voronoi_x{X}_q{q}.csv")
                out["reports"][(X, q)] = {"raw": raw, "rows": rows}
        return out

    def reference(self):
        ref = {"budget": {}, "R": {}}
        for X, q, Y in self.instances:
            ref["budget"][(X, q)] = (Y / q + 1.0) * (Y * q) ** 0.1
            ref["R"][(X, q)] = {}
            for a in self.samples[q]:
                M = mainterm.main_term(X, q, a)
                ref["R"][(X, q)][a] = (tausieve.progression_sum_single(X, q, a) - M, M)
        return ref

    def checks(self, outputs, ref):
        fails = []
        if outputs["unconverged"]:
            fails.append(("weights_converged", f"{outputs['unconverged']} weights unconverged"))
        for (X, q), rep in outputs["reports"].items():
            tag = f"X={X} q={q}"
            rows = {int(r["a"]): r for r in rep["rows"]}
            if sorted(rows) != self.coprime[q]:
                fails.append(("residue_set", f"{tag}: rows do not cover the reduced residues"))
            budget = ref["budget"][(X, q)]
            for a, r in rows.items():
                exact, dual = float(r["R_exact"]), float(r["R_voronoi"])
                if not close(float(r["budget"]), budget, 1e-9):
                    fails.append(("budget", f"{tag} a={a}: budget {r['budget']}, expected {budget}"))
                if not abs(exact - dual) <= ACCEPTANCE_C * budget:
                    fails.append(("reconstruction", f"{tag} a={a}: |{exact} - {dual}| > "
                                                    f"{ACCEPTANCE_C} * {budget:.4g}"))
            for a, (R, M) in ref["R"][(X, q)].items():
                got = float(rows[a]["R_exact"]) if a in rows else float("nan")
                if not abs(got - R) <= 1e-6 + 1e-10 * abs(M):
                    fails.append(("exact_error", f"{tag} a={a}: R_exact {got!r}, recount {R!r}"))
        return fails

    def perturbations(self):
        key = (10**6, 1009)

        def unconverged(o, ref):
            o["unconverged"] += 1

        def drop_row(o, ref):
            o["reports"][key]["rows"].pop()

        def far_dual(o, ref):
            row = o["reports"][key]["rows"][3]
            row["R_voronoi"] = repr(float(row["R_exact"]) + 60 * ref["budget"][key])

        def exact_off(o, ref):
            a = next(iter(ref["R"][key]))
            row = next(r for r in o["reports"][key]["rows"] if int(r["a"]) == a)
            row["R_exact"] = repr(float(row["R_exact"]) + 1.0)

        def budget_off(o, ref):
            row = o["reports"][key]["rows"][0]
            row["budget"] = repr(float(row["budget"]) * 1.01)

        return [("weights_converged", unconverged), ("residue_set", drop_row),
                ("reconstruction", far_dual), ("exact_error", exact_off), ("budget", budget_off)]


# ---------------------------------------------------------------- sweeps

# Paper scale: q near X^(2/3) at X = 1e6 and 1e7 (largest primes below).
PAPER_GRID = ((10**6, 9973), (10**7, 46411))
PAPER_KAPPAS = [0.05, 0.1, 0.2]


def paper_configs(seed: int) -> dict[str, dict]:
    """The generated paper-scale sweep configs; offsets come from the seed."""
    rng = _rng(seed, 3)
    configs = {}
    for X, p in PAPER_GRID:
        exp = f"1e{round(math.log10(X))}"
        configs[f"paper_exceptional_x{exp}"] = {
            "experiment": "exceptional", "x_grid": [X], "modulus_grid": [p],
            "kappas": PAPER_KAPPAS, "seed": seed,
            "thresholds": {"ratio_exceptional": 2.0},
        }
        configs[f"paper_interval_abs_x{exp}"] = {
            "experiment": "interval_abs", "x_grid": [X], "modulus_grid": [p],
            "sets": {"kind": "interval", "lengths": [40, "sqrt"],
                     "offsets": [0, int(rng.integers(1, p - 2 * math.isqrt(p)))]},
            "seed": seed, "eps": 0.05,
            "thresholds": {"ratio_interval_abs": 1.0},
        }
    return configs


def write_paper_configs(seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in paper_configs(seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths.append(path)
    return paths


def _length(spec, q: int) -> int:
    return max(1, math.isqrt(q)) if spec == "sqrt" else int(spec)


class Sweeps:
    name = "sweeps"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        repo_configs = sorted(Path("configs").glob("*.json"))
        if not repo_configs:
            raise FileNotFoundError("no configs/*.json in the working directory")
        paths = repo_configs + write_paper_configs(seed, workdir / "configs")
        self.configs = {p.stem: (p, json.loads(p.read_text())) for p in paths}

    def operations(self, pass_dir: Path):
        return [
            (f"sweep {name}", partial(run_cli, [
                "sweep", "--config", str(path), "--out-dir", str(pass_dir / name),
                "--seed-override", str(self.seed), "--seed", str(self.seed),
                "--threads", str(NPROC)]))
            for name, (path, _) in self.configs.items()
        ]

    def collect(self, results, pass_dir: Path):
        out = {}
        for name, (_, cfg) in self.configs.items():
            if f"sweep {name}" not in results:
                continue
            d = pass_dir / name
            raw, rows = read_csv(d / f"sweep_{cfg['experiment']}.csv")
            summary_raw = (d / f"sweep_{cfg['experiment']}_summary.json").read_bytes()
            out[name] = {"raw": raw, "rows": rows, "summary_raw": summary_raw,
                         "summary": json.loads(summary_raw)}
        return out

    def _grid_size(self, cfg) -> int:
        n = len(cfg["x_grid"]) * len(cfg["modulus_grid"])
        if cfg["experiment"] == "exceptional":
            return n * len(cfg["kappas"])
        sets = cfg.get("sets", {})
        return n * len(sets.get("lengths", [])) * len(sets.get("offsets", [0]))

    def _row_residues(self, cfg) -> list[tuple[int, int, list[int]]]:
        """(X, q, residue set) of every row, in row order, from the config's documented meaning."""
        sets = cfg.get("sets", {})
        rng = np.random.default_rng(np.random.PCG64(self.seed))  # --seed-override
        out = []
        for X in sorted(cfg["x_grid"]):
            for q in sorted(cfg["modulus_grid"]):
                units = [a for a in range(1, q) if math.gcd(a, q) == 1]
                for spec in sets.get("lengths", []):
                    for B in sorted(sets.get("offsets", [0])):
                        A = _length(spec, q)
                        if sets.get("kind", "interval") == "interval":
                            residues = sorted({n % q for n in range(B + 1, B + A + 1)
                                               if math.gcd(n % q, q) == 1})
                        else:
                            residues = sorted(int(a) for a in rng.choice(
                                np.asarray(units), size=min(A, len(units)), replace=False))
                        out.append((X, q, residues))
        return out

    def reference(self):
        rng = _rng(self.seed, 5)
        ref = {"grid": {}, "recount": {}, "exceptional": {}}
        buckets: dict[tuple[int, int], np.ndarray] = {}
        for name, (_, cfg) in self.configs.items():
            ref["grid"][name] = self._grid_size(cfg)
            if cfg["experiment"] == "exceptional":
                for X in sorted(cfg["x_grid"]):
                    tau = tausieve.sieve_tau(1, X).values.astype(np.float64)
                    n = np.arange(1, X + 1, dtype=np.int64)
                    for p in sorted(cfg["modulus_grid"]):
                        S = np.bincount(n % p, weights=tau, minlength=p).astype(np.int64)
                        buckets[(X, p)] = S[1:] - mainterm.main_term_coprime(X, p)
                    del tau, n
                rows = {}
                for X in sorted(cfg["x_grid"]):
                    for p in sorted(cfg["modulus_grid"]):
                        R = buckets[(X, p)]
                        for kappa in sorted(cfg["kappas"]):
                            threshold = X ** (1 / 3 - kappa)
                            member = R >= threshold
                            inside = np.flatnonzero(member) + 1
                            outside = np.flatnonzero(~member) + 1
                            sample = [int(a) for pool in (inside, outside) if len(pool)
                                      for a in rng.choice(pool, size=min(4, len(pool)), replace=False)]
                            rows[(X, p, kappa)] = {
                                "count": int(member.sum()),
                                "sample": {a: (bool(member[a - 1]),
                                               mainterm.error_term(X, p, a).R >= threshold)
                                           for a in sample},
                            }
                ref["exceptional"][name] = rows
            else:
                rows = self._row_residues(cfg)
                recount = {}
                for i in sorted(rng.choice(len(rows), size=min(2, len(rows)), replace=False)):
                    X, q, residues = rows[i]
                    Rs = [mainterm.error_term(X, q, a).R for a in residues]
                    recount[int(i)] = (math.fsum(abs(r) for r in Rs), math.fsum(Rs), len(Rs))
                ref["recount"][name] = recount
        return ref

    def checks(self, outputs, ref):
        fails = []
        for name, o in outputs.items():
            _, cfg = self.configs[name]
            if o["summary"].get("breaches"):
                fails.append(("no_breach", f"{name}: {o['summary']['breaches']}"))
            if len(o["rows"]) != ref["grid"][name] or o["summary"].get("rows") != ref["grid"][name]:
                fails.append(("grid_rows", f"{name}: {len(o['rows'])} rows, grid has {ref['grid'][name]}"))
                continue
            if cfg["experiment"] == "exceptional":
                for row in o["rows"]:
                    key = (int(row["X"]), int(row["p"]), float(row["kappa"]))
                    expect = ref["exceptional"][name][key]
                    if int(row["count"]) != expect["count"]:
                        fails.append(("exceptional_count", f"{name} {key}: count {row['count']}, "
                                                           f"recount {expect['count']}"))
                    for a, (bucket, single) in expect["sample"].items():
                        if bucket != single:
                            fails.append(("exceptional_member", f"{name} {key} a={a}: "
                                                                f"bucket {bucket}, error_term {single}"))
                continue
            for i, (D, E, A) in ref["recount"][name].items():
                row = o["rows"][i]
                if int(row["A"]) != A or not close(float(row["D"]), D, 1e-9, 1e-6) \
                        or not abs(float(row["E"]) - E) <= 1e-9 * D + 1e-6:
                    fails.append(("row_recount", f"{name} row {i}: A={row['A']} D={row['D']} "
                                                 f"E={row['E']}, recount A={A} D={D!r} E={E!r}"))
        return fails

    def perturbations(self):
        def breach(o, ref):
            o["paper_interval_abs_x1e7"]["summary"]["breaches"] = ["max_ratio_interval_abs=9"]

        def drop_row(o, ref):
            o["interval_signed"]["rows"].pop()

        def count_off(o, ref):
            row = o["paper_exceptional_x1e7"]["rows"][0]
            row["count"] = str(int(row["count"]) + 1)

        def member_off(o, ref):
            rows = ref["exceptional"]["paper_exceptional_x1e7"]
            sample = next(iter(rows.values()))["sample"]
            a = next(iter(sample))
            sample[a] = (not sample[a][0], sample[a][1])

        def d_off(o, ref):
            name = "paper_interval_abs_x1e7"
            i = next(iter(ref["recount"][name]))
            row = o[name]["rows"][i]
            row["D"] = repr(float(row["D"]) * (1 + 1e-6))

        return [("no_breach", breach), ("grid_rows", drop_row), ("exceptional_count", count_off),
                ("exceptional_member", member_off), ("row_recount", d_off)]


# --------------------------------------------------------------- expsums

KLOOSTERMAN_TABLE_D = 2039  # full table, both batch routes over every a
KLOOSTERMAN_BATCH_D = 100003  # both batch routes over 200 values of a
MOMENT_PAIR_P = 999983  # window of 1501: 1501^2 pairs, under the 4e6 pair cap
MOMENT_HIST_P = 100003  # window of 3001: 3001^2 pairs, above the cap
POISSON_Q = (7, 11)
POISSON_TWIST_P = (7, 13)


class Expsums:
    name = "expsums"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 6)
        # 72 distinct moduli, more than the 64-entry evaluator cache: two
        # primes and one composite near 1e6, the rest in [1000, 20000].  The
        # large ones sit at fixed places in the order, so the set of
        # evaluators alive at any point, and with it peak memory, does not
        # depend on the seed.
        moduli = rng.choice(np.arange(1000, 20001), size=69, replace=False).tolist()
        big = [prev_prime(10**6 - int(rng.integers(0, 2000))),
               prev_prime(10**6 - int(rng.integers(2000, 4000))),
               2 * prev_prime(500000 - int(rng.integers(0, 1000)))]
        for place, d in zip((0, 24, 48), big):
            moduli.insert(place, d)
        self.scalar = [(int(d), [(int(m), int(n)) for m, n in rng.integers(0, d, (3, 2))])
                       for d in moduli]
        self.batch = {}
        for d, a_values in ((KLOOSTERMAN_TABLE_D, list(range(KLOOSTERMAN_TABLE_D))),
                            (KLOOSTERMAN_BATCH_D, sorted(rng.choice(KLOOSTERMAN_BATCH_D, 200,
                                                                    replace=False).tolist()))):
            m = int(rng.integers(1, d))
            sample = sorted(rng.choice(a_values, 12, replace=False).tolist())
            self.batch[d] = (m, a_values, sample)
        self.bilinear = []
        for d, length in ((prev_prime(30000 + int(rng.integers(0, 1000))), 200),
                          (prev_prime(100000 + int(rng.integers(0, 1000))), 150)):
            B, M = (int(v) for v in rng.integers(0, d - length - 1, 2))
            nu = rng.choice([-1.0, 1.0], length)
            self.bilinear.append(bilinear.BilinearInstance(
                d=d, I=(B, length), J=(M, length), alpha=np.ones(length), nu=nu))
        self.windows = [(MOMENT_PAIR_P, int(rng.integers(1, MOMENT_PAIR_P - 1501)), 1500),
                        (MOMENT_HIST_P, int(rng.integers(1, MOMENT_HIST_P - 3001)), 3000)]
        self.small_p = int(rng.choice([101, 103, 107, 109, 113]))
        self.small_boxes = [(lo, lo + 15) for lo in rng.integers(0, 2 * self.small_p, 4).tolist()]
        self.bump = poisson.ProductTestFunction(poisson.BumpFunction(2.5, 1.6),
                                                poisson.BumpFunction(3.0, 2.2))
        self.plain = [(q, int(rng.choice([z for z in range(1, q) if math.gcd(z, q) == 1])))
                      for q in POISSON_Q]
        self.twisted = [(p, int(rng.integers(1, p - 1))) for p in POISSON_TWIST_P]

    def operations(self, pass_dir: Path):
        ops = [(f"weil d={d}", partial(lambda d, pairs: [kloosterman.check_weil(d, m, n)
                                                         for m, n in pairs], d, pairs))
               for d, pairs in self.scalar]
        for d, (m, a_values, sample) in self.batch.items():
            ops.append((f"scalar d={d}", partial(
                lambda d, m, sample: [kloosterman.kloosterman(d, m, a) for a in sample], d, m, sample)))
            for route in ("direct", "fft"):
                ops.append((f"batch {route} d={d}", partial(
                    kloosterman.kloosterman_batch_over_a, d, m, a_values, method=route)))
        ops.append((f"table d={KLOOSTERMAN_TABLE_D}",
                    partial(kloosterman.kloosterman_table, KLOOSTERMAN_TABLE_D)))
        for inst in self.bilinear:
            ops.append((f"bilinear brute d={inst.d}", partial(bilinear.bilinear_sum, inst)))
            ops.append((f"bilinear fast d={inst.d}", partial(bilinear.bilinear_sum_unweighted_a, inst)))
        for p, K, H in self.windows:
            box = (K, K + H)
            ops.append((f"fourth_moment p={p}", partial(characters.fourth_moment, p, K, H)))
            ops.append((f"congruence p={p}", partial(
                characters.multiplicative_congruence_count, p, box, box, box, box)))
        ops.append((f"congruence small p={self.small_p}", partial(
            characters.multiplicative_congruence_count, self.small_p, *self.small_boxes)))
        for q, z in self.plain:
            ops.append((f"poisson q={q}", partial(poisson.poisson_tau, self.bump, q, z)))
        for p, j in self.twisted:
            ops.append((f"poisson twisted p={p}", partial(poisson.poisson_tau_twisted, self.bump, p, j)))
        return ops

    def collect(self, results, pass_dir: Path):
        out = {"weil": {}, "scalar": {}, "batch": {}, "table": None, "bilinear": {},
               "moment": {}, "count": {}, "small_count": None, "poisson": {}}
        for d, pairs in self.scalar:
            checks = results.get(f"weil d={d}")
            if checks is not None:
                out["weil"][d] = [(m, n, w.value, w.bound, w.ok) for (m, n), w in zip(pairs, checks)]
        for d in self.batch:
            if f"scalar d={d}" in results:
                out["scalar"][d] = list(results[f"scalar d={d}"])
            for route in ("direct", "fft"):
                if f"batch {route} d={d}" in results:
                    out["batch"][(d, route)] = results[f"batch {route} d={d}"].copy()
        out["table"] = results.get(f"table d={KLOOSTERMAN_TABLE_D}")
        for inst in self.bilinear:
            out["bilinear"][inst.d] = (results.get(f"bilinear brute d={inst.d}"),
                                       results.get(f"bilinear fast d={inst.d}"))
        for p, _, _ in self.windows:
            out["moment"][p] = results.get(f"fourth_moment p={p}")
            out["count"][p] = results.get(f"congruence p={p}")
        out["small_count"] = results.get(f"congruence small p={self.small_p}")
        for q, _ in self.plain:
            chk = results.get(f"poisson q={q}")
            if chk is not None:
                out["poisson"][("plain", q)] = {"lhs": chk.lhs, "rhs": chk.rhs, "eta": 1.0,
                                                "converged": chk.freq_converged}
        for p, _ in self.twisted:
            chk = results.get(f"poisson twisted p={p}")
            if chk is not None:
                out["poisson"][("twisted", p)] = {"lhs": chk.lhs, "rhs": chk.rhs, "eta": chk.eta,
                                                  "converged": chk.freq_converged}
        return out

    def reference(self):
        ref = {"tau": {d: divisor_count(d) for d, _ in self.scalar},
               "swapped": {d: [kloosterman.kloosterman(d, n, m) for m, n in pairs]
                           for d, pairs in self.scalar},
               "units": {}, "small_brute": characters.multiplicative_congruence_count_brute(
                   self.small_p, *self.small_boxes)}
        for p, K, H in self.windows:
            ref["units"][p] = sum(1 for x in range(K, K + H + 1) if x % p)
        return ref

    def checks(self, outputs, ref):
        fails = []
        for d, rows in outputs["weil"].items():
            for (m, n, value, bound, ok), swapped in zip(rows, ref["swapped"][d]):
                weil = ref["tau"][d] * math.sqrt(math.gcd(m, n, d)) * math.sqrt(d)
                if not (ok and abs(value) <= weil + 1e-6):
                    fails.append(("weil_bound", f"K_{d}({m},{n}) = {value} against {weil}"))
                if abs(value - swapped) > 1e-9 * d:
                    fails.append(("symmetry", f"K_{d}({m},{n}) = {value}, K_{d}({n},{m}) = {swapped}"))
        for d, (m, a_values, sample) in self.batch.items():
            tol = 1e-9 * d
            index = {a: i for i, a in enumerate(a_values)}
            routes = [(route, outputs["batch"].get((d, route))) for route in ("direct", "fft")]
            if d == KLOOSTERMAN_TABLE_D and outputs["table"] is not None:
                routes.append(("table", outputs["table"][m][np.asarray(a_values)]))
            for a, value in zip(sample, outputs["scalar"].get(d, [])):
                for route, vals in routes:
                    if vals is not None and abs(vals[index[a]] - value) > tol:
                        fails.append(("batch_routes", f"K_{d}({m},{a}): scalar {value}, "
                                                      f"{route} {vals[index[a]]}"))
            direct, fft = routes[0][1], routes[1][1]
            if direct is not None and fft is not None and np.max(np.abs(direct - fft)) > tol:
                fails.append(("batch_routes", f"d={d}: direct and fft differ by "
                                              f"{np.max(np.abs(direct - fft))}"))
            if len(routes) == 3 and np.max(np.abs(routes[2][1] - direct)) > tol:
                fails.append(("batch_routes", f"d={d}: table row {m} differs from the batch"))
        for d, (brute, fast) in outputs["bilinear"].items():
            if brute is not None and fast is not None and abs(fast - brute) > 1e-6 * max(1.0, abs(brute)):
                fails.append(("bilinear", f"d={d}: fast {fast} against brute {brute}"))
        for p, K, H in self.windows:
            moment, count = outputs["moment"][p], outputs["count"][p]
            if moment is None or count is None:
                continue
            lhs = moment + ref["units"][p] ** 4
            rhs = (p - 1) * count
            if abs(lhs - rhs) > 1e-12 * rhs:
                fails.append(("moment_identity", f"p={p}: fourth moment + N^4 = {lhs!r}, "
                                                 f"(p-1) count = {rhs}"))
        if outputs["small_count"] is not None and outputs["small_count"] != ref["small_brute"]:
            fails.append(("small_count", f"count {outputs['small_count']}, brute {ref['small_brute']}"))
        for key, chk in outputs["poisson"].items():
            if abs(chk["lhs"] - chk["rhs"]) > 1e-6 * max(1.0, abs(chk["lhs"])):
                fails.append(("poisson_sides", f"{key}: lhs {chk['lhs']}, rhs {chk['rhs']}"))
            if not chk["converged"]:
                fails.append(("poisson_converged", f"{key}: frequency scan did not converge"))
            if abs(abs(chk["eta"]) - 1.0) > 1e-10:
                fails.append(("poisson_eta", f"{key}: |eta| = {abs(chk['eta'])}"))
        return fails

    def perturbations(self):
        def weil(o, ref):
            d, rows = next(iter(o["weil"].items()))
            m, n, value, bound, ok = rows[0]
            rows[0] = (m, n, 1.5 * bound, bound, ok)

        def flip_k(o, ref):
            d, rows = max(o["weil"].items())
            i = max(range(len(rows)), key=lambda i: abs(rows[i][2]))
            m, n, value, bound, ok = rows[i]
            rows[i] = (m, n, -value, bound, ok)

        def flip_fft(o, ref):
            d = KLOOSTERMAN_BATCH_D
            m, a_values, sample = self.batch[d]
            vals = o["batch"][(d, "fft")]
            i = max((a_values.index(a) for a in sample), key=lambda i: abs(vals[i]))
            vals[i] = -vals[i]

        def shift_table(o, ref):
            m, a_values, sample = self.batch[KLOOSTERMAN_TABLE_D]
            o["table"] = o["table"].copy()
            o["table"][m][sample[0]] += 1.0

        def bilinear_off(o, ref):
            d, (brute, fast) = next(iter(o["bilinear"].items()))
            o["bilinear"][d] = (brute, fast + 1.0)

        def count_off(o, ref):
            o["count"][MOMENT_HIST_P] += 1

        def small_off(o, ref):
            o["small_count"] += 1

        def rhs_off(o, ref):
            o["poisson"][("plain", POISSON_Q[0])]["rhs"] += 1e-3

        def unconverged(o, ref):
            o["poisson"][("twisted", POISSON_TWIST_P[0])]["converged"] = False

        def eta_off(o, ref):
            o["poisson"][("twisted", POISSON_TWIST_P[1])]["eta"] *= 1.001

        return [("weil_bound", weil), ("symmetry", flip_k), ("batch_routes", flip_fft),
                ("batch_routes", shift_table), ("bilinear", bilinear_off),
                ("moment_identity", count_off), ("small_count", small_off),
                ("poisson_sides", rhs_off), ("poisson_converged", unconverged),
                ("poisson_eta", eta_off)]


WORKLOADS = {cls.name: cls for cls in (Ladder, Voronoi, Sweeps, Expsums)}
