"""Command-line front end.

Subcommands: cusp, local, solve, basis, env, compare-he.
Exit codes: 0 success, 2 input/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import time
import warnings

import numpy as np

from . import basis as basis_mod
from . import environment as env_mod
from . import radial
from .cusp import (CoalescencePair, LocalWavefunction, cusp_a, cusp_b,
                   cusp_limit_first, cusp_series, local_u, validity_radius)
from .errors import (CuspbcError, DomainError, InputError, NumericalError,
                     Overflow)
from .gridfn import _rows, csv_texts
from .hfr import HFROrbital


def parse_pair(tokens) -> CoalescencePair:
    """Pair presets: `e-e singlet|triplet` or `e-nucleus Z=... [A=...]`."""
    if not tokens:
        raise InputError("missing pair spec (e-e ... or e-nucleus ...)")
    head, rest = tokens[0], tokens[1:]
    if head == "e-e":
        if len(rest) != 1 or rest[0] not in ("singlet", "triplet"):
            raise InputError(
                "pair spec: e-e needs exactly one of {singlet, triplet}"
            )
        return CoalescencePair.electron_electron(rest[0])
    if head == "e-nucleus":
        kv = {}
        for i, tok in enumerate(rest):
            key, sep, val = tok.partition("=")
            if not sep or key not in ("Z", "A"):
                raise InputError(
                    f"pair spec token {i + 2}: expected Z=... or A=..., got {tok!r}"
                )
            try:
                kv[key] = float(val)
            except ValueError as exc:
                raise InputError(f"pair spec token {i + 2}: {exc}") from exc
        if "Z" not in kv:
            raise InputError("pair spec: e-nucleus requires Z=...")
        return CoalescencePair.electron_nucleus(kv["Z"], kv.get("A"))
    raise InputError(f"unknown pair kind {head!r} (use e-e or e-nucleus)")


def _float_list(text, flag):
    """Comma-separated floats of a CLI flag; an empty string gives []."""
    try:
        return [float(t) for t in text.split(",")] if text else []
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _radii(r_max, n):
    """The n radii of `local` and `compare-he`, evenly spaced on [0, r_max]."""
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    if not math.isfinite(r_max):
        raise InputError(f"--r-max must be finite, got {r_max}")
    return np.linspace(0.0, r_max, n)


def _write_text(path, text):
    """Write `text` to `path` as UTF-8, overwriting an existing file in place.

    The file keeps its inode, permissions and hard links, and a symlink is
    written through. It is opened without O_TRUNC and cut to the new length
    after the write, because on ext4 (default `auto_da_alloc`) closing a
    file that was truncated to zero and rewritten waits for its writeback.
    Only regular files are cut: `/dev/null` or a FIFO cannot be. Like a
    truncating write, this is not atomic.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _emit(args, columns, data, meta):
    """Write the table of the float arrays data, one per column, as CSV
    or as one line of JSON, the rows laid out by gridfn's Schubfach
    kernel: byte for byte what a repr per CSV cell, or json.dumps (its C
    encoder, default separators), writes."""
    data = [np.asarray(c, dtype=float) for c in data]
    if args.format == "json":
        # head ends in "[]}": the rows go between the brackets
        head = json.dumps({"meta": meta, "columns": columns, "rows": []})
        rows = b"".join(_rows(data, "[", ", ", "], ", ("NaN", "Infinity")))
        text = head[:-2] + rows[:-2].decode() + "]}\n"
    else:
        lines = [f"# {k}={v!r}" for k, v in meta.items()]
        lines.append(",".join(columns))
        text = ("\n".join(lines) + "\n"
                + b"".join(_rows(data, "", ",", "\n")).decode())
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def cmd_cusp(args) -> int:
    if args.order < 0:
        raise InputError(f"--order must be non-negative, got {args.order}")
    pair = parse_pair(args.pair)
    a = cusp_a(pair, args.ell)
    b = cusp_b(pair, args.ell, args.w0, args.e)
    series = cusp_series(pair, args.ell, args.w0, args.e, max(args.order, 2))
    bc = radial.robin_inner(args.ell, a)
    print(f"a = {a!r}")
    print(f"b = {b!r}")
    for k, ck in enumerate(series.coeffs[: args.order + 1]):
        print(f"a_{k} = {ck!r}")
    print(f"validity_radius = {validity_radius(pair, args.w0)!r}")
    print(f"robin_inner: 1.0 * u' + {bc.c_psi!r} * u = 0")
    return 0


def cmd_local(args) -> int:
    pair = parse_pair(args.pair)
    lw = LocalWavefunction.from_pair(pair, args.ell, args.m,
                                     args.w0, args.e, args.u0)
    r = _radii(args.r_max, args.n)
    u = local_u(lw, r)
    with np.errstate(over="ignore", invalid="ignore"):
        big_r = r ** args.ell * u
        density = r ** 2 * big_r ** 2
    if not (np.isfinite(big_r).all() and np.isfinite(density).all()):
        raise Overflow("R or the density leaves the double range")
    a = cusp_a(pair, args.ell)
    meta = {
        "ell": args.ell, "m": args.m, "w0": args.w0, "e": args.e,
        "u0": args.u0, "alpha": lw.alpha, "beta": lw.beta,
        "r_star": validity_radius(pair, args.w0),
        "r0": (args.ell + 1) / abs(a) if a != 0.0 else math.inf,
    }
    _emit(args, ["r", "u", "R", "density"], [r, u, big_r, density], meta)
    return 0


def _load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"problem spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError(f"problem spec {path}: not a JSON object")
    try:
        gspec = spec.get("grid", {})
        grid = radial.log_grid(gspec.get("r_min", 1e-5),
                               gspec.get("r_max", 40.0),
                               gspec.get("n", 2000))
        extra = None
        if "extra_potential" in spec:
            with warnings.catch_warnings():
                # numpy warns of an empty table; the check below rejects it
                warnings.simplefilter("ignore", UserWarning)
                tab = np.loadtxt(spec["extra_potential"], ndmin=2)
            if (tab.shape[0] < 2 or tab.shape[1] < 2
                    or not np.all(np.diff(tab[:, 0]) > 0.0)):
                raise ValueError("extra_potential needs two columns (r, V) "
                                 "and two rows or more, with r increasing")
            # np.interp would hold the end values beyond the table
            if not (tab[0, 0] <= grid[0] and grid[-1] <= tab[-1, 0]):
                raise ValueError(f"extra_potential's r runs over "
                                 f"[{tab[0, 0]:g}, {tab[-1, 0]:g}], short of "
                                 f"the grid's [{grid[0]:g}, {grid[-1]:g}]")
            extra = np.interp(grid, tab[:, 0], tab[:, 1])
        problem = radial.RadialProblem(
            ell=spec["ell"], mass=spec.get("mass", 1.0),
            pair_product=spec["pair_product"], w0=spec.get("w0", 0.0),
            grid=grid, extra_potential=extra,
        )
        asym = spec.get("asymptotics", {})
        m_prime = asym.get("total_reduced_mass", problem.mass)
        q_total = asym.get("total_charge", 0.0)
        radial.SystemAsymptotics(m_prime, q_total, -1.0)  # checks M' and Q
        bracket = spec.get("bracket")
        if bracket is not None:
            bracket = np.asarray(bracket)
            if (bracket.shape != (2,) or bracket.dtype.kind not in "iuf"
                    or not np.all(np.isfinite(bracket))):
                raise ValueError("bracket must be two finite numbers")
            bracket = tuple(bracket.tolist())
    except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
        raise InputError(f"problem spec {path}: {exc}") from exc
    return problem, m_prime, q_total, bracket


def _report_state(problem, a, energy, fn, m_prime, q_total):
    g = problem.grid
    scale = max(1.0, problem.mass * abs(problem.pair_product))
    n_fit = max(12, int(np.searchsorted(g, min(0.05 / scale, g[-1] / 100.0))))
    cusp_est = cusp_limit_first(fn, problem.ell, n_points=n_fit)
    sysa = radial.SystemAsymptotics(m_prime, q_total, energy)
    logder = radial.outer_log_derivative(fn)
    return {
        "energy": energy,
        "cusp_limit": cusp_est,
        "cusp_target": (problem.ell + 1) * a,
        "outer_logder": logder,
        "outer_target": sysa.kappa(g[-1]),
    }


def cmd_solve(args) -> int:
    problem, m_prime, q_total, bracket = _load_problem(args.problem)
    # cusp slope of u = R/r^ell: the inner Robin condition and its target
    a = problem.mass * problem.pair_product / (problem.ell + 1)
    inner = radial.robin_inner(problem.ell, a)
    # the compiled LAPACK and BLAS modules, outside the solves' "seconds"
    radial.bind_scipy()
    reports = {}
    if args.method in ("matrix", "both"):
        t0 = time.perf_counter()
        pairs = radial.solve_matrix_selfconsistent(
            problem, inner, m_prime, q_total, args.k)
        reports["matrix"] = {
            "seconds": time.perf_counter() - t0,
            "states": [_report_state(problem, a, e, fn, m_prime, q_total)
                       for e, fn in pairs],
        }
        if args.output:
            # one grid shared by the k states: its column is formatted once
            t0 = time.perf_counter()
            for i, text in enumerate(csv_texts(fn for _, fn in pairs)):
                _write_text(f"{args.output}.matrix.{i}.csv", text)
            reports["matrix"]["write_seconds"] = time.perf_counter() - t0
    if args.method in ("shoot", "both"):
        if bracket is None:
            raise InputError("shooting needs a 'bracket' entry in the spec")
        t0 = time.perf_counter()
        # as the matrix route, the r_max guard binds the energy found
        guess = radial.SystemAsymptotics(m_prime, q_total, min(bracket))
        energy, fn = radial.solve_shooting(problem, inner, None, bracket,
                                           asymptotics=guess)
        radial.robin_outer(radial.SystemAsymptotics(m_prime, q_total, energy),
                           problem.grid[-1])
        reports["shoot"] = {
            "seconds": time.perf_counter() - t0,
            "states": [_report_state(problem, a, energy, fn, m_prime,
                                     q_total)],
        }
        if args.output:
            t0 = time.perf_counter()
            _write_text(f"{args.output}.shoot.csv", fn.to_csv())
            reports["shoot"]["write_seconds"] = time.perf_counter() - t0
    print(json.dumps(reports, indent=2))
    return 0


def cmd_basis(args) -> int:
    pair = parse_pair(args.pair)
    a = cusp_a(pair, args.ell)
    b = cusp_b(pair, args.ell, args.w0, args.e)
    exps = _float_list(args.tail, "--tail")
    built = basis_mod.build_basis(args.kind, args.ell, a, b, exps,
                                  g0=args.g0, window=args.window)
    a_est, b_est = basis_mod.verify_cusp_orders(built)
    text = basis_mod.basis_to_text(built)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    print(f"a_est = {a_est!r}", file=sys.stderr)
    print(f"b_est = {b_est!r}", file=sys.stderr)
    return 0


def cmd_env(args) -> int:
    try:
        with open(args.environment, "r", encoding="utf-8") as fh:
            env = env_mod.Environment.from_json(fh.read())
    except (OSError, json.JSONDecodeError, InputError) as exc:
        raise InputError(f"environment file {args.environment}: {exc}") from exc
    pair = parse_pair(args.pair)
    probes = _float_list(args.probes, "--probes")
    if args.lam_max < 0:
        raise DomainError("--lam-max must be non-negative")
    # all computed before the first print: an input error leaves no output
    w0 = env_mod.w0(env, pair)
    coeffs = [env_mod.multipole_term(env, pair, lam, 1.0, args.theta, args.phi)
              for lam in range(args.lam_max + 1)]
    resids = [abs(env_mod.spherical_average_w(env, pair, r) - w0)
              for r in probes]
    print(f"w0 = {w0!r}")
    for lam, coeff in enumerate(coeffs):
        print(f"multipole_coeff[{lam}] = {coeff!r}")
    if pair.identical:
        for lam in range(1, len(coeffs), 2):
            print(f"odd_audit[{lam}] = {coeffs[lam]!r}")
        print(f"odd_terms_exactly_zero = {all(c == 0.0 for c in coeffs[1::2])}")
    for r, resid in zip(probes, resids):
        print(f"average_residual[{r!r}] = {resid!r}")
    return 0


def cmd_compare_he(args) -> int:
    orbital = HFROrbital.from_file(args.hfr)
    inv_r = orbital.mean_inv_r
    z = args.z
    pair = CoalescencePair.electron_nucleus(z, args.a_mass)
    w0 = (pair.q1 + pair.q2) * inv_r
    lw = LocalWavefunction.from_pair(pair, 0, 0, w0, args.e)
    if args.r0_kind == "cusp":
        a = cusp_a(pair, 0)
        if a == 0.0:
            raise DomainError("--r0-kind cusp needs a nonzero cusp "
                              "coefficient, so Z != 0")
        r0 = 1.0 / abs(a)
    else:
        r0 = 1.0 / inv_r

    # the table's radii, then r0 and r0/2, both beyond the fit window
    r = np.append(_radii(args.r_max, args.n), (r0, r0 / 2.0))
    u = local_u(lw, r)
    hfr = orbital.radial(r)
    window = r <= r0 / 4.0
    u0 = float(np.dot(hfr[window], u[window]) / np.dot(u[window], u[window]))
    uk = u0 * u
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dens_h = r ** 2 * hfr ** 2
        dens_k = r ** 2 * uk ** 2
        # |psi_k^2 - psi_h^2| / psi_h^2, so the r^2 of both densities
        # cancels, also at r = 0
        dh = hfr ** 2
        rel = np.abs(uk ** 2 - dh) / dh
    if not (np.isfinite(dens_h).all() and np.isfinite(dens_k).all()):
        raise Overflow("the orbital or Kummer density leaves the double "
                       "range")
    # an orbital density that underflows to 0 or near it gives no relative
    # error
    if not (np.all(dh > 0.0) and np.isfinite(rel).all()):
        raise Overflow("relative density error leaves the double range "
                       "where the orbital density underflows")

    meta = {
        "energy_kind": args.energy_kind, "e": args.e, "r0_kind": args.r0_kind,
        "z": z, "w0": w0, "beta": lw.beta, "u0": u0, "r0": r0,
        "rel_error_r0": float(rel[-2]), "rel_error_r0_half": float(rel[-1]),
    }
    _emit(args, ["r", "psi_hfr", "psi_kummer", "density_hfr",
                 "density_kummer", "rel_error"],
          [c[:-2] for c in (r, hfr, uk, dens_h, dens_k, rel)], meta)
    print(f"rel_error(r0={r0!r}) = {meta['rel_error_r0']!r}", file=sys.stderr)
    print(f"rel_error(r0/2) = {meta['rel_error_r0_half']!r}", file=sys.stderr)
    return 0


def _add_pair_args(p):
    p.add_argument("pair", nargs="+",
                   help="pair spec: 'e-e singlet|triplet' or 'e-nucleus Z=... [A=...]'")


def _add_io_args(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: do not change it."""
    ap = argparse.ArgumentParser(prog="cuspbc",
                                 description="Coulomb cusp and boundary-condition toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cusp", help="cusp coefficients and expansion series")
    _add_pair_args(p)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--w0", type=float, default=0.0)
    p.add_argument("--e", type=float, default=-0.5)
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=cmd_cusp)

    p = sub.add_parser("local", help="local Kummer wave function samples")
    _add_pair_args(p)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--w0", type=float, default=0.0)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=5.0)
    p.add_argument("--n", type=int, default=201)
    _add_io_args(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("solve", help="radial eigensolvers (shooting / matrix)")
    p.add_argument("problem", help="problem spec JSON file")
    p.add_argument("--method", choices=("shoot", "matrix", "both"),
                   default="matrix")
    p.add_argument("-k", type=int, default=1, help="number of matrix states")
    p.add_argument("--output", default=None,
                   help="prefix for eigenfunction CSV files")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("basis", help="cusp-constrained basis generation")
    p.add_argument("kind", choices=("slater", "gaussian"))
    _add_pair_args(p)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--w0", type=float, default=0.0)
    p.add_argument("--e", type=float, default=-0.5)
    p.add_argument("--tail", default="",
                   help="comma-separated tail exponents (powers ell+3 upward)")
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("env", help="environment potential analysis")
    p.add_argument("environment", help="environment JSON file")
    _add_pair_args(p)
    p.add_argument("--lam-max", type=int, default=8)
    p.add_argument("--theta", type=float, default=0.6)
    p.add_argument("--phi", type=float, default=0.3)
    p.add_argument("--probes", default="",
                   help="comma-separated radii for the average residual")
    p.set_defaults(func=cmd_env)

    p = sub.add_parser("compare-he",
                       help="compare an HFR orbital against the local Kummer form")
    p.add_argument("hfr", help="orbital file (lines: n zeta c)")
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--energy-kind", choices=("total", "orbital"),
                   default="total",
                   help="convention of the supplied energy; recorded in the "
                        "metadata only, it changes no result")
    p.add_argument("--r0-kind", choices=("cusp", "mean-inv-r"),
                   default="cusp", help="effective-radius convention")
    p.add_argument("--z", type=float, default=2.0)
    p.add_argument("--a-mass", type=float, default=None,
                   help="nuclear mass number; omitted = infinite mass")
    p.add_argument("--r-max", type=float, default=6.0)
    p.add_argument("--n", type=int, default=601)
    _add_io_args(p)
    p.set_defaults(func=cmd_compare_he)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"cuspbc: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"cuspbc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cuspbc: {exc}", file=sys.stderr)
        return 2
    except CuspbcError as exc:
        print(f"cuspbc: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
