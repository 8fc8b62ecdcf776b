"""Command-line front end.

Subcommands: cusp, local, solve, basis, env, compare-he.
Exit codes: 0 success, 2 input/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import basis as basis_mod
from . import environment as env_mod
from . import radial
from .cusp import (CoalescencePair, LocalWavefunction, cusp_a, cusp_b,
                   cusp_limit_first, cusp_series, local_u, validity_radius)
from .errors import (CuspbcError, InputError, NumericalError, Overflow,
                     RegimeError)
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


def _emit(args, columns, rows, meta):
    """Write tabular output as CSV (repr-stable floats) or as JSON with the
    identical numeric content."""
    if args.format == "json":
        text = json.dumps({"meta": meta, "columns": columns,
                           "rows": [list(r) for r in rows]}, indent=2) + "\n"
    else:
        lines = [f"# {k}={v!r}" for k, v in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(repr(x) for x in row))
        text = "\n".join(lines) + "\n"
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def cmd_cusp(args) -> int:
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
    r = np.linspace(0.0, args.r_max, args.n)
    u = local_u(lw, r)
    big_r = r ** args.ell * u
    density = r ** 2 * big_r ** 2
    a = cusp_a(pair, args.ell)
    meta = {
        "ell": args.ell, "m": args.m, "w0": args.w0, "e": args.e,
        "u0": args.u0, "alpha": lw.alpha, "beta": lw.beta,
        "r_star": validity_radius(pair, args.w0),
        "r0": (args.ell + 1) / abs(a) if a != 0.0 else math.inf,
    }
    rows = list(zip(r.tolist(), u.tolist(), big_r.tolist(), density.tolist()))
    _emit(args, ["r", "u", "R", "density"], rows, meta)
    return 0


def _load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"problem spec {path}: {exc}") from exc
    try:
        gspec = spec.get("grid", {})
        grid = radial.log_grid(gspec.get("r_min", 1e-5),
                               gspec.get("r_max", 40.0),
                               gspec.get("n", 2000))
        extra = None
        if "extra_potential" in spec:
            tab = np.loadtxt(spec["extra_potential"])
            extra = np.interp(grid, tab[:, 0], tab[:, 1])
        problem = radial.RadialProblem(
            ell=spec["ell"], mass=spec.get("mass", 1.0),
            pair_product=spec["pair_product"], w0=spec.get("w0", 0.0),
            grid=grid, extra_potential=extra,
        )
        asym = spec.get("asymptotics", {})
        m_prime = asym.get("total_reduced_mass", problem.mass)
        q_total = asym.get("total_charge", 0.0)
        bracket = spec.get("bracket")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise InputError(f"problem spec {path}: {exc}") from exc
    return problem, m_prime, q_total, bracket


def _report_state(problem, a, energy, fn, m_prime, q_total):
    g = problem.grid
    scale = max(1.0, problem.mass * abs(problem.pair_product))
    n_fit = max(12, int(np.searchsorted(g, min(0.05 / scale, g[-1] / 100.0))))
    cusp_est = cusp_limit_first(fn, problem.ell, n_points=n_fit)
    sysa = radial.SystemAsymptotics(m_prime, q_total, energy)
    big_r = fn.as_full()
    logder = radial.outer_log_derivative(big_r)
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
        for i, (_, fn) in enumerate(pairs):
            if args.output:
                _write_text(f"{args.output}.matrix.{i}.csv", fn.to_csv())
    if args.method in ("shoot", "both"):
        if bracket is None:
            raise InputError("shooting needs a 'bracket' entry in the spec")
        t0 = time.perf_counter()
        guess = radial.SystemAsymptotics(m_prime, q_total, min(bracket))
        outer = radial.robin_outer(guess, problem.grid[-1])
        energy, fn = radial.solve_shooting(problem, inner, outer,
                                           tuple(bracket), asymptotics=guess)
        reports["shoot"] = {
            "seconds": time.perf_counter() - t0,
            "states": [_report_state(problem, a, energy, fn, m_prime,
                                     q_total)],
        }
        if args.output:
            _write_text(f"{args.output}.shoot.csv", fn.to_csv())
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
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise InputError(f"environment file {args.environment}: {exc}") from exc
    pair = parse_pair(args.pair)
    probes = _float_list(args.probes, "--probes")
    print(f"w0 = {env_mod.w0(env, pair)!r}")
    theta, phi = args.theta, args.phi
    for lam in range(args.lam_max + 1):
        coeff = env_mod.multipole_term(env, pair, lam, 1.0, theta, phi)
        print(f"multipole_coeff[{lam}] = {coeff!r}")
    if pair.identical:
        odd_ok = True
        for lam in range(1, args.lam_max + 1, 2):
            val = env_mod.multipole_term(env, pair, lam, 1.0, theta, phi)
            odd_ok = odd_ok and val == 0.0
            print(f"odd_audit[{lam}] = {val!r}")
        print(f"odd_terms_exactly_zero = {odd_ok}")
    for r in probes:
        resid = abs(env_mod.spherical_average_w(env, pair, r)
                    - env_mod.w0(env, pair))
        print(f"average_residual[{r!r}] = {resid!r}")
    return 0


def cmd_compare_he(args) -> int:
    orbital = HFROrbital.from_file(args.hfr)
    inv_r = orbital.mean_inv_r
    z = args.z
    pair = CoalescencePair.electron_nucleus(z, args.a_mass)
    w0 = (pair.q1 + pair.q2) * inv_r
    if args.e >= w0:
        raise RegimeError(f"E = {args.e} is not below W0 = {w0}")
    m_red = pair.reduced_mass
    lw = LocalWavefunction(ell=0, m=0, u0=1.0, alpha=m_red * pair.q1 * pair.q2,
                           beta=math.sqrt(2.0 * m_red * (w0 - args.e)))
    if args.r0_kind == "cusp":
        r0 = 1.0 / abs(cusp_a(pair, 0))
    else:
        r0 = 1.0 / inv_r

    r = np.linspace(0.0, args.r_max, args.n)
    u = local_u(lw, r)
    hfr = orbital.radial(r)
    window = r <= r0 / 4.0
    u0 = float(np.dot(hfr[window], u[window]) / np.dot(u[window], u[window]))
    uk = u0 * u
    dens_h = r ** 2 * hfr ** 2
    dens_k = r ** 2 * uk ** 2

    def relative(psi_k, psi_h):
        # |psi_k^2 - psi_h^2| / psi_h^2, so the r^2 of both densities
        # cancels, also at r = 0; an orbital density that underflows to 0
        # or near it gives no relative error
        dh = np.asarray(psi_h) ** 2
        if np.all(dh > 0.0):
            with np.errstate(over="ignore"):
                out = np.abs(np.asarray(psi_k) ** 2 - dh) / dh
            if np.all(np.isfinite(out)):
                return out
        raise Overflow("relative density error leaves the double range "
                       "where the orbital density underflows")

    rel = relative(uk, hfr)

    def rel_at(rv):
        return float(relative(u0 * local_u(lw, rv), orbital.radial(rv)))

    meta = {
        "energy_kind": args.energy_kind, "e": args.e, "r0_kind": args.r0_kind,
        "z": z, "w0": w0, "beta": lw.beta, "u0": u0, "r0": r0,
        "rel_error_r0": rel_at(r0), "rel_error_r0_half": rel_at(r0 / 2.0),
    }
    rows = list(zip(r.tolist(), hfr.tolist(), uk.tolist(),
                    dens_h.tolist(), dens_k.tolist(), rel.tolist()))
    _emit(args, ["r", "psi_hfr", "psi_kummer", "density_hfr",
                 "density_kummer", "rel_error"], rows, meta)
    print(f"rel_error(r0={r0!r}) = {meta['rel_error_r0']!r}", file=sys.stderr)
    print(f"rel_error(r0/2) = {meta['rel_error_r0_half']!r}", file=sys.stderr)
    return 0


def _add_pair_args(p):
    p.add_argument("pair", nargs="+",
                   help="pair spec: 'e-e singlet|triplet' or 'e-nucleus Z=... [A=...]'")


def _add_io_args(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
