"""The three benchmark workloads: inputs drawn from a seed, the operations
that run cuspbc on them, and the checks against the oracles.

Every call into cuspbc goes through a module attribute looked up at call
time (`self.cb.radial.solve_matrix`, not a name bound at import), so the
tracer's wrappers see it.  Oracles are imported lazily, at check time, so
mpmath's import does not count as the program's set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import he

HYDROGEN_STATES = ((1, 0), (2, 0), (2, 1), (3, 2))
HYDROGEN_STRATA = 3       # Z values per pass, one per third of [1, 3]
MATRIX_PROBLEMS = 24      # problem files per pass
MATRIX_N = (2000, 16000)  # mesh size range, log-stratified
COALESCENCE_PAIRS = 32
PROBE_RADII = (120.0, 200.0, 400.0)
TABLE_ROWS = 4001         # rows of each tabulated extra potential


def _oracles():
    import oracles
    return oracles


def _cli(cb, argv):
    """Run the cuspbc CLI in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cb.cli.main(argv)
    return rc, out.getvalue()


def _scaled(obj):
    """The same structure with every number off by 0.1 % (a wrong oracle)."""
    if isinstance(obj, dict):
        return {k: _scaled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_scaled(v) for v in obj)
    if isinstance(obj, Fraction):
        return obj * Fraction(1001, 1000)
    if isinstance(obj, (float, np.ndarray)):
        return obj * 1.001
    return obj


class Op:
    """One operation of a pass.  `run()` calls cuspbc and returns plain
    numbers; `check(value, raised)` compares them with `reference()`,
    computed once and cached."""

    wrong_oracle = False

    def __init__(self, cb, label):
        self.cb = cb
        self.label = label
        self._ref = None

    def ref(self):
        if self._ref is None:
            self._ref = self.reference()
            if self.wrong_oracle:
                self._ref = _scaled(self._ref)
        return self._ref

    def check(self, value, raised) -> str | None:
        """None when the outcome is right, else a one-line reason."""
        if raised is not None:
            return f"raised {type(raised).__name__}: {raised}"
        return self.compare(value, self.ref())


def strata(rng, m, lo, hi):
    """m values from the seed, one near the middle of each m-th of
    [lo, hi], in a seed-drawn order.  An operation's cost depends on these
    inputs, so stratifying them makes a pass cost the same on every seed
    while every value still comes from the seed."""
    values = lo + (hi - lo) * (np.arange(m) + rng.uniform(0.4, 0.6, m)) / m
    return rng.permutation(values).tolist()


def _within(name, got, lo, hi):
    if not (lo <= got <= hi):
        return f"{name} = {got!r} outside [{lo!r}, {hi!r}]"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# hydrogen-sweep


def _hydrogen_r_max(z, n):
    # the outer Robin condition needs r_max >= 20 / decay = 20 n / Z
    return 40.0 if 20.0 * n / z <= 30.0 else 80.0


class HydrogenState(Op):
    """One (n, ell) state of a hydrogen-like ion, matrix and shooting."""

    def __init__(self, cb, z, n, ell):
        super().__init__(cb, f"Z={z:.4f} ({n},{ell})")
        self.z, self.n, self.ell = z, n, ell
        self.e_exact = -z * z / (2.0 * n * n)
        self.grid = cb.radial.log_grid(1e-5, _hydrogen_r_max(z, n), 2000)

    def run(self):
        rad, z, ell = self.cb.radial, self.z, self.ell
        problem = rad.RadialProblem(ell=ell, mass=1.0, pair_product=-z,
                                    w0=0.0, grid=self.grid)
        inner = rad.robin_inner(ell, -z / (ell + 1))
        sysa = rad.SystemAsymptotics(1.0, z - 1.0, self.e_exact)
        outer = rad.robin_outer(sysa, self.grid[-1])
        k = self.n - ell
        e_m = rad.solve_matrix(problem, inner, outer, k)[k - 1][0]
        bracket = (1.1 * self.e_exact, 0.9 * self.e_exact)
        e_s, _ = rad.solve_shooting(problem, inner, outer, bracket,
                                    asymptotics=sysa)
        return e_m, e_s

    def reference(self):
        return _oracles().hydrogen_energy(self.z, self.n)

    def compare(self, value, e):
        # criterion-01 tolerances: matrix 1e-6, shooting 1e-8
        e_m, e_s = value
        return _first(_within("matrix energy", e_m, e - 1e-6, e + 1e-6),
                      _within("shooting energy", e_s, e - 1e-8, e + 1e-8))


class TabulatedSolve(Op):
    """`cuspbc solve --method both` on 1s of -Z/r plus a tabulated
    amp*exp(-mu r): the only route into RadialProblem.potential's
    interpolation branch."""

    def __init__(self, cb, workdir: Path, z, amp, mu):
        super().__init__(cb, f"tabulated Z={z:.4f}")
        self.z, self.amp, self.mu = z, amp, mu
        r = np.linspace(0.0, 40.0, TABLE_ROWS)
        self.h_table = r[1]
        table = workdir / "tabulated.txt"
        np.savetxt(table, np.column_stack([r, amp * np.exp(-mu * r)]))
        e0 = -z * z / 2.0
        self.spec = workdir / "tabulated.json"
        self.spec.write_text(json.dumps({
            "ell": 0, "pair_product": -z,
            "grid": {"r_min": 1e-5, "r_max": 40.0, "n": 2000},
            "asymptotics": {"total_reduced_mass": 1.0, "total_charge": z - 1.0},
            "bracket": [1.2 * e0, 0.8 * e0],
            "extra_potential": str(table)}))

    def run(self):
        rc, out = _cli(self.cb, ["solve", str(self.spec), "--method", "both"])
        rep = json.loads(out)
        return (rc, rep["matrix"]["states"][0]["energy"],
                rep["shoot"]["states"][0]["energy"])

    def reference(self):
        orc = _oracles()
        # shooting interpolates again between grid nodes; beyond r = 10
        # the potential is below e^-10 of its size
        h_node = 10.0 * math.log(40.0 / 1e-5) / 1999
        excess = orc.interpolation_excess(self.amp, self.mu, self.h_table, h_node)
        lo, hi, _ = orc.perturbed_s_levels(self.z, self.amp, self.mu, 1,
                                           slack=1e-7, excess=excess)[0]
        return lo, hi

    def compare(self, value, window):
        rc, e_m, e_s = value
        lo, hi = window
        # the two routes interpolate the table differently: 5e-6 apart at most
        return _first(None if rc == 0 else f"exit code {rc}",
                      _within("matrix energy", e_m, lo, hi),
                      _within("shooting energy", e_s, lo, hi),
                      _within("matrix - shooting", e_m - e_s, -5e-6, 5e-6))


def hydrogen_sweep(cb, rng, workdir):
    # shooting cost varies with Z by up to 2x per state
    ops = [HydrogenState(cb, z, n, ell)
           for z in strata(rng, HYDROGEN_STRATA, 1.0, 3.0)
           for n, ell in HYDROGEN_STATES]
    # the tabulated solve costs 4-9 s depending on Z, amp and mu; narrow
    # ranges keep one pass comparable across seeds
    ops.append(TabulatedSolve(cb, workdir, rng.uniform(1.9, 2.1),
                              rng.uniform(0.018, 0.022), rng.uniform(1.4, 1.6)))

    def warm_up():
        rad = cb.radial
        grid = rad.log_grid(1e-5, 40.0, 200)
        problem = rad.RadialProblem(ell=0, mass=1.0, pair_product=-1.0,
                                    w0=0.0, grid=grid)
        inner = rad.robin_inner(0, -1.0)
        sysa = rad.SystemAsymptotics(1.0, 0.0, -0.5)
        outer = rad.robin_outer(sysa, 40.0)
        rad.solve_matrix(problem, inner, outer, 1)
        rad.solve_shooting(problem, inner, outer, (-0.6, -0.4),
                           asymptotics=sysa, rtol=1e-6)
        _cli(cb, ["solve", str(ops[-1].spec), "--method", "matrix"])

    return ops, warm_up


# ---------------------------------------------------------------------------
# matrix-selfconsistent


class MatrixSolve(Op):
    """`cuspbc solve --method matrix -k 3 --output ...` on the three lowest
    s levels of -Z/r plus a tabulated amp*exp(-mu r)."""

    K = 3

    def __init__(self, cb, workdir: Path, index, z, amp, mu, n):
        super().__init__(cb, f"n={n} Z={z:.4f}")
        self.z, self.amp, self.mu, self.n = z, amp, mu, n
        r_max = 90.0 / z  # 3s decays by e^-30 there
        r = np.linspace(0.0, r_max, TABLE_ROWS)
        self.h_table = r[1]
        table = workdir / f"extra{index}.txt"
        np.savetxt(table, np.column_stack([r, amp * np.exp(-mu * r)]))
        self.spec = workdir / f"problem{index}.json"
        self.spec.write_text(json.dumps({
            "ell": 0, "pair_product": -z,
            "grid": {"r_min": 1e-5, "r_max": r_max, "n": n},
            "asymptotics": {"total_reduced_mass": 1.0, "total_charge": z - 1.0},
            "extra_potential": str(table)}))
        self.prefix = workdir / f"state{index}"

    def run(self):
        rc, out = _cli(self.cb, ["solve", str(self.spec), "--method", "matrix",
                                 "-k", str(self.K), "--output", str(self.prefix)])
        rep = json.loads(out)
        return rc, [s["energy"] for s in rep["matrix"]["states"]]

    def reference(self):
        orc = _oracles()
        windows = orc.perturbed_s_levels(
            self.z, self.amp, self.mu, self.K, slack=1e-7,
            excess=orc.interpolation_excess(self.amp, self.mu, self.h_table))
        return [(lo, hi) for lo, hi, _ in windows]

    def compare(self, value, windows):
        rc, energies = value
        if rc != 0 or len(energies) != self.K:
            return f"exit code {rc}, {len(energies)} states"
        for i in range(self.K):
            lines = Path(f"{self.prefix}.matrix.{i}.csv").read_text().count("\n")
            reason = _first(_within(f"E[{i}]", energies[i], *windows[i]),
                            None if lines == self.n + 1
                            else f"state {i} CSV has {lines} lines")
            if reason:
                return reason
        return None


def matrix_selfconsistent(cb, rng, workdir):
    lo, hi = MATRIX_N
    m = MATRIX_PROBLEMS
    # both ends of the size range, log-stratified sizes between them
    sizes = [lo, hi] + [int(lo * (hi / lo) ** x)
                        for x in strata(rng, m - 2, 0.0, 1.0)]
    ops = [MatrixSolve(cb, workdir, i, z, rng.uniform(0.002, 0.01),
                       rng.uniform(0.5, 1.5), n)
           for i, (n, z) in enumerate(zip(sizes, strata(rng, m, 1.5, 3.0)))]
    warm = workdir / "warm.json"
    warm.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"r_min": 1e-5, "r_max": 40.0, "n": 200}}))

    def warm_up():
        _cli(cb, ["solve", str(warm), "--method", "matrix",
                  "--output", str(workdir / "warm")])

    return ops, warm_up


# ---------------------------------------------------------------------------
# coalescence-pipeline

PAIR_KINDS = ("e-nucleus fixed", "e-nucleus finite", "e-e singlet",
              "e-e triplet")
PROTON_MASS = 1836.152673   # electron masses
NEUTRON_MASS = 1838.683662


class Coalescence(Op):
    """The coalescence chain for one pair in one point-charge environment."""

    BULK = 1001
    R_BULK = 3.0

    def __init__(self, cb, rng, workdir, index, hfr_path, z, beta):
        """Pair kind, ell and the number of spectators cycle with `index`;
        z and beta come stratified from the caller (they set the cost)."""
        kind = PAIR_KINDS[index % len(PAIR_KINDS)]
        super().__init__(cb, f"{kind} #{index}")
        cycle = index // len(PAIR_KINDS)
        if kind.startswith("e-nucleus"):
            if kind.endswith("finite"):
                z = float(1 + cycle % 4)
            self.q1, self.q2, self.m1 = -1.0, z, 1.0
            self.a_mass = max(1.0, 2.0 * z) if kind.endswith("finite") else None
            self.m2 = math.inf if self.a_mass is None else (
                z * PROTON_MASS + (self.a_mass - z) * NEUTRON_MASS)
            self.ell = cycle % 3
            self.spin = None
        else:
            self.q1 = self.q2 = -1.0
            self.m1 = self.m2 = 1.0
            self.a_mass = None
            self.spin = kind.split()[1]
            self.ell = 2 * (cycle % 2) if self.spin == "singlet" else 1
        m_red = self.m1 if math.isinf(self.m2) else self.m1 * self.m2 / (self.m1 + self.m2)
        self.m_red = m_red
        self.alpha = m_red * self.q1 * self.q2
        self.charges = []
        for _ in range(2 + index % 3):
            v = rng.normal(size=3)
            pos = tuple(float(x) for x in v / np.linalg.norm(v) * rng.uniform(1.5, 4.0))
            self.charges.append((float(rng.uniform(-1.0, 3.0)), pos))
        w0 = (self.q1 + self.q2) * math.fsum(q / math.hypot(*p) for q, p in self.charges)
        self.beta = beta
        self.energy = w0 - self.beta ** 2 / (2.0 * m_red)
        self.r_bulk = np.linspace(0.0, self.R_BULK, self.BULK)
        self.r_scalar = sorted(rng.uniform(0.0, self.R_BULK, 8).tolist())
        scale = max(1.0, abs(self.alpha), self.beta)
        self.r_fit = np.linspace(1e-4, 0.01 / scale, 14)
        self.directions = [(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 6.2)))
                           for _ in range(2)]
        self.basis_kind = "slater" if index % 2 == 0 else "gaussian"
        self.tail = rng.uniform(0.5, 2.5, 3).tolist()
        self.tail_coeffs = rng.uniform(-2.0, 2.0, 3).tolist()
        self.kato_c3 = float(rng.uniform(-1.0, 1.0))
        self.r0_kind = "cusp" if index % 2 == 0 else "mean-inv-r"
        self.hfr_path = hfr_path
        self.he_out = workdir / f"he{index}.json"

    def _pair(self):
        cusp = self.cb.cusp
        if self.spin is not None:
            return cusp.CoalescencePair.electron_electron(self.spin)
        return cusp.CoalescencePair.electron_nucleus(self.q2, self.a_mass)

    def run(self):
        cb, ell = self.cb, self.ell
        cusp, env_mod, basis = cb.cusp, cb.environment, cb.basis
        pair = self._pair()
        env = env_mod.Environment(tuple(env_mod.PointCharge(q, p)
                                        for q, p in self.charges))
        w0 = env_mod.w0(env, pair)
        out = {"w0": w0}
        out["series"] = cusp.cusp_series(pair, ell, w0, self.energy, 12).coeffs
        lw = cusp.LocalWavefunction.from_pair(pair, ell, 0, w0, self.energy)
        out["bulk"] = cusp.local_u(lw, self.r_bulk)
        out["scalar"] = [cusp.local_u(lw, r) for r in self.r_scalar]
        fit = self.r_fit
        fn = cb.gridfn.RadialFunction(fit, fit ** ell * cusp.local_u(lw, fit),
                                      ell, "R")
        out["lim1"] = cusp.cusp_limit_first(fn, ell)
        out["lim2"] = cusp.cusp_limit_second(fn, ell)
        r_mp = 0.3 * env.min_radius
        out["multipole"] = [env_mod.w_multipole(env, pair, r_mp, th, ph, 30)
                            for th, ph in self.directions]
        out["exact"] = [env_mod.w_exact(env, pair, r_mp, th, ph)
                        for th, ph in self.directions]
        out["average"] = env_mod.spherical_average_w(env, pair, 0.5 * env.min_radius)
        a = cusp.cusp_a(pair, ell)
        b = cusp.cusp_b(pair, ell, w0, self.energy)
        built = basis.build_basis(self.basis_kind, ell, a, b, self.tail,
                                  tail_coeffs=self.tail_coeffs)
        out["basis"] = basis.verify_cusp_orders(built)
        slope, c3 = self.alpha, self.kato_c3

        def f(r, theta, phi):
            return np.exp(slope * r) * (1.0 + c3 * r ** 3 * np.cos(theta))

        kato_grid = np.linspace(1e-4, 0.012 / max(1.0, abs(slope)), 14)
        out["kato"] = cusp.kato_average_check(
            cusp.AngularRadialFunction(f, kato_grid))
        out["he_rc"], _ = _cli(cb, [
            "compare-he", str(self.hfr_path), "--e", repr(he.HE_ORBITAL_ENERGY),
            "--energy-kind", "orbital", "--r0-kind", self.r0_kind,
            "--format", "json", "--output", str(self.he_out)])
        return out

    def reference(self):
        orc = _oracles()
        ell, alpha = self.ell, self.alpha
        w0 = orc.env_w0(self.charges, self.q1, self.q2)
        beta_sq = 2.0 * self.m_red * (w0 - self.energy)
        beta = math.sqrt(beta_sq)
        exact, size = orc.cusp_series_exact(alpha, beta_sq, ell, 12)
        a = alpha / (ell + 1)
        b = ((ell + 1) * a * a + self.m_red * (w0 - self.energy)) / (2 * ell + 3)
        r_mp = 0.3 * min(math.hypot(*p) for _, p in self.charges)
        return {
            "w0": w0, "series": exact, "series_size": size,
            "bulk": np.array([float(v) for v in orc.kummer_u(alpha, beta, ell, self.r_bulk)]),
            "bulk_scale": orc.kummer_abs_scale(alpha, beta, ell, self.r_bulk),
            "scalar": np.array([float(v) for v in orc.kummer_u(alpha, beta, ell, self.r_scalar)]),
            "scalar_scale": orc.kummer_abs_scale(alpha, beta, ell, self.r_scalar),
            "lim1": (ell + 1) * a, "lim2": (ell + 1) * (ell + 2) * b,
            "exact": [orc.env_w_exact(self.charges, self.q1, self.q2, self.m1,
                                      self.m2, r_mp, th, ph)
                      for th, ph in self.directions],
            "basis": (a, b), "kato": self.alpha,
            "he": orc.compare_he_reference(he.HE_TERMS, he.HE_ORBITAL_ENERGY,
                                           2.0, self.r0_kind, 6.0, 601),
        }

    def compare(self, out, ref):
        tol = 1e-12 * max(1.0, abs(ref["w0"]))
        reasons = [_within("w0", out["w0"], ref["w0"] - tol, ref["w0"] + tol)]
        for k, (got, want, size) in enumerate(zip(out["series"], ref["series"],
                                                  ref["series_size"])):
            tol = 1e-13 * (k + 1) * float(size)
            reasons.append(_within(f"series a_{k}", got, float(want) - tol,
                                   float(want) + tol))
        for key in ("bulk", "scalar"):
            got = np.asarray(out[key], dtype=float)
            err = np.abs(got - ref[key])
            bad = ~(err <= 1e-12 * ref[f"{key}_scale"])
            if np.any(bad):
                i = int(np.argmax(bad))
                reasons.append(f"local_u {key}[{i}] = {got[i]!r}, "
                               f"mpmath {ref[key][i]!r}")
        # criterion-02 tolerances for the fitted cusp limits, relative to
        # the limit once it exceeds 1 (fit errors grow with Z^k)
        for key, rel in (("lim1", 1e-8), ("lim2", 1e-6)):
            tol = rel * max(1.0, abs(ref[key]))
            reasons.append(_within(f"cusp limit {key}", out[key],
                                   ref[key] - tol, ref[key] + tol))
        # criteria 04 and 06: 1e-10 absolute
        for got_m, got_x, want in zip(out["multipole"], out["exact"], ref["exact"]):
            reasons.append(_within("w_multipole", got_m, want - 1e-10, want + 1e-10))
            reasons.append(_within("w_exact", got_x, want - 1e-12, want + 1e-12))
        reasons.append(_within("spherical_average_w", out["average"],
                               ref["w0"] - 1e-10, ref["w0"] + 1e-10))
        for got, want, name in zip(out["basis"], ref["basis"], ("a", "b")):
            tol = 1e-12 * max(1.0, abs(want))
            reasons.append(_within(f"basis {name}", got, want - tol, want + tol))
        for got, name in zip(out["kato"], ("directional", "averaged")):
            reasons.append(_within(f"kato {name}", got, ref["kato"] - 1e-7,
                                   ref["kato"] + 1e-7))
        reasons.append(None if out["he_rc"] == 0
                       else f"compare-he exit code {out['he_rc']}")
        meta = json.loads(self.he_out.read_text())["meta"]
        for key, want in ref["he"].items():
            tol = 1e-7 * abs(want)
            reasons.append(_within(f"compare-he {key}", meta[key], want - tol,
                                   want + tol))
        return _first(*reasons)


class FarFieldProbe(Op):
    """local_u far from the coalescence point with compare-he's He
    parameters.  Passes only with the mpmath value, or, where the true
    value overflows a double, with a typed CuspbcError.  Not part of a
    pass: the worker runs each probe once, untimed, after the passes."""

    def __init__(self, cb, r):
        super().__init__(cb, f"far-field r={r:g}")
        self.r = r
        self.alpha, self.beta = he.probe_parameters()

    def run(self):
        lw = self.cb.cusp.LocalWavefunction(ell=0, m=0, u0=1.0,
                                            alpha=self.alpha, beta=self.beta)
        return self.cb.cusp.local_u(lw, self.r)

    def reference(self):
        orc = _oracles()
        value = orc.kummer_u(self.alpha, self.beta, 0, self.r)[0]
        return None if orc.overflows(value) else float(value)

    def check(self, value, raised):
        want = self.ref()
        if want is None:
            if isinstance(raised, self.cb.CuspbcError):
                return None
            return (f"expected a CuspbcError (true value overflows), got "
                    f"{type(raised).__name__ if raised else repr(value)}")
        if raised is not None:
            return f"raised {type(raised).__name__}: {raised}"
        if not abs(value - want) <= 1e-10 * abs(want):
            return f"u({self.r:g}) = {value!r}, mpmath {want!r}"
        return None


def coalescence_pipeline(cb, rng, workdir):
    hfr_path = workdir / "he_1s.hfr"
    hfr_path.write_text("".join(f"{n} {z!r} {c!r}\n" for n, z, c in he.HE_TERMS))
    n = COALESCENCE_PAIRS
    ops = [Coalescence(cb, rng, workdir, i, hfr_path, z, beta)
           for i, (z, beta) in enumerate(zip(strata(rng, n, 1.0, 4.0),
                                             strata(rng, n, 0.8, 3.0)))]

    def warm_up():
        ops[0].run()

    return ops, warm_up


BUILDERS = {"hydrogen-sweep": hydrogen_sweep,
            "matrix-selfconsistent": matrix_selfconsistent,
            "coalescence-pipeline": coalescence_pipeline}


def build(name, seed, workdir, cb, wrong_oracle=False):
    """Operations of one pass, the warm-up that readies them, and the
    known-defect probes reported beside the pass."""
    rng = np.random.default_rng(seed)
    ops, warm_up = BUILDERS[name](cb, rng, workdir)
    if wrong_oracle:
        ops[0].wrong_oracle = True
    probes = ([FarFieldProbe(cb, r) for r in PROBE_RADII]
              if name == "coalescence-pipeline" else [])
    return ops, warm_up, probes
