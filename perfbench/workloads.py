"""The three benchmark workloads: inputs from the seed, operations, checks.

A workload is built from a seed.  ``operations(out)`` lists the timed
operations of one pass as (name, callable) pairs; each callable runs one
floatlab verb or library call in process and returns what the checks
need.  ``check(results, out)`` maps each operation name to the failure
messages of its output checks (see ``checks.py``).  ``build()`` makes the
grids and generators of the workload; the set-up probe times it in a
fresh interpreter.

``Workload.warm(seed)`` gives the same operations on a coarse grid and
short horizons: the untimed warm-up pass, which loads every code path at
a small fraction of a pass's cost.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np

from floatlab import cli
from floatlab import discretization as dz
from floatlab import lqr as lqr_mod
from floatlab import resolvent as rv
from floatlab import spectral as sp

import checks as ck


class Workload:
    name = ""
    #: Config sections merged over the CLI defaults for the warm-up pass.
    WARM = {}

    def __init__(self, seed: int, overrides=None):
        self.seed = seed
        self.overrides = overrides or {}
        self.cfg = cli.load_config()
        for section, values in self.overrides.items():
            self.cfg[section].update(values)
        self.rng = np.random.default_rng(seed)

    @classmethod
    def warm(cls, seed):
        """The same operations on a coarse grid and short horizons."""
        return cls(seed, cls.WARM)

    def system(self, sponge=True, n_side=None):
        """The generator the CLI builds from this config, optionally at another n_side."""
        cfg = self.cfg
        if n_side is not None:
            cfg = copy.deepcopy(cfg)
            cfg["grid"]["n_side"] = n_side
        return cli._build(cfg, sponge)[2]

    def _verb(self, out: Path, *verb):
        """Run one CLI verb in process; returns its exit code."""
        out.mkdir(parents=True, exist_ok=True)
        argv = ["--out", str(out), "--seed", str(self.seed)]
        if self.overrides:
            cfg_path = out / "config.json"
            cfg_path.write_text(json.dumps(self.overrides))
            argv += ["--config", str(cfg_path)]
        return cli.main(argv + list(verb))

    def _exit_ok(self, code):
        return [] if code == 0 else [f"exit code {code}"]


class LqrHeave(Workload):
    """``lqr --z0 heave`` plus the Hamiltonian-sign solve of the same equation."""

    name = "lqr-heave"
    WARM = {"grid": {"n_side": 24}, "time": {"dt": 0.2}}

    def __init__(self, seed, overrides=None):
        super().__init__(seed, overrides)
        self.H0 = round(float(self.rng.uniform(0.5, 2.0)), 6)

    def build(self):
        system = self.system()
        return system, dz.preset_state(system.grid, "heave", H0=self.H0)

    def operations(self, out):
        def sign():
            return lqr_mod.care_solve(self.system(), method="hamiltonian_sign",
                                      tol=self.cfg["lqr"]["tol"],
                                      alpha0=self.cfg["lqr"]["alpha0"])
        return [("lqr", lambda: self._verb(out / "lqr", "lqr", "--z0", f"heave:H0={self.H0}")),
                ("care-sign", sign)]

    def check(self, results, out):
        system = self.system()
        A, B, C = system.A, system.B, system.C
        n = self.cfg["grid"]["n_side"]
        fails = self._exit_ok(results["lqr"])
        if not fails:
            d = out / "lqr"
            P = ck.read_fltc(d / "riccati.bin")
            gains = np.loadtxt(d / "gains.csv", delimiter=",")
            zeros = np.zeros(n)
            z0 = ck.pack_state(self.H0, zeros, zeros, zeros, zeros)
            fails += (ck.riccati_residual(A, B, C, P) + ck.riccati_psd(P)
                      + ck.gains_match(gains, B, P)
                      + ck.closed_loop_spectrum(A, B, np.ravel(gains))
                      + ck.annihilates_rest(A, P, n)
                      + ck.cost_table(ck.read_compare(d / "compare.csv"), P, z0))
        sign = results["care-sign"]
        sign_fails = ck.riccati_residual(A, B, C, sign.P) + ck.riccati_psd(sign.P)
        if not fails:
            sign_fails += ck.methods_agree(sign.P, P)
        return {"lqr": fails, "care-sign": sign_fails}


class SimulateBump(Workload):
    """Open-loop bump and alpha-feedback flow runs over the adaptive horizon to T_max."""

    name = "simulate-bump"
    #: Four 25-unit chunks a run: a pass of about 2.5 s, so a run takes the
    #: median of several passes.  At the default T_max = 500 a pass took
    #: 10-16 s, one pass a run, and its time was one stretch of the
    #: machine's speed.
    HORIZON = {"time": {"T_max": 100.0}}
    WARM = {"grid": {"n_side": 24}, "time": {"dt": 0.1, "T_max": 50.0}}
    ALPHA = 1.0

    def __init__(self, seed, overrides=None):
        super().__init__(seed, self.HORIZON if overrides is None else overrides)
        # The seed sets only the amplitudes.  The adaptive-horizon stop test
        # (running cost at a chunk end <= 1e-12 of its peak) is invariant
        # under scaling, so every seed marches the same horizon.  The default
        # shapes reach T_max; seeded shapes came within a factor 3 of the
        # stop threshold before T_max.
        u = lambda lo, hi: round(float(self.rng.uniform(lo, hi)), 6)
        self.bump = {"center": 5.0, "width": 2.0, "amplitude": u(0.1, 0.3)}
        self.flow = {"center": 4.0, "width": 1.5, "amplitude": u(0.2, 0.4)}

    @staticmethod
    def _preset(name, kw):
        return name + ":" + ",".join(f"{k}={v}" for k, v in kw.items())

    def build(self):
        system = self.system()
        return (system, dz.preset_state(system.grid, "bump", **self.bump),
                dz.preset_state(system.grid, "flow", **self.flow))

    def operations(self, out):
        return [
            ("simulate-bump", lambda: self._verb(
                out / "bump", "simulate", "--z0", self._preset("bump", self.bump),
                "--controller", "none")),
            ("simulate-flow", lambda: self._verb(
                out / "flow", "simulate", "--z0", self._preset("flow", self.flow),
                "--controller", f"alpha:{self.ALPHA}")),
        ]

    def check(self, results, out):
        t = self.cfg["time"]
        g, p = self.cfg["grid"], self.cfg["params"]
        n_rows = int(round(t["T_max"] / t["dt"])) + 1
        report = {}
        for op, sub, alpha in (("simulate-bump", "bump", 0.0),
                               ("simulate-flow", "flow", self.ALPHA)):
            fails = self._exit_ok(results[op])
            if not fails:
                header, data = ck.read_trajectory(out / sub / "trajectory.csv")
                fails += ck.trajectory_shape(header, data, n_rows, t["T_max"])
                if not fails:
                    fails += (ck.energy_nonincreasing(data) + ck.feedback_law(data, alpha)
                              + ck.energy_audit(ck.read_json(out / sub / "energy_balance.json"),
                                                n_rows))
                if not fails and sub == "bump":
                    fails += ck.initial_energy(data, ck.bump_energy(
                        p["a"], g["L"], g["n_side"], **self.bump))
            report[op] = fails
        return report


class ResolventHalfline(Workload):
    """resolvent-check and spectrum, a resolvent sweep over three grids, half-line operators."""

    name = "resolvent-halfline"
    WARM = {"grid": {"n_side": 24}}
    #: Every lambda has Re omega(lambda) * (L - a) >= 20 at the default config.
    LAMBDAS = (2 + 2j, 0.5 - 3j, 3.0, 1.5 + 4j, 4 - 1j, 2 - 5j)
    DRAWS = 2
    #: The half-line norm-bound grid: h = 0.002 on [a, 20a].
    FINE_NODES = 9501
    #: Keeps a pass under a second, so a run takes the median of about 20
    #: passes; with 100 draws a 3 s pass gave a run only a few.
    HALFLINE_DRAWS = 16

    def __init__(self, seed, overrides=None, halfline_draws=HALFLINE_DRAWS):
        super().__init__(seed, overrides)
        n = self.cfg["grid"]["n_side"]
        self.sizes = (n, 2 * n, 4 * n)
        rng = self.rng
        self.cases = [(lam, self._packets(rng)) for lam in self.LAMBDAS
                      for _ in range(self.DRAWS)]
        self.linear = (self._packets(rng), self._packets(rng))
        self.halfline = []
        for _ in range(halfline_draws):
            omega = complex(10 ** rng.uniform(-1, 1), rng.uniform(-10, 10))
            side = "right" if rng.random() < 0.5 else "left"
            phi = rng.standard_normal(self.FINE_NODES) + 1j * rng.standard_normal(self.FINE_NODES)
            self.halfline.append((omega, side, phi))

    @classmethod
    def warm(cls, seed):
        return cls(seed, cls.WARM, halfline_draws=2)

    @staticmethod
    def _packets(rng):
        """Gaussian wave packets for the surface-height, flux and scalar inputs."""
        def packet():
            return (rng.uniform(0.5, 1.0), rng.uniform(4.5, 6.5), rng.uniform(2.0, 3.0),
                    rng.uniform(0.2, 0.8), rng.uniform(0.0, 2 * np.pi))
        return {"h": [packet(), packet()], "q": [packet(), packet()],
                "scalars": rng.choice([-0.25, 0.25], size=3)}

    @staticmethod
    def _sample(pk, sign, x):
        c, x0, w, k, ph = pk
        s = sign * x - x0
        env = c * np.exp(-(s / w) ** 2)
        return env * np.cos(k * x + ph), env * (-2.0 * s * sign / w ** 2 * np.cos(k * x + ph)
                                                - k * np.sin(k * x + ph))

    def _input(self, spec, grid):
        xs = (grid.x_left, grid.x_right)
        h, hp = zip(*(self._sample(pk, sgn, x) for pk, sgn, x in zip(spec["h"], (-1, 1), xs)))
        q = [self._sample(pk, sgn, x)[0] for pk, sgn, x in zip(spec["q"], (-1, 1), xs)]
        pair = lambda vals: (rv.HalfLineFunction("left", xs[0], vals[0]),
                             rv.HalfLineFunction("right", xs[1], vals[1]))
        f1, f4, f5 = spec["scalars"]
        return rv.ResolventInput(f1, pair(h), pair(hp), pair(q), f4, f5)

    def _fine_grid(self):
        a = self.cfg["params"]["a"]
        return np.linspace(a, 20.0 * a, self.FINE_NODES)

    def build(self):
        return ([self.system()] + [self.system(sponge=False, n_side=n)
                                       for n in self.sizes], self._fine_grid())

    @staticmethod
    def _packed(out):
        return ck.pack_state(out.H_lambda, out.h_lambda[0].values, out.h_lambda[1].values,
                             out.q_lambda[0].values, out.q_lambda[1].values)

    @staticmethod
    def _packed_input(inp):
        """Right-hand side in state order; f4 and f5 sit in the q-, q+ slots."""
        return ck.pack_state(inp.f1, inp.f2[0].values, inp.f2[1].values,
                             inp.f3[0].values, inp.f3[1].values, boundary=(inp.f4, inp.f5))

    def operations(self, out):
        params = sp.PhysicalParams(self.cfg["params"]["a"], self.cfg["params"]["mu"])

        def sweep(n):
            system = self.system(sponge=False, n_side=n)
            outputs = [rv.resolvent_apply(lam, params, self._input(spec, system.grid))
                       for lam, spec in self.cases]
            return system, outputs

        def linearity():
            grid = self.system(sponge=False).grid
            i1, i2 = (self._input(spec, grid) for spec in self.linear)
            al, be = 2.0, -0.5
            mix = lambda a, b: tuple(rv.HalfLineFunction(x.side, x.grid, al * x.values
                                                         + be * y.values) for x, y in zip(a, b))
            combo = rv.ResolventInput(al * i1.f1 + be * i2.f1, mix(i1.f2, i2.f2),
                                      mix(i1.f2_prime, i2.f2_prime), mix(i1.f3, i2.f3),
                                      al * i1.f4 + be * i2.f4, al * i1.f5 + be * i2.f5)
            return [rv.resolvent_apply(2 + 2j, params, i) for i in (i1, i2, combo)]

        def halfline_bounds():
            x = self._fine_grid()
            draws = []
            for omega, side, vals in self.halfline:
                g = x if side == "right" else -x[::-1]
                ext = rv.exponential_extension(side, omega, 1.0, g)
                part = rv.helmholtz_particular(side, omega, rv.HalfLineFunction(side, g, vals))
                draws.append((omega, g, ext.values, vals, part.values))
            return draws

        def oracle():
            a = self.cfg["params"]["a"]
            x = np.linspace(a, 20.0 * a, 1901)
            phi = rv.HalfLineFunction("right", x, np.exp(-(x - 1.0)))
            return x, rv.helmholtz_particular("right", 1.0, phi).values

        ops = [("resolvent-check", lambda: self._verb(out / "resolvent", "resolvent-check")),
               ("spectrum", lambda: self._verb(out / "spectrum", "spectrum"))]
        ops += [(f"sweep-n{n}", lambda n=n: sweep(n)) for n in self.sizes]
        ops += [("linearity", linearity), ("halfline-bounds", halfline_bounds),
                ("halfline-oracle", oracle)]
        return ops

    def sweep_defects(self, results):
        """Own relative defects ||(lam - A) z - f|| / ||f|| per grid, with the grid spacings."""
        defects, spacings = [], []
        for n in self.sizes:
            system, outputs = results[f"sweep-n{n}"]
            spacings.append(system.grid.spacing)
            defects.append([
                ck.relative_defect(system.A, lam, self._packed(o),
                                   self._packed_input(self._input(spec, system.grid)))
                for (lam, spec), o in zip(self.cases, outputs)])
        return defects, spacings

    def check(self, results, out):
        report = {}
        fails = self._exit_ok(results["resolvent-check"])
        if not fails:
            with open(out / "resolvent" / "resolvent.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            fails += ck.resolvent_report(ck.read_json(out / "resolvent" / "resolvent.json"),
                                         rows, 9)
        report["resolvent-check"] = fails

        fails = self._exit_ok(results["spectrum"])
        if not fails:
            fails += ck.spectrum_report(ck.read_json(out / "spectrum" / "spectrum.json"),
                                        self.system(sponge=False).A)
        report["spectrum"] = fails

        for n in self.sizes:
            report[f"sweep-n{n}"] = []
        report[f"sweep-n{self.sizes[-1]}"] = ck.consistency_order(*self.sweep_defects(results))

        o1, o2, o12 = (self._packed(o) for o in results["linearity"])
        report["linearity"] = ck.linearity(o1, o2, o12, 2.0, -0.5)
        report["halfline-bounds"] = ck.norm_bounds(results["halfline-bounds"])
        report["halfline-oracle"] = ck.halfline_oracle(*results["halfline-oracle"])
        return report


WORKLOADS = {w.name: w for w in (LqrHeave, SimulateBump, ResolventHalfline)}
