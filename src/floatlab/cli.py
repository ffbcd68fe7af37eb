"""Batch command-line interface.

Verbs: spectrum, resolvent-check, simulate, lqr, verify.  Every command
reads one JSON configuration document (defaults merged under the user
file), validates it, runs, and writes CSV/JSON artifacts into --out.

Exit codes: 0 success, 1 verification failure, 2 numerical/config
failure, 3 incompatible initial data.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import discretization as dz
from . import dynamics as dyn
from . import lqr as lqr_mod
from . import spectral as sp
from . import verification as vf
from .errors import CompatibilityViolation, FloatLabError
from .linalg import save_matrix

DEFAULT_CONFIG = {
    "params": {"a": 1.0, "mu": 1.0},
    "grid": {"L": 20.0, "n_side": 100, "sponge_width": 5.0, "sponge_strength": 1.0},
    "time": {"dt": 0.02, "T_max": 500.0, "scheme": "trapezoidal"},
    "lqr": {"tol": 1e-9, "alpha0": 1.0, "method": "newton_kleinman"},
    "sweep": {"theta": math.pi / 4, "radii": 40, "angles": 64},
    "seed": 0,
}


def load_config(path=None) -> dict:
    """Defaults, with a user JSON document merged section by section."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError("the configuration must be a JSON object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def _check_types(cfg, defaults, where=""):
    """Every key known and every value of its default's kind; numbers finite."""
    for key in cfg:
        if key not in defaults:
            raise ValueError(f"unknown key {where}{key}")
    for key, default in defaults.items():
        value, name = cfg[key], where + key
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"{name} must be an object")
            _check_types(value, default, name + ".")
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number")
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def validate_config(cfg):
    _check_types(cfg, DEFAULT_CONFIG)
    p, g, t = cfg["params"], cfg["grid"], cfg["time"]
    if p["a"] <= 0 or p["mu"] <= 0:
        raise ValueError("params.a and params.mu must be positive")
    if g["n_side"] < 8:
        raise ValueError("grid.n_side must be at least 8")
    if g["L"] <= p["a"]:
        raise ValueError("grid.L must exceed params.a")
    if not 0 <= g["sponge_width"] < g["L"] - p["a"]:
        raise ValueError("grid.sponge_width must lie in [0, L - a)")
    if t["dt"] <= 0 or t["T_max"] <= 0:
        raise ValueError("time.dt and time.T_max must be positive")
    if t["scheme"] not in ("trapezoidal", "implicit_euler"):
        raise ValueError("time.scheme must be trapezoidal or implicit_euler")
    if not 0 <= cfg["sweep"]["theta"] < math.pi / 2:
        raise ValueError("sweep.theta must lie in [0, pi/2)")
    if cfg["lqr"]["method"] not in ("newton_kleinman", "hamiltonian_sign"):
        raise ValueError("lqr.method must be newton_kleinman or hamiltonian_sign")


def _build(cfg, sponge=True):
    params = sp.PhysicalParams(cfg["params"]["a"], cfg["params"]["mu"])
    g = cfg["grid"]
    strength = g["sponge_strength"] if sponge else 0.0
    width = g["sponge_width"] if sponge else 0.0
    grid = dz.build_grid(params, g["L"], g["n_side"], width, strength)
    return params, grid, dz.assemble(grid)


def _parse_z0(grid, spec: str) -> dz.State:
    """Preset grammar: name or name:key=value,key=value."""
    name, _, args = spec.partition(":")
    kwargs = {}
    for item in filter(None, args.split(",")):
        key, _, value = item.partition("=")
        kwargs[key.strip()] = float(value)
    return dz.preset_state(grid, name.strip(), **kwargs)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")


def cmd_spectrum(cfg, out_dir):
    params, _, system_on = _build(cfg, sponge=True)
    _, _, system_off = _build(cfg, sponge=False)
    singular = sp.singular_points(params)

    rows = []
    for label, system in (("eig_sponge_on", system_on), ("eig_sponge_off", system_off)):
        for lam in np.linalg.eigvals(system.A):
            rows.append((lam.real, lam.imag,
                         sp.spectrum_distance(complex(lam), params, singular), label))
    for root in singular.roots:
        rows.append((root.real, root.imag, 0.0, "singular_set"))

    with open(out_dir / "spectrum.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "dist_to_E", "source"])
        writer.writerows(rows)

    off = [r for r in rows if r[3] == "eig_sponge_off"]
    summary = {
        "singular_points": [[r.real, r.imag] for r in singular.roots],
        "max_re_sponge_off": max(r[0] for r in off),
        "max_dist_to_E_sponge_off": max(r[2] for r in off),
        "n_eigenvalues": len(off),
    }
    _write_json(out_dir / "spectrum.json", summary)
    return 0


def cmd_resolvent_check(cfg, out_dir):
    params, grid, system = _build(cfg, sponge=False)
    rng = np.random.default_rng(cfg["seed"])
    lambdas = (1.0, 2 + 2j, 0.5 - 3j)
    rows, worst = [], 0.0
    for lam in lambdas:
        for k in range(3):
            inp = vf.random_resolvent_input(grid, rng)
            defect = vf.resolvent_defect(system, lam, inp)
            worst = max(worst, defect)
            rows.append((lam.real, lam.imag, k, defect))
    with open(out_dir / "resolvent.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_lambda", "im_lambda", "draw", "relative_defect"])
        writer.writerows(rows)
    _write_json(out_dir / "resolvent.json",
                {"worst_relative_defect": worst, "pass": worst <= 5e-3})
    return 0


def cmd_simulate(cfg, out_dir, z0_spec="bump", controller="none"):
    params, grid, system = _build(cfg, sponge=True)
    z0 = _parse_z0(grid, z0_spec)
    t = cfg["time"]

    if controller == "none":
        gain = None
    elif controller.startswith("alpha"):
        alpha = float(controller.partition(":")[2] or 1.0)
        gain = alpha * system.C
    elif controller == "lqr":
        solution = lqr_mod.care_solve(system, method=cfg["lqr"]["method"],
                                      tol=cfg["lqr"]["tol"], alpha0=cfg["lqr"]["alpha0"])
        gain = solution.gain
    else:
        raise ValueError(f"unknown controller {controller!r}")
    traj = dyn.simulate_adaptive(system, z0, t["dt"], t["T_max"], gain=gain,
                                 scheme=t["scheme"])

    traj.write_csv(out_dir / "trajectory.csv")
    dyn.energy_balance_report(traj).write_json(out_dir / "energy_balance.json")
    return 0


def cmd_lqr(cfg, out_dir, z0_spec="heave"):
    params, grid, system = _build(cfg, sponge=True)
    z0 = _parse_z0(grid, z0_spec)
    solution = lqr_mod.care_solve(system, method=cfg["lqr"]["method"],
                                  tol=cfg["lqr"]["tol"], alpha0=cfg["lqr"]["alpha0"])
    save_matrix(out_dir / "riccati.bin", solution.P)
    np.savetxt(out_dir / "gains.csv", solution.gain[None, :], delimiter=",")
    comparison = lqr_mod.compare_feedbacks(
        system, z0, (0.25, 0.5, 1.0, 2.0, 4.0), solution, T=240.0, dt=cfg["time"]["dt"])
    comparison.write_csv(out_dir / "compare.csv")
    _write_json(out_dir / "lqr.json", {
        "residual": solution.residual,
        "iterations": solution.iterations,
        "method": solution.method,
        "kernel_dim": solution.kernel_dim,
        "predicted_cost": comparison.predicted_optimal,
        "simulated_cost": comparison.optimal_cost,
        "relative_gap": comparison.relative_gap,
        "optimal_is_best": comparison.optimal_is_best,
    })
    return 0


def cmd_verify(cfg, out_dir, fault=None):
    params = sp.PhysicalParams(cfg["params"]["a"], cfg["params"]["mu"])
    suites = vf.run_all_suites(params, seed=cfg["seed"], fault=fault)
    report = {"seed": cfg["seed"], "suites": suites,
              "all_passed": all(s["passed"] for s in suites)}
    _write_json(out_dir / "verify.json", report)
    if report["all_passed"]:
        return 0
    first = next(s["name"] for s in suites if not s["passed"])
    print(f"verification failed in suite: {first}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="floatlab",
                                     description="floating-solid control laboratory")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum")
    sub.add_parser("resolvent-check")
    p_sim = sub.add_parser("simulate")
    p_sim.add_argument("--z0", default="bump", help="preset: name[:k=v,...]")
    p_sim.add_argument("--controller", default="none",
                       help="none | alpha[:VALUE] | lqr")
    p_lqr = sub.add_parser("lqr")
    p_lqr.add_argument("--z0", default="heave", help="preset: name[:k=v,...]")
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("--inject-fault", default=None, choices=["m_inverse"],
                       help="corrupt one formula to prove the harness catches it")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        validate_config(cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "resolvent-check":
            return cmd_resolvent_check(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.z0, args.controller)
        if args.command == "lqr":
            return cmd_lqr(cfg, args.out, args.z0)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, fault=args.inject_fault)
    except CompatibilityViolation as exc:
        print(f"incompatible initial data: {exc}", file=sys.stderr)
        return 3
    except (FloatLabError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
