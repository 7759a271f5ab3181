"""Command-line front end: reproducible verification and integration reports.

Subcommands:

* ``verify``    run the exact theorem certificates for a family (or a range
                of n) and emit a PASS/FAIL report; exit 0 iff all pass.
* ``integrate`` integrate one trajectory, write the CSV and a summary JSON;
                optional h-sweep with a measured convergence order.
* ``symmetry``  apply a map to a numeric phase point / parameter set, and
                optionally run the trajectory-level finite-difference check.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed,
2 = usage or configuration error.  Reports carry a versioned schema and keep
timestamps in a metadata block so the comparison payload is byte-stable.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time

from .hamiltonian import make_general_n, make_system
from .integrate import (NumericParams, check_symmetry_on_trajectory,
                        integrate, richardson_order, write_trajectory_csv)
from .symmetry import certificate_battery, make_map

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' complex literals (also plain reals and 'bi')."""
    s = text.strip().replace(" ", "")
    s = s.replace("i", "j")
    if s == "j":
        s = "1j"
    elif s.endswith("j") and s[-2] in "+-":
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError:
        raise UsageError(f"bad complex literal {text!r}") from None


def parse_params(text: str) -> dict[str, complex]:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad parameter assignment {item!r}")
        k, v = item.split("=", 1)
        k = k.strip()
        if k in out:
            raise UsageError(f"parameter {k!r} is given twice")
        out[k] = parse_complex(v)
    return out


# the largest general:n that `verify --n` takes; the general:64 battery runs
# in about 0.23 s (best of 5 on a 2-core machine, Python 3.11), and
# `verify --family general --n 2..64` in about 5 s
N_MAX = 64


def parse_n_range(text: str) -> list[int]:
    """The n of ``verify --n`` ("7" or "2..5"), each checked to lie in
    2..N_MAX before the list is built."""
    lo, dots, hi = text.partition("..")
    hi = hi if dots else lo
    if not (lo.isdecimal() and hi.isdecimal()):
        raise UsageError(f"n {text!r} is not of the form 'n' or 'lo..hi'")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise UsageError(f"empty n range {text!r}")
    for n in (lo, hi):
        if not 2 <= n <= N_MAX:
            raise UsageError(f"n = {n} outside the supported range 2..{N_MAX}")
    return list(range(lo, hi + 1))


# -- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.family == "general":
        families = [make_general_n(n)
                    for n in parse_n_range(args.n or "2..8")]
    elif args.n:
        raise UsageError("--n applies only to --family general")
    else:
        families = [make_system(args.family)]

    checks = [entry for sys_ in families
              for entry in certificate_battery(sys_, args.mutate)]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "family": args.family,
        "checks": checks,
        "all_pass": all(c["status"] == "PASS" for c in checks),
    }
    for c in checks:
        line = f"[{c['status']}] {c['family']}: {c['check']}"
        if c["status"] == "FAIL":
            line += f"  residual = {c.get('residual', '')}"
        print(line)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


# -- integrate ----------------------------------------------------------------

def cmd_integrate(args) -> int:
    sys_ = make_system(args.family)
    params = NumericParams(sys_.name, parse_params(args.params), sys_.n)
    traj = integrate(sys_, params, args.q0, args.p0, (args.t0, args.t1),
                     h=args.h, tol=args.tol, method=args.method)
    if args.out:
        write_trajectory_csv(traj, args.out)
    summary = {
        "schema": SCHEMA_VERSION,
        "command": "integrate",
        "family": sys_.name,
        "method": args.method,
        "steps": len(traj.times) - 1,
        "t_final": traj.times[-1],
        "drift": traj.drift,
        "termination": traj.termination,
    }
    if args.sweep:
        hs = tuple(float(x) for x in args.sweep.split(","))
        summary["sweep_h"] = list(hs)
        summary["measured_order"] = richardson_order(
            sys_, params, args.q0, args.p0, (args.t0, args.t1), hs)
    located = "" if traj.t_star is None else \
        f"  t*: {traj.t_star:.10g}  exponent: {traj.exponent:.4f}"
    print(f"termination: {summary['termination']}  "
          f"steps: {summary['steps']}  drift: {summary['drift']:.3e}"
          + located)
    if "measured_order" in summary:
        print(f"measured order: {summary['measured_order']:.3f}")
    _emit(summary, args.summary_out, steps_attempted=traj.steps_attempted,
          steps_rejected=traj.steps_rejected, field_evals=traj.field_evals,
          min_step=traj.min_step, t_star=traj.t_star,
          exponent=traj.exponent)
    return 0


# -- symmetry ------------------------------------------------------------------

def cmd_symmetry(args) -> int:
    sys_ = make_system(args.family)
    m = make_map(args.map, args.branch, sys_)
    params = NumericParams(sys_.name, parse_params(args.params), sys_.n)
    params.check_complete(sys_)
    (Q, P, T), mapped = m.apply_numeric(
        {"q": args.q0, "p": args.p0, "t": complex(args.t0)}, params.values)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "symmetry",
        "map": m.name,
        "point": {"q": _cstr(args.q0), "p": _cstr(args.p0), "t": args.t0},
        "mapped_point": {"q": _cstr(Q), "p": _cstr(P), "t": _cstr(T)},
        "mapped_params": {k: _cstr(v) for k, v in mapped.items()},
    }
    print(f"{m.name}: (q, p, t) -> ({_cstr(Q)}, {_cstr(P)}, {_cstr(T)})")
    print("params ->", ", ".join(f"{k}={_cstr(v)}" for k, v in mapped.items()))
    status = 0
    if args.check_trajectory:
        traj = integrate(sys_, params, args.q0, args.p0, (args.t0, args.t1),
                         h=args.h, method="fixed-rk4")
        samples, residual = len(traj.times), None
        # central differences need three samples; fewer would pass vacuously
        if samples < 3:
            print(f"trajectory check not run: the trajectory stopped "
                  f"({traj.termination}) after {samples} sample(s)")
            status = 1
        else:
            residual = check_symmetry_on_trajectory(traj, m, sys_, params)
            print(f"trajectory residual: {residual:.3e}")
        report.update(trajectory_termination=traj.termination,
                      trajectory_samples=samples,
                      trajectory_residual=residual)
    _emit(report, args.out)
    return status


def _cstr(z) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _emit(payload: dict, path: str | None, **metadata):
    """Write ``payload`` as JSON with a metadata block: the time, plus
    ``metadata``, which is outside the compared payload."""
    doc = dict(payload)
    doc["metadata"] = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                     time.gmtime()),
                       **metadata}
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- argument plumbing -----------------------------------------------------------

def _config_path(argv: list[str]) -> str | None:
    """The path given as '--config path' or '--config=path', else None."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise UsageError("--config needs a path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.partition("=")[2]
    return None


def _config_args(path: str, argv: list[str],
                 parser: argparse.ArgumentParser) -> list[str]:
    """Flags for the config entries that argv does not set itself.  A switch
    (store_true flag) takes an INI boolean and is added only when true."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise UsageError(f"cannot read config file {path!r}")
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    actions = commands[argv[0]]._actions if argv[0] in commands else []
    switches = {flag for a in actions
                if isinstance(a, argparse._StoreTrueAction)
                for flag in a.option_strings}
    flat = {k: v for sec in cp.sections() for k, v in cp.items(sec)}
    extra = []
    for key, value in flat.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in argv:
            continue
        if flag not in switches:
            extra += [flag, value]
            continue
        state = cp.BOOLEAN_STATES.get(value.lower())
        if state is None:
            raise UsageError(f"config {key} = {value!r} is not a boolean")
        if state:
            extra.append(flag)
    return extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamfam",
        description="Verify and integrate the polynomial Hamiltonian families")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact theorem certificates")
    pv.add_argument("--family", required=True,
                    choices=["autonomous5", "general", "nonautonomous3"])
    pv.add_argument("--n", help="single n or range like 2..8 (general family)")
    pv.add_argument("--out", help="write the JSON report here")
    pv.add_argument("--config")
    pv.add_argument("--mutate", choices=["ode", "map", "hamiltonian"],
                    help=argparse.SUPPRESS)  # test-only control
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("integrate", help="integrate one trajectory")
    pi.add_argument("--family", required=True)
    pi.add_argument("--params", default="")
    pi.add_argument("--method", default="fixed-rk4",
                    choices=["fixed-rk4", "adaptive-rk45"])
    pi.add_argument("--h", type=float, default=1e-3)
    pi.add_argument("--tol", type=float, default=1e-9)
    pi.add_argument("--t0", type=float, default=0.0)
    pi.add_argument("--t1", type=float, default=1.0)
    pi.add_argument("--q0", type=parse_complex, default=1 + 0j)
    pi.add_argument("--p0", type=parse_complex, default=0j)
    pi.add_argument("--sweep", help="comma list of h values for order sweep")
    pi.add_argument("--out", help="trajectory CSV path")
    pi.add_argument("--summary-out", dest="summary_out",
                    help="summary JSON path")
    pi.add_argument("--config")
    pi.set_defaults(func=cmd_integrate)

    ps = sub.add_parser("symmetry", help="apply a symmetry map numerically")
    ps.add_argument("--family", required=True)
    ps.add_argument("--map", required=True)
    ps.add_argument("--branch", type=int, default=1)
    ps.add_argument("--params", default="")
    ps.add_argument("--q0", type=parse_complex, default=1 + 0j)
    ps.add_argument("--p0", type=parse_complex, default=0j)
    ps.add_argument("--t0", type=float, default=0.0)
    ps.add_argument("--t1", type=float, default=0.05)
    ps.add_argument("--h", type=float, default=1e-3)
    ps.add_argument("--check-trajectory", action="store_true")
    ps.add_argument("--out")
    ps.add_argument("--config")
    ps.set_defaults(func=cmd_symmetry)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # config file supplies defaults; explicit command-line flags win
        cfg_path = _config_path(argv)
        if cfg_path is not None:
            argv = argv[:1] + _config_args(cfg_path, argv, parser) + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
