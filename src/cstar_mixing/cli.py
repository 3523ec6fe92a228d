"""Command-line front end.

Four subcommands: ``classify`` a system file, ``verify`` a named theorem on
a random ensemble, ``example`` to materialize and classify one of the three
built-in systems, and ``probe-problem1`` for the empirical weak-mixing
versus strict-ergodicity search. Machine-readable output always goes to a
JSON file; the console shows a fixed-width verdict table and is not meant
to be parsed. Exit codes: 0 success, 2 input or validation error, 3 method
disagreement, 4 numerical breakdown.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import Config, DEFAULT, FIELD_TYPES
from .errors import (
    DisagreementFailure,
    MethodDisagreement,
    NumericalFailure,
    ValidationError,
    ValidationFailure,
)
from .mixing import (
    DynamicalSystem,
    PROPERTIES,
    classify,
    probe_problem1,
    verify_theorem,
)
from .models import (
    _MAX_VOLUME,
    compatibility_residual,
    example1,
    example2,
    example3_channels,
    example3_distinct_states,
)
from .serialize import (
    dump_json,
    parse_system,
    probe_record_to_dict,
    report_to_dict,
    system_to_dict,
    to_jsonable,
    verification_record_to_dict,
)

PROBE_LABEL = "empirical evidence, not a mathematical answer"


# ---------------------------------------------------------------------------
# config flags
# ---------------------------------------------------------------------------

def _config_from_flags(args: argparse.Namespace) -> tuple[Config, dict]:
    """DEFAULT plus --tol-spectral / --set overrides; returns them as a dict
    too so they can be re-applied on top of a file's own config section.
    A negative --seed is rejected here, before any generator is seeded."""
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    overrides: dict = {}
    for item in args.set or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--set expects FIELD=VALUE, got {item!r}")
        if name not in FIELD_TYPES:
            raise ValidationError(
                f"--set {name}: unknown config field; valid: "
                + ", ".join(sorted(FIELD_TYPES)))
        try:
            overrides[name] = FIELD_TYPES[name](value)
        except ValueError:
            raise ValidationError(
                f"--set {name}: cannot read {value!r} as "
                f"{FIELD_TYPES[name].__name__}") from None
    if getattr(args, "tol_spectral", None) is not None:
        overrides["tol_spectral"] = args.tol_spectral
    return DEFAULT.replace(**overrides), overrides


def _parse_shape(text: str) -> list[int]:
    try:
        blocks = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"--shape expects comma-separated integers, got {text!r}") from None
    return blocks


# ---------------------------------------------------------------------------
# console rendering
# ---------------------------------------------------------------------------

def _verdict_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return "unsupported"


def _print_table(report) -> None:
    print(f"{'property':<22}{'verdict':<14}routes")
    print("-" * 66)
    for name in PROPERTIES:
        agreement = report.method_agreement.get(name, {})
        routes = agreement.get("routes", {})
        cell = "  ".join(f"{k}={_verdict_str(v)}" for k, v in routes.items())
        if not cell:
            cell = agreement.get("detail", "")
        print(f"{name:<22}{_verdict_str(report.verdicts[name]):<14}{cell}")
    print("-" * 66)
    obs = report.witnesses.get("peripheral_obstruction")
    if obs is not None:
        if obs["clean"]:
            print("peripheral obstruction: none")
        else:
            print(f"peripheral obstruction: alpha = {obs['alpha']:.12g}, "
                  f"eigenfunctional residual = {obs['residual']:.3e}")
    dim = report.witnesses.get("fixed_space_dim")
    if dim is not None:
        peripheral = report.witnesses.get("peripheral", [])
        print(f"fixed-space dimension {dim}, "
              f"{len(peripheral)} peripheral eigenvalue cluster(s)")


def _resolve_out(out: str | None, default_name: str) -> str:
    """--out may name a file, or a directory to drop the default name in."""
    if not out:
        return default_name
    if out.endswith(os.sep) or os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, os.path.basename(default_name))
    return out


def _report_path(input_path: str, out: str | None) -> str:
    stem, _ = os.path.splitext(input_path)
    return _resolve_out(out, stem + ".report.json")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _classify_file(path: str, overrides: dict, seed: int,
                   report_path: str, extra_witnesses: dict | None = None) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    system = parse_system(text)
    if overrides:
        # flags win over the file's config section
        system = DynamicalSystem(system.operator, system.state,
                                 system.config.replace(**overrides))
    try:
        report = classify(system, system.config, seed=seed)
    except MethodDisagreement as e:
        if e.report is not None:
            partial = report_to_dict(e.report)
            partial["method_disagreement"] = str(e)
            dump_json(partial, report_path)
            print(f"partial report: {report_path}")
        print(f"method disagreement: {e}", file=sys.stderr)
        return 3
    doc = report_to_dict(report)
    if extra_witnesses:
        doc["witnesses"].update(to_jsonable(extra_witnesses))
    dump_json(doc, report_path)
    _print_table(report)
    print(f"report: {report_path}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    _, overrides = _config_from_flags(args)
    return _classify_file(args.path, overrides, args.seed,
                          _report_path(args.path, args.out))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    config, _ = _config_from_flags(args)
    shape = _parse_shape(args.shape)
    record = verify_theorem(args.theorem, shape, args.trials,
                            seed=args.seed, config=config)
    out = _resolve_out(args.out, f"verify_{args.theorem}_shape"
                       f"{'x'.join(map(str, shape))}_t{args.trials}"
                       f"_s{args.seed}.json")
    dump_json(verification_record_to_dict(record), out)
    print(f"{args.theorem} on shape {shape}: "
          f"{record.passes}/{record.trials} trials passed")
    if record.counterexample is not None:
        stem, _ = os.path.splitext(out)
        ce_path = stem + ".counterexample.json"
        ce_system = record.counterexample.get("system")
        if ce_system is not None:
            dump_json(system_to_dict(ce_system), ce_path)
            print(f"counterexample system (replayable via classify): {ce_path}")
        else:
            print(f"first failure: {record.counterexample.get('error')}")
    print(f"record: {out}")
    return 0


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def _write_system(system: DynamicalSystem, path: str) -> None:
    dump_json(system_to_dict(system), path)
    print(f"system file: {path}")


def cmd_example(args: argparse.Namespace) -> int:
    _, overrides = _config_from_flags(args)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    if args.number == 1:
        system = example1(args.d)
        path = os.path.join(out_dir, f"example1_d{args.d}.json")
        _write_system(system, path)
        return _classify_file(path, overrides, args.seed,
                              _report_path(path, None))

    if args.number == 2:
        system, witness = example2(args.d, args.k)
        path = os.path.join(out_dir, f"example2_d{args.d}_k{args.k}.json")
        _write_system(system, path)
        extra = {"rotation_witness": {
            "functional": witness.functional,
            "eigenvalue": witness.eigenvalue,
            "residual": witness.residual,
        }}
        code = _classify_file(path, overrides, args.seed,
                              _report_path(path, None), extra)
        if code == 0:
            print(f"rotation witness: eigenvalue {witness.eigenvalue:.12g}, "
                  f"residual {witness.residual:.3e}")
        return code

    if len(args.P) != 4:
        raise ValidationError(
            f"--P expects four row-major entries, got {len(args.P)}")
    # the compatibility report compares volumes L and L - 1
    if not 2 <= args.L <= _MAX_VOLUME:
        raise ValidationError(
            f"--L must lie in 2..{_MAX_VOLUME}, got {args.L}")
    P = [args.P[:2], args.P[2:]]
    k1, k2, rho1, rho2 = example3_channels(P, args.q)
    systems = {"K1": DynamicalSystem(k1, rho1), "K2": DynamicalSystem(k2, rho2)}
    combined: dict = {"tool_version": __version__, "channels": {}}
    for label, system in systems.items():
        path = os.path.join(out_dir, f"example3_{label}.json")
        _write_system(system, path)
        print(f"--- single-site system {label} ---")
        report_path = _report_path(path, None)
        code = _classify_file(path, overrides, args.seed, report_path)
        if code != 0:
            return code
        combined["channels"][label] = {"system": path, "report": report_path}

    compat = {"K1": {}, "K2": {}}
    for L in range(2, args.L + 1):
        compat["K1"][str(L)] = compatibility_residual(k1, rho1, L)
        compat["K2"][str(L)] = compatibility_residual(k2, rho2, L)
    distinct = example3_distinct_states(P, args.q, args.L)
    combined["compatibility_residuals"] = compat
    combined["distinct_states"] = {"volume": distinct.volume,
                                   "distance": distinct.distance}
    chain_path = os.path.join(out_dir, "example3_chain.json")
    dump_json(to_jsonable(combined), chain_path)
    print("--- chain states ---")
    for label in ("K1", "K2"):
        worst = max(compat[label].values())
        print(f"{label}: worst compatibility residual through L={args.L}: "
              f"{worst:.3e}")
    print(f"trace-norm distance of the two volume-{args.L} states: "
          f"{distinct.distance:.6f}")
    print(f"chain report: {chain_path}")
    return 0


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def cmd_probe_problem1(args: argparse.Namespace) -> int:
    config, _ = _config_from_flags(args)
    shape = _parse_shape(args.shape)
    record = probe_problem1(shape, args.trials, seed=args.seed, config=config)
    doc = probe_record_to_dict(record)
    doc["label"] = PROBE_LABEL
    out = _resolve_out(args.out, f"probe_problem1_shape{'x'.join(map(str, shape))}"
                       f"_t{args.trials}_s{args.seed}.json")
    dump_json(doc, out)
    print(f"probe over {record.trials} channels on shape {shape} "
          f"({PROBE_LABEL}):")
    if record.no_counterexample:
        print("no weakly mixing, strictly ergodic, non-strictly-weak-mixing "
              "system found")
    else:
        stem, _ = os.path.splitext(out)
        ce_path = stem + ".counterexample.json"
        dump_json(system_to_dict(record.counterexample["system"]), ce_path)
        print(f"candidate found at trial {record.counterexample['trial']}; "
              f"replayable system: {ce_path}")
    print(f"findings: {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-spectral", type=float, default=None,
                   help="override the spectral residual tolerance")
    p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                   help="override any configuration field (repeatable)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for estimator sampling (default 0)")
    p.add_argument("--out", default=None, help="output file or directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstar-mixing",
        description="Classify finite-dimensional C*-dynamical systems in the "
                    "mixing hierarchy, verify the supporting theorems, and "
                    "reproduce the worked examples.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a system file")
    p.add_argument("path", help="JSON system file")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="verify a theorem on a random ensemble")
    p.add_argument("theorem", help="theorem identifier, e.g. thm_4_5")
    p.add_argument("--shape", default="2",
                   help="algebra block sides, e.g. 2 or 1,1,2 (default 2)")
    p.add_argument("--trials", type=int, default=100,
                   help="ensemble size (default 100)")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="materialize and classify an example")
    p.add_argument("number", type=int, choices=(1, 2, 3),
                   help="which example to build")
    p.add_argument("--d", type=int, default=8,
                   help="points for examples 1 and 2 (default 8)")
    p.add_argument("--k", type=int, default=5,
                   help="rotation step for example 2 (default 5)")
    p.add_argument("--P", type=lambda s: [float(v) for v in s.split(",")],
                   default=[0.7, 0.3, 0.4, 0.6], metavar="a,b,c,d",
                   help="row-major 2x2 transition matrix for example 3")
    p.add_argument("--q", type=lambda s: [float(v) for v in s.split(",")],
                   default=[0.5, 0.5], metavar="q1,q2",
                   help="diagonal weights for example 3")
    p.add_argument("--L", type=int, default=3,
                   help="chain volume for example 3 (default 3)")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("probe-problem1",
                       help="search for weak mixing with strict ergodicity "
                            "but no strict weak mixing")
    p.add_argument("--shape", default="2",
                   help="algebra block sides (default 2)")
    p.add_argument("--trials", type=int, default=100,
                   help="channels to screen (default 100)")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_probe_problem1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DisagreementFailure as e:
        print(f"method disagreement: {e}", file=sys.stderr)
        return 3
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
