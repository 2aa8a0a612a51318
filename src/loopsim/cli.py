"""Command-line entry point.

    loopsim run --scenario <name> --config <file> [--out <dir>] [--seed <n>] [--strict]
    loopsim validate --config <file>
    loopsim oracle embed --topology <file> --chain <file>

Exit codes: 0 success, 2 invalid configuration (a chain that cannot be
embedded too), 3 training divergence, 4 a --strict threshold check missed.
Everything else lives in the config file.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, TrainingDivergedError
from . import sdi
from .chain import EmbeddingError, embed_bruteforce, load_chain, validate_chain
from .scenarios import (SCENARIOS, check_loops, file_chain, load_scenario_config,
                        read_scenario_config, run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_STRICT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopsim",
                                     description="closed-loop network automation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    run.add_argument("--strict", action="store_true",
                     help="exit 4 when a scenario threshold check fails")

    val = sub.add_parser("validate",
                         help="validate a scenario config, its references and its loops")
    val.add_argument("--config", required=True)

    oracle = sub.add_parser("oracle", help="reference oracles for cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    oemb = oracle_sub.add_parser("embed", help="exhaustive minimum-latency embedding")
    oemb.add_argument("--topology", required=True)
    oemb.add_argument("--chain", required=True)
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_scenario_config(args.config)
        if cfg.scenario != args.scenario:
            raise ConfigError(f"config declares scenario {cfg.scenario!r}, "
                              f"--scenario says {args.scenario!r}")
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        report = run_scenario(cfg)
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConfigError as exc:  # a loop that cannot be placed too
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key in sorted(report.metrics):
        print(f"{key}: {report.metrics[key]}")
    for key in sorted(report.checks):
        print(f"check {key}: {'pass' if report.checks[key] else 'FAIL'}")
    print(f"wall_clock_s: {report.wall_clock_s:.2f}")
    if args.strict and not report.strict_ok:
        print("strict mode: at least one threshold check failed", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg, inputs = read_scenario_config(args.config)
        chain = file_chain(inputs.params)
        if chain is not None:
            for warning in validate_chain(chain).warnings:
                print(f"warning: {inputs.params['chain_file']}: {warning}")
        check_loops(cfg, inputs.params, chain)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: {args.config} is a valid {cfg.scenario} config")
    return EXIT_OK


def _cmd_oracle_embed(args) -> int:
    try:
        state = sdi.load_topology(args.topology)
        chain = load_chain(args.chain)
        embedding = embed_bruteforce(chain, state)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmbeddingError as exc:
        print(f"infeasible: {exc}")
        return EXIT_OK
    print(f"feasible: total latency {embedding.total_latency_ms} ms")
    for step in sorted(embedding.assignment):
        print(f"  {step} -> {embedding.assignment[step]}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "oracle":
        return _cmd_oracle_embed(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
