"""Command line interface.

Four subcommands: ``tau`` (threshold calibration math), ``synth`` (privatize
one column and optionally sample synthetic records), ``sweep`` (fidelity over
an epsilon/rho grid, emitted as plot-ready CSV), ``fidelity`` (score a
release against the true column).

Exit codes: 0 success, 1 usage error, 2 validity-gate or domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import Any, Iterable

import numpy as np

from .core import (
    CatHistError,
    DomainSpec,
    ExplicitList,
    IngestError,
    PrivacyParams,
    SizeOnly,
    WordList,
    WordPairs,
)
from .domain import load_domain
from .ingest import ColumnSelector, load_histogram, read_histogram, write_histogram
# synthesize_records is bound here for bench/layers.py, which traces it at
# this name; synth draws the records' bin indices instead.
from .mechanism import CatHistConfig, cat_hist, record_chunks, synthesize_records  # noqa: F401
from .metrics import fidelity, fidelity_pointwise
from .numerics import inclusion_probability, make_rng, noisy_threshold
from .sweep import DEFAULT_EPSILONS, DEFAULT_RHOS, THREAD_DRAWS, SweepConfig, run_sweep, write_sweep_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDITY = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_column(value: str) -> str | int:
    # isdigit would also pass "²", which int() refuses; int() takes every
    # decimal digit.
    return int(value) if value.isdecimal() else value


def _parse_grid(value: str) -> tuple[float, ...]:
    # The type of --epsilons and --rhos: argparse words an error as
    # "argument --epsilons: <message>".
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty grid list")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="JSON file of defaults; keys are long flag names")


def _add_input_flags(sub: argparse.ArgumentParser, prefix: str = "") -> None:
    dash = f"--{prefix}-" if prefix else "--"
    dest = prefix.replace("-", "_") + "_" if prefix else ""
    sub.add_argument(f"{dash}input", dest=f"{dest}input", default="-", metavar="FILE",
                     help="delimited input file, - for stdin (default)")
    sub.add_argument(f"{dash}column", dest=f"{dest}column", metavar="NAME_OR_INDEX",
                     help="column to read, by header name or 0-based index")
    sub.add_argument(f"{dash}no-header", dest=f"{dest}no_header", action="store_true",
                     help="input has no header row (column must be an index)")
    sub.add_argument(f"{dash}delimiter", dest=f"{dest}delimiter", default=",",
                     help="field delimiter (default comma)")
    sub.add_argument("--drop-value", action="append", default=[], metavar="VALUE",
                     help="drop cells with this exact value (repeatable)")


def _add_domain_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--domain-list", metavar="A,B,C", help="explicit comma-separated domain")
    sub.add_argument("--domain-words", metavar="FILE", help="wordlist file, one word per line")
    sub.add_argument("--domain-word-pairs", metavar="FILE",
                     help="domain of all ordered pairs over a wordlist file")
    sub.add_argument("--domain-size", type=int, metavar="N",
                     help="abstract domain of N generated categories")
    sub.add_argument("--domain-prefix", default="cat", metavar="PREFIX",
                     help="label prefix for --domain-size (default 'cat')")


def _add_mechanism_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, help="privacy budget, > 0")
    sub.add_argument("--rho", type=float, help="target zero-injection probability, in (0, 1)")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cathist", description=__doc__.split("\n\n")[1])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p_tau = commands.add_parser("tau", help="threshold calibration for (epsilon, rho, n)")
    _add_config_flag(p_tau)
    p_tau.add_argument("--epsilon", type=float, help="privacy budget, > 0")
    p_tau.add_argument("--rho", type=float, help="target zero-injection probability, in (0, 1)")
    p_tau.add_argument("--n", type=int, help="domain size")
    p_tau.set_defaults(func=cmd_tau)

    p_synth = commands.add_parser("synth", help="privatize one column")
    _add_config_flag(p_synth)
    _add_input_flags(p_synth)
    _add_domain_flags(p_synth)
    _add_mechanism_flags(p_synth)
    p_synth.add_argument("--output", metavar="FILE", help="noisy histogram file (.csv or .json)")
    p_synth.add_argument("--format", choices=["csv", "json"],
                         help="output format (default by file suffix)")
    p_synth.add_argument("--records", type=int, default=0, metavar="M",
                         help="also sample M synthetic records")
    p_synth.add_argument("--records-output", metavar="FILE",
                         help="destination for --records (one-column CSV)")
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = commands.add_parser("sweep", help="fidelity sweep over an epsilon/rho grid")
    _add_config_flag(p_sweep)
    _add_input_flags(p_sweep)
    _add_domain_flags(p_sweep)
    p_sweep.add_argument("--epsilons", type=_parse_grid, default=DEFAULT_EPSILONS,
                         metavar="E1,E2,...", help="epsilon grid")
    p_sweep.add_argument("--rhos", type=_parse_grid, default=DEFAULT_RHOS,
                         metavar="R1,R2,...", help="rho grid")
    p_sweep.add_argument("--repetitions", type=int, default=100, help="runs per cell (default 100)")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help=f"most worker threads (default 1); cells of fewer than {THREAD_DRAWS} "
                              "draws (repetitions x active bins) run in one")
    p_sweep.add_argument("--output", metavar="FILE", help="sweep CSV destination")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fid = commands.add_parser("fidelity", help="score a release against the true column")
    _add_config_flag(p_fid)
    p_fid.add_argument("--true-file", metavar="FILE", help="true histogram file (.csv or .json)")
    _add_input_flags(p_fid, prefix="true")
    p_fid.add_argument("--synth-file", metavar="FILE", help="released histogram file")
    p_fid.add_argument("--variant", choices=["product", "pointwise"], default="product",
                       help="product of intersection masses (default) or pointwise sum")
    p_fid.set_defaults(func=cmd_fidelity)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv. A --config file's flags go in right after the command
    word, so an explicit flag wins and repeated flags add up."""
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    if not config_path:
        return args
    try:
        with open(config_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestError(f"{config_path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise IngestError(f"{config_path}: expected a JSON object of flag values")
    flags = _config_flags(config_path, data, args)
    try:
        parser.parse_args([args.command, *flags])  # on their own, so an error names the file
    except UsageError as exc:
        raise UsageError(f"{config_path}: {exc}") from None
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


# Flags that take one comma-separated value: a config list is joined.
_JOINED_FLAGS = frozenset({"epsilons", "rhos", "domain_list"})


def _config_flags(config_path: str, data: dict, args: argparse.Namespace) -> list[str]:
    """The command-line flags that spell a config object for args' command."""
    flags = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        # A full flag name only: argparse would take an abbreviation.
        if dest in ("func", "command", "config") or not hasattr(args, dest):
            raise UsageError(f"{config_path}: unknown config key {key!r}")
        flag, parsed = "--" + dest.replace("_", "-"), getattr(args, dest)
        if isinstance(parsed, bool):  # a switch
            if not isinstance(value, bool):
                raise UsageError(f"{config_path}: config key {key!r}: expected true or false, got {value!r}")
            flags += [flag] if value else []
            continue
        many = isinstance(value, list) and (isinstance(parsed, list) or dest in _JOINED_FLAGS)
        items = value if many else [value]
        if not all(isinstance(item, (str, int, float)) and not isinstance(item, bool) for item in items):
            raise UsageError(f"{config_path}: config key {key!r}: expected a string or a number, got {value!r}")
        texts = [item if isinstance(item, str) else repr(item) for item in items]  # a number is its text
        if dest in _JOINED_FLAGS:
            texts = [",".join(texts)]
        flags += [f"{flag}={text}" for text in texts]  # = keeps a value that starts with -
    return flags


def _require(args: argparse.Namespace, name: str) -> Any:
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"--{name} is required")
    return value


def _check_seed(args: argparse.Namespace) -> None:
    # Checked up front: make_rng would refuse it only once the column is read.
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")


def _resolve_domain(args: argparse.Namespace) -> DomainSpec:
    chosen: list[DomainSpec] = []
    if args.domain_list is not None:
        labels = [part.strip() for part in args.domain_list.split(",")]
        chosen.append(ExplicitList(labels))
    if args.domain_words is not None:
        chosen.append(WordList(args.domain_words))
    if args.domain_word_pairs is not None:
        chosen.append(WordPairs(args.domain_word_pairs))
    if args.domain_size is not None:
        chosen.append(SizeOnly(args.domain_size, args.domain_prefix))
    if len(chosen) != 1:
        raise UsageError(
            "exactly one of --domain-list, --domain-words, --domain-word-pairs, "
            "--domain-size is required"
        )
    return chosen[0]


def _selector(args: argparse.Namespace, prefix: str = "") -> ColumnSelector:
    dest = prefix + "_" if prefix else ""
    column = getattr(args, f"{dest}column", None)
    if column is None:
        raise UsageError(f"--{prefix + '-' if prefix else ''}column is required")
    return ColumnSelector(
        source=getattr(args, f"{dest}input"),
        column=_parse_column(column),
        has_header=not getattr(args, f"{dest}no_header"),
        delimiter=getattr(args, f"{dest}delimiter"),
    )


def cmd_tau(args: argparse.Namespace) -> int:
    epsilon = _require(args, "epsilon")
    rho = _require(args, "rho")
    n = _require(args, "n")
    threshold = noisy_threshold(epsilon, rho, n)
    p = inclusion_probability(epsilon, threshold)
    round_trip = math.exp(n * math.log1p(-p))
    print(f"tau = {threshold!r}")
    print(f"inclusion_probability = {p!r}")
    print(f"expected_injected = {n * p!r} (empty column; (n - a) * p with a active labels)")
    print(f"zero_injection_probability = {round_trip!r} (target rho = {rho!r}; "
          "empty column; rho^((n - a)/n) with a active labels)")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    output = _require(args, "output")
    epsilon = _require(args, "epsilon")
    rho = _require(args, "rho")
    if args.records < 0:
        raise UsageError(f"--records must be >= 0, got {args.records}")
    if args.records and not args.records_output:
        raise UsageError("--records requires --records-output")
    _check_seed(args)
    privacy = PrivacyParams(epsilon, rho)
    domain = _resolve_domain(args)
    selector = _selector(args)
    hist = read_histogram(selector, frozenset(args.drop_value))
    sampler = load_domain(domain)
    config = CatHistConfig(
        privacy=privacy,
        domain=domain,
        seed=args.seed,
    )
    noisy = cat_hist(config, hist, sampler=sampler)
    # Refuses an empty release, and opens the records file, before the
    # release is written; a release that cannot be written removes the
    # records file again. So a run that fails on either file writes neither.
    chunks = record_chunks(make_rng(args.seed, 2), noisy, args.records) if args.records else ()
    records = open(args.records_output, "w", encoding="utf-8", newline="") if args.records else nullcontext()
    with records as fh:
        threshold = noisy_threshold(epsilon, rho, sampler.size)
        meta = {"epsilon": epsilon, "rho": rho, "n": sampler.size, "tau": threshold, "seed": args.seed}
        try:
            write_histogram(noisy, output, fmt=args.format, meta=meta)
        except BaseException:
            if fh is not None:
                fh.close()
                os.remove(args.records_output)
            raise
        injected = noisy.injected.count(True)
        surviving = len(noisy) - injected
        removed = np.count_nonzero(hist.counts) - surviving
        print(
            f"tau={threshold!r} surviving={surviving} removed={removed} injected={injected}",
            file=sys.stderr,
        )
        if fh is not None:
            # Each record is its bin's CSV line, written a chunk at a time as drawn.
            lines = np.array(_csv_lines(noisy.labels()), dtype=object)
            fh.write("category\n")
            for at in chunks:
                fh.write("".join(lines[at].tolist()))
    return EXIT_OK


def _csv_lines(labels: Iterable[str]) -> list[str]:
    """Each label's one-field CSV line, as csv.writer writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lines = []
    for label in labels:
        writer.writerow((label,))
        lines.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return lines


def cmd_sweep(args: argparse.Namespace) -> int:
    output = _require(args, "output")
    _check_seed(args)
    # Checked up front, as the seed is: run_sweep would refuse it only once
    # the domain is loaded.
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    domain = _resolve_domain(args)
    selector = _selector(args)
    config = SweepConfig(
        column=selector,
        domain=domain,
        epsilons=args.epsilons,
        rhos=args.rhos,
        repetitions=args.repetitions,
        base_seed=args.seed,
        drop_values=frozenset(args.drop_value),
    )
    sampler = load_domain(domain)
    rows = run_sweep(config, jobs=args.jobs, sampler=sampler)
    for row in rows:
        if row.status == "invalid":
            print(
                f"cell epsilon={row.epsilon} rho={row.rho}: invalid, rho^(1/n) < 1/2 for n={sampler.size}",
                file=sys.stderr,
            )
    write_sweep_csv(rows, output)
    print(f"wrote {len(rows)} grid cells to {output}", file=sys.stderr)
    return EXIT_OK


def cmd_fidelity(args: argparse.Namespace) -> int:
    if args.true_file:
        # The flags that read a column mean nothing for a histogram file.
        column_flags = {
            "--true-input": args.true_input != "-",
            "--true-column": args.true_column is not None,
            "--true-no-header": args.true_no_header,
            "--true-delimiter": args.true_delimiter != ",",
            "--drop-value": bool(args.drop_value),
        }
        given = [flag for flag, is_given in column_flags.items() if is_given]
        if given:
            raise UsageError(f"give either --true-file or {', '.join(given)}, not both")
        true_h = load_histogram(args.true_file)  # a release scores as the counts it holds
    else:
        true_h = read_histogram(_selector(args, prefix="true"), frozenset(args.drop_value))
    synth_file = _require(args, "synth-file")
    synth_h = load_histogram(synth_file)
    if args.variant == "pointwise":
        print(f"fidelity_pointwise = {fidelity_pointwise(true_h, synth_h)!r}")
    else:
        score = fidelity(true_h, synth_h)
        print(f"fidelity = {score.value!r}")
        print(f"intersection_size = {score.intersection_size}")
        print(f"true_mass_in_intersection = {score.true_mass_in_intersection!r}")
        print(f"synth_mass_in_intersection = {score.synth_mass_in_intersection!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parse_args(parser, argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if not getattr(args, "command", None):
            raise UsageError("a command is required (tau, synth, sweep, fidelity)")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CatHistError as exc:  # ValidityError and any other
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
