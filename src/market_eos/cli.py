"""Command-line front end.

Every command reads one JSON config (strictly validated), runs the
corresponding solver or sampler, and prints a human-readable line plus
optional machine-readable CSV/JSON. Exit codes: 0 success (analysis
findings such as "inconsistent" are successes), 2 config/usage errors,
3 domain or solver errors and inputs too large for memory, 4 I/O
errors. Files are only written when an output path is requested.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import __version__
from .config import ConfigDocument, load_config
from .eos import check_linear_consistency, derive_unitary_eos
from .equilibrium import clearing_price_analytic, clearing_price_numeric
from .errors import BracketingError, ConfigError, DomainError, InvariantError
from .surface import (
    GridSpec,
    family_collapse,
    isocurves,
    isoprice_collapse_check,
    render_chunks,
    sample_surface,
    split_export,
)
# render_csv and render_json are not called here; perfbench's tracer wraps them as cli.render_*
from .surface import render_csv, render_json  # noqa: F401
# rank_markets is not called here; perfbench's tracer wraps it as cli.rank_markets
from .zeroth_law import rank_markets, verify_equivalence_laws  # noqa: F401


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _parse_float_list(text: str, what: str) -> list[float]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{what} must contain at least one value")
    try:
        values = [float(piece) for piece in items]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    for piece, value in zip(items, values):
        if not math.isfinite(value):
            raise ConfigError(f"{what}: {piece!r} is not a finite number")
    return values


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to stdout, or to the file ``out`` and name it; a failed write removes a file it created."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        out_path = Path(out)  # a relative path names a file in the working directory
        created = not out_path.exists()
        file = open(out_path, "w", encoding="utf-8")
        try:
            with file:
                file.writelines(chunks)
        except BaseException:
            if created:
                out_path.unlink(missing_ok=True)
            raise
        print(f"wrote {out_path}")


def _resolve_surface_eos(cfg: ConfigDocument, name: str):
    if name in cfg.eos_entities:
        return cfg.eos_entities[name]
    if name in cfg.markets:
        return derive_unitary_eos(cfg.markets[name])
    raise ConfigError(
        f"unknown eos or market {name!r}; configured: "
        f"{sorted(set(cfg.eos_entities) | set(cfg.markets)) or 'none'}"
    )


def _grid_value(args, cfg: ConfigDocument, option: str, key: str):
    """The command line's ``option`` if given, else the config's ``grid.<key>``."""
    value = getattr(args, option)
    if value is None:
        if cfg.grid is None:
            raise ConfigError(f"grid.{key} is set neither in the config nor on the command line")
        value = getattr(cfg.grid, key)
    return value


def _resolve_grid(args, cfg: ConfigDocument) -> GridSpec:
    fields = {key: _grid_value(args, cfg, key, key) for key in ("x_min", "x_max", "nx", "t_min", "t_max", "nt")}
    try:
        return GridSpec(**fields)
    except InvariantError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def cmd_solve(args, cfg: ConfigDocument) -> int:
    market = cfg.market(args.market)
    analytic = clearing_price_analytic(market)
    numeric = clearing_price_numeric(market)
    # checked after the bisection, so that a NaN excess demand is named by its BracketingError
    if not (math.isfinite(analytic.clearing_quantity) and math.isfinite(analytic.residual)):
        raise DomainError(f"market {args.market!r} clears at Pr*={analytic.clearing_price!r} with "
                          f"Q*={analytic.clearing_quantity!r} and residual={analytic.residual!r}, not both finite")
    delta = abs(analytic.clearing_price - numeric.clearing_price)
    if args.json:
        print(
            json.dumps(
                {
                    "market": args.market,
                    "clearing_price": analytic.clearing_price,
                    "clearing_quantity": analytic.clearing_quantity,
                    "residual": analytic.residual,
                    "cross_check_delta": delta,
                },
                indent=2,
            )
        )
    else:
        print(
            f"Pr*={_fmt(analytic.clearing_price)} Q*={_fmt(analytic.clearing_quantity)} "
            f"residual={_fmt(analytic.residual)} method=analytic cross_check_delta={_fmt(delta)}"
        )
    return 0


def cmd_consistency(args, cfg: ConfigDocument) -> int:
    report = check_linear_consistency(cfg.market(args.market))
    _emit([json.dumps(report.to_dict(), indent=2) + "\n"], args.out)
    return 0


def cmd_eos(args, cfg: ConfigDocument) -> int:
    eos = derive_unitary_eos(cfg.market(args.market))
    _emit([json.dumps(eos.to_dict(), indent=2) + "\n"], args.out)
    print(f"K={_fmt(eos.K)} amplification={_fmt(1.0 / eos.K)} (D/mu0 analogue)")
    return 0


def cmd_surface(args, cfg: ConfigDocument) -> int:
    eos = _resolve_surface_eos(cfg, args.name)
    grid = _resolve_grid(args, cfg)
    with split_export(eos, grid, args.format) as chunks:
        # None where one process samples, checks and writes the whole grid
        _emit(chunks or render_chunks(sample_surface(eos, grid), args.format), args.out)
    return 0


def cmd_isocurves(args, cfg: ConfigDocument) -> int:
    eos = _resolve_surface_eos(cfg, args.name)
    t_values = _parse_float_list(args.t_values, "t-values")
    x_lo, x_hi = _grid_value(args, cfg, "x_min", "x_min"), _grid_value(args, cfg, "x_max", "x_max")
    n_points = _grid_value(args, cfg, "points", "nx")
    family = isocurves(eos, t_values, (x_lo, x_hi), n_points)
    _emit(render_chunks(family, args.format), args.out)
    verdict = family_collapse(family)
    print(f"curves={verdict.n_curves} collapse={str(verdict.collapse).lower()}")
    return 0


def cmd_collapse(args, cfg: ConfigDocument) -> int:
    market = cfg.market(args.market)
    prices = _parse_float_list(args.prices, "prices")
    report = isoprice_collapse_check(market, prices)
    if args.out is not None:
        _emit([json.dumps(report.to_dict(), indent=2) + "\n"], args.out)
    print(
        f"collapse={str(report.collapse).lower()} slope=1/{market.households} "
        f"max_rel_deviation={_fmt(report.max_rel_deviation)}"
    )
    return 0


def cmd_zeroth(args, cfg: ConfigDocument) -> int:
    # written at once, so a market that fails to solve leaves stdout empty; each class price formatted once
    classes = [(_fmt(price), members) for price, members in verify_equivalence_laws(cfg.markets, cfg.quantum)]
    report = ["market quantized_price\n", *(f"{name} {price}\n" for price, members in classes for name in members)]
    # the relation is a partition by integer tick, so the three laws hold for every registry
    report.append("laws: reflexive=pass symmetric=pass transitive=pass\n")
    for price, members in classes:
        labels = {cfg.goods[m] for m in members if m in cfg.goods}
        note = " [mixed goods]" if len(labels) > 1 else ""
        report.append(f"class price={price}: {', '.join(members)}{note}\n")
    sys.stdout.writelines(report)
    return 0


def _add_common(sub: argparse.ArgumentParser, with_out: bool = True) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON config file")
    if with_out:
        sub.add_argument("--out", help="output file path; nothing is written without it")


def _add_grid_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x-min", type=float, help="grid x lower bound")
    sub.add_argument("--x-max", type=float, help="grid x upper bound")
    sub.add_argument("--nx", type=int, help="grid points along x")
    sub.add_argument("--t-min", type=float, help="grid t lower bound")
    sub.add_argument("--t-max", type=float, help="grid t upper bound")
    sub.add_argument("--nt", type=int, help="grid points along t")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="market-eos",
        description="Market-clearing equilibria and equation-of-state surfaces for simple markets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="clearing price and quantity for one market")
    _add_common(sub, with_out=False)
    sub.add_argument("market", help="market name from the config")
    sub.add_argument("--json", action="store_true", help="print a JSON object instead of text")

    sub = commands.add_parser("consistency", help="elasticity consistency report for a linear market")
    _add_common(sub)
    sub.add_argument("market", help="linear market name from the config")

    sub = commands.add_parser("eos", help="constraint-surface constant K for a unitary market")
    _add_common(sub)
    sub.add_argument("market", help="unitary market name from the config")

    sub = commands.add_parser("surface", help="sample a constraint surface on a grid")
    _add_common(sub)
    sub.add_argument("name", help="eos block or unitary market name from the config")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_grid_overrides(sub)

    sub = commands.add_parser("isocurves", help="fixed-t curve family of a constraint surface")
    _add_common(sub)
    sub.add_argument("name", help="eos block or unitary market name from the config")
    sub.add_argument("--t-values", required=True, help="comma-separated t values, e.g. 300,600")
    sub.add_argument("--x-min", type=float, help="curve x lower bound")
    sub.add_argument("--x-max", type=float, help="curve x upper bound")
    sub.add_argument("--points", type=int, help="points per curve")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = commands.add_parser("collapse", help="isoprice degeneracy check for a unitary market")
    _add_common(sub)
    sub.add_argument("market", help="unitary market name from the config")
    sub.add_argument("--prices", required=True, help="comma-separated exogenous prices")

    sub = commands.add_parser("zeroth", help="price ranking and equivalence-law report")
    _add_common(sub, with_out=False)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call, not at import: building imports shutil


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up per call, so a command replaced on the module is the one that runs
        return globals()[f"cmd_{args.command}"](args, load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvariantError, BracketingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory (grid or input too large)", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream reader (e.g. head) closed stdout; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
