"""Command-line front end.

Every run is driven by a JSON config file plus a handful of override flags,
and (config, seed) determines each output byte for byte: JSON fields are
emitted in fixed order with 12 significant digits, CSV rows in sweep-parameter
order.

All quadratures are in units where the ground-state variance is 1/2.  No unit
conversion happens anywhere in this tool; rescale external homodyne data
before ingesting it.

Exit codes: 0 success, 2 config error (including an unreadable input file),
3 precondition/numeric error (including a malformed input CSV row),
4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .density import GridDensity, GridSpec, read_density_csv, write_density_csv
from .depth import fano_depth, subplanck_depth, wigner_negativity_depth
from .distill import (
    DistillConfig,
    binary_sequence_distill,
    quantify,
    universal_distill,
)
from .errors import ConfigError, PreconditionError, QuantifierError, SolverError
from .oracle import ks_distance, simulate_protocol
from .phonon import RabiModel, fit_populations, read_rabi_csv
from .states import STATE_KEYS, StateSpec, default_grid, realize

__all__ = ["main", "canonical_json"]

_INPUT_KEYS = ("state", "density_csv", "rabi_csv")
# The kind of every config value: int, float, str, bool or list (of numbers),
# and for a section a dict of its keys' kinds.
_CONFIG = {
    "state": {key: kind for key, (_, kind) in STATE_KEYS.items()},
    "density_csv": str,
    "rabi_csv": str,
    "pipeline": {
        "layers": int, "conditioning_xbar": float,
        "nonuniversal_prelayers": int, "prelayer_xbar": float,
    },
    "grid": {"extent": float, "nodes": int},
    "outputs": {"report_json": str, "table_csv": str},
    "seed": int,
    "rabi_model": {
        "omega01": float, "gamma_decay": float, "n_max": int,
        "scaling": str, "lamb_dicke": float, "decay_exponent": float,
    },
    "oracle": {"eps": float, "batches": int, "batch_size": int, "samples_csv": str},
    "sweep": {"parameter": str, "values": list, "with_depth": bool},
    "depth": {"witness": str, "asymptotic": bool},
}
_KIND_NAMES = {
    int: "an integer", float: "a number", list: "a list of numbers", str: "a string",
    bool: "true or false", None: "absent (no such key)",
}
# sweep parameter -> (the config section and key it sets, the state kind that
# reads it); None reads any state, or with layers_N any input
_SWEEPS = {
    "fock_n": ("state", "n", "fock"),
    "layers_N": ("pipeline", "layers", None),
    "nbar": ("state", "nbar", None),
    "alpha": ("state", "alpha", "cat"),
    "gamma": ("state", "gamma", "cubic"),
    "spacing": ("state", "spacing", "gkp"),
}
_WITNESSES = ("subplanck", "wigner", "fano")
_SAMPLE_ROWS_PER_WRITE = 4096


@dataclass
class RunConfig:
    """The checked config values, with flag overrides already applied."""

    state: StateSpec | None
    density_csv: str | None
    rabi_csv: str | None
    pipeline: DistillConfig
    grid_extent: float | None
    grid_nodes: int | None
    outputs: dict[str, str]
    seed: int
    rabi_model: RabiModel | None
    oracle: dict
    sweep: dict
    depth: dict


def canonical_json(obj) -> str:
    """Serialize with fixed key order and 12-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _checked(value, kind, key: str):
    """``value`` as a ``kind`` of :data:`_CONFIG`, or a config error naming ``key``.

    A section is checked key by key, and the kind ``None`` marks an unknown key.
    A number comes back as a float, and an integer setting takes an integral
    float as its int; a boolean is no number.
    """
    try:
        if isinstance(kind, dict):
            if isinstance(value, dict):
                return {k: _checked(v, kind.get(k), f"{key}.{k}") for k, v in value.items()}
        elif kind is list:
            if type(value) is list and all(type(v) in (int, float) for v in value):
                return [float(v) for v in value]
        elif kind is float:
            if type(value) in (int, float):
                return float(value)
        elif kind is int:
            if type(value) is int or (type(value) is float and value.is_integer()):
                return int(value)
        elif kind is not None and type(value) is kind:
            return value
    except OverflowError:  # an integer beyond the float range
        pass
    name = "an object" if isinstance(kind, dict) else _KIND_NAMES[kind]
    raise ConfigError(f"{key} must be {name}, got {value!r}")


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Read the config file, check each value's kind and fold in the flags."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = {key: _checked(value, _CONFIG.get(key), key) for key, value in raw.items()}

    sources = [k for k in _INPUT_KEYS if k in raw]
    if len(sources) > 1:
        raise ConfigError(f"config must name exactly one input source, got {sources}")
    try:
        state = StateSpec.from_dict(raw["state"]) if "state" in raw else None
        pipeline = DistillConfig(**raw.get("pipeline", {}))
        model = RabiModel(**raw["rabi_model"]) if "rabi_model" in raw else None
    except (QuantifierError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc

    grid = raw.get("grid", {})
    outputs = raw.get("outputs", {})
    if len(set(outputs.values())) != len(outputs):
        raise ConfigError("output paths must be distinct")
    return RunConfig(
        state=state,
        density_csv=raw.get("density_csv"),
        rabi_csv=raw.get("rabi_csv"),
        pipeline=pipeline,
        grid_extent=args.grid_extent if args.grid_extent is not None else grid.get("extent"),
        grid_nodes=args.grid_nodes if args.grid_nodes is not None else grid.get("nodes"),
        outputs=outputs,
        seed=args.seed if args.seed is not None else raw.get("seed", 0),
        rabi_model=model,
        oracle=raw.get("oracle", {}),
        sweep=raw.get("sweep", {}),
        depth=raw.get("depth", {}),
    )


def _grid_for(cfg: RunConfig, spec: StateSpec) -> GridSpec | None:
    """The spec's default grid with the configured extent and nodes, if any is set."""
    if cfg.grid_extent is None and cfg.grid_nodes is None:
        return None
    grid = default_grid(spec)
    return GridSpec(
        grid.extent if cfg.grid_extent is None else cfg.grid_extent,
        grid.nodes if cfg.grid_nodes is None else cfg.grid_nodes,
    )


def _fit_from_csv(cfg: RunConfig):
    if cfg.rabi_model is None:
        raise ConfigError("rabi_csv input needs a rabi_model section")
    times, pe = read_rabi_csv(cfg.rabi_csv)
    return fit_populations(times, pe, cfg.rabi_model)


def resolve_density(cfg: RunConfig) -> GridDensity:
    """Turn whichever input source the config names into a density."""
    if cfg.state is not None:
        return realize(cfg.state, _grid_for(cfg, cfg.state))
    if cfg.density_csv is not None:
        return read_density_csv(cfg.density_csv)
    if cfg.rabi_csv is not None:
        fit = _fit_from_csv(cfg)
        spec = StateSpec(
            kind="mixture",
            populations=tuple(float(p) for p in fit.distribution.populations),
        )
        return realize(spec, _grid_for(cfg, spec))
    raise ConfigError("config names no input source")


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_path(cfg: RunConfig, args: argparse.Namespace) -> str | None:
    return args.out if args.out is not None else cfg.outputs.get("report_json")


def _table_path(cfg: RunConfig, args: argparse.Namespace) -> str | None:
    return args.out if args.out is not None else cfg.outputs.get("table_csv")


def cmd_quantify(cfg: RunConfig, args: argparse.Namespace) -> None:
    report = quantify(resolve_density(cfg), cfg.pipeline)
    _emit(canonical_json(report.to_dict()), _report_path(cfg, args))


def cmd_export_density(cfg: RunConfig, args: argparse.Namespace) -> None:
    path = _table_path(cfg, args)
    if path is None:
        raise ConfigError("export-density needs --out or outputs.table_csv")
    write_density_csv(resolve_density(cfg), path)


def cmd_fit_phonons(cfg: RunConfig, args: argparse.Namespace) -> None:
    if cfg.rabi_csv is None:
        raise ConfigError("fit-phonons needs a rabi_csv input")
    fit = _fit_from_csv(cfg)
    payload = {"populations": [float(p) for p in fit.distribution.populations]}
    _emit(canonical_json(payload), _report_path(cfg, args))


def cmd_depth(cfg: RunConfig, args: argparse.Namespace) -> None:
    witness = args.witness or cfg.depth.get("witness", "subplanck")
    if witness not in _WITNESSES:
        raise ConfigError(f"witness must be one of {_WITNESSES}")
    if cfg.state is None:
        raise ConfigError("depth analysis needs a parametric state input")
    if witness == "subplanck":
        asymptotic = args.asymptotic or cfg.depth.get("asymptotic", False)
        result = subplanck_depth(
            cfg.state, cfg.pipeline, asymptotic=asymptotic, grid=_grid_for(cfg, cfg.state)
        )
    else:
        if cfg.state.kind != "fock":
            raise ConfigError(f"witness {witness!r} applies to fock states only")
        if witness == "wigner":
            result = wigner_negativity_depth(cfg.state.n)
        else:
            result = fano_depth(cfg.state.n)
    _emit(canonical_json(result.to_dict()), _report_path(cfg, args))


def _write_samples(path: str, samples: np.ndarray) -> None:
    """One sample per line: the bytes of ``np.savetxt(path, samples, fmt="%.17g")``.

    Each write formats a block of rows in one string operation, which is
    several times faster than savetxt's row loop; blocks bound the memory.
    """
    with open(path, "w") as fh:
        for lo in range(0, samples.size, _SAMPLE_ROWS_PER_WRITE):
            rows = samples[lo : lo + _SAMPLE_ROWS_PER_WRITE].tolist()
            fh.write(("%.17g\n" * len(rows)) % tuple(rows))


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> None:
    density = resolve_density(cfg)
    layers = cfg.pipeline.layers
    xbar = cfg.pipeline.conditioning_xbar
    # unset keys keep simulate_protocol's defaults
    settings = dict(cfg.oracle)
    samples_csv = settings.pop("samples_csv", None)
    run = simulate_protocol(density, layers, xbar=xbar, seed=cfg.seed, **settings)
    reference = (
        binary_sequence_distill(density, layers, xbar)
        if xbar != 0.0
        else universal_distill(density, layers)
    )
    run = dataclasses.replace(
        run, ks_vs_deterministic=ks_distance(run.samples_out, reference)
    )
    if samples_csv is not None:
        _write_samples(samples_csv, run.samples_out)
    _emit(canonical_json(run.to_dict()), _report_path(cfg, args))


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> None:
    parameter = args.parameter or cfg.sweep.get("parameter")
    if parameter not in _SWEEPS:
        raise ConfigError(f"sweep parameter must be one of {tuple(_SWEEPS)}")
    section, setting, reader = _SWEEPS[parameter]
    values = cfg.sweep.get("values")
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be numbers, got {args.values!r}") from None
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    values = sorted(_checked(v, _CONFIG[section][setting], "sweep.values") for v in values)
    with_depth = cfg.sweep.get("with_depth", False)
    if with_depth and parameter == "nbar":
        # the depth is itself an occupation; each point would already be thermal
        raise ConfigError("with_depth cannot be combined with an nbar sweep")
    if with_depth and (cfg.state is None or cfg.state.thermal_nbar != 0.0):
        raise ConfigError("with_depth needs a state input specified at nbar 0")
    if section == "state" and cfg.state is None:
        raise ConfigError(f"sweep over {parameter!r} needs a state input")
    if reader is not None and cfg.state.kind != reader:
        raise ConfigError(
            f"sweep over {parameter!r} needs a {reader} state, got {cfg.state.kind!r}"
        )

    kept: dict[str, object] = {}

    def per_state(key: str, compute):
        # a layers_N sweep keeps the state, so the input and its asymptotic
        # depth are worked out once; a failure is not kept, so it recurs with
        # the same message at every point
        if parameter != "layers_N":
            return compute()
        if key not in kept:
            kept[key] = compute()
        return kept[key]

    def run_point(value: float) -> dict | str:
        # a ConfigError is the same at every point, so it ends the sweep
        try:
            spec, pipeline = cfg.state, cfg.pipeline
            if section == "state":
                spec = dataclasses.replace(spec, **{STATE_KEYS[setting][0]: value})
            else:
                pipeline = dataclasses.replace(pipeline, **{setting: value})
            density = per_state(
                "density", lambda: resolve_density(dataclasses.replace(cfg, state=spec))
            )
            report = quantify(density, pipeline)
            row = {
                "min_variance": report.min_variance,
                "squeezing_db": report.squeezing_db,
                "asymptotic_variance": report.asymptotic_variance,
                "efficiency": report.efficiency,
            }
            if with_depth:
                row["nbar_star"] = per_state(
                    "depth",
                    lambda: subplanck_depth(
                        spec, pipeline, asymptotic=True, grid=_grid_for(cfg, spec)
                    ).nbar_star,
                )
            return row
        except (PreconditionError, SolverError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    columns = ["min_variance", "squeezing_db", "asymptotic_variance", "efficiency"]
    if with_depth:
        columns.append("nbar_star")
    lines = [",".join([parameter] + columns + ["error"])]
    for value in values:
        row = run_point(value)
        cell = format(value, ".12g")
        if isinstance(row, str):
            lines.append(",".join([cell] + [""] * len(columns) + ['"' + row.replace('"', "'") + '"']))
        else:
            lines.append(
                ",".join([cell] + [format(row[c], ".12g") for c in columns] + [""])
            )
    _emit("\n".join(lines), _table_path(cfg, args))


def build_parser() -> argparse.ArgumentParser:
    # shared flags live on a parent so they parse before or after the
    # subcommand; SUPPRESS keeps the subparser pass from clobbering values
    # the root parser already consumed
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to the JSON run config")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output path (default stdout)")
    common.add_argument("--grid-nodes", type=int, help="override grid node count")
    common.add_argument("--grid-extent", type=float, help="override grid half-width")

    parser = argparse.ArgumentParser(
        prog="subplanck",
        parents=[common],
        description=(
            "Quantify sub-Planck structure in 1D quadrature densities by "
            "distilling squeezing on a classical computer.  Quadrature units "
            "fix the ground-state variance to 1/2; inputs must already be in "
            "these units."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "quantify",
        parents=[common],
        help="run the distillation pipeline, emit a report",
    )
    sweep = sub.add_parser(
        "sweep", parents=[common], help="quantify across a parameter range"
    )
    sweep.add_argument("--parameter", choices=tuple(_SWEEPS))
    sweep.add_argument("--values", help="comma-separated sweep values")
    depth = sub.add_parser(
        "depth", parents=[common], help="solve for the critical thermal occupation"
    )
    depth.add_argument("--witness", choices=_WITNESSES)
    depth.add_argument(
        "--asymptotic",
        action="store_true",
        help="use the curvature estimate instead of the finite-N pipeline",
    )
    sub.add_parser(
        "oracle",
        parents=[common],
        help="Monte Carlo check of the deterministic pipeline",
    )
    sub.add_parser(
        "fit-phonons",
        parents=[common],
        help="reconstruct populations from a Rabi trace",
    )
    sub.add_parser(
        "export-density",
        parents=[common],
        help="write the resolved input density as CSV",
    )
    return parser


_COMMANDS = {
    "quantify": cmd_quantify,
    "sweep": cmd_sweep,
    "depth": cmd_depth,
    "oracle": cmd_oracle,
    "fit-phonons": cmd_fit_phonons,
    "export-density": cmd_export_density,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the shared flags are suppressed when absent; each subcommand's own
    # flags always carry a default
    for name in ("config", "seed", "out", "grid_nodes", "grid_extent"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        cfg = load_config(args.config, args)
        _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
