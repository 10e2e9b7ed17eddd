"""Command-line front end: every analysis as a subcommand.

Subcommands read a JSON scenario config (see README for the schema), write
CSV or JSON results atomically, and use three exit codes: 0 success,
2 usage/config error, 3 computation or data error. Errors print one
machine-greppable line to stderr: error[<code>]: <message>.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .chain import (
    ChainParams,
    SweepRow,
    build_transition_matrix,
    default_grid,
    steady_state,
    sweep_steady_state,
    sweep_to_csv,
)
from .errors import (
    EmptyGrid,
    InsufficientData,
    NonUniqueStationary,
    NoTippingPoint,
)
from .fileio import atomic_write_text, fmt12
from .ntml import (
    calibrated_steady_state,
    classify_corpus,
    default_rules,
    estimate_params,
    labeled_to_csv,
    load_rules,
    read_corpus_csv,
)
from .simulate import (
    MixtureBatchResult,
    SimConfig,
    check_batch,
    mixture_batch,
    simulate_chain,
)
from .worstcase import (
    NoiseKind,
    NoiseSpec,
    SocialParams,
    WorstCaseScenario,
    gradient_cells_to_csv,
    gradient_sign_map,
    gradient_sign_map_to_csv,
    noisy_tipping_point,
    noisy_worst_case_prob,
    social_tipping_point,
    social_worst_case_prob,
    tipping_point,
    worst_case_prob,
)
from .worstcase import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_GH_NODES,
    DEFAULT_N_VALUES,
    DEFAULT_THETA_GRID,
    DEFAULT_U_ABS_VALUES,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

class ConfigError(Exception):
    """Invalid usage, config file, or rules file; exits 2."""


class ComputeError(Exception):
    """Computation or input-data failure; exits 3."""


_SECTION_KEYS = {
    "chain": {"p_good", "p_accept", "p_success"},
    "worst_case": {"n", "u_minus", "u_plus", "beta", "delta", "alpha_grid"},
    "social": {"s", "gamma", "r"},
    "noise": {"kind", "theta", "gh_nodes"},
    "sim": {"seed", "steps", "burn_in", "rounds", "alpha"},
    "gradmap": {"n_values", "u_abs_values", "alpha_grid", "theta_grid", "beta"},
}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be a JSON object")
    for section, body in doc.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in body:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown config key {section + '.' + key!r}")
    return doc


def _require_section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config section {name!r} is required for this command")
    return cfg[name]


def _build(factory, *args, **kwargs):
    """Construct or check a domain value, converting validation errors to
    ConfigError."""
    try:
        return factory(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_list(section: dict, where: str, key: str, default):
    """section[key], which must be a non-empty list of numbers, or `default`
    when the key is absent."""
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, list) or not value or not all(map(_is_number, value)):
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    return value


def _grid_values(section: dict, key: str) -> list[float]:
    if key not in section:
        return default_grid()
    value = section[key]
    if _is_number(value):
        return [float(value)]
    if isinstance(value, list) and value and all(map(_is_number, value)):
        return [float(v) for v in value]
    raise ConfigError(f"chain.{key} must be a number or a non-empty list of numbers")


def _scenario_from(cfg: dict) -> WorstCaseScenario:
    section = _require_section(cfg, "worst_case")
    kwargs = {k: section[k] for k in ("n", "u_minus", "u_plus", "beta", "delta") if k in section}
    missing = [k for k in ("n", "u_minus", "u_plus", "beta", "delta") if k not in section]
    if missing:
        raise ConfigError(f"config key 'worst_case.{missing[0]}' is required")
    return _build(WorstCaseScenario, **kwargs)


def _social_from(cfg: dict) -> SocialParams | None:
    if "social" not in cfg:
        return None
    section = cfg["social"]
    missing = [k for k in ("s", "gamma", "r") if k not in section]
    if missing:
        raise ConfigError(f"config key 'social.{missing[0]}' is required")
    return _build(SocialParams, s=section["s"], gamma=section["gamma"], r=section["r"])


def _noise_from(cfg: dict) -> NoiseSpec | None:
    if "noise" not in cfg:
        return None
    section = cfg["noise"]
    if "kind" not in section:
        raise ConfigError("config key 'noise.kind' is required")
    try:
        kind = NoiseKind(str(section["kind"]).lower())
    except ValueError:
        raise ConfigError(
            f"noise.kind must be one of {[k.value for k in NoiseKind]}, got {section['kind']!r}"
        )
    return _build(
        NoiseSpec,
        kind=kind,
        theta=section.get("theta", 0.0),
        gh_nodes=section.get("gh_nodes", DEFAULT_GH_NODES),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _parse_colon_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid must be numeric lo:hi:step, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"grid needs step > 0 and hi >= lo, got {text!r}")
    count = int((hi - lo) / step + 1e-9)
    return [round(lo + i * step, 12) for i in range(count + 1)]


# --- steady -----------------------------------------------------------------


def cmd_steady(args) -> int:
    cfg = _load_config(args.config)
    section = _require_section(cfg, "chain")
    try:
        rows = sweep_steady_state(
            _grid_values(section, "p_good"),
            _grid_values(section, "p_accept"),
            _grid_values(section, "p_success"),
        )
    except (ValueError, EmptyGrid) as exc:
        raise ConfigError(str(exc))
    except ArithmeticError as exc:
        raise ComputeError(str(exc))
    if all(row.status != "ok" for row in rows):
        raise ComputeError("no sweep cell has a unique stationary distribution")
    if args.format == "json":
        _emit_json([_sweep_row_dict(row) for row in rows], args.out)
    else:
        _emit(sweep_to_csv(rows), args.out)
    return EXIT_OK


def _sweep_row_dict(row: SweepRow) -> dict:
    return {
        "p_good": row.params.p_good,
        "p_accept": row.params.p_accept,
        "p_success": row.params.p_success,
        "pi": None if row.pi is None else [float(x) for x in row.pi],
        "status": row.status,
    }


# --- worst ------------------------------------------------------------------


def cmd_worst(args) -> int:
    cfg = _load_config(args.config)
    scn = _scenario_from(cfg)
    soc = _social_from(cfg)
    noise = _noise_from(cfg)
    raw = _number_list(
        cfg["worst_case"], "worst_case", "alpha_grid", [i / 100.0 for i in range(101)]
    )
    alphas = [float(a) for a in raw]
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ConfigError(f"worst_case.alpha_grid values must lie in [0, 1], got {a!r}")

    def _tip(fn, *fn_args) -> float | None:
        try:
            return fn(*fn_args)
        except NoTippingPoint:
            return None

    # Each W column is one kernel call over the whole alpha grid.
    columns = {"alpha": alphas, "W": worst_case_prob(scn, alphas).tolist()}
    stars = {"alpha_star": _tip(tipping_point, scn)}
    if soc is not None:
        columns["W_social"] = social_worst_case_prob(scn, soc, alphas).tolist()
        stars["alpha_star_social"] = _tip(social_tipping_point, scn, soc)
    if noise is not None:
        columns["W_noisy"] = noisy_worst_case_prob(scn, noise, alphas).tolist()
        stars["alpha_star_noisy"] = _tip(noisy_tipping_point, scn, noise)
    header = [*columns, *stars]
    rows = [dict(zip(columns, values), **stars) for values in zip(*columns.values())]

    if args.format == "json":
        _emit_json({"rows": rows}, args.out)
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join("" if row[col] is None else fmt12(row[col]) for col in header)
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- gradmap ----------------------------------------------------------------


def cmd_gradmap(args) -> int:
    cfg = _load_config(args.config)
    section = cfg.get("gradmap", {})
    noise = _noise_from(cfg)
    kind = noise.kind if noise is not None else NoiseKind.RADEMACHER
    gh_nodes = noise.gh_nodes if noise is not None else DEFAULT_GH_NODES
    try:
        rows = gradient_sign_map(
            n_values=_number_list(section, "gradmap", "n_values", DEFAULT_N_VALUES),
            u_abs_values=_number_list(section, "gradmap", "u_abs_values", DEFAULT_U_ABS_VALUES),
            noise_kind=kind,
            alpha_grid=_number_list(section, "gradmap", "alpha_grid", DEFAULT_ALPHA_GRID),
            theta_grid=_number_list(section, "gradmap", "theta_grid", DEFAULT_THETA_GRID),
            beta=section.get("beta", 1.0),
            gh_nodes=gh_nodes,
            collect_cells=args.cells_out is not None,
        )
    except (ValueError, EmptyGrid, TypeError) as exc:
        raise ConfigError(str(exc))
    if args.format == "json":
        _emit_json(
            [
                {
                    "n": row.n,
                    "u_abs": row.u_abs,
                    "noise_kind": row.noise_kind.value,
                    "fraction_negative": row.fraction_negative,
                }
                for row in rows
            ],
            args.out,
        )
    else:
        _emit(gradient_sign_map_to_csv(rows), args.out)
    if args.cells_out is not None:
        atomic_write_text(args.cells_out, gradient_cells_to_csv(rows))
    return EXIT_OK


# --- classify ---------------------------------------------------------------


def _sibling_path(out: str, suffix: str) -> str:
    stem, ext = os.path.splitext(out)
    return stem + suffix


def cmd_classify(args) -> int:
    try:
        rules = load_rules(args.rules) if args.rules else default_rules()
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc))
    try:
        records = read_corpus_csv(args.input_csv)
    except OSError as exc:
        raise ComputeError(f"cannot read corpus: {exc}")
    except ValueError as exc:
        raise ComputeError(str(exc))

    labeled, counts = classify_corpus(records, rules)
    atomic_write_text(args.out, labeled_to_csv(labeled))

    counts_out = args.counts_out or _sibling_path(args.out, ".counts.json")
    counts_doc = dict(counts.as_dict(), total=counts.total())
    atomic_write_text(counts_out, json.dumps(counts_doc, indent=2, sort_keys=True) + "\n")

    try:
        p_accept, p_success = estimate_params(counts)
    except InsufficientData as exc:
        raise ComputeError(str(exc))
    params_out = args.params_out or _sibling_path(args.out, ".params.json")
    atomic_write_text(
        params_out,
        json.dumps({"p_accept": p_accept, "p_success": p_success}, indent=2, sort_keys=True)
        + "\n",
    )

    if args.calibrate:
        g_grid = _parse_colon_grid(args.g_grid)
        try:
            table = calibrated_steady_state(counts, g_grid)
        except (ValueError, EmptyGrid) as exc:
            raise ConfigError(str(exc))
        except NonUniqueStationary as exc:
            raise ComputeError(str(exc))
        rows = [
            SweepRow(ChainParams(g, p_accept, p_success), pi, "ok") for g, pi in table
        ]
        steady_out = args.steady_out or _sibling_path(args.out, ".steady.csv")
        atomic_write_text(steady_out, sweep_to_csv(rows))
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.format != "json":
        raise ConfigError("simulate writes JSON only")
    cfg = _load_config(args.config)
    sim = _require_section(cfg, "sim")
    seed = args.seed if args.seed is not None else sim.get("seed")
    if seed is None:
        raise ConfigError("a seed is required: set sim.seed or pass --seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if "steps" not in sim and "rounds" not in sim:
        raise ConfigError("sim section must set 'steps' (chain) and/or 'rounds' (selection)")

    # Validate both parts before either runs.
    if "steps" in sim:
        section = _require_section(cfg, "chain")
        values = {}
        for key in ("p_good", "p_accept", "p_success"):
            if key not in section:
                raise ConfigError(f"config key 'chain.{key}' is required for simulation")
            if not isinstance(section[key], (int, float)) or isinstance(section[key], bool):
                raise ConfigError(f"chain.{key} must be a scalar for simulation")
            values[key] = float(section[key])
        params = _build(ChainParams, **values)
        sim_cfg = _build(
            SimConfig, seed=seed, steps=sim["steps"], burn_in=sim.get("burn_in", 0)
        )
    if "rounds" in sim:
        scn = _scenario_from(cfg)
        if "alpha" not in sim:
            raise ConfigError("config key 'sim.alpha' is required for selection rounds")
        alpha = _build(check_batch, scn, sim["alpha"], sim["rounds"], seed)

    result: dict = {}
    if "steps" in sim:
        occupancy = simulate_chain(params, sim_cfg)
        block = {
            "seed": seed,
            "steps": sim_cfg.steps,
            "burn_in": sim_cfg.burn_in,
            "occupancy": [float(x) for x in occupancy],
        }
        if args.compare_analytic:
            try:
                pi = steady_state(build_transition_matrix(params))
            except NonUniqueStationary as exc:
                raise ComputeError(str(exc))
            error = float(np.max(np.abs(occupancy - pi)))
            block["analytic_pi"] = [float(x) for x in pi]
            block["max_abs_error"] = error
            block["within_tolerance"] = bool(error <= 0.01)
        result["chain"] = block
    if "rounds" in sim:
        batch: MixtureBatchResult = mixture_batch(scn, alpha, sim["rounds"], seed)
        result["selection"] = {
            "seed": seed,
            "rounds": batch.rounds,
            "all_reject_rate": batch.all_reject_rate,
            "mean_offers": batch.mean_offers,
            "analytic_all_reject": worst_case_prob(scn, alpha),
        }
    _emit_json(result, args.out)
    return EXIT_OK


# --- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfinder-ops",
        description="Pathfinder-operations decision models: chain sweeps, "
        "worst-case analysis, gradient maps, log classification, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="csv"):
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default=default_format, help="output format"
        )

    p_steady = sub.add_parser("steady", help="stationary-distribution parameter sweep")
    add_common(p_steady)
    p_steady.set_defaults(func=cmd_steady)

    p_worst = sub.add_parser("worst", help="worst-case probability and tipping points")
    add_common(p_worst)
    p_worst.set_defaults(func=cmd_worst)

    p_grad = sub.add_parser("gradmap", help="noise-gradient sign map")
    add_common(p_grad)
    p_grad.add_argument(
        "--cells-out", default=None, help="also dump per-cell (alpha, theta, dW/dtheta) CSV"
    )
    p_grad.set_defaults(func=cmd_gradmap)

    p_cls = sub.add_parser("classify", help="label a coordination-log corpus")
    p_cls.add_argument("input_csv", help="corpus CSV: timestamp,facility,comment")
    p_cls.add_argument("--rules", default=None, help="rules JSON (default: built-in)")
    p_cls.add_argument("--out", required=True, help="labeled CSV output path")
    p_cls.add_argument("--counts-out", default=None, help="counts JSON (default: <out>.counts.json)")
    p_cls.add_argument("--params-out", default=None, help="params JSON (default: <out>.params.json)")
    p_cls.add_argument(
        "--calibrate", action="store_true", help="also sweep the calibrated chain over --g-grid"
    )
    p_cls.add_argument("--g-grid", default="0.1:0.9:0.1", help="p_good grid as lo:hi:step")
    p_cls.add_argument(
        "--steady-out", default=None, help="calibrated sweep CSV (default: <out>.steady.csv)"
    )
    p_cls.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="seeded chain / selection-round simulation")
    add_common(p_sim, default_format="json")
    p_sim.add_argument("--seed", type=int, default=None, help="overrides sim.seed")
    p_sim.add_argument(
        "--compare-analytic",
        action="store_true",
        help="include analytic stationary distribution and max error",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[config_invalid]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputeError as exc:
        print(f"error[computation_failed]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error[io_failed]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
