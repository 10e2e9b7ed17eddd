"""Command-line front end: every analysis as a subcommand.

Subcommands read a JSON scenario config (see README for the schema), write
CSV or JSON results atomically, and use three exit codes: 0 success,
2 usage/config error, 3 computation or data error. Errors print one
machine-greppable line to stderr: error[<code>]: <message>. The exception
decides the code: a ValueError (bad input) exits 2, a PathfinderOpsError (no
result for valid input) or ArithmeticError (a failed self-check) exits 3, and
so does an OSError.
"""

from __future__ import annotations

import argparse
import math
import os
import reprlib
import sys

import numpy as np

from . import __version__
from .chain import (
    MAX_SWEEP_CELLS,
    ChainParams,
    _validate_grid,
    default_grid,
    steady_state,
    sweep_steady_state,
    sweep_to_csv,
)
from .errors import NonUniqueStationary, NoTippingPoint, PathfinderOpsError
from .errors import integer, json_object, number
from .fileio import atomic_write_text, grid_csv, json_text, read_json
from .ntml import (
    calibrated_steady_state,
    classify_corpus,
    default_rules,
    estimate_params,
    labeled_to_csv,
    load_rules,
    read_corpus_csv,
)
from .simulate import SimConfig, check_batch, mixture_batch, simulate_chain
from .worstcase import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_GH_NODES,
    DEFAULT_N_VALUES,
    DEFAULT_THETA_GRID,
    DEFAULT_U_ABS_VALUES,
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# --- config schema ----------------------------------------------------------

REQUIRED = object()
_NOISE_KINDS = [kind.value for kind in NoiseKind]


def _list_of(check):
    """A check for a non-empty JSON list whose entries each pass `check`."""
    def checked(name: str, value) -> list:
        if type(value) is not list or not value:
            raise ValueError(f"{name} must be a non-empty list, got {reprlib.repr(value)}")
        return [check(name, entry) for entry in value]
    return checked


def _grid(name: str, value):
    """One number, or a non-empty list of them."""
    return _list_of(number)(name, value) if type(value) is list else number(name, value)


def _noise_kind(name: str, value) -> NoiseKind:
    """A noise kind named in any letter case."""
    if isinstance(value, str) and value.lower() in _NOISE_KINDS:
        return NoiseKind(value.lower())
    raise ValueError(f"{name} must be one of {_NOISE_KINDS}, got {reprlib.repr(value)}")


# Every config key, as section -> key -> (check, default). Each check is
# called as check("<section>.<key>", value) and returns the value to use. A
# present section must set its REQUIRED keys; a None default leaves the key
# unset. Ranges are checked by the library's constructors, not here.
SCHEMA = {
    "chain": {key: (_grid, default_grid()) for key in ("p_good", "p_accept", "p_success")},
    "worst_case": {
        "n": (integer, REQUIRED),
        "u_minus": (number, REQUIRED),
        "u_plus": (number, REQUIRED),
        "beta": (number, REQUIRED),
        "delta": (number, REQUIRED),
        "alpha_grid": (_list_of(number), [i / 100.0 for i in range(101)]),
    },
    "social": {"s": (number, REQUIRED), "gamma": (number, REQUIRED), "r": (number, REQUIRED)},
    "noise": {
        "kind": (_noise_kind, REQUIRED), "theta": (number, 0.0),
        "gh_nodes": (integer, DEFAULT_GH_NODES),
    },
    "sim": {
        "seed": (integer, None), "steps": (integer, None), "burn_in": (integer, 0),
        "rounds": (integer, None), "alpha": (number, None),
    },
    "gradmap": {
        "n_values": (_list_of(integer), DEFAULT_N_VALUES),
        "u_abs_values": (_list_of(number), DEFAULT_U_ABS_VALUES),
        "alpha_grid": (_list_of(number), DEFAULT_ALPHA_GRID),
        "theta_grid": (_list_of(number), DEFAULT_THETA_GRID),
        "beta": (number, 1.0),
    },
}


def _checked(section: str, body) -> dict:
    """`body` with every key of `section` checked and defaults filled in."""
    keys = SCHEMA[section]
    required = [key for key, (_, default) in keys.items() if default is REQUIRED]
    json_object(f"config section {section!r}", body, keys, required)
    return {
        key: check(f"{section}.{key}", body[key]) if key in body else default
        for key, (check, default) in keys.items()
    }


def _load_config(path: str) -> dict:
    """The config at `path`, checked against SCHEMA, with defaults filled in."""
    doc = json_object(f"config {path}", read_json(path, "config"), SCHEMA)
    return {section: _checked(section, body) for section, body in doc.items()}


def _require_section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config section {name!r} is required for this command")
    return cfg[name]


# Domain objects straight from a checked config. Their constructors check
# ranges and raise ValueError, which main() reports as a config error.


def _scenario(cfg: dict) -> WorstCaseScenario:
    wc = _require_section(cfg, "worst_case")
    return WorstCaseScenario(wc["n"], wc["u_minus"], wc["u_plus"], wc["beta"], wc["delta"])


def _social(cfg: dict) -> SocialParams | None:
    return SocialParams(**cfg["social"]) if "social" in cfg else None


def _noise(cfg: dict) -> NoiseSpec | None:
    return NoiseSpec(**cfg["noise"]) if "noise" in cfg else None


def _colon_grid(text: str) -> list[float]:
    """The p_good values of a lo:hi:step grid, counted and bounded before any
    is built."""
    try:
        lo, hi, step = map(float, text.split(":"))
    except ValueError:
        raise ValueError(f"--g-grid must be lo:hi:step, got {text!r}")
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and lo <= hi):
        raise ValueError(f"--g-grid needs finite lo <= hi and step > 0, got {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SWEEP_CELLS:
        raise ValueError(f"--g-grid may have at most {MAX_SWEEP_CELLS} values, got {text!r}")
    values = [round(lo + i * step, 12) for i in range(int(span) + 1)]
    try:
        return _validate_grid(values, "p_good", low_open=False)
    except ValueError as exc:
        raise ValueError(f"--g-grid: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


# --- steady -----------------------------------------------------------------


def cmd_steady(args) -> int:
    chain = _require_section(_load_config(args.config), "chain")
    # The schema keeps key order: p_good, p_accept, p_success.
    records = sweep_steady_state(*chain.values())
    if not (records["status"] == "ok").any():
        raise NonUniqueStationary("no sweep cell has a unique stationary distribution")
    if args.format == "json":
        cells = zip(*(records[name].tolist() for name in records.dtype.names))
        table = [
            {"p_good": g, "p_accept": a, "p_success": s,
             "pi": pi if status == "ok" else None, "status": status}
            for g, a, s, pi, status in cells
        ]
        _emit(json_text(table), args.out)
    else:
        _emit(sweep_to_csv(records), args.out)
    return EXIT_OK


# --- worst ------------------------------------------------------------------


def cmd_worst(args) -> int:
    cfg = _load_config(args.config)
    scn, soc, noise = _scenario(cfg), _social(cfg), _noise(cfg)
    alphas = cfg["worst_case"]["alpha_grid"]

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
    columns.update((name, [star] * len(alphas)) for name, star in stars.items())

    if args.format == "json":
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        _emit(json_text({"rows": rows}), args.out)
    else:
        # A missing alpha* (None) is NaN in the block, an empty field.
        block = np.array(list(columns.values()), dtype=float).T
        _emit(grid_csv(list(columns), [], block), args.out)
    return EXIT_OK


# --- gradmap ----------------------------------------------------------------


def cmd_gradmap(args) -> int:
    cfg = _load_config(args.config)
    grids = cfg["gradmap"] if "gradmap" in cfg else _checked("gradmap", {})
    noise = _noise(cfg)
    gmap = gradient_sign_map(
        **grids,
        noise_kind=noise.kind if noise is not None else NoiseKind.RADEMACHER,
        gh_nodes=noise.gh_nodes if noise is not None else DEFAULT_GH_NODES,
    )
    if args.format == "json":
        instances = [(n, u) for n in gmap.n_values for u in gmap.u_abs_values.tolist()]
        table = [
            {"n": n, "u_abs": u, "noise_kind": gmap.noise_kind.value, "fraction_negative": f}
            for (n, u), f in zip(instances, gmap.fraction_negative.ravel().tolist())
        ]
        _emit(json_text(table), args.out)
    else:
        _emit(gradient_sign_map_to_csv(gmap), args.out)
    if args.cells_out is not None:
        atomic_write_text(args.cells_out, gradient_cells_to_csv(gmap))
    return EXIT_OK


# --- classify ---------------------------------------------------------------


def _sibling_path(out: str, suffix: str) -> str:
    return os.path.splitext(out)[0] + suffix


def cmd_classify(args) -> int:
    # The flags and the rules are checked before the corpus is read.
    g_grid = None
    if args.calibrate:
        g_grid = _colon_grid("0.1:0.9:0.1" if args.g_grid is None else args.g_grid)
    for flag, value in (("--g-grid", args.g_grid), ("--steady-out", args.steady_out)):
        if value is not None and not args.calibrate:
            raise ValueError(f"{flag} needs --calibrate")
    rules = load_rules(args.rules) if args.rules else default_rules()
    # A corpus that cannot be read is input data without a result: exit 3.
    try:
        corpus = read_corpus_csv(args.input_csv)
    except OSError as exc:
        raise PathfinderOpsError(f"cannot read corpus: {exc}")
    except ValueError as exc:
        raise PathfinderOpsError(str(exc))

    labeled, counts = classify_corpus(corpus.comments, rules)
    atomic_write_text(args.out, labeled_to_csv(corpus, labeled))
    counts_out = args.counts_out or _sibling_path(args.out, ".counts.json")
    atomic_write_text(counts_out, json_text(dict(counts.as_dict(), total=counts.total())))

    p_accept, p_success = estimate_params(counts)
    params_out = args.params_out or _sibling_path(args.out, ".params.json")
    atomic_write_text(params_out, json_text({"p_accept": p_accept, "p_success": p_success}))

    if g_grid is not None:
        records = calibrated_steady_state(counts, g_grid)
        steady_out = args.steady_out or _sibling_path(args.out, ".steady.csv")
        atomic_write_text(steady_out, sweep_to_csv(records))
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim = _require_section(cfg, "sim")
    seed = sim["seed"] if args.seed is None else args.seed
    steps, rounds = sim["steps"], sim["rounds"]
    if seed is None:
        raise ValueError("a seed is required: set sim.seed or pass --seed")
    if steps is None and rounds is None:
        raise ValueError("sim section must set 'steps' (chain) and/or 'rounds' (selection)")

    # Validate both parts before either runs.
    if steps is not None:
        chain = _require_section(cfg, "chain")
        for key, value in chain.items():
            if isinstance(value, list):
                raise ValueError(f"chain.{key} must be a single number for simulation")
        params = ChainParams(**chain)
        sim_cfg = SimConfig(seed=seed, steps=steps, burn_in=sim["burn_in"])
    if rounds is not None:
        scn = _scenario(cfg)
        if sim["alpha"] is None:
            raise ValueError("config key 'sim.alpha' is required for selection rounds")
        alpha = check_batch(scn, sim["alpha"], rounds, seed)

    result: dict = {}
    if steps is not None:
        occupancy = simulate_chain(params, sim_cfg)
        block = {
            "seed": seed,
            "steps": sim_cfg.steps,
            "burn_in": sim_cfg.burn_in,
            "occupancy": [float(x) for x in occupancy],
        }
        if args.compare_analytic:
            pi = steady_state(params.p_good, params.p_accept, params.p_success)
            error = float(np.max(np.abs(occupancy - pi)))
            block["analytic_pi"] = [float(x) for x in pi]
            block["max_abs_error"] = error
            block["within_tolerance"] = bool(error <= 0.01)
        result["chain"] = block
    if rounds is not None:
        batch = mixture_batch(scn, alpha, rounds, seed)
        result["selection"] = {
            "seed": seed,
            "rounds": batch.rounds,
            "all_reject_rate": batch.all_reject_rate,
            "mean_offers": batch.mean_offers,
            "analytic_all_reject": worst_case_prob(scn, alpha),
        }
    _emit(json_text(result), args.out)
    return EXIT_OK


# --- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main() reports in one line with
    exit 2; subparsers share the class. (On 3.10 and 3.11 exit_on_error=False
    still exits for missing required or unrecognised arguments.)"""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathfinder-ops",
        description="Pathfinder-operations decision models: chain sweeps, "
        "worst-case analysis, gradient maps, log classification, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_out(p):
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def add_common(p):
        add_config_out(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

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
    p_cls.add_argument("--g-grid", help="p_good grid as lo:hi:step (default: 0.1:0.9:0.1)")
    p_cls.add_argument(
        "--steady-out", default=None, help="calibrated sweep CSV (default: <out>.steady.csv)"
    )
    p_cls.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="seeded chain / selection-round simulation")
    add_config_out(p_sim)
    p_sim.add_argument("--seed", type=int, default=None, help="overrides sim.seed")
    p_sim.add_argument(
        "--compare-analytic",
        action="store_true",
        help="include analytic stationary distribution and max error",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _fail(code: str, exc: BaseException, status: int) -> int:
    print(f"error[{code}]: {exc}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        return _fail("config_invalid", exc, EXIT_CONFIG)
    except (PathfinderOpsError, ArithmeticError) as exc:
        return _fail("computation_failed", exc, EXIT_COMPUTE)
    except OSError as exc:
        return _fail("io_failed", exc, EXIT_COMPUTE)


if __name__ == "__main__":
    sys.exit(main())
