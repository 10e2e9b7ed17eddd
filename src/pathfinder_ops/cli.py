"""Command-line front end: every analysis as a subcommand.

Subcommands read a JSON scenario config (see README for the schema) and
return their outputs as (target, text) pairs, None for stdout, each text a
str or, for a file, an iterable of str chunks; only `main` writes, files
atomically and in order, then stdout. Exit codes: 0 success,
2 usage/config error, 3 computation or data error. Errors print one
machine-greppable line to stderr: error[<code>]: <message>. The exception
decides the code: a ValueError (bad input) exits 2, a PathfinderOpsError (no
result for valid input) or ArithmeticError (a failed self-check) exits 3, and
so does an OSError, a closed stdout that an output goes to included.

`main(argv)` may be called any number of times in one process: the parser
is built on the first call and reused by every later one, and each call
parses into a fresh namespace, so one call leaves nothing behind for the
next.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import reprlib
import sys

from . import __version__
from .errors import InsufficientData, NonUniqueStationary, NoTippingPoint, PathfinderOpsError
from .errors import integer, json_object, number, step_grid
from .fileio import atomic_write_text, grid_csv, json_text, read_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# --- names from the analysis modules, bound on first use --------------------

# Every name this module takes from an analysis module, by defining module.
# A function looks each up in this module's globals, where `_bind` puts it on
# first use, so a call imports only the modules it needs (`--help`, `--version`
# and usage errors import no numpy). A name bound before that, such as a
# caller's wrapper, is kept, and each one is also an attribute of this module.
# Each subcommand reads its config before it binds anything, so a config that
# is not JSON imports no numpy either.
_HOMES = {
    "chain": (
        "DEFAULT_GRID", "MAX_SWEEP_CELLS", "ChainParams", "SimConfig", "_validate_grid",
        "simulate_chain", "steady_state", "sweep_steady_state", "sweep_to_csv",
    ),
    "ntml": (
        "calibrated_steady_state", "classify_corpus", "default_rules", "estimate_params",
        "labeled_to_csv", "load_rules", "read_corpus_csv",
    ),
    "worstcase": (
        "DEFAULT_ALPHA_GRID", "DEFAULT_GH_NODES", "DEFAULT_N_VALUES", "DEFAULT_THETA_GRID",
        "DEFAULT_U_ABS_VALUES", "NoiseKind", "NoiseSpec", "SocialParams", "WorstCaseScenario",
        "check_batch", "gradient_cells_to_csv", "gradient_sign_map", "gradient_sign_map_to_csv",
        "mixture_batch", "noisy_tipping_point", "noisy_worst_case_prob", "social_tipping_point",
        "social_worst_case_prob", "tipping_point", "worst_case_prob",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """`SCHEMA` (every config key, as section -> key -> (check, default)),
    or a name of `_HOME` imported from its module and bound here, on first
    access (PEP 562)."""
    if name == "SCHEMA":
        return {section: _keys(section) for section in SECTIONS}
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime shows it.
    value = getattr(__import__(f"{__package__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def _bind(*names: str) -> None:
    """Bind each of `names` in this module's globals unless it is bound
    already: one dict lookup a name once all are."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


# --- config schema ----------------------------------------------------------

REQUIRED = object()


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
    _bind("NoiseKind")
    kinds = [kind.value for kind in NoiseKind]
    if isinstance(value, str) and value.lower() in kinds:
        return NoiseKind(value.lower())
    raise ValueError(f"{name} must be one of {kinds}, got {reprlib.repr(value)}")


SECTIONS = ("chain", "worst_case", "social", "noise", "sim", "gradmap")


@functools.cache
def _keys(section: str) -> dict:
    """The keys of one config section, as key -> (check, default). Each
    check is called as check("<section>.<key>", value) and returns the value
    to use. A present section must set its REQUIRED keys; a None default
    leaves the key unset. Ranges are checked by the library's constructors,
    not here. Built on first use: a section whose defaults live in an
    analysis module imports it then, and no other section does."""
    match section:
        case "chain":
            _bind("DEFAULT_GRID")
            return {key: (_grid, DEFAULT_GRID) for key in ("p_good", "p_accept", "p_success")}
        case "worst_case":
            return {
                "n": (integer, REQUIRED),
                "u_minus": (number, REQUIRED),
                "u_plus": (number, REQUIRED),
                "beta": (number, REQUIRED),
                "delta": (number, REQUIRED),
                "alpha_grid": (_list_of(number), step_grid(0.0, 1.0, 0.01, 101)),
            }
        case "social":
            return {"s": (number, REQUIRED), "gamma": (number, REQUIRED), "r": (number, REQUIRED)}
        case "noise":
            _bind("DEFAULT_GH_NODES")
            return {
                "kind": (_noise_kind, REQUIRED), "theta": (number, 0.0),
                "gh_nodes": (integer, DEFAULT_GH_NODES),
            }
        case "sim":
            return {
                "seed": (integer, None), "steps": (integer, None), "burn_in": (integer, 0),
                "rounds": (integer, None), "alpha": (number, None),
            }
        case "gradmap":
            _bind(
                "DEFAULT_ALPHA_GRID", "DEFAULT_N_VALUES", "DEFAULT_THETA_GRID",
                "DEFAULT_U_ABS_VALUES",
            )
            return {
                "n_values": (_list_of(integer), DEFAULT_N_VALUES),
                "u_abs_values": (_list_of(number), DEFAULT_U_ABS_VALUES),
                "alpha_grid": (_list_of(number), DEFAULT_ALPHA_GRID),
                "theta_grid": (_list_of(number), DEFAULT_THETA_GRID),
                "beta": (number, 1.0),
            }


def _checked(section: str, body) -> dict:
    """`body` with every key of `section` checked and defaults filled in."""
    keys = _keys(section)
    required = [key for key, (_, default) in keys.items() if default is REQUIRED]
    json_object(f"config section {section!r}", body, keys, required)
    return {
        key: check(f"{section}.{key}", body[key]) if key in body else default
        for key, (check, default) in keys.items()
    }


def _load_config(path: str) -> dict:
    """The config at `path`, checked against the schema, with defaults filled
    in. Only the sections it holds are built (`_keys`)."""
    doc = json_object(f"config {path}", read_json(path, "config"), SECTIONS)
    return {section: _checked(section, body) for section, body in doc.items()}


def _require_section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config section {name!r} is required for this command")
    return cfg[name]


# Domain objects straight from a checked config. Their constructors check
# ranges and raise ValueError, which main() reports as a config error.


def _scenario(cfg: dict) -> WorstCaseScenario:
    _bind("WorstCaseScenario")
    wc = _require_section(cfg, "worst_case")
    return WorstCaseScenario(wc["n"], wc["u_minus"], wc["u_plus"], wc["beta"], wc["delta"])


def _social(cfg: dict) -> SocialParams | None:
    _bind("SocialParams")
    return SocialParams(**cfg["social"]) if "social" in cfg else None


def _noise(cfg: dict) -> NoiseSpec | None:
    _bind("NoiseSpec")
    return NoiseSpec(**cfg["noise"]) if "noise" in cfg else None


def _colon_grid(text: str) -> list[float]:
    """The p_good values of a lo:hi:step grid, counted and bounded before any
    is built."""
    _bind("MAX_SWEEP_CELLS", "_validate_grid")
    try:
        lo, hi, step = map(float, text.split(":"))
    except ValueError:
        raise ValueError(f"--g-grid must be lo:hi:step, got {text!r}")
    try:
        values = step_grid(lo, hi, step, MAX_SWEEP_CELLS)
    except ValueError as exc:
        raise ValueError(f"--g-grid {exc}, got {text!r}")
    try:
        return _validate_grid(values, "p_good")
    except ValueError as exc:
        raise ValueError(f"--g-grid: {exc}")


# --- steady -----------------------------------------------------------------


def cmd_steady(args) -> list:
    chain = _require_section(_load_config(args.config), "chain")
    _bind("sweep_steady_state", "sweep_to_csv")
    # The schema keeps key order: p_good, p_accept, p_success.
    records = sweep_steady_state(*chain.values())
    if not (records["status"] == "ok").any():
        raise NonUniqueStationary("no sweep cell has a unique stationary distribution")
    return [(args.out, sweep_to_csv(records))]


# --- worst ------------------------------------------------------------------


def cmd_worst(args) -> list:
    cfg = _load_config(args.config)
    import numpy as np

    _bind(
        "worst_case_prob", "tipping_point", "social_worst_case_prob", "social_tipping_point",
        "noisy_worst_case_prob", "noisy_tipping_point",
    )
    scn, soc, noise = _scenario(cfg), _social(cfg), _noise(cfg)
    alphas = cfg["worst_case"]["alpha_grid"]

    def _tip(fn, *fn_args) -> float:
        try:
            return fn(*fn_args)
        except NoTippingPoint:
            return math.nan

    # Each W column is one kernel call over the whole alpha grid. A missing
    # alpha* is NaN in the block, an empty field.
    columns = {"alpha": alphas, "W": worst_case_prob(scn, alphas)}
    stars = {"alpha_star": _tip(tipping_point, scn)}
    if soc is not None:
        columns["W_social"] = social_worst_case_prob(scn, soc, alphas)
        stars["alpha_star_social"] = _tip(social_tipping_point, scn, soc)
    if noise is not None:
        columns["W_noisy"] = noisy_worst_case_prob(scn, noise, alphas)
        stars["alpha_star_noisy"] = _tip(noisy_tipping_point, scn, noise)
    columns.update((name, np.full(len(alphas), star)) for name, star in stars.items())
    block = np.column_stack(list(columns.values()))
    return [(args.out, grid_csv(list(columns), [block]))]


# --- gradmap ----------------------------------------------------------------


def cmd_gradmap(args) -> list:
    cfg = _load_config(args.config)
    _bind(
        "gradient_sign_map", "gradient_cells_to_csv", "gradient_sign_map_to_csv", "NoiseKind",
        "DEFAULT_GH_NODES",
    )
    grids = cfg["gradmap"] if "gradmap" in cfg else _checked("gradmap", {})
    noise = _noise(cfg)
    gmap = gradient_sign_map(
        **grids,
        noise_kind=noise.kind if noise is not None else NoiseKind.RADEMACHER,
        gh_nodes=noise.gh_nodes if noise is not None else DEFAULT_GH_NODES,
    )
    dump = [] if args.cells_out is None else [(args.cells_out, gradient_cells_to_csv(gmap))]
    return dump + [(args.out, gradient_sign_map_to_csv(gmap))]


# --- classify ---------------------------------------------------------------


def cmd_classify(args) -> list:
    # The flags and the rules are checked before the corpus is read.
    g_grid = None
    if args.calibrate:
        g_grid = _colon_grid("0.1:0.9:0.1" if args.g_grid is None else args.g_grid)
    for flag, value in (("--g-grid", args.g_grid), ("--steady-out", args.steady_out)):
        if value is not None and not args.calibrate:
            raise ValueError(f"{flag} needs --calibrate")
    _bind(
        "load_rules", "default_rules", "read_corpus_csv", "classify_corpus", "estimate_params",
        "labeled_to_csv", "calibrated_steady_state", "sweep_to_csv",
    )
    rules = load_rules(args.rules) if args.rules else default_rules()
    # A corpus that cannot be read is input data without a result: exit 3.
    try:
        corpus = read_corpus_csv(args.input_csv)
    except OSError as exc:
        raise PathfinderOpsError(f"cannot read corpus: {exc}")
    except ValueError as exc:
        raise PathfinderOpsError(str(exc))

    # Labels need no parameters: counts that cannot calibrate the chain give
    # null ones here, and fail only in the --calibrate sweep.
    labeled, counts = classify_corpus(corpus.comments, rules)
    try:
        p_accept, p_success = estimate_params(counts)
    except InsufficientData:
        p_accept = p_success = None
    stem = os.path.splitext(args.out)[0]
    outputs = [
        (args.out, labeled_to_csv(corpus, labeled)),
        (args.counts_out or stem + ".counts.json",
         json_text(dict(counts.as_dict(), total=counts.total()))),
        (args.params_out or stem + ".params.json",
         json_text({"p_accept": p_accept, "p_success": p_success})),
    ]
    if g_grid is not None:
        steady = sweep_to_csv(calibrated_steady_state(counts, g_grid))
        outputs.append((args.steady_out or stem + ".steady.csv", steady))
    return outputs


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> list:
    cfg = _load_config(args.config)
    import numpy as np

    sim = _require_section(cfg, "sim")
    seed = sim["seed"] if args.seed is None else args.seed
    steps, rounds = sim["steps"], sim["rounds"]
    if seed is None:
        raise ValueError("a seed is required: set sim.seed or pass --seed")
    if steps is None and rounds is None:
        raise ValueError("sim section must set 'steps' (chain) and/or 'rounds' (selection)")

    # Validate both parts before either runs. Each part binds only its own
    # model's names, so a chain-only call imports no worstcase and a
    # rounds-only call no chain.
    if steps is not None:
        _bind("ChainParams", "SimConfig", "simulate_chain", "steady_state")
        chain = _require_section(cfg, "chain")
        for key, value in chain.items():
            if not isinstance(value, float):
                raise ValueError(f"chain.{key} must be a single number for simulation")
        params = ChainParams(**chain)
        sim_cfg = SimConfig(seed=seed, steps=steps, burn_in=sim["burn_in"])
    if rounds is not None:
        _bind("check_batch", "mixture_batch")
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
        w = batch.analytic_all_reject
        # The binomial standard error of the all-reject rate about W.
        std_error = math.sqrt(w * (1.0 - w) / batch.rounds)
        analytic_offers = batch.analytic_mean_offers
        offers_error = batch.mean_offers_std_error
        result["selection"] = {
            "seed": seed,
            "rounds": batch.rounds,
            "all_reject_rate": batch.all_reject_rate,
            "mean_offers": batch.mean_offers,
            "analytic_all_reject": w,
            "all_reject_std_error": std_error,
            "all_reject_z": (batch.all_reject_rate - w) / std_error if std_error else None,
            "analytic_mean_offers": analytic_offers,
            "mean_offers_std_error": offers_error,
            "mean_offers_z": (
                (batch.mean_offers - analytic_offers) / offers_error if offers_error else None
            ),
        }
    return [(args.out, json_text(result))]


# --- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main() reports in one line with
    exit 2; subparsers share the class. (On 3.10 and 3.11 exit_on_error=False
    still exits for missing required or unrecognised arguments.)"""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as an option unless
        # it matches this private pattern, whose default takes only plain
        # numbers such as -1 and -0.5. Any "-" followed by a digit, or by "."
        # and a digit, is a value here, so `--g-grid -0.1:0.5:0.1` reaches the
        # grid check as `--g-grid=-0.1:0.5:0.1` does. No option name starts
        # that way, and `--g-grid -x` stays a usage error.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process: main() parses each argv with it. Callers must not
    change it."""
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

    p_steady = sub.add_parser("steady", help="stationary-distribution parameter sweep")
    add_config_out(p_steady)
    p_steady.set_defaults(func=cmd_steady)

    p_worst = sub.add_parser("worst", help="worst-case probability and tipping points")
    add_config_out(p_worst)
    p_worst.set_defaults(func=cmd_worst)

    p_grad = sub.add_parser("gradmap", help="noise-gradient sign map")
    add_config_out(p_grad)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        outputs = args.func(args)
        # Python sets sys.stdout to None when it starts with fd 1 closed.
        if sys.stdout is None and any(path is None for path, _ in outputs):
            raise OSError(errno.EBADF, "cannot write to stdout: it is closed")
        files = [(path, text) for path, text in outputs if path is not None]
        # One directory entry is one file: a symlinked file is replaced, not
        # followed. No output may replace a file the run read.
        inputs = {os.path.realpath(path): path for path in
                  (getattr(args, name, None) for name in ("config", "input_csv", "rules")) if path}
        entries = {}
        for path, _ in files:
            if not path:
                raise ValueError("an output path may not be empty")
            head, name = os.path.split(path)
            entry = os.path.join(os.path.realpath(head), name)
            if entry in entries:
                raise ValueError(f"two outputs name one file: {entries[entry]} and {path}")
            if entry in inputs:
                raise ValueError(f"an output names an input file: {path} is {inputs[entry]}")
            entries[entry] = path
        for path, text in files:
            atomic_write_text(path, text)
        for text in [text for path, text in outputs if path is None]:
            sys.stdout.write(text)
        return EXIT_OK
    except ValueError as exc:
        status, line = EXIT_CONFIG, f"error[config_invalid]: {exc}"
    except (PathfinderOpsError, ArithmeticError) as exc:
        status, line = EXIT_COMPUTE, f"error[computation_failed]: {exc}"
    except OSError as exc:
        status, line = EXIT_COMPUTE, f"error[io_failed]: {exc}"
    print(line, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
