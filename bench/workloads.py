"""The four workloads, each a fixed list of calls built from a seed.

Each run must report every metric, so every workload runs every layer. The
calls a workload exists to stress are its `main` calls. Every workload also
runs the `probe` set, one tiny call of each subcommand and of each library
analysis, and the malformed-config `contract` set. A workload stays the
bypass workload of the layers it does not stress: their share of `pass_s`
is small.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks as C
import inputs as I

KINDS = ("steady", "worst", "gradmap", "classify", "simulate")
PROBE_REPEATS = 4
SCENARIO = {"n": 10, "u_minus": -2.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.1}


@dataclass
class Outcome:
    code: int | None = None  # exit code of a CLI call
    stderr: str = ""
    error: str | None = None  # uncaught exception, as "Type: message"
    value: object = None  # return value of a library call


@dataclass
class Call:
    name: str  # unique within the workload
    kind: str  # a subcommand, or "library"
    role: str  # "main", "probe" or "contract"
    check: Callable[[Outcome], object]
    argv: list[str] | None = None
    fn: Callable[[], object] | None = None
    outputs: tuple[str, ...] = field(default_factory=tuple)


def expect_ok(check):
    """A successful CLI call: exit 0 and no uncaught exception, then the
    output check."""

    def run(o: Outcome):
        C.require(o.error is None, f"uncaught {o.error}")
        C.require(o.code == 0, f"exit code {o.code}: {o.stderr.strip()[:200]}")
        return check()

    return run


def expect_rejected(o: Outcome):
    C.require(o.error is None, f"uncaught {o.error}")
    C.check_rejected(o.code, o.stderr)


def rejected_or_value_error(o: Outcome):
    """A malformed alpha_grid must be refused; the uncaught ValueError the
    program raises instead is a known defect."""
    if o.error is not None and o.error.startswith("ValueError: "):
        raise C.KnownDefect(f"uncaught {o.error}")
    expect_rejected(o)


def expect_library(check):
    def run(o: Outcome):
        C.require(o.error is None, f"uncaught {o.error}")
        return check(o.value)

    return run


class CallList:
    def __init__(self, work: str, seed: int, pkg):
        self.work, self.pkg = work, pkg
        self.rng = random.Random(seed)
        self.calls: list[Call] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def config(self, name: str, doc) -> str:
        return I.write_json(self.path(name + ".cfg.json"), doc)

    def add(self, call: Call) -> None:
        self.calls.append(call)

    # --- subcommand calls ---

    def steady(self, name, role, chain: dict):
        cfg = self.config(name, {"chain": chain})
        out = self.path(name + ".csv")
        grids = [chain[k] if isinstance(chain[k], list) else [chain[k]] for k in ("p_good", "p_accept", "p_success")]
        self.add(Call(name, "steady", role, expect_ok(lambda: C.check_steady(out, *grids)),
                      argv=["steady", "--config", cfg, "--out", out], outputs=(out,)))

    def worst(self, name, role, doc: dict):
        cfg = self.config(name, doc)
        out = self.path(name + ".csv")
        alphas = doc["worst_case"].get("alpha_grid", [i / 100.0 for i in range(101)])
        self.add(Call(name, "worst", role, expect_ok(lambda: C.check_worst(out, doc, alphas)),
                      argv=["worst", "--config", cfg, "--out", out], outputs=(out,)))

    def gradmap(self, name, role, doc: dict):
        cfg = self.config(name, doc)
        out, cells = self.path(name + ".csv"), self.path(name + ".cells.csv")
        g = doc["gradmap"]
        rows = [(n, u) for n in g["n_values"] for u in g["u_abs_values"]]
        self.add(Call(name, "gradmap", role, expect_ok(lambda: C.check_gradmap(out, cells, doc, rows)),
                      argv=["gradmap", "--config", cfg, "--out", out, "--cells-out", cells],
                      outputs=(out, cells)))

    def classify(self, name, role, rows: int):
        corpus = I.write_corpus(self.path(name + ".corpus.csv"), rows, self.rng.randrange(2**32))
        out = self.path(name + ".csv")
        g_grid = [round(0.1 + 0.1 * i, 12) for i in range(9)]  # the CLI's default --g-grid
        stem = out[: -len(".csv")]
        self.add(Call(name, "classify", role, expect_ok(lambda: C.check_classify(out, corpus, g_grid)),
                      argv=["classify", corpus.path, "--out", out, "--calibrate"],
                      outputs=(out, stem + ".counts.json", stem + ".params.json", stem + ".steady.csv")))

    def simulate(self, name, role, doc: dict):
        cfg = self.config(name, doc)
        out = self.path(name + ".json")
        self.add(Call(name, "simulate", role, expect_ok(lambda: C.check_simulate(out, doc)),
                      argv=["simulate", "--config", cfg, "--out", out, "--compare-analytic"],
                      outputs=(out,)))

    def tiny(self, kind: str, name: str, role: str = "probe"):
        rng = self.rng
        if kind == "steady":
            self.steady(name, role, I.tiny_chain(rng))
        elif kind == "worst":
            self.worst(name, role, I.tiny_worst(rng))
        elif kind == "gradmap":
            self.gradmap(name, role, I.tiny_gradmap(rng))
        elif kind == "classify":
            self.classify(name, role, 50)
        else:
            self.simulate(name, role, I.tiny_simulate(rng))

    # --- library calls (analyses with no subcommand) ---

    def gradient_sweep(self, name, role, scn: dict, kind: str, thetas):
        wc = self.pkg.worstcase
        scenario = wc.WorstCaseScenario(**scn)
        specs = [wc.NoiseSpec(wc.NoiseKind(kind), t) for t in thetas]

        def check(values):
            for value, theta in zip(values, thetas):
                C.check_tipping_gradient(value, scn, kind, theta)

        self.add(Call(name, "library", role, expect_library(check),
                      fn=lambda: [self.pkg.worstcase.tipping_point_gradient(scenario, s) for s in specs]))

    def selection_sweep(self, name, role, pool_size: int, rounds: int):
        pool = I.candidate_pool(self.rng, pool_size)
        d_ideal = round(self.rng.uniform(5.0, 30.0), 6)
        seeds = [self.rng.randrange(2**32) for _ in range(rounds)]
        candidates = self.pkg.agents.candidates_from_json(pool)
        ctx = self.pkg.agents.ControllerContext(d_ideal)

        def check(outcomes):
            for outcome in outcomes:
                C.check_selection(outcome, pool, d_ideal)

        self.add(Call(name, "library", role, expect_library(check),
                      fn=lambda: [self.pkg.simulate.run_selection_round(candidates, ctx, s) for s in seeds]))

    def generate(self, name, role, size: int):
        seed = self.rng.randrange(2**32)
        self.add(Call(name, "library", role, expect_library(lambda recs: C.check_generated(recs, size)),
                      fn=lambda: self.pkg.ntml.generate_corpus(size, seed)))

    def probes(self):
        """One tiny call of each subcommand and of each library analysis."""
        for kind in KINDS:
            self.tiny(kind, f"probe.{kind}")
        self.gradient_sweep("probe.gradient", "probe", SCENARIO, "rademacher", [round(self.rng.uniform(0.1, 1.0), 6)])
        self.selection_sweep("probe.selection", "probe", 5, 1)
        self.generate("probe.generate", "probe", 20)

    # --- the malformed-config set ---

    def contract(self):
        """Requests the CLI must refuse with exit 2 and one error[...] line,
        plus two known contract breaks: `worst_case.alpha_grid: ["x"]`
        raises an uncaught ValueError, and `simulate --format csv` writes
        JSON. Each check excuses only that exact failure. Left out on purpose:
        `noise.gh_nodes: 100000`, which allocates about 75 GiB before any
        check, and an unbounded `sim.steps`; either would exhaust the memory
        of the machine the benchmark shares."""
        scn = SCENARIO
        bad = {
            "invalid-json": ("steady", None),
            "unknown-section": ("worst", {"bogus": {}}),
            "unknown-key": ("steady", {"chain": {"p_good": 0.5, "p_typo": 1}}),
            "out-of-range": ("steady", {"chain": {"p_good": 1.5, "p_accept": 0.5, "p_success": 0.5}}),
            "missing-key": ("worst", {"worst_case": {k: v for k, v in scn.items() if k != "delta"}}),
            "noise-kind": ("gradmap", {"noise": {"kind": "laplace", "theta": 1.0}}),
            "no-seed": ("simulate", {"chain": {"p_good": 0.5, "p_accept": 0.5, "p_success": 0.5},
                                     "sim": {"steps": 100}}),
            "alpha-grid-string": ("worst", {"worst_case": dict(scn, alpha_grid=["x"])}),
        }
        for tag, (kind, doc) in bad.items():
            name = f"contract.{tag}"
            if doc is None:
                cfg = self.path(name + ".cfg.json")
                with open(cfg, "w", encoding="utf-8") as handle:
                    handle.write("{not json")
            else:
                cfg = self.config(name, doc)
            check = rejected_or_value_error if tag == "alpha-grid-string" else expect_rejected
            self.add(Call(name, kind, "contract", check,
                          argv=[kind, "--config", cfg, "--out", self.path(name + ".out")]))

        corpus = I.write_corpus(self.path("contract.g-grid.corpus.csv"), 20, 7)
        out = self.path("contract.g-grid.csv")
        self.add(Call("contract.g-grid", "classify", "contract", expect_rejected,
                      argv=["classify", corpus.path, "--out", out, "--calibrate", "--g-grid", "0.1:x:0.1"]))

        name = "contract.simulate-format-csv"
        doc = {"chain": {"p_good": 0.5, "p_accept": 0.5, "p_success": 0.5}, "sim": {"seed": 1, "steps": 100}}
        cfg = self.config(name, doc)
        out = self.path(name + ".out")

        def csv_or_refused(o: Outcome):
            if o.code == 0 and o.error is None:
                return C.check_simulate_csv(out, doc)
            return expect_rejected(o)

        self.add(Call(name, "simulate", "contract", csv_or_refused,
                      argv=["simulate", "--config", cfg, "--out", out, "--compare-analytic", "--format", "csv"],
                      outputs=(out,)))


DEFAULT_GRADMAP = {
    "n_values": [2, 5, 10, 20],
    "u_abs_values": [1.0, 2.0, 4.0, 8.0],
    "alpha_grid": I.grid(0.02, 0, 50),
    "theta_grid": I.grid(0.2, 0, 50),
}


def chain_grid(b: CallList):
    axis = I.grid(0.04, 1, 24) + [1.0]
    b.steady("main.steady-grid", "main", {"p_good": axis, "p_accept": axis, "p_success": I.grid(0.04, 0, 25)})
    b.simulate("main.simulate-chain", "main", {
        "chain": {"p_good": 0.5, "p_accept": 0.81, "p_success": 0.87},
        "sim": {"seed": b.rng.randrange(2**32), "steps": 2_000_000, "burn_in": 1000},
    })


def noise_map(b: CallList):
    b.gradmap("main.gradmap-gaussian", "main",
              {"gradmap": DEFAULT_GRADMAP, "noise": {"kind": "gaussian", "theta": 1.0, "gh_nodes": 61}})
    b.gradmap("main.gradmap-rademacher", "main",
              {"gradmap": DEFAULT_GRADMAP, "noise": {"kind": "rademacher", "theta": 1.0}})
    b.worst("main.worst", "main", {
        "worst_case": dict(SCENARIO),
        "social": {"s": 0.5, "gamma": 2.5, "r": 0.5},
        "noise": {"kind": "gaussian", "theta": 1.0, "gh_nodes": 61},
    })
    b.simulate("main.simulate-rounds", "main", {
        "worst_case": dict(SCENARIO),
        "sim": {"seed": b.rng.randrange(2**32), "rounds": 1_000_000, "alpha": 0.5},
    })
    thetas = sorted(round(b.rng.uniform(0.2, 1.5), 6) for _ in range(6))
    b.gradient_sweep("main.tipping-gradient", "main", SCENARIO, "gaussian", thetas)
    b.selection_sweep("main.selection", "main", 50, 100)


def log_corpus(b: CallList):
    b.classify("main.classify", "main", 50_000)
    b.generate("main.generate-corpus", "main", 20_000)


def cli_small(b: CallList):
    for kind in KINDS:
        for i in range(5):
            b.tiny(kind, f"main.{kind}-{i}", "main")


WORKLOADS = {"chain-grid": chain_grid, "noise-map": noise_map, "log-corpus": log_corpus, "cli-small": cli_small}


def build(workload: str, work: str, seed: int, pkg) -> list[Call]:
    """The calls of one pass. On the workloads that do not stress them, the
    probe calls are tiny and their metrics rest on few passes, so each runs
    PROBE_REPEATS times a pass. `cli-small` already makes five such calls of
    each subcommand, and more probes would dilute its malformed quarter."""
    b = CallList(work, seed, pkg)
    WORKLOADS[workload](b)
    main, b.calls = b.calls, []
    b.probes()
    probes, b.calls = b.calls, []
    b.contract()
    return main + probes * (1 if workload == "cli-small" else PROBE_REPEATS) + b.calls


def warmup(work: str, seed: int, pkg) -> list[Call]:
    """The probe set, run once before timing so that lazy imports and
    caches are in place."""
    os.makedirs(work)
    b = CallList(work, seed, pkg)
    b.probes()
    return b.calls
