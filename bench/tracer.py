"""In-memory span recorder around equiterm's public functions, and the
per-layer metrics derived from the spans.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``attrs`` holds
counts read from the wrapped call's arguments or return value.  Wrappers
are installed at the module bindings the callers use, so calls made inside
the library are recorded too.  A binding that does not exist is skipped
and reported, so a refactor degrades the trace instead of breaking it.

This module imports neither numpy nor equiterm at load time: the traced
CLI child measures ``import equiterm`` after importing it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time


def _solve_qp_attrs(args, kwargs, out):
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    return {"kind": args[0].kind, "warm": warm is not None}


def _iterations(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _main_attrs(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


# (module, attribute or Class.method, span name, attrs reader)
PATCHES = (
    ("equiterm.cli", "main", "cli.main", _main_attrs),
    ("equiterm.cli", "load_scenario", "scenario.load_scenario", None),
    ("equiterm.cli", "validate_scenario", "validate.validate_scenario", None),
    ("equiterm.cli", "render_json", "report.render_json", None),
    ("equiterm.cli", "solve_equilibrium", "equilibrium.solve_equilibrium", _iterations),
    ("equiterm.cli", "check_uniqueness", "equilibrium.check_uniqueness", None),
    ("equiterm.cli", "mean_max_equilibrium", "oracles.mean_max_equilibrium", None),
    ("equiterm.cli", "brute_force_equilibrium", "oracles.brute_force_equilibrium", None),
    ("equiterm.cli", "two_stage_check", "oracles.two_stage_check", None),
    ("equiterm.cli", "doob_decompose", "process.doob_decompose", None),
    ("equiterm.equilibrium", "solve_equilibrium", "equilibrium.solve_equilibrium", _iterations),
    ("equiterm.equilibrium", "check_uniqueness", "equilibrium.check_uniqueness", None),
    ("equiterm.equilibrium", "detect_saturation", "equilibrium.detect_saturation", None),
    ("equiterm.equilibrium", "Market.solutions", "equilibrium.solutions", None),
    ("equiterm.equilibrium", "Market.excess", "equilibrium.excess", None),
    ("equiterm.equilibrium", "assemble_all", "assembly.assemble_all", None),
    ("equiterm.validate", "assemble_all", "assembly.assemble_all", None),
    ("equiterm.equilibrium", "solve_qp", "players.solve_qp", _solve_qp_attrs),
    ("equiterm.oracles", "solve_qp", "players.solve_qp", _solve_qp_attrs),
    ("equiterm.equilibrium", "response_jacobian", "players.response_jacobian", None),
    ("equiterm.players", "solve_qp_active_set", "qp.solve_qp_active_set", _iterations),
)


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        self.unwrapped = []
        for module_name, attr, name, attrs in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, original, attrs))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def extend(self, spans) -> None:
        """Append spans recorded in another process, re-basing parents."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, attrs])


# ---------------------------------------------------------------------------
# analysis

FRONT_DOOR = {
    "scenario.load_ms": "scenario.load_scenario",
    "validate.ms_per_call": "validate.validate_scenario",
    "report.render_ms": "report.render_json",
    "oracles.mean_max_ms": "oracles.mean_max_equilibrium",
    "oracles.brute_force_ms": "oracles.brute_force_equilibrium",
    "oracles.two_stage_ms": "oracles.two_stage_check",
    "process.doob_ms": "process.doob_decompose",
}
SUBCOMMANDS = ("validate", "solve", "diagnose", "two-stage", "mean-max", "oracle", "doob")


def _ms(span) -> float:
    return 1e3 * (span[2] - span[1])


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children, ms."""
    own = [_ms(s) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= _ms(s)
    return own


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_counts(spans) -> dict:
    """Exact work counts of one traced pass."""
    qp = [s for s in spans if s[0] == "qp.solve_qp_active_set"]
    solves = [s for s in spans if s[0] == "players.solve_qp"]
    return {
        "qp.calls": len(qp),
        "qp.iterations": sum(s[4]["iterations"] for s in qp),
        "players.solve_qp.calls.producer": sum(s[4]["kind"] == "producer" for s in solves),
        "players.solve_qp.calls.consumer": sum(s[4]["kind"] == "consumer" for s in solves),
        "players.response_jacobian.calls":
            sum(s[0] == "players.response_jacobian" for s in spans),
        "equilibrium.market_evals": sum(s[0] == "equilibrium.solutions" for s in spans),
        "equilibrium.iterations":
            sum(s[4]["iterations"] for s in spans if s[0] == "equilibrium.solve_equilibrium"),
    }


def layer_metrics(spans, pass_walls, counts, probe_spans, import_ms) -> dict:
    """Per-layer metrics of the traced passes (values only, units elsewhere).

    ``spans`` are the workload's own traced passes, ``pass_walls`` their wall
    times in seconds and ``counts`` the counts of one pass.  Front-door
    metrics (load, validate per call, render, the CLI subcommands, oracles
    and the Doob split) fall back to ``probe_spans`` from a traced cold-CLI
    pass when the workload's own calls never reach that function.
    """
    n_pass = len(pass_walls)
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name, source=spans):
        return [_ms(s) for s in source if s[0] == name]

    out = {}
    qp_ms = sum(own[i] for i in by_name.get("qp.solve_qp_active_set", ()))
    qp_iters = sum(spans[i][4]["iterations"] for i in by_name.get("qp.solve_qp_active_set", ()))
    out["qp.ms_per_iteration"] = qp_ms / qp_iters if qp_iters else 0.0
    out["qp.iterations_per_call"] = (counts["qp.iterations"] / counts["qp.calls"]
                                     if counts["qp.calls"] else 0.0)

    solves = [spans[i] for i in by_name.get("players.solve_qp", ())]
    for key, pick in (("producer", lambda s: s[4]["kind"] == "producer"),
                      ("consumer", lambda s: s[4]["kind"] == "consumer"),
                      ("warm", lambda s: s[4]["warm"]),
                      ("cold", lambda s: not s[4]["warm"])):
        out[f"players.solve_qp.ms_p50.{key}"] = _median([_ms(s) for s in solves if pick(s)])
    n_solves = counts["players.solve_qp.calls.producer"] + counts["players.solve_qp.calls.consumer"]
    out["players.qp_calls_per_solve"] = counts["qp.calls"] / n_solves if n_solves else 0.0
    out["players.response_jacobian.ms_p50"] = _median(durations("players.response_jacobian"))

    sol_idx = by_name.get("equilibrium.solutions", ())
    solving = {spans[i][3] for i in by_name.get("players.solve_qp", ())}
    rounds = sum(1 for i in sol_idx if i in solving)
    out["equilibrium.cache_hit_ratio"] = 1.0 - rounds / len(sol_idx) if sol_idx else 0.0
    eq_self = sum(own[i] for i, s in enumerate(spans) if s[0].startswith("equilibrium."))
    out["equilibrium.self_ms"] = eq_self / n_pass
    out["equilibrium.excess_ms_p50"] = _median(durations("equilibrium.excess"))
    out["equilibrium.detect_saturation_ms"] = _median(durations("equilibrium.detect_saturation"))
    out["assembly.assemble_ms"] = _median(durations("assembly.assemble_all"))

    validate_ms = sum(durations("validate.validate_scenario"))
    out["validate.share"] = validate_ms / (1e3 * sum(pass_walls))

    for metric, name in FRONT_DOOR.items():
        source = spans if name in by_name else probe_spans
        values = durations(name, source)
        if metric == "validate.ms_per_call":
            out[metric] = statistics.fmean(values) if values else 0.0
        else:
            out[metric] = _median(values)
    for sub in SUBCOMMANDS:
        own_main = [_ms(s) for s in spans if s[0] == "cli.main" and s[4]["command"] == sub]
        probe_main = [_ms(s) for s in probe_spans
                      if s[0] == "cli.main" and s[4]["command"] == sub]
        out[f"cli.{sub}_ms"] = _median(own_main or probe_main)
    out["cli.import_ms"] = _median(import_ms)
    return out
