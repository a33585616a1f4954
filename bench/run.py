"""Layered benchmark of equiterm's equilibrium computation.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

All load comes from this one process with one BLAS thread, closed loop with
one caller; at most one child process runs at a time.  The seed orders the
work and draws the sample points; the scenarios themselves are fixed and
fingerprinted against ``reference.json`` (see ``inputs.py``).

Each run builds one pass of operations from its seed and repeats that
pass, unchanged, until ``--seconds`` are up (at least once):

corpus_solve  ``equiterm.cli.main(["solve", ...])`` in process on each of the
              23 acceptance scenarios: the desk user's full solve path
              without interpreter start (load, validate, solve, render).
ladder_solve  ``solve_equilibrium`` on synthetic markets of 12, 24 and 48
              contracts, no validation: player QPs dominate.
excess_sweep  one block per corpus centre and the 24-contract centre:
              ``check_uniqueness`` with a seeded seed, then seeded points at
              radius 5% through ``detect_saturation`` and ``Market.excess``
              (the memo cache answers the second call).  No Newton step.
cli_cold      fresh ``python -m equiterm`` processes for every subcommand
              on small files: interpreter start and import on every call.

``--trace 0`` reports the end-to-end metrics.  Each operation (the
in-process CLI call, the solve, the block, the process) is timed and divided
by the mean time of a reference run in the two gaps before it and the two
after it: a fixed in-process numpy and Python kernel, or for cli_cold a
fresh ``python -c "import numpy"``.  The
machine is shared and its speed swings by 1.7x within seconds and by more
over minutes; the ratio cancels that swing, which raw times across runs do
not (their spread was 10-45%).  An operation's cost is the median of its
ratios over the run, in units of the reference ("ref"): op_ref_p50 is the
median operation, op_ref_max the slowest and batch_ref the whole pass.
setup_s (median of three full set-ups, each with a fresh ``import
equiterm``) and peak_rss_mb are absolute.  The ``bench_meta`` line keeps
the workload's named statistics in milliseconds over all samples.

``--trace 1`` alternates untraced and traced passes of identical work and
reports the per-layer metrics of ``tracer.py``, exact work counts per pass
(checked to repeat), the tracing overhead and a calibration kernel that
never calls equiterm.  Every operation is checked; a failed check counts in
``failed``.  The line before the result line (``bench_meta``) records the
environment, the input fingerprints and the workload's own named metrics.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EQUITERM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "equiterm" / "__init__.py").is_file() or \
        not (ROOT / "tests" / "corpus.py").is_file():
    print("bench: src/equiterm and tests/corpus.py not found next to bench/", file=sys.stderr)
    sys.exit(2)
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import equiterm as eq  # noqa: E402
import equiterm.cli as cli  # noqa: E402
import equiterm.equilibrium as equilibrium  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_REPS = 3
CHILD_TIMEOUT = 120.0
SWEEP_POINTS = 16      # sampled points per centre and block
SWEEP_RADIUS = 0.05    # relative to the largest centre price, as in criterion 4
UNIQUENESS_PAIRS = 16  # check_uniqueness pairs per block

E2E_UNITS = {
    "op_ref_p50": "ref",
    "op_ref_max": "ref",
    "batch_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)


class Recorder:
    """Every attempted operation: (tag, ms, ok, primary); failures explained."""

    def __init__(self):
        self.ops: list = []
        self.errors: list[str] = []

    def add(self, tag, ms, why=None, primary=True):
        self.ops.append((tag, ms, why is None, primary))
        if why is not None:
            self.errors.append(f"{tag}: {why}")

    def timed(self, tag, fn, check, primary=True):
        """Time ``fn()``; ``check(result)`` returns None or what is wrong."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising operation is a failed operation
            self.add(tag, 1e3 * (time.perf_counter() - t0), f"raised {exc!r}", primary)
            return None
        ms = 1e3 * (time.perf_counter() - t0)
        try:
            why = check(out)
        except Exception as exc:
            why = f"check raised {exc!r}"
        self.add(tag, ms, why, primary)
        return out

    def samples(self, prefix=""):
        """Times of the workload's own operations whose tag starts with ``prefix``."""
        return [ms for tag, ms, _, primary in self.ops if primary and tag.startswith(prefix)]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op[2])


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _solve_gate(converged, clearing, kkt, prices, expected):
    if not converged:
        return "did not converge"
    if clearing > inputs.CLEARING_TOL or kkt > inputs.KKT_TOL:
        return f"residuals {clearing:.2e} / {kkt:.2e} above 1e-8"
    gap = inputs.price_gap(prices, expected)
    if gap > inputs.PRICE_TOL:
        return f"prices {gap:.2e} from the reference"
    return None


# ---------------------------------------------------------------------------
# workloads
#
# ``plan(rng, trace)`` returns one pass: a list of (tag, fn, check).  The
# runner times ``fn()`` and then calls ``check(result)``, which returns None
# or what is wrong.  Every call of a plan's ``fn`` does the same work, so a
# pass can be repeated.


class CorpusSolve:
    name = "corpus_solve"
    reference_shape = (64, 4)  # small, interpreted solves

    def setup(self, work, reference, rec):
        scenarios, prints = inputs.checked("corpus", reference)
        self.reference = reference
        self.out = work / "report.json"
        self.files = {}
        for key, sc in scenarios.items():
            path = work / (key.replace("/", "_") + ".json")
            path.write_text(json.dumps(eq.scenario_to_dict(sc)), encoding="utf-8")
            self.files[key] = path
        warm = next(iter(self.files.values()))
        cli.main(["solve", "--scenario", str(warm), "--output", str(self.out)])  # warm-up
        return prints

    def _check(self, key):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            res = json.loads(self.out.read_text(encoding="utf-8"))["result"]
            self.out.unlink()
            prices = [row["price_discounted"] for row in res["prices"]]
            return _solve_gate(res["converged"], res["clearing_residual"],
                               res["max_kkt_residual"], prices, self.reference[key]["prices"])
        return check

    def plan(self, rng, trace=None):
        keys = list(self.files)
        ops = []
        for k in rng.permutation(len(keys)):
            argv = ["solve", "--scenario", str(self.files[keys[k]]), "--output", str(self.out)]
            ops.append((keys[k], functools.partial(cli_main, argv), self._check(keys[k])))
        return ops

    def named(self, rec):
        ms = rec.samples()
        return {"solve_ms_p50": (_percentile(ms, 50), "ms"),
                "solve_ms_p90": (_percentile(ms, 90), "ms")}


def cli_main(argv):
    return cli.main(argv)  # looked up at call time, so a traced pass sees the wrapper


class LadderSolve:
    name = "ladder_solve"
    # its QPs are dense systems of 100 to 260 unknowns, and the machine's swings
    # slow them less than small interpreted work: the mixed kernel over-corrects
    reference_shape = (120, 0)

    def setup(self, work, reference, rec):
        self.scenarios, prints = inputs.checked("ladder", reference)
        self.reference = reference
        self.options = equilibrium.SolveOptions(tol=inputs.CLEARING_TOL, kkt_tol=inputs.KKT_TOL)
        equilibrium.solve_equilibrium(self.scenarios["ladder/n12"], self.options)  # warm-up
        return prints

    def _op(self, key):
        def solve():
            return equilibrium.solve_equilibrium(self.scenarios[key], self.options)

        def check(r):
            return _solve_gate(r.converged, r.clearing_residual, r.max_kkt_residual,
                               r.prices, self.reference[key]["prices"])
        return key, solve, check

    def plan(self, rng, trace=None):
        keys = list(self.scenarios)
        return [self._op(keys[k]) for k in rng.permutation(len(keys))]

    def named(self, rec):
        return {f"ladder_solve_s.{key.split('/')[1]}": (_percentile(rec.samples(key), 50) / 1e3, "s")
                for key in self.scenarios}


class ExcessSweep:
    name = "excess_sweep"
    reference_shape = (64, 4)

    def setup(self, work, reference, rec):
        scenarios, prints = inputs.checked("corpus", reference)
        ladder, ladder_prints = inputs.checked("ladder", reference)
        scenarios["ladder/n24"] = ladder["ladder/n24"]
        prints["ladder/n24"] = ladder_prints["ladder/n24"]
        self.scenarios = scenarios
        self.centres = {}
        for key, sc in scenarios.items():
            res = rec.timed(f"centre:{key}", functools.partial(equilibrium.solve_equilibrium, sc),
                            lambda r, key=key: _solve_gate(r.converged, r.clearing_residual,
                                                           r.max_kkt_residual, r.prices,
                                                           reference[key]["prices"]),
                            primary=False)
            self.centres[key] = np.asarray(reference[key]["prices"]) if res is None else res.prices
        self.uniqueness_ms, self.sweep_ms = [], []
        return {key: prints[key] for key in scenarios}

    def _op(self, key, seed, xs):
        sc, centre = self.scenarios[key], self.centres[key]

        def block():
            t0 = time.perf_counter()
            diag = equilibrium.check_uniqueness(sc, prices=centre, seed=seed,
                                                n_samples=UNIQUENESS_PAIRS)
            t1 = time.perf_counter()
            market = equilibrium.Market(sc)
            evaluated = []
            for x in xs:
                if not equilibrium.detect_saturation(sc, prices=x, market=market).saturated:
                    evaluated.append((x, market.excess(x)[0]))
            self.uniqueness_ms.append(1e3 * (t1 - t0))
            self.sweep_ms.append(1e3 * (time.perf_counter() - t1))
            return diag, evaluated

        return f"block:{key}", block, self._check

    @staticmethod
    def _check(out):
        diag, evaluated = out
        if diag.rank_ok is not True:
            return f"rank condition {diag.rank_condition} of {diag.rank_required}"
        if diag.monotonicity_all_negative is not True:
            return "check_uniqueness found a pair that is not strictly decreasing"
        for (x, zx), (y, zy) in zip(evaluated, evaluated[1:]):
            ip = float((zx - zy) @ (x - y))
            if not ip < 0:
                return f"sampled pair with inner product {ip:.3e}, not negative"
        return None

    def plan(self, rng, trace=None):
        keys = list(self.scenarios)
        ops = []
        for k in rng.permutation(len(keys)):
            centre = self.centres[keys[k]]
            seed = int(rng.integers(1 << 31))
            radius = SWEEP_RADIUS * max(1.0, float(np.max(np.abs(centre))))
            xs = centre + radius * rng.standard_normal((SWEEP_POINTS, centre.size))
            ops.append(self._op(keys[k], seed, xs))
        return ops

    def named(self, rec):
        return {"excess_evals_per_s": (1e3 * SWEEP_POINTS * len(self.sweep_ms)
                                       / sum(self.sweep_ms), "1/s"),
                "uniqueness_s_p50": (statistics.median(self.uniqueness_ms) / 1e3, "s")}


class CliCold:
    name = "cli_cold"
    commands = tracer.SUBCOMMANDS

    def setup(self, work, reference, rec):
        docs = inputs.cli_docs()
        scenarios, prints = inputs.checked("cli", reference)
        self.work = work
        self.report = work / "cli_report.json"
        self.files = {}
        for name, doc in docs.items():
            path = work / f"cli_{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files[name] = path
        desk, two_stage = scenarios["cli/desk"], scenarios["cli/two_stage"]
        solved = equilibrium.solve_equilibrium(desk)
        ts_solved = equilibrium.solve_equilibrium(two_stage)
        # the in-process answers the child processes must reproduce
        self.expect = {
            "desk": solved.prices,
            "predicted_t1": eq.two_stage_check(two_stage, ts_solved).predicted_t1,
            "mean_max": eq.mean_max_equilibrium(scenarios["cli/flat"]).prices,
            "oracle": eq.brute_force_equilibrium(desk, eq.GridSpec(step=1e-4)).prices,
            "doob": eq.doob_decompose(scenarios["cli/ensemble"].exogenous.ensemble).predictable,
        }
        for name, got, ref in (("desk", solved.prices, reference["cli/desk"]["prices"]),
                               ("two_stage", ts_solved.prices, reference["cli/two_stage"]["prices"]),
                               ("mean_max", self.expect["mean_max"],
                                reference["cli/flat"]["mean_max_prices"])):
            gap = inputs.price_gap(got, ref)
            rec.add(f"in-process:{name}", 0.0,
                    None if gap <= inputs.PRICE_TOL else f"{gap:.2e} from the reference",
                    primary=False)
        self.import_ms = []
        return prints

    def _report(self, command, proc):
        """What is wrong with one child's exit code and report, or None."""
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        res = json.loads(self.report.read_text(encoding="utf-8"))
        self.report.unlink()
        got = res.get("result", {})
        close = lambda a, b: inputs.price_gap(a, b) <= 1e-9  # noqa: E731
        if command == "validate":
            ok = res["validation"]["passed"]
        elif command == "solve":
            prices = [r["price_discounted"] for r in got["prices"]]
            ok = (_solve_gate(got["converged"], got["clearing_residual"],
                              got["max_kkt_residual"], prices, self.expect["desk"]) is None
                  and close(prices, self.expect["desk"]))
        elif command == "diagnose":
            diag = res["diagnostics"]
            ok = (diag["monotonicity_all_negative"] is True and diag["rank_ok"] is True
                  and close([r["price_discounted"] for r in got["prices"]], self.expect["desk"]))
        elif command == "two-stage":
            cf = got["closed_form"]
            ok = cf["agrees_1e6"] and close([cf["predicted_t1_price"]], [self.expect["predicted_t1"]])
        elif command == "mean-max":
            ok = got["converged"] and close(got["prices_discounted"], self.expect["mean_max"])
        elif command == "oracle":
            ok = close(got["prices_discounted"], self.expect["oracle"])
        else:
            ok = (got["reconstruction_error"] <= 1e-12 and got["martingale_residual"] <= 1e-12
                  and close(np.ravel(got["predictable"]), np.ravel(self.expect["doob"])))
        return None if ok else "report does not match the in-process result"

    def _op(self, command, argv, trace):
        trace_file = self.work / "cli_trace.json"
        if trace is None:
            child = ["-m", "equiterm", *argv]
        else:
            child = [str(BENCH / "cli_child.py"), str(trace_file), *argv]

        def check(proc):
            if trace is not None and trace_file.exists():
                doc = json.loads(trace_file.read_text(encoding="utf-8"))
                trace_file.unlink()
                trace.extend(doc["spans"])
                self.import_ms.append(doc["import_ms"])
            return self._report(command, proc)

        return f"cli:{command}", functools.partial(_run_child, child), check

    def plan(self, rng, trace=None):
        scenario = {"two-stage": "two_stage", "mean-max": "flat", "doob": "ensemble"}
        ops = []
        for k in rng.permutation(len(self.commands)):
            command = self.commands[k]
            argv = [command, "--scenario", str(self.files[scenario.get(command, "desk")]),
                    "--output", str(self.report)]
            if command == "diagnose":
                argv += ["--seed", str(int(rng.integers(1 << 31)))]
            ops.append(self._op(command, argv, trace))
        return ops

    @staticmethod
    def reference_ms() -> float:
        """Time of a fresh ``python -c "import numpy"``: it tracks the machine's
        speed for starting and importing far better than an in-process kernel."""
        t0 = time.perf_counter()
        proc = _run_child(["-c", "import numpy"])
        if proc.returncode != 0:
            raise RuntimeError(f"reference process failed: {proc.stderr.strip()[-300:]}")
        return 1e3 * (time.perf_counter() - t0)

    def named(self, rec):
        out = {"cli_ms_p50": (_percentile(rec.samples(), 50), "ms")}
        for command in self.commands:
            out[f"cli_ms_p50.{command}"] = (_percentile(rec.samples(f"cli:{command}"), 50), "ms")
        return out


WORKLOADS = {w.name: w for w in (CorpusSolve, LadderSolve, ExcessSweep, CliCold)}


# ---------------------------------------------------------------------------
# measurement


class ReferenceKernel:
    """A fixed mix of dense linear algebra and interpreted Python, like
    equiterm's own work, that never calls equiterm: one ``mid``-size system
    and ``small_rounds`` rounds of a 14-unknown one with a Python loop.  Its
    time tracks the speed the shared machine gives this process right now."""

    def __init__(self, mid=64, small_rounds=4):
        rng = np.random.default_rng(0)
        self.small = self._system(rng, 14)
        self.mid = self._system(rng, mid)
        self.small_rounds = small_rounds

    @staticmethod
    def _system(rng, n):
        a = rng.standard_normal((n // 2, n))
        return a, a.T @ a + np.eye(n), rng.standard_normal(n)

    @staticmethod
    def _solve(a, s, b):
        np.linalg.svd(a)
        np.linalg.eigh(s)
        np.linalg.lstsq(s, b, rcond=None)

    def __call__(self) -> float:
        """Median of three short runs, in ms, so one hiccup does not count."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._solve(*self.mid)
            for _ in range(self.small_rounds):
                self._solve(*self.small)
                acc = 0.0
                for i in range(300):
                    acc += i * 0.5
            times.append(1e3 * (time.perf_counter() - t0))
        return statistics.median(times)

    def calibrate(self) -> float:
        """env.calib_ms: the kernel's median time over 25 runs."""
        return statistics.median(self() for _ in range(25))


def environment(calib: float) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "EQUITERM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "calib_ms": calib,
    }


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_setup(workload, work, reference):
    """One full set-up: interpreter start and import in a fresh process, then inputs,
    centre solves and warm-up in this one."""
    rec = Recorder()
    t0 = time.perf_counter()
    proc = _run_child(["-c", "import equiterm"])
    if proc.returncode != 0:
        raise RuntimeError(f"import equiterm failed: {proc.stderr.strip()[-300:]}")
    prints = workload.setup(work, reference, rec)
    return time.perf_counter() - t0, rec, prints


def run_end_to_end(workload, args, work, reference):
    setups = [_timed_setup(workload, work, reference) for _ in range(SETUP_REPS)]
    _, rec, prints = setups[-1]
    calib = ReferenceKernel().calibrate()
    kernel = getattr(workload, "reference_ms", None) or ReferenceKernel(*workload.reference_shape)
    plan = workload.plan(np.random.default_rng(args.seed))
    kernels = [kernel()]  # kernels[i] runs just before operation i, kernels[i + 1] just after
    t0 = time.perf_counter()
    done = 0
    while done < len(plan) or time.perf_counter() - t0 < args.seconds:
        rec.timed(*plan[done % len(plan)])
        kernels.append(kernel())
        done += 1
    wall = time.perf_counter() - t0
    ratios: dict[str, list[float]] = {}
    for i, (tag, ms, _, _) in enumerate(rec.ops[-done:]):
        near = kernels[max(0, i - 1): i + 3]  # two gaps before the operation, two after
        ratios.setdefault(tag, []).append(ms * len(near) / sum(near))
    cost = [statistics.median(v) for v in ratios.values()]
    setup_s = statistics.median(s for s, _, _ in setups)
    metrics = {
        "op_ref_p50": statistics.median(cost),
        "op_ref_max": max(cost),
        "batch_ref": sum(cost),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    named = {name: {"value": v, "unit": u} for name, (v, u) in workload.named(rec).items()}
    named["setup_s"] = {"value": setup_s, "unit": "s"}
    named["fail_frac"] = {"value": rec.failed / len(rec.ops), "unit": "ratio"}
    named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB"}
    meta = {"operations": len(plan), "repeats": done / len(plan), "wall_s": wall,
            "setup_s_runs": [s for s, _, _ in setups], "named": named,
            "env": environment(calib), "fingerprints": prints}
    return rec, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, meta


def _run_plan(rec, plan) -> float:
    t0 = time.perf_counter()
    for op in plan:
        rec.timed(*op)
    return time.perf_counter() - t0


def run_traced(workload, args, work, reference):
    _, rec, prints = _timed_setup(workload, work, reference)
    calib = ReferenceKernel().calibrate()
    own, probe = Tracer(), Tracer()
    plain = workload.plan(np.random.default_rng(args.seed))
    traced = workload.plan(np.random.default_rng(args.seed), trace=own)
    walls_plain, walls_traced, counts = [], [], []
    t0 = time.perf_counter()
    while len(walls_traced) < 2 or time.perf_counter() - t0 < args.seconds:
        walls_plain.append(_run_plan(rec, plain))
        start = len(own.spans)
        own.install()
        try:
            walls_traced.append(_run_plan(rec, traced))
        finally:
            own.uninstall()
        counts.append(tracer.pass_counts(own.spans[start:]))
        if len(counts) == 1:
            first_pass = len(own.spans)
    if any(c != counts[0] for c in counts):
        rec.add("trace:counts", 0.0, f"work counts differ between traced passes: {counts}",
                primary=False)
    cli_layer = workload
    if workload.name != "cli_cold":  # the front door is measured on one cold CLI pass
        cli_layer = CliCold()
        cli_work = work / "probe"
        cli_work.mkdir()
        cli_layer.setup(cli_work, reference, rec)
        _run_plan(rec, cli_layer.plan(np.random.default_rng(args.seed), trace=probe))
    layers = tracer.layer_metrics(own.spans, walls_traced, counts[0], probe.spans,
                                  cli_layer.import_ms)
    layers.update(counts[0])
    layers["env.calib_ms"] = calib
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(walls_traced)
                                            / statistics.median(walls_plain) - 1.0)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"spans": own.spans[:first_pass], "probe": probe.spans}),
                          encoding="utf-8")
    meta = {"traced_passes": len(walls_traced), "pass_s_plain": walls_plain,
            "pass_s_traced": walls_traced, "counts": counts[0],
            "unwrapped": sorted(set(own.unwrapped + probe.unwrapped)),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "env": environment(calib), "fingerprints": prints}
    return rec, {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}, meta


PER_LAYER_UNITS = {
    "env.calib_ms": "ms",
    "trace.overhead_pct": "%",
    "scenario.load_ms": "ms",
    "validate.ms_per_call": "ms",
    "validate.share": "ratio",
    "assembly.assemble_ms": "ms",
    "report.render_ms": "ms",
    "qp.calls": "count",
    "qp.iterations": "count",
    "qp.iterations_per_call": "ratio",
    "qp.ms_per_iteration": "ms",
    "players.solve_qp.calls.producer": "count",
    "players.solve_qp.calls.consumer": "count",
    "players.solve_qp.ms_p50.producer": "ms",
    "players.solve_qp.ms_p50.consumer": "ms",
    "players.solve_qp.ms_p50.warm": "ms",
    "players.solve_qp.ms_p50.cold": "ms",
    "players.qp_calls_per_solve": "ratio",
    "players.response_jacobian.calls": "count",
    "players.response_jacobian.ms_p50": "ms",
    "equilibrium.market_evals": "count",
    "equilibrium.iterations": "count",
    "equilibrium.self_ms": "ms",
    "equilibrium.cache_hit_ratio": "ratio",
    "equilibrium.excess_ms_p50": "ms",
    "equilibrium.detect_saturation_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{c}_ms": "ms" for c in CliCold.commands},
    "oracles.mean_max_ms": "ms",
    "oracles.brute_force_ms": "ms",
    "oracles.two_stage_ms": "ms",
    "process.doob_ms": "ms",
}


def run(args) -> int:
    if not Path(eq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported equiterm from {eq.__file__}, not from src/", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = inputs.load_reference()
        measure = run_traced if args.trace else run_end_to_end
        rec, metrics, meta = measure(workload, args, work, reference)
    except inputs.InputsChanged as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in rec.errors[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                failures=rec.errors[:20])
    print(json.dumps({"bench_meta": meta}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": len(rec.ops),
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# smoke mode


def smoke() -> int:
    """Every workload at minimal length, untraced once and traced twice: each
    contract metric prints with its unit, every gate passes, counts repeat."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
            1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{name} trace={trace}: exit {proc.returncode} "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            meta, result = json.loads(lines[-2])["bench_meta"], json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want[trace]:
                problems.append(f"{name} trace={trace}: result keys or metric units differ "
                                "from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {meta['failures']}")
            shown = dict(result["metrics"])
            if trace == 0:
                shown.update(meta["named"])
            else:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
            for metric, v in shown.items():
                print(f"{name:13s} trace={trace} {metric:36s} {v['value']:12.6g} {v['unit']}")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between two traced runs")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("SMOKE OK" if not problems else "SMOKE FAILED")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
