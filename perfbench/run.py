"""End-to-end benchmark of the ``repro`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5-cold --seed 0 --seconds 28 --trace 0

Each repetition launches the real CLI (``python -m repro run ...``) as a
fresh process and times it from launch to exit.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced runs with traced
in-process runs (:mod:`traced`, wrappers from :mod:`layers`) and reports the
per-layer metrics.  Every run's report tables (footers stripped) are
compared with the reference tables under ``reference/``, and its results
are checked against the simulator's conservation laws.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give each metric's reported value,
median, quartiles, sample count and, for end-to-end metrics, whether the
spread exceeds the bound in ``BENCHMARK.json``.  See ``README.md`` for the workloads and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "reference"

#: Environment knobs that would change what the CLI runs; every run clears
#: them so the benchmark measures the shipped defaults.
CLEARED_ENV = ("REPRO_KERNEL", "REPRO_SANITIZE", "REPRO_CACHE_DIR", "REPRO_TRACE_MEMO_CAP")

#: Repetitions measured per run even when ``--seconds`` is shorter:
#: untraced runs, and (untraced, traced) pairs with ``--trace 1``.
MIN_REPS = 3
MIN_PAIRS = 2
#: Set-up probes per ``--trace 0`` run, after one untimed warm-up probe and
#: interleaved with the first repetitions so they sample the whole run.
SETUP_PROBES = 7
#: A child still running this long after the run started is killed (and its
#: repetition fails), so a hung CLI cannot hold the run past its time limit.
RUN_LIMIT_S = 170.0

TRACE_LENGTH = 2500
FIGURE5_POINTS = 40 * 5  # traces x configurations
SWEEP_POINTS = 5 * 3 * 4  # traces x configurations x link latencies

#: Seeds map onto this many sweep subsets (``seed % SWEEP_VARIANTS``);
#: variant 0 is the shipped benchmark set.
SWEEP_VARIANTS = 10
#: The 40 traces in five strata of eight, ordered by the measured host cost
#: of one sweep over the trace (2500 µops, 2-core x86-64 container).  A
#: non-zero variant draws one trace per stratum, so every subset is new
#: input of about the same host cost and seeds stay comparable in time.
SWEEP_STRATA = (
    ("176.gcc-1", "164.gzip-2", "164.gzip-3", "183.equake",
     "191.fma3d", "254.gap", "171.swim", "175.vpr-1"),
    ("173.applu", "164.gzip-5", "177.mesa", "179.art-2",
     "253.perlbmk", "164.gzip-4", "256.bzip2-2", "176.gcc-4"),
    ("176.gcc-3", "176.gcc-5", "175.vpr-2", "256.bzip2-3",
     "168.wupwise", "197.parser", "179.art-1", "255.vortex-1"),
    ("164.gzip-1", "189.lucas", "176.gcc-2", "256.bzip2-1",
     "186.crafty", "187.facerec", "255.vortex-2", "188.ammp"),
    ("301.apsi", "181.mcf", "252.eon-1", "252.eon-3",
     "300.twolf", "200.sixtrack", "252.eon-2", "178.galgel"),
)

FOOTER = re.compile(r"^\[(engine|traces|batch|shm|adaptive)\] ")


def sweep_benchmarks(variant: int) -> List[str]:
    """The ``--benchmarks`` of a sweep variant (empty: the shipped set)."""
    if variant == 0:
        return []
    rng = random.Random(variant)
    return [rng.choice(stratum) for stratum in SWEEP_STRATA]


@dataclass(frozen=True)
class Workload:
    """One CLI command shape, its simulation points, and how its cache starts."""

    name: str
    argv: List[str]
    points: int
    reference: str
    cold: bool = True

    @property
    def scenario(self) -> str:
        return self.argv[1]


def make_workload(name: str, seed: int) -> Workload:
    if name == "fig5-cold":
        return Workload(name, ["run", "figure5"], FIGURE5_POINTS, "figure5")
    if name == "fig5-replay":
        return Workload(name, ["run", "figure5"], FIGURE5_POINTS, "figure5", cold=False)
    if name == "fig5-j2":
        return Workload(name, ["run", "figure5", "--jobs", "2"], FIGURE5_POINTS, "figure5")
    if name == "sweep-cold":
        variant = seed % SWEEP_VARIANTS
        argv = ["run", "sweep-link-latency"]
        benchmarks = sweep_benchmarks(variant)
        if benchmarks:
            argv += ["--benchmarks", *benchmarks]
        return Workload(name, argv, SWEEP_POINTS, f"sweep-link-latency-v{variant}")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("fig5-cold", "sweep-cold", "fig5-replay", "fig5-j2")


# -- processes ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK)
    return env


class Process:
    """One child process timed from launch to exit, with its rusage."""

    def __init__(self, argv: List[str], out: Path, timeout: float) -> None:
        self.out = out
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(),
                                    cwd=ROOT)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            # wait4 reports the child's own usage plus that of every worker it
            # reaped: CPU time summed, max RSS the largest of them.
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def stdout(self) -> str:
        return self.out.read_text(encoding="utf-8", errors="replace")

    def stderr_tail(self) -> str:
        return self.out.with_suffix(".err").read_text(errors="replace")[-2000:]


def python(*args: str) -> List[str]:
    return [sys.executable, *args]


# -- correctness ----------------------------------------------------------------------


def tables(report: str) -> str:
    """The report with the engine's footer lines stripped."""
    return "".join(line for line in report.splitlines(True) if not FOOTER.match(line))


def reference_tables(workload: Workload) -> str:
    path = REFERENCES / f"{workload.reference}.txt"
    return path.read_text(encoding="utf-8")


def _find_metrics(data):
    if isinstance(data, dict):
        if {"committed_uops", "cycles", "cluster_dispatch"} <= set(data):
            return data
        for value in data.values():
            found = _find_metrics(value)
            if found is not None:
                return found
    return None


def cache_law_violations(cache_dir: Path, workload: Workload, commit_width: int) -> List[str]:
    """Conservation-law check of every result-cache entry a run left behind."""
    entries = sorted(cache_dir.glob("??/*.json"))
    problems = []
    if len(entries) != workload.points:
        problems.append(f"{len(entries)} cache entries, expected {workload.points}")
    for path in entries:
        metrics = _find_metrics(json.loads(path.read_text(encoding="utf-8")))
        if metrics is None:
            problems.append(f"{path.name}: no metrics found")
            continue
        problems += layers.check_laws(
            SimpleNamespace(**metrics), TRACE_LENGTH, commit_width, path.name, exact=False
        )
    return problems


def commit_width(workload: Workload) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.scenarios.builtin import builtin_scenario

    return builtin_scenario(workload.scenario).machine.resolve().commit_width


def vc_cycles_pct_of_op(report: str, workload: Workload) -> Optional[float]:
    """VC's simulated cycles as a percentage of OP's, parsed from the report.

    ``figure5``: 100 + the Figure 5(c) CPU2000 average VC slowdown vs OP.
    ``sweep-link-latency``: 100 + the mean VC slowdown vs OP over the swept
    link latencies.
    """
    if workload.scenario == "figure5":
        panel = report.split("Figure 5(c)", 1)[-1]
        match = re.search(r"^VC\s+\S+\s+\S+\s+(-?[\d.]+)\s*$", panel, re.M)
        return 100.0 + float(match.group(1)) if match else None
    values = [float(v) for v in re.findall(r"^\d+\s+VC\s+.*?\s(-?[\d.]+)\s*$", report, re.M)]
    return 100.0 + statistics.fmean(values) if values else None


# -- one repetition -------------------------------------------------------------------


class Bench:
    """Repetitions of one workload, with their scratch directory."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.run_dir = WORK / f"run-{os.getpid()}"
        self.count = 0
        self.reference = reference_tables(workload)
        self.commit_width = commit_width(workload)
        self.replay_cache: Optional[Path] = None
        #: Conservation-law breaks in the replay cache, charged to every replay.
        self.fill_problems: List[str] = []

    def __enter__(self) -> "Bench":
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if not self.workload.cold:
            self.replay_cache = self._fill_replay_cache()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _process(self, argv: List[str], stem: str) -> Process:
        return Process(argv, self._fresh(stem), self.deadline - time.monotonic())

    def _fresh(self, stem: str) -> Path:
        self.count += 1
        return self.run_dir / f"{stem}-{self.count}"

    def _cache_dir(self) -> Path:
        if self.replay_cache is not None:
            return self.replay_cache
        return self._fresh("cache")

    def _fill_replay_cache(self) -> Path:
        """The replay workload's result cache, filled once per source tree.

        Keyed by a digest of ``src/``, so a checkout reuses its fill across
        runs and any source change refills it.
        """
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        target = WORK / f"replay-{digest.hexdigest()[:16]}"
        if not target.is_dir():
            for stale in WORK.glob("replay-*"):
                shutil.rmtree(stale, ignore_errors=True)
            staging = self._fresh("fill")
            # The first run in a checkout may take longer: allow the fill
            # its own limit.
            proc = Process(python("-m", "repro", *self.workload.argv, "--cache-dir",
                                  str(staging)), self._fresh("fill-out"), RUN_LIMIT_S)
            if proc.returncode != 0:
                raise SystemExit(f"replay cache fill failed:\n{proc.stderr_tail()}")
            staging.rename(target)
        self.fill_problems = cache_law_violations(target, self.workload, self.commit_width)
        return target

    def _verdict(self, returncode: int, report: str, problems: List[str], label: str) -> bool:
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        if tables(report) != self.reference:
            problems.append("report tables differ from the reference")
        problems += self.fill_problems
        if problems:
            print(f"{label} FAILED: {problems[:5]}", file=sys.stderr)
        return not problems

    def untraced(self) -> dict:
        cache = self._cache_dir()
        proc = self._process(
            python("-m", "repro", *self.workload.argv, "--cache-dir", str(cache)), "out"
        )
        report = proc.stdout()
        problems = []
        if self.workload.cold:
            problems += cache_law_violations(cache, self.workload, self.commit_width)
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            print(proc.stderr_tail(), file=sys.stderr)
        vc = vc_cycles_pct_of_op(report, self.workload)
        if vc is None:
            problems.append("no VC vs OP figure in the report")
        ok = self._verdict(proc.returncode, report, problems, "untraced run")
        return {
            "ok": ok,
            "wall_s": proc.wall_s,
            "cpu_s": proc.cpu_s,
            "peak_rss_mb": proc.peak_rss_mb,
            "sim_uops_per_s": self.workload.points * TRACE_LENGTH / proc.wall_s,
            "vc_cycles_pct_of_op": vc if vc is not None else float("nan"),
        }

    def traced(self) -> dict:
        cache = self._cache_dir()
        record_path = self._fresh("record").with_suffix(".json")
        launch = repr(time.time())
        proc = self._process(
            python(str(HERE / "traced.py"), str(record_path), launch, "--",
                   *self.workload.argv, "--cache-dir", str(cache)),
            "traced-out",
        )
        if self.workload.cold:
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0 or not record_path.is_file():
            print(f"traced run FAILED (exit code {proc.returncode}):\n{proc.stderr_tail()}",
                  file=sys.stderr)
            return {"ok": False}
        record = json.loads(record_path.read_text(encoding="utf-8"))
        ok = self._verdict(proc.returncode, record["report"], list(record["violations"]),
                           "traced run")
        metrics = layer_metrics(record, proc.wall_s)
        metrics["ok"] = ok
        return metrics

    def setup_probe(self) -> float:
        proc = self._process(
            python(str(HERE / "setup_probe.py"), *self.workload.argv,
                   "--cache-dir", str(self.run_dir / "setup-cache")),
            "setup-out",
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr_tail()}")
        return proc.wall_s


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(record: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for the map)."""
    parent, workers = record["totals"], record["worker_totals"]
    counts, keys = record["counts"], record["keys"]

    def self_s(name: str) -> float:
        return parent.get(name, [0, 0, 0])[1] + workers.get(name, [0, 0, 0])[1]

    def calls(name: str) -> int:
        return parent.get(name, [0, 0, 0])[2] + workers.get(name, [0, 0, 0])[2]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    busy = workers.get("worker.busy", [0, 0, 0])[0]
    window = record["parallel_window_s"] * record["max_workers"]
    shm = re.search(r"^\[shm\] .*?bytes=(\d+)", record["report"], re.M)
    attributed = record["startup_import_s"] + sum(
        parent.get(name, [0, 0, 0])[1] for name in layers.PARENT_LAYERS
    )
    return {
        "startup.import_s": record["startup_import_s"],
        "cli.s": self_s("cli"),
        "report.s": self_s("report"),
        "engine.self_s": parent.get("engine", [0, 0, 0])[1],
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0), counts.get("cache.gets", 0)),
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.traces_generated": calls("workloads.generate"),
        "artifacts.get_s": self_s("artifacts.get"),
        "artifacts.put_s": self_s("artifacts.put"),
        "artifacts.hit_ratio": ratio(counts.get("artifacts.hits", 0),
                                     counts.get("artifacts.gets", 0)),
        "partition.s": self_s("partition"),
        "partition.calls": calls("partition"),
        "partition.useful_ratio": ratio(len(keys["partition"]), calls("partition")),
        "uops.annotate_s": self_s("uops.annotate"),
        "cluster.bind_s": self_s("cluster.bind"),
        "cluster.bind_useful_ratio": ratio(len(keys["bind"]), calls("cluster.bind")),
        "cluster.warmup_s": self_s("cluster.warmup"),
        "cluster.warmup_useful_ratio": ratio(len(keys["warmup"]), calls("cluster.warmup")),
        "kernel.s": self_s("kernel"),
        "kernel.runs": calls("kernel"),
        "kernel.uops_per_s": ratio(counts.get("kernel.uops", 0), self_s("kernel")),
        "engine.wait_s": parent.get("engine.wait", [0, 0, 0])[1],
        "engine.worker_busy_s": busy,
        "engine.worker_idle_share": 1.0 - busy / window if window else 0.0,
        "pool.spawn_s": self_s("pool.spawn"),
        "shm.publish_s": self_s("shm.publish"),
        "shm.attach_s": self_s("shm.attach"),
        "shm.bytes": int(shm.group(1)) if shm else 0,
        "traced.wall_s": wall_s,
        "traced.unattributed_share": 1.0 - attributed / wall_s,
    }


# -- statistics and output ------------------------------------------------------------


#: Noise on a shared host only ever adds time (slow stretches last tens of
#: seconds to minutes), so these metrics report a run's fastest repetition:
#: across runs it spreads about half as much as the median does.  Every
#: other metric reports the median of its samples.
BEST_OF = {"wall_s": min, "cpu_s": min, "sim_uops_per_s": max}


def summarize(name: str, values: List[float]) -> Dict[str, float]:
    values = [v for v in values if v == v]  # drop NaN (a failed parse)
    if not values:
        return {"value": 0.0, "median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    value = BEST_OF.get(name, statistics.median)(values)
    return {"value": value, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def print_table(title: str, specs: List[dict], samples: Dict[str, List[float]]) -> Dict[str, dict]:
    """Print each metric's reported value, median, quartiles, count and spread."""
    print(title)
    print(f"  {'metric':<28} {'unit':<7} {'reported':>12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}  spread  bound")
    summaries = {}
    for spec in specs:
        name = spec["name"]
        summary = summarize(name, samples[name])
        summaries[name] = summary
        median = summary["median"]
        spread = (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0
        bound = spec.get("bound")
        flag = ""
        if bound is not None:
            flag = f"{bound:5.2f}" + ("  SPREAD EXCEEDS BOUND" if spread > bound else "")
        print(f"  {name:<28} {spec['unit']:<7} {summary['value']:>12.6g} {median:>12.6g} "
              f"{summary['q1']:>12.6g} {summary['q3']:>12.6g} {summary['n']:>3}  "
              f"{spread:6.3f}  {flag}")
    return summaries


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - begun
        if len(results) >= minimum and time.perf_counter() + took > start + seconds:
            return results


def measure(bench: Bench, seconds: float, trace: bool, spec: dict) -> dict:
    if trace:
        pairs = repeat(lambda: (bench.untraced(), bench.traced()), seconds, MIN_PAIRS)
        reps = [rep for pair in pairs for rep in pair]
        good = [traced for _, traced in pairs if traced["ok"]]
        specs = spec["per_layer"]
        samples = {s["name"]: [m[s["name"]] for m in good] for s in specs
                   if s["name"] != "trace_overhead_s"}
        samples["trace_overhead_s"] = [
            min(m["traced.wall_s"] for m in good) - min(u["wall_s"] for u, _ in pairs)
        ] if good else []
    else:
        bench.setup_probe()  # untimed: first-import and page-cache warm-up
        setup: List[float] = []

        def step() -> dict:
            rep = bench.untraced()
            if len(setup) < SETUP_PROBES:
                setup.append(bench.setup_probe())
            return rep

        reps = repeat(step, seconds, MIN_REPS)
        setup += [bench.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
        specs = spec["end_to_end"]
        passed = sum(rep["ok"] for rep in reps)
        samples = {s["name"]: [rep.get(s["name"], float("nan")) for rep in reps]
                   for s in specs if s["name"] not in ("setup_s", "pass_share")}
        samples["setup_s"] = setup
        samples["pass_share"] = [passed / len(reps)]
    title = f"{bench.workload.name}: {'per-layer (traced)' if trace else 'end-to-end'} metrics"
    summaries = print_table(title, specs, samples)
    failed = sum(not rep["ok"] for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            s["name"]: {"value": summaries[s["name"]]["value"], "unit": s["unit"]}
            for s in specs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    subprocess.run(python("-m", "compileall", "-q", str(ROOT / "src")), check=True,
                   env=child_env(), stdout=subprocess.DEVNULL)
    with Bench(make_workload(args.workload, args.seed)) as bench:
        result = measure(bench, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
