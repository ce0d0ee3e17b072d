"""Product benchmark of ``repro-bounds``: real commands, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload derive-load --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload's command on the default engine with no
instrumentation and prints the end-to-end metrics, scaled to the reference
host's speed (``hostspeed.py``); ``--trace 1`` runs every engine leg once
plain and once under the span recorder (``tracer.py``) and prints the
per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import tracer
from hostspeed import NOMINAL_S, pin, reference
from launch import PROBE_EXIT
from measure import Invocation, invoke
from workloads import WORKLOADS, Engines, Leg, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = str(HERE / "launch.py")
#: Set-up probes per timed run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Counts that must repeat exactly across traced repetitions and engine legs.
EXACT_COUNTS = (
    "sim.cycles",
    "sim.instructions",
    "sim.runs",
    "methodology.sweep_points",
    "campaign.simulated",
)


def declared_metrics(trace: bool) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every metric BENCHMARK.json declares for a mode."""
    spec = tracer.load_json(ROOT / "BENCHMARK.json")
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


class Bench:
    """One benchmark run: a scratch directory, the environment the commands
    see, and the tally of attempted and failed invocations."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.traces = ROOT / ".perfbench" / "traces"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.problems: List[str] = []
        self._serial = 0
        #: Cores and time of the last host-speed reference.
        self._reference: Tuple[List[int], float] = ([], 0.0)

    # -- invocations ------------------------------------------------------ #
    def run(self, argv: Sequence[str], cwd: Path, label: str, cores: int = 1) -> Invocation:
        """Invoke ``argv`` pinned to ``cores`` cores, between two host-speed
        references on those cores; ``label`` names the invocation in
        failure reports."""
        self._serial += 1
        self.attempted += 1
        pinned = pin(cores)
        last_cores, before = self._reference
        if last_cores != pinned:
            before = reference()
        result = invoke(
            argv,
            cwd,
            self.env,
            self.scratch / "logs" / str(self._serial),
            artifacts=self.workload.artifacts,
        )
        self._reference = (pinned, reference())
        result.reference_s = (before + self._reference[1]) / 2
        if b"Traceback (most recent call last)" in result.stderr:
            self.fail(label, "traceback on stderr")
        return result

    def fail(self, label: str, problem: str) -> None:
        self.problems.append(f"{label}: {problem}")

    @property
    def failed(self) -> int:
        """Invocations with at least one problem."""
        return len({problem.split(": ")[0] for problem in self.problems})

    def engines(self) -> Engines:
        """Engine legs from the registry: the default first, no oracle."""
        result = self.run(
            [sys.executable, LAUNCH, "info", self.workload.preset], self.scratch, "info"
        )
        if result.exit_code != 0:
            raise SystemExit(f"cannot read the engine registry:\n{result.stderr.decode()}")
        info = json.loads(result.stdout)
        default = info["default_engine"]
        names = [default] + [e for e in info["engines"] if e not in (default, "stepped")]
        return Engines(tuple(names), info["configs"])

    def round(
        self, legs: Sequence[Leg], engines: Engines, directory: Path, traced: bool
    ) -> Dict[str, List[Invocation]]:
        """Run every leg (``leg.repeat`` times unless traced), check each
        invocation, then compare the legs' first invocations."""
        runs: Dict[str, List[Invocation]] = {}
        for leg in legs:
            cwd = directory / leg.directory
            self.workload.prepare(leg, cwd, engines)
            if traced:
                trace = self.trace_path(directory.name, leg)
                prefix = [sys.executable, LAUNCH, "trace", str(trace), "--"]
            else:
                prefix = [sys.executable, "-m", "repro.cli"]
            for index in range(1 if traced else leg.repeat):
                label = f"{directory.name}/{leg.name}" + (f"-{index}" if index else "")
                run = self.run([*prefix, *leg.args], cwd, label, leg.cores)
                for problem in self.workload.check(leg, run):
                    self.fail(label, problem)
                runs.setdefault(leg.name, []).append(run)
        first = {name: invocations[0] for name, invocations in runs.items()}
        for name, problems in self.workload.compare(legs, first).items():
            for problem in problems:
                self.fail(f"{directory.name}/{name}", problem)
        return runs

    # -- the two modes ---------------------------------------------------- #
    def timed(self, seed: int, seconds: float) -> Dict[str, float]:
        """End-to-end metrics: medians over as many rounds as fit, of
        samples scaled to the reference host's speed.

        Only the default engine's legs are timed, so every sample goes to
        them; the other engines are compared in the traced run.  Each round
        draws its own seed from ``seed`` (only the campaign uses it), so the
        medians average over several inputs of one size.
        """
        engines = self.engines()
        default = engines.names[0]
        seeds = random.Random(seed)

        def legs() -> List[Leg]:
            all_legs = self.workload.legs(engines, seeds.randrange(1, 2**31))
            return [leg for leg in all_legs if leg.engine == default]

        first = legs()
        primary = first[0]
        setup = []
        for index in range(SETUP_PROBES):
            cwd = self.scratch / f"probe-{index}"
            self.workload.prepare(primary, cwd, engines)
            probe = [sys.executable, LAUNCH, "probe", self.workload.probe_target, "--"]
            result = self.run([*probe, *primary.args], cwd, f"probe-{index}")
            if result.exit_code != PROBE_EXIT:
                self.fail(f"probe-{index}", f"exit code {result.exit_code}, not the probe's")
            setup.append(result.scaled(result.wall_s))

        samples: Dict[str, List[Invocation]] = {leg.name: [] for leg in first}
        started = time.perf_counter()
        rounds = 0
        while True:
            directory = self.scratch / f"round-{rounds}"
            for name, runs in self.round(legs(), engines, directory, traced=False).items():
                samples[name].extend(runs)
            shutil.rmtree(directory, ignore_errors=True)
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / rounds > seconds:
                break

        def wall(name: str) -> float:
            return median([run.scaled(run.wall_s) for run in samples[name]])

        metrics = {
            "wall_s": wall(primary.name),
            "cpu_s": median([run.scaled(run.cpu_s) for run in samples[primary.name]]),
            # Commands that keep no state between invocations have no warm
            # path: their warm leg is the cold one.
            "warm_wall_s": wall("warm" if "warm" in samples else primary.name),
            "setup_s": median(setup),
            "peak_rss_mb": median([run.peak_rss_mb for run in samples[primary.name]]),
        }
        self.report_timed(samples, setup, rounds)
        return metrics

    def traced(self, seed: int) -> Dict[str, float]:
        """Per-layer metrics: every leg plain, then traced, then the first
        leg traced once more; outputs and exact counts must agree."""
        engines = self.engines()
        legs = self.workload.legs(engines, seed)
        primary = legs[0]
        self.traces.mkdir(parents=True, exist_ok=True)
        plain = self.round(legs, engines, self.scratch / "plain", traced=False)
        traced = self.round(legs, engines, self.scratch / "traced", traced=True)
        self.round(legs[:1], engines, self.scratch / "repeat", traced=True)

        normalise = self.workload.normalise
        for leg in legs:
            a, b = plain[leg.name][0], traced[leg.name][0]
            if normalise(a.stdout) != normalise(b.stdout) or a.artifacts != b.artifacts:
                self.fail(f"traced/{leg.name}", "output differs from the untraced run")

        def trace_of(directory: str, leg: Leg) -> Dict[str, object]:
            return tracer.load_json(self.trace_path(directory, leg))

        per_leg = {leg.name: tracer.layer_metrics(trace_of("traced", leg)) for leg in legs}
        reference = per_leg[primary.name]
        comparisons: List[Tuple[str, Dict[str, float]]] = [
            (f"repeat/{primary.name}", tracer.layer_metrics(trace_of("repeat", primary)))
        ]
        comparisons += [
            (f"traced/{leg.name}", per_leg[leg.name]) for leg in legs[1:] if leg.name != "warm"
        ]
        for label, values in comparisons:
            for count in EXACT_COUNTS:
                if values[count] != reference[count]:
                    self.fail(label, f"{count} = {values[count]}, first leg gave {reference[count]}")

        metrics = dict(reference)
        engine_legs = [leg for leg in legs if leg.name != "warm"]
        metrics["sim.fallback_runs"] = sum(
            per_leg[leg.name]["sim.fallback_runs"] for leg in engine_legs
        )
        for leg in engine_legs[1:]:
            metrics[f"sim.run_s.{leg.engine}"] = per_leg[leg.name]["sim.run_s"]
        replay = next((leg for leg in engine_legs if leg.engine == "replay"), None)
        if replay is not None:
            for name in ("sim.replay.captures", "sim.replay.hit_ratio"):
                metrics[name] = per_leg[replay.name][name]
        base = plain[primary.name][0].wall_s
        metrics["trace.overhead_frac"] = (traced[primary.name][0].wall_s - base) / base

        table = tracer.layer_table(trace_of("traced", primary), traced[primary.name][0].wall_s)
        table_path = self.traces / f"{self.workload.name}.layers.txt"
        table_path.write_text(table + "\n", encoding="utf-8")
        print(f"# {self.workload.name}: per-layer self time, traced {primary.name} leg")
        print(table)
        print(f"# traces: {self.traces.relative_to(ROOT)}/{self.workload.name}.*.json")
        return metrics

    def trace_path(self, directory: str, leg: Leg) -> Path:
        suffix = "" if directory == "traced" else f".{directory}"
        return self.traces / f"{self.workload.name}.{leg.name}{suffix}.json"

    # -- reporting -------------------------------------------------------- #
    def report_timed(
        self, samples: Dict[str, List[Invocation]], setup: List[float], rounds: int
    ) -> None:
        layers = ", ".join(self.workload.layers)
        print(f"# {self.workload.name}: {rounds} round(s); layers: {layers}")
        print(f"# wall times, raw and scaled by {NOMINAL_S} s / reference")
        print(f"# {'leg':<10} {'n':>3} {'raw_s':>8} {'ref_s':>8} {'median_s':>9} {'min_s':>8} {'max_s':>8}")
        for name, runs in samples.items():
            scaled = [run.scaled(run.wall_s) for run in runs]
            print(
                f"# {name:<10} {len(runs):>3} {median([run.wall_s for run in runs]):>8.3f} "
                f"{median([run.reference_s for run in runs]):>8.3f} {median(scaled):>9.3f} "
                f"{min(scaled):>8.3f} {max(scaled):>8.3f}"
            )
        print(
            f"# {'setup':<10} {len(setup):>3} {'':>8} {'':>8} {median(setup):>9.3f} "
            f"{min(setup):>8.3f} {max(setup):>8.3f}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no src/repro/cli.py under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload])
    try:
        if args.trace:
            metrics = bench.traced(args.seed)
        else:
            metrics = bench.timed(args.seed, args.seconds)
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_metrics(bool(args.trace))
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
