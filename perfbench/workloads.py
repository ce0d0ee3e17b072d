"""The benchmark's workloads: which ``repro-bounds`` commands run, and how
each invocation's output is checked.

A workload is a list of *legs*.  The first leg runs the command on the
CLI's default engine and gives ``wall_s``/``cpu_s``/``peak_rss_mb``; the
campaign adds a ``warm`` leg on the same engine.  The timed run runs only
these.  The traced run adds one leg per other non-oracle engine, checks
that every leg agrees and gives ``sim.run_s.<engine>``.  A round runs its
legs once, in order, each in a fresh process.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from measure import Invocation

#: The campaign's pool size: the two cores of the reference host.
CAMPAIGN_JOBS = "2"
#: The configuration file the audit's non-default engine legs read.
CONFIG_FILE = "platform.json"


@dataclass(frozen=True)
class Leg:
    """One command of a round: its name, engine, argv and working directory."""

    name: str
    engine: str
    args: Tuple[str, ...]
    directory: str
    #: Invocations per timed round; short legs take more samples.
    repeat: int = 1
    #: Cores the leg's process tree is pinned to (``hostspeed.pin``).
    cores: int = 1


@dataclass(frozen=True)
class Engines:
    """The engine legs to run (default engine first) and each engine's
    configuration of the workload's preset, from the engine registry."""

    names: Tuple[str, ...]
    configs: Dict[str, dict]


def _lines(data: bytes) -> List[str]:
    return data.decode("utf-8", "replace").splitlines()


class Workload:
    """Base class: one leg per engine, identical output on every leg."""

    name = ""
    #: Layers this workload loads, for the report.
    layers: Tuple[str, ...] = ()
    #: First call into the command's work; the set-up probe stops there.
    probe_target = "repro.sim.system:System.run"
    #: Artifacts (relative to a leg's directory) read right after each leg
    #: ends; checked, compared between legs and between traced and untraced.
    artifacts: Tuple[str, ...] = ()
    preset = "ref"

    def command(self, engine: str, seed: int) -> Tuple[str, ...]:
        raise NotImplementedError

    def legs(self, engines: Engines, seed: int) -> List[Leg]:
        return [
            Leg(engine, engine, self.command(engine, seed), engine) for engine in engines.names
        ]

    def prepare(self, leg: Leg, directory: Path, engines: Engines) -> None:
        """Write any input file ``leg`` reads before it starts."""

    def check(self, leg: Leg, run: Invocation) -> List[str]:
        """Problems with one invocation's own output."""
        return []

    def compare(self, legs: Sequence[Leg], runs: Dict[str, Invocation]) -> Dict[str, List[str]]:
        """Problems found by comparing the legs of one round, per leg."""
        first = runs[legs[0].name]
        return {
            leg.name: ["stdout differs from the first leg"]
            for leg in legs[1:]
            if runs[leg.name].stdout != first.stdout
        }

    def normalise(self, stdout: bytes) -> bytes:
        """Stdout with anything that legitimately varies between runs masked."""
        return stdout


class DeriveLoad(Workload):
    name = "derive-load"
    layers = ("kernels", "sim", "methodology", "analysis", "report")

    def __init__(self, iterations: int = 10) -> None:
        self.iterations = iterations

    def command(self, engine: str, seed: int) -> Tuple[str, ...]:
        return (
            "--preset", self.preset, "--engine", engine, "derive-ubd",
            "--iterations", str(self.iterations),
        )  # fmt: skip

    def check(self, leg: Leg, run: Invocation) -> List[str]:
        problems = []
        if run.exit_code != 0:
            problems.append(f"exit code {run.exit_code}, expected 0")
        text = "\n".join(_lines(run.stdout))
        analytical = re.search(r"analytical ubd = (\d+) cycles", text)
        measured = re.search(r"^ubdm = (\d+) cycles$", text, re.MULTILINE)
        if analytical is None or measured is None:
            problems.append("no 'analytical ubd' or 'ubdm = N cycles' line")
        elif analytical.group(1) != measured.group(1):
            problems.append(
                f"ubdm {measured.group(1)} != analytical ubd {analytical.group(1)}"
            )
        checks = [line for line in _lines(run.stdout) if line.startswith("[")]
        if not checks or any(not line.startswith("[PASS]") for line in checks):
            problems.append("a confidence check did not PASS")
        return problems


class DeriveStore(DeriveLoad):
    name = "derive-store"

    def __init__(self, iterations: int = 1) -> None:
        super().__init__(iterations)

    def command(self, engine: str, seed: int) -> Tuple[str, ...]:
        return super().command(engine, seed) + ("--instruction-type", "store")

    def check(self, leg: Leg, run: Invocation) -> List[str]:
        # Either a bound with its confidence report, or a refusal that
        # names its reason; which one the store path gives is not pinned.
        stdout, stderr = _lines(run.stdout), _lines(run.stderr)
        if run.exit_code in (0, 1):
            bound = any(re.fullmatch(r"ubdm = \d+ cycles", line) for line in stdout)
            report = any(re.match(r"\[(PASS|FAIL)\] \w+: ", line) for line in stdout)
            return [] if bound and report else ["no 'ubdm = N cycles' with a confidence report"]
        if run.exit_code == 2:
            refused = any(re.fullmatch(r"error: \S.{8,}", line) for line in stderr)
            return [] if refused else ["exit 2 without an 'error: <reason>' line"]
        return [f"exit code {run.exit_code}, expected 0, 1 or 2"]

    def compare(self, legs: Sequence[Leg], runs: Dict[str, Invocation]) -> Dict[str, List[str]]:
        problems = super().compare(legs, runs)
        first = runs[legs[0].name]
        for leg in legs[1:]:
            if runs[leg.name].stderr != first.stderr:
                problems.setdefault(leg.name, []).append("stderr differs from the first leg")
        return problems


RESULTS = "out/results.jsonl"
#: The warm leg takes a fifth of the cold leg's time; sampling it more
#: often per round keeps its median as steady as the cold leg's.
WARM_REPEAT = 3
_CAMPAIGN_LINE = re.compile(r"^(\d+) runs: (\d+) simulated, (\d+) from cache", re.MULTILINE)


class Campaign(Workload):
    name = "campaign"
    layers = ("campaign", "kernels", "sim", "methodology", "analysis", "report")
    probe_target = "repro.campaign.runner:ParallelRunner.run"
    artifacts = (RESULTS, "out/campaign.json")

    def __init__(self, workloads: int = 24, iterations: int = 40) -> None:
        self.workloads = workloads
        self.iterations = iterations

    def command(self, engine: str, seed: int) -> Tuple[str, ...]:
        return (
            "--preset", self.preset, "--engine", engine, "campaign",
            "--workloads", str(self.workloads), "--iterations", str(self.iterations),
            "--arbiter", "round_robin", "--arbiter", "fifo", "--jobs", CAMPAIGN_JOBS,
            "--seed", str(seed), "--store", "store", "--out", "out",
        )  # fmt: skip

    def legs(self, engines: Engines, seed: int) -> List[Leg]:
        # Cold legs simulate in the pool, one worker per core.
        cold, *others = [
            Leg(engine, engine, self.command(engine, seed), engine, cores=int(CAMPAIGN_JOBS))
            for engine in engines.names
        ]
        # The warm leg re-runs the cold leg's command against its store; it
        # simulates nothing, so it starts no pool and runs on one core.
        warm = Leg("warm", cold.engine, cold.args, cold.directory, repeat=WARM_REPEAT)
        return [cold, warm] + others

    def check(self, leg: Leg, run: Invocation) -> List[str]:
        if run.exit_code != 0:
            return [f"exit code {run.exit_code}, expected 0"]
        match = _CAMPAIGN_LINE.search(run.stdout.decode("utf-8", "replace"))
        if match is None:
            return ["no 'N runs: N simulated, N from cache' line"]
        runs, simulated, cached = (int(group) for group in match.groups())
        if leg.name == "warm":
            if simulated != 0 or cached != runs:
                return [f"warm leg simulated {simulated} of {runs} runs, expected 0"]
        elif simulated == 0:
            return ["cold leg simulated nothing"]
        return []

    def compare(self, legs: Sequence[Leg], runs: Dict[str, Invocation]) -> Dict[str, List[str]]:
        first = runs[legs[0].name].artifacts.get(RESULTS)
        return {
            leg.name: ["results.jsonl differs from the cold leg's"]
            for leg in legs[1:]
            if runs[leg.name].artifacts.get(RESULTS) != first
        }

    def normalise(self, stdout: bytes) -> bytes:
        return re.sub(rb"elapsed \d+\.\d+s", b"elapsed <t>s", stdout)


class AuditSplitBus(Workload):
    name = "audit-split-bus"
    layers = ("audit", "report", "methodology", "analysis", "kernels", "sim")
    artifacts = ("out/flags.json", "out/report.html")
    preset = "split_bus"
    #: Dimensions that must pass; write_burst legitimately warns on queue
    #: topologies (exit code 1).
    must_pass = ("measured_bounds", "sandwich", "engine_equivalence")

    def __init__(self, iterations: int = 10, synchrony_iterations: int = 40) -> None:
        self.iterations = iterations
        self.synchrony_iterations = synchrony_iterations

    def audit_args(self, target: str) -> Tuple[str, ...]:
        return (
            "audit", target, "--out", "out",
            "--iterations", str(self.iterations),
            "--stress-iterations", str(self.iterations),
            "--equivalence-iterations", str(self.iterations),
            "--synchrony-iterations", str(self.synchrony_iterations),
        )  # fmt: skip

    def legs(self, engines: Engines, seed: int) -> List[Leg]:
        # ``audit PRESET`` ignores --engine, so the other engines audit the
        # same platform from a configuration file that names the engine.
        return [
            Leg(engine, engine, self.audit_args(self.preset if i == 0 else CONFIG_FILE), engine)
            for i, engine in enumerate(engines.names)
        ]

    def prepare(self, leg: Leg, directory: Path, engines: Engines) -> None:
        if CONFIG_FILE in leg.args:
            directory.mkdir(parents=True, exist_ok=True)
            (directory / CONFIG_FILE).write_text(json.dumps(engines.configs[leg.engine]))

    def verdicts(self, run: Invocation) -> Dict[str, str]:
        flags = json.loads(run.artifacts["out/flags.json"])
        return {dimension["name"]: dimension["verdict"] for dimension in flags["dimensions"]}

    def check(self, leg: Leg, run: Invocation) -> List[str]:
        if run.exit_code not in (0, 1):
            return [f"exit code {run.exit_code}, expected 0 or 1"]
        try:
            verdicts = self.verdicts(run)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable flags.json: {exc}"]
        return [
            f"{name} is {verdicts.get(name, 'missing')}, expected pass"
            for name in self.must_pass
            if verdicts.get(name) != "pass"
        ]

    def compare(self, legs: Sequence[Leg], runs: Dict[str, Invocation]) -> Dict[str, List[str]]:
        problems: Dict[str, List[str]] = {}
        try:
            first = self.verdicts(runs[legs[0].name])
            for leg in legs[1:]:
                if self.verdicts(runs[leg.name]) != first:
                    problems[leg.name] = ["audit verdicts differ from the first leg's"]
        except (ValueError, KeyError, TypeError):
            pass  # already reported by check()
        return problems


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (DeriveLoad(), DeriveStore(), Campaign(), AuditSplitBus())
}
