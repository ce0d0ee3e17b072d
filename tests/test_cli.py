"""Unit tests for the repro-bounds command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _python(script, *args):
    """Run ``script`` in a fresh interpreter importing ``repro`` from this
    checkout; ``args`` become its ``sys.argv[1:]``."""
    source = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestParser:
    def test_derive_ubd_defaults(self):
        args = build_parser().parse_args(["derive-ubd"])
        assert args.command == "derive-ubd"
        assert args.preset == "ref"
        assert args.k_max == 60
        assert args.instruction_type == "load"

    def test_preset_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--preset", "p4080", "derive-ubd"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synchrony_options(self):
        args = build_parser().parse_args(["--preset", "var", "synchrony", "--iterations", "5"])
        assert args.preset == "var"
        assert args.iterations == 5

    def test_campaign_options(self):
        args = build_parser().parse_args(["campaign", "--workloads", "2", "--seed", "9"])
        assert args.workloads == 2
        assert args.seed == 9
        assert args.jobs == 1
        assert args.out is None
        assert args.store is None

    def test_campaign_engine_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--jobs",
                "4",
                "--out",
                "out/campaign",
                "--store",
                "out/store",
                "--arbiter",
                "round_robin",
                "--arbiter",
                "tdma",
                "--contenders",
                "1",
                "--contenders",
                "2",
            ]
        )
        assert args.jobs == 4
        assert args.out == "out/campaign"
        assert args.store == "out/store"
        assert args.arbiter == ["round_robin", "tdma"]
        assert args.contenders == [1, 2]

    def test_campaign_arbiter_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--arbiter", "lottery"])

    def test_campaign_topology_axis(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--topology",
                "bus_only",
                "--topology",
                "bus_bank_queues",
            ]
        )
        assert args.topology == ["bus_only", "bus_bank_queues"]

    def test_topology_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--topology", "mesh"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["derive-ubd", "--topology", "mesh"])

    def test_derive_and_synchrony_accept_topology(self):
        args = build_parser().parse_args(["derive-ubd", "--topology", "bus_bank_queues"])
        assert args.topology == "bus_bank_queues"
        args = build_parser().parse_args(["synchrony", "--topology", "bus_bank_queues"])
        assert args.topology == "bus_bank_queues"

    def test_list_subcommand_parses(self):
        assert build_parser().parse_args(["list"]).command == "list"

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit", "small"])
        assert args.command == "audit"
        assert args.target == "small"
        assert args.topology is None
        assert args.out == "out/audit"
        assert args.k_max == 60
        assert args.synchrony_iterations == 150

    def test_audit_requires_a_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])

    def test_audit_topology_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "small", "--topology", "mesh"])


class TestCommands:
    def test_derive_ubd_on_small_preset(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "derive-ubd",
                "--k-max",
                "14",
                "--iterations",
                "15",
                "--show-sweep",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "ubdm = 6 cycles" in output
        assert "[PASS] bus_saturation" in output
        assert "dbus" in output

    def test_synchrony_on_small_preset(self, capsys):
        exit_code = main(["--preset", "small", "synchrony", "--iterations", "40"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "analytical ubd = 6" in output
        assert "gamma=" in output

    def test_campaign_on_small_preset(self, capsys):
        exit_code = main(["--preset", "small", "campaign", "--workloads", "2", "--iterations", "5"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "EEMBC-like" in output
        assert "contenders=" in output

    def test_list_prints_registries(self, capsys):
        exit_code = main(["list"])
        output = capsys.readouterr().out
        assert exit_code == 0
        # The listing is read from the registries themselves, so every
        # registered name must show up.
        from repro.config import ARBITRATION_POLICIES, ENGINES, PRESETS, TOPOLOGIES

        for name in list(PRESETS) + list(ARBITRATION_POLICIES) + list(ENGINES) + list(TOPOLOGIES):
            assert name in output

    def test_campaign_topology_sweep_on_small_preset(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "campaign",
                "--workloads",
                "1",
                "--iterations",
                "4",
                "--topology",
                "bus_only",
                "--topology",
                "bus_bank_queues",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "bus_bank_queues" in output

    def test_synchrony_with_topology_override(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "synchrony",
                "--iterations",
                "30",
                "--topology",
                "bus_bank_queues",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "gamma=" in output

    def test_derive_ubd_rejects_k_max_below_one(self, capsys):
        exit_code = main(["--preset", "small", "derive-ubd", "--k-max", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--k-max must be >= 1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.usefixtures("sweep_capped_before_two_periods")
    def test_derive_ubd_refuses_at_the_search_limit_without_consensus(self, capsys):
        exit_code = main(["--preset", "small", "derive-ubd", "--k-max", "12", "--iterations", "5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(
            "error: the sweep reached the search limit of 24 at k = 1..24, where no two "
            "saw-tooth estimators agree"
        )
        assert "ubdm" not in captured.out
        assert "Traceback" not in captured.err

    #: A saw-tooth of period 16 whose contended runs saw a 20-cycle bus wait.
    PERIOD_16_WAIT_20 = dict(dbus_of=lambda k: 100 * (16 - (k - 1) % 16), bus_max_wait=20)

    def test_derive_ubd_prints_no_bound_its_own_sweep_disproves(self, stub_sweep, capsys):
        stub_sweep(**self.PERIOD_16_WAIT_20)
        exit_code = main(["--preset", "ref", "derive-ubd", "--k-max", "40", "--iterations", "5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == (
            "error: ref: observed_floor fails, so no bound is reported: largest bus wait "
            "in the sweep's contended runs is 20 cycles versus ubdm 16 (ubdm must cover it)\n"
        )
        assert captured.out == ""

    def test_per_resource_composes_no_bound_from_a_term_not_covering(self, stub_sweep, capsys):
        """ref's traced anchor run sees the bus make a request wait 26
        cycles, which the saw-tooth's 16 does not cover: the table shows
        it, and no end-to-end bound is printed."""
        stub_sweep(**self.PERIOD_16_WAIT_20)
        argv = ["--preset", "ref", "derive-ubd", "--per-resource"]
        exit_code = main(argv + ["--k-max", "40", "--iterations", "5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out.endswith(
            "\nbus      |       26 |   16 |         27 | rsk-nop saw-tooth | NOT COVERING\n"
        )
        assert "End-to-end measured bound" not in captured.out
        assert captured.err == (
            "error: ref: the bus term of 16 cycles is NOT COVERING its observed worst case "
            "of 26; no end-to-end bound is composed\n"
        )

    def test_store_sweep_settled_at_zero_exits_2_without_extending(self, capsys):
        argv = ["--preset", "small", "derive-ubd", "--instruction-type", "store"]
        exit_code = main(argv + ["--iterations", "5", "--k-max", "12"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: dbus(k) never rises over k = 1..12")
        assert "Figure 7(b)" in captured.err
        assert "ubdm" not in captured.out

    def test_derive_ubd_refuses_a_sweep_past_the_il1_at_once(self, capsys):
        """``--k-max 100`` on small used to auto-extend to k = 400 and exit 2
        after about 20 s; the sweep's own largest k already outgrows the
        IL1, so it is refused before any simulation."""
        argv = ["--preset", "small", "derive-ubd", "--iterations", "3", "--k-max", "100"]
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: small: the sweep reaches k = 100, where")
        assert "38 code lines" in captured.err and "IL1 of 32 lines" in captured.err
        assert captured.out == ""

    def test_runs_without_numpy(self):
        """The library needs only the standard library."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None  # every numpy import now fails\n"
            "from repro.cli import main\n"
            "derive = ['--preset', 'small', 'derive-ubd', '--iterations', '2', '--k-max', '12']\n"
            "sys.exit(main(['list']) or main(derive))\n"
        )
        result = _python(script)
        assert result.returncode == 0, result.stderr
        assert "ubdm = 6 cycles" in result.stdout

    def test_commands_import_only_the_layers_they_run(self, tmp_path, capsys):
        """``derive-ubd`` on ``event`` loads neither path-registered engine,
        the campaign runner, the audit nor a process pool; nor the
        per-resource pipeline's analysis and composition layers, the report
        tables, or the stdlib's ``statistics``, ``hashlib`` and ``json``.
        ``--show-sweep`` loads the tables it prints and ``--per-resource``
        the contention analysis.  ``import repro.cli``, ``cache stats`` and
        a warm campaign re-run, which never simulate, load no ``repro.sim``
        module at all, and the re-run not the rsk-nop methodology either.
        An absent name covers its submodules."""
        script = (
            "import sys\n"
            "absent = tuple(sys.argv[1].split(','))\n"
            "packages = tuple(name + '.' for name in absent)\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m in absent or m.startswith(packages))\n"
            "from repro.cli import main\n"
            "print('import', loaded())\n"
            "code = main(sys.argv[2:])\n"
            "print('command', loaded())\n"
            "sys.exit(code)\n"
        )
        engines = ["repro.sim.codegen", "repro.sim.trace"]
        absent = engines + ["repro.campaign.runner", "repro.audit", "concurrent.futures.process"]
        absent += ["repro.analysis.contention", "repro.methodology.composition"]
        absent += ["repro.methodology.etb", "repro.report"]
        absent += ["statistics", "fractions", "decimal", "hashlib", "json"]
        derive = ["--preset", "small", "--engine", "event", "derive-ubd"]
        derive += ["--iterations", "2", "--k-max", "12"]
        result = _python(script, ",".join(absent), *derive)
        assert result.returncode == 0, result.stderr
        assert "import []" in result.stdout
        assert "command []" in result.stdout

        result = _python(script, "repro.report", *derive, "--show-sweep")
        assert result.returncode == 0, result.stderr
        assert "import []" in result.stdout
        assert "command ['repro.report', 'repro.report.tables']" in result.stdout
        assert "k  | dbus\n---+-----\n 1 |   20\n" in result.stdout

        per_resource = ["--preset", "split_bus", "--engine", "event", "derive-ubd"]
        per_resource += ["--per-resource", "--iterations", "5", "--k-max", "30"]
        result = _python(script, "repro.analysis.contention", *per_resource)
        assert result.returncode == 0, result.stderr
        assert "import []" in result.stdout
        assert "command ['repro.analysis.contention']" in result.stdout
        assert "Memory term split: memory stage split over " in result.stdout
        for term in ("bus ", "memory ", "bus_response "):
            assert f"\n{term}" in result.stdout, term

        store = str(tmp_path / "store")
        campaign = ["--preset", "small", "campaign", "--workloads", "2", "--iterations", "5"]
        campaign += ["--store", store]
        assert main(campaign) == 0
        capsys.readouterr()
        result = _python(script, "repro.sim,repro.methodology.ubd", *campaign)
        assert result.returncode == 0, result.stderr
        assert ": 0 simulated" in result.stdout
        assert "import []" in result.stdout
        assert "command []" in result.stdout

        result = _python(script, "repro.sim", "cache", "stats", "--store", store)
        assert result.returncode == 0, result.stderr
        assert "Entries: " in result.stdout
        assert "import []" in result.stdout
        assert "command []" in result.stdout

        # Only a campaign directory's audit reads campaign artifacts.
        audit = ["audit", "split_bus", "--out", str(tmp_path / "audit")]
        result = _python(script, "repro.campaign,repro.audit.campaign", *audit)
        assert result.returncode == 1, result.stderr
        assert "Verdict: warn" in result.stdout
        assert "import []" in result.stdout
        assert "command []" in result.stdout

    def test_lazy_exports_resolve_every_public_name(self):
        """Lazy exports hide nothing: in a fresh interpreter every ``__all__``
        name, ``import *``, ``dir()`` and a submodule attribute resolve."""
        script = (
            "import importlib\n"
            "for name in ('repro', 'repro.sim', 'repro.analysis', 'repro.kernels',\n"
            "             'repro.methodology', 'repro.campaign', 'repro.report',\n"
            "             'repro.audit'):\n"
            "    package = importlib.import_module(name)\n"
            "    for export in package.__all__:\n"
            "        getattr(package, export)\n"
            "    namespace = {}\n"
            "    exec(f'from {name} import *', namespace)\n"
            "    assert set(package.__all__) <= set(namespace), name\n"
            "    assert set(package.__all__) <= set(dir(package)), name\n"
            "    assert not hasattr(package, 'no_such_name'), name\n"
            "import repro.sim\n"
            "assert repro.sim.codegen.CodegenEngine is repro.sim.CodegenEngine\n"
            "print('resolved')\n"
        )
        result = _python(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "resolved\n"

    def test_path_registered_engines_stay_visible(self):
        """``codegen`` and ``replay`` are registered without importing their
        modules; the registry and ``list`` see all four engines, and
        ``make_engine`` on one loads its module."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.config import ENGINES, small_config\n"
            "from repro.sim.scheduler import make_engine, registered_engines\n"
            "from repro.sim.system import System\n"
            "def loaded():\n"
            "    return [m for m in ('repro.sim.codegen', 'repro.sim.trace') if m in sys.modules]\n"
            "print('registered', registered_engines() == ENGINES, loaded())\n"
            "main(['list'])\n"
            "print('listed', loaded())\n"
            "system = System(small_config(), [])\n"
            "print('codegen', type(make_engine('codegen', system)).__name__, loaded())\n"
            "print('replay', type(make_engine('replay', system)).__name__, loaded())\n"
        )
        result = _python(script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "registered True []" in lines
        assert "listed []" in lines
        assert "codegen CodegenEngine ['repro.sim.codegen']" in lines
        assert "replay ReplayEngine ['repro.sim.codegen', 'repro.sim.trace']" in lines
        start = lines.index("Simulation engines (--engine):")
        listed = [line.split()[0] for line in lines[start + 3 : lines.index("", start)]]
        assert listed == ["stepped", "event", "codegen", "replay"]

    def test_audit_cross_checks_every_engine_from_a_fresh_process(self, tmp_path):
        """The audit's engine cross-check loads the path-registered engines
        itself: all three fast engines are checked against the oracle."""
        result = _python(
            "import sys\nfrom repro.cli import main\nsys.exit(main(sys.argv[1:]))\n",
            "audit",
            "small",
            "--out",
            str(tmp_path),
            "--k-max",
            "12",
            "--iterations",
            "2",
            "--stress-iterations",
            "10",
            "--synchrony-iterations",
            "20",
            "--equivalence-iterations",
            "5",
        )
        assert result.returncode == 0, result.stderr
        rows = [line.split("|") for line in result.stdout.splitlines()]
        cells = [[cell.strip() for cell in row] for row in rows if len(row) == 3]
        assert ["engine_equivalence", "PASS", "3"] in cells

    def test_library_errors_become_clean_cli_errors(self, capsys):
        exit_code = main(["--preset", "small", "campaign", "--workloads", "1", "--jobs", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "jobs must be >= 1" in captured.err
        assert "Traceback" not in captured.err

    def test_campaign_writes_artifacts_and_reuses_cache(self, tmp_path, capsys):
        from repro.campaign import load_campaign

        argv = [
            "--preset",
            "small",
            "campaign",
            "--workloads",
            "2",
            "--iterations",
            "5",
            "--jobs",
            "2",
            "--out",
            str(tmp_path / "campaign"),
            "--store",
            str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "results.jsonl" in cold
        records, summary = load_campaign(tmp_path / "campaign")
        assert len(records) == summary["total_runs"] == 3
        assert summary["timing"]["simulated"] == 3

        assert main(argv) == 0
        _, warm_summary = load_campaign(tmp_path / "campaign")
        assert warm_summary["timing"]["simulated"] == 0
        assert warm_summary["timing"]["cached"] == 3


class TestPerResourceCli:
    def test_derive_ubd_per_resource_on_split_bus(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "derive-ubd",
                "--topology",
                "split_bus",
                "--per-resource",
                "--k-max",
                "14",
                "--iterations",
                "15",
                "--stress-iterations",
                "30",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        # One measured term per resource of the three-stage chain.
        for resource in ("bus", "memory", "bus_response"):
            assert resource in output
        assert "End-to-end measured bound" in output
        assert "Memory term split" in output
        assert "write_burst" in output
        assert "[PASS] bus_saturation" in output

    def test_per_resource_on_bus_only_degenerates_to_bus_term(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "derive-ubd",
                "--per-resource",
                "--k-max",
                "14",
                "--iterations",
                "15",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rsk-nop saw-tooth" in output
        assert "memory" not in output.split("End-to-end")[0]

    def test_per_resource_rejects_k_max_below_one(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "derive-ubd",
                "--topology",
                "split_bus",
                "--per-resource",
                "--k-max",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--k-max must be >= 1" in captured.err
        assert "Traceback" not in captured.err

    def test_per_resource_refuses_store_traffic(self, capsys):
        exit_code = main(
            [
                "--preset",
                "small",
                "derive-ubd",
                "--topology",
                "bus_bank_queues",
                "--per-resource",
                "--instruction-type",
                "store",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_synchrony_reports_write_burst_gate(self, capsys):
        exit_code = main(["--preset", "small", "synchrony", "--iterations", "40"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "write_burst" in output


#: The reduced measurement knobs the CI audit job uses.
AUDIT_FAST = [
    "--k-max",
    "14",
    "--iterations",
    "15",
    "--stress-iterations",
    "30",
    "--synchrony-iterations",
    "60",
    "--equivalence-iterations",
    "25",
]


class TestAuditCli:
    def test_audit_preset_exit_code_is_worst_verdict(self, tmp_path, capsys):
        exit_code = main(["audit", "small", "--out", str(tmp_path / "audit")] + AUDIT_FAST)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Verdict: pass (exit code 0)" in output
        for dimension in ("measured_bounds", "engine_equivalence", "synchrony"):
            assert dimension in output
        assert (tmp_path / "audit" / "flags.json").exists()
        assert (tmp_path / "audit" / "report.html").exists()

    def test_audit_flagged_topology_exits_one_and_prints_the_warning(self, tmp_path, capsys):
        exit_code = main(
            [
                "audit",
                "small",
                "--topology",
                "bus_bank_queues",
                "--out",
                str(tmp_path / "audit"),
            ]
            + AUDIT_FAST
        )
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "Verdict: warn (exit code 1)" in output
        assert "[WARN] write_burst/store_probe" in output

    def test_audit_fifo_config_file_warns_on_the_sawtooth(self, tmp_path, capsys):
        """An ArchConfig JSON with a FIFO bus: the saw-tooth is refused (warn,
        exit 1) while the measured bus term stays at the analytical ubd."""
        from dataclasses import replace

        from repro.config import get_preset

        config = get_preset("small")
        config = replace(config, bus=replace(config.bus, arbitration="fifo"))
        target = tmp_path / "fifo.json"
        target.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "audit"
        exit_code = main(["audit", str(target), "--out", str(out)] + AUDIT_FAST)
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "[WARN] confidence/methodology: not established: small: a FIFO bus" in output
        flags = json.loads((out / "flags.json").read_text())
        verdicts = {dimension["name"]: dimension["verdict"] for dimension in flags["dimensions"]}
        assert verdicts["confidence"] == "warn"
        assert verdicts["measured_bounds"] == verdicts["sandwich"] == "pass"

    def test_audit_campaign_directory(self, tmp_path, capsys):
        campaign_dir = tmp_path / "campaign"
        campaign_argv = [
            "--preset",
            "small",
            "campaign",
            "--workloads",
            "2",
            "--iterations",
            "5",
            "--out",
            str(campaign_dir),
        ]
        assert main(campaign_argv) == 0
        capsys.readouterr()
        exit_code = main(["audit", str(campaign_dir), "--out", str(tmp_path / "audit")])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "artifact_schema" in output
        assert "campaign_bounds" in output
        assert (tmp_path / "audit" / "flags.json").exists()

    def test_audit_rejects_k_max_below_one(self, tmp_path, capsys):
        exit_code = main(["audit", "small", "--k-max", "0", "--out", str(tmp_path / "audit")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--k-max must be >= 1" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize(
        "flag",
        [
            "--k-max",
            "--iterations",
            "--stress-iterations",
            "--synchrony-iterations",
            "--equivalence-iterations",
        ],
    )
    def test_audit_rejects_zero_iteration_options(self, flag, tmp_path, capsys, monkeypatch):
        """A zero knob would make its check vacuous (a one-cycle engine
        cross-check passes) or fail with a misleading trace error; the
        audit refuses it, naming the flag, before simulating anything."""
        from repro.sim.system import System

        runs = []
        monkeypatch.setattr(System, "run", lambda *args, **kwargs: runs.append(args))
        argv = ["audit", "small", "--k-max", "14", "--iterations", "15"]
        exit_code = main(argv + [flag, "0", "--out", str(tmp_path / "audit")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert f"{flag} must be >= 1, got 0" in captured.err
        assert "Traceback" not in captured.err
        assert runs == []
        assert not (tmp_path / "audit").exists()

    def test_audit_unresolvable_target_is_a_clean_error(self, capsys):
        exit_code = main(["audit", "nonsense"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot resolve audit target" in captured.err
        assert "Traceback" not in captured.err


class TestStoreCli:
    def _campaign_argv(self, store_dir, out_dir=None, workloads="2"):
        argv = [
            "--preset",
            "small",
            "campaign",
            "--workloads",
            workloads,
            "--iterations",
            "5",
            "--store",
            str(store_dir),
        ]
        if out_dir is not None:
            argv += ["--out", str(out_dir)]
        return argv

    def test_campaign_store_options_parse(self):
        args = build_parser().parse_args(["campaign", "--store", "out/store"])
        assert args.store == "out/store"

    def test_cache_subcommands_parse(self):
        stats = build_parser().parse_args(["cache", "stats", "--store", "s"])
        assert stats.command == "cache" and stats.cache_command == "stats"
        gc = build_parser().parse_args(["cache", "gc", "--store", "s", "--keep-days", "30"])
        assert gc.keep_days == 30.0
        with pytest.raises(SystemExit):  # --store is required
            build_parser().parse_args(["cache", "stats"])

    def test_store_backed_campaign_warm_rerun_simulates_nothing(self, tmp_path, capsys):
        from repro.campaign import load_campaign, load_manifest

        argv = self._campaign_argv(tmp_path / "store", out_dir=tmp_path / "campaign")
        assert main(argv) == 0
        assert "campaign.json" in capsys.readouterr().out
        records, summary = load_campaign(tmp_path / "campaign")
        assert summary["timing"]["simulated"] == len(records) == 3
        manifest = load_manifest(tmp_path / "campaign")
        assert manifest["completed"] is True
        assert manifest["total_runs"] == 3

        assert main(argv) == 0
        capsys.readouterr()
        _, warm_summary = load_campaign(tmp_path / "campaign")
        assert warm_summary["timing"]["simulated"] == 0
        assert warm_summary["timing"]["cached"] == 3

    def test_overlapping_campaign_only_simulates_its_frontier(self, tmp_path, capsys):
        from repro.campaign import load_campaign

        store = tmp_path / "store"
        assert main(self._campaign_argv(store, workloads="1")) == 0
        argv = self._campaign_argv(store, out_dir=tmp_path / "grown", workloads="2")
        assert main(argv) == 0
        capsys.readouterr()
        _, summary = load_campaign(tmp_path / "grown")
        assert summary["timing"]["simulated"] == 1  # only the new workload
        assert summary["timing"]["cached"] == 2

    def test_cache_stats_reports_entries_and_attribution(self, tmp_path, capsys):
        assert main(self._campaign_argv(tmp_path / "store")) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(tmp_path / "store")]) == 0
        output = capsys.readouterr().out
        assert "Entries: 3" in output

    def test_cache_stats_on_non_store_is_a_clean_error(self, tmp_path, capsys):
        assert main(["cache", "stats", "--store", str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert "not a result store" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "gc"])
    def test_cache_refuses_a_path_that_is_not_a_directory(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a store", encoding="utf-8")
        extra = ["--keep-days", "30"] if command == "gc" else []
        for target in (blocker, tmp_path / "missing"):
            assert main(["cache", command, "--store", str(target), *extra]) == 2
            err = capsys.readouterr().err
            assert "not a result store" in err
            assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_campaign_store_adopts_copied_artifacts(self, tmp_path, capsys):
        import shutil

        assert main(self._campaign_argv(tmp_path / "store")) == 0
        capsys.readouterr()
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for path in (tmp_path / "store").glob("*.json"):
            shutil.copy(path, fresh / path.name)
        # A directory of bare artifacts is a store as it is.
        assert main(["cache", "stats", "--store", str(fresh)]) == 0
        assert "Entries: 3" in capsys.readouterr().out
        assert main(self._campaign_argv(fresh)) == 0
        assert ": 0 simulated" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", str(fresh)]) == 0
        assert "Entries: 3" in capsys.readouterr().out

    def test_campaign_files_sharing_the_store_are_not_entries(self, tmp_path, capsys):
        """With ``--out`` and ``--store`` naming one directory, ``cache``
        counts and collects the two run artifacts only: the campaign's
        ``results.jsonl``, ``summary.json`` and ``campaign.json`` are not
        entries."""
        import json

        shared = tmp_path / "shared"
        assert main(self._campaign_argv(shared, out_dir=shared, workloads="1")) == 0
        capsys.readouterr()
        campaign_files = ["campaign.json", "results.jsonl", "summary.json"]
        artifacts = [path for path in shared.glob("*.json") if len(path.stem) == 64]
        assert len(artifacts) == 2
        assert main(["cache", "stats", "--store", str(shared), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["artifact_bytes"] == sum(path.stat().st_size for path in artifacts)
        gc = ["cache", "gc", "--store", str(shared), "--keep-days", "0", "--json"]
        assert main(gc) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 2
        assert sorted(path.name for path in shared.iterdir()) == campaign_files

    def test_cache_gc_removes_nothing_on_a_fresh_store(self, tmp_path, capsys):
        assert main(self._campaign_argv(tmp_path / "store")) == 0
        capsys.readouterr()
        code = main(
            ["cache", "gc", "--store", str(tmp_path / "store"), "--keep-days", "30"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Removed 0 entries" in output
        assert "3 remain" in output

    def test_cache_gc_refuses_nan_keep_days(self, tmp_path, capsys):
        assert main(self._campaign_argv(tmp_path / "store")) == 0
        capsys.readouterr()
        code = main(
            ["cache", "gc", "--store", str(tmp_path / "store"), "--keep-days", "nan"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "keep_days must be >= 0, got nan" in captured.err
        assert "Removed" not in captured.out
        assert "Traceback" not in captured.err

    def _store_with_leftover_traces(self, store_dir, capsys):
        """A three-entry store beside the week-old ``traces/`` directory an
        older version kept its replay captures in."""
        assert main(self._campaign_argv(store_dir)) == 0
        capsys.readouterr()
        leftover = store_dir / "traces" / f"{'ab' * 32}.json"
        leftover.parent.mkdir()
        leftover.write_text('{"schema": 1}', encoding="utf-8")
        then = leftover.stat().st_mtime - 7 * 86400.0
        os.utime(leftover, (then, then))
        return leftover

    def test_cache_stats_prints_run_entries_only(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._store_with_leftover_traces(store_dir, capsys)
        assert main(["cache", "stats", "--store", str(store_dir)]) == 0
        artifact_bytes = sum(path.stat().st_size for path in store_dir.glob("*.json"))
        assert capsys.readouterr().out.splitlines() == [
            f"Store: {store_dir}",
            f"Entries: 3 ({artifact_bytes} artifact bytes)",
        ]

    def test_cache_gc_leaves_a_leftover_traces_directory(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        leftover = self._store_with_leftover_traces(store_dir, capsys)
        assert main(["cache", "gc", "--store", str(store_dir), "--keep-days", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Removed 0 entries older than 1 day(s); 3 remain"
        ]
        assert leftover.exists()

    def test_replay_campaign_summary_times_runs_only(self, tmp_path, capsys):
        """A store-backed ``--engine replay`` campaign writes run artifacts
        only, and its summary's ``timing`` counts runs and artifact I/O,
        not the engine's in-process captures."""
        from repro.campaign import load_campaign
        from repro.sim.trace import clear_trace_cache

        store_dir = tmp_path / "store"
        argv = ["--engine", "replay", *self._campaign_argv(store_dir, out_dir=tmp_path / "out")]
        clear_trace_cache()
        try:
            assert main(argv) == 0
        finally:
            clear_trace_cache()
        capsys.readouterr()
        records, summary = load_campaign(tmp_path / "out")
        timing = summary["timing"]
        assert "trace_cache" not in timing
        assert timing["store"] == {"artifact_reads": 0, "artifact_writes": len(records)}
        assert sorted(path.name for path in store_dir.iterdir()) == sorted(
            f"{record['digest']}.json" for record in records
        )


class TestCacheJson:
    def _seed_store(self, tmp_path):
        from repro.campaign import ResultStore

        store_dir = tmp_path / "store"
        ResultStore(store_dir).put_many(
            [(f"{i:064x}", {"digest": f"{i:064x}", "schema": 4}) for i in range(3)]
        )
        return store_dir

    def test_cache_stats_json(self, tmp_path, capsys):
        import json

        store_dir = self._seed_store(tmp_path)
        assert main(["cache", "stats", "--store", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 3
        assert sorted(payload) == ["artifact_bytes", "directory", "entries"]

    def test_cache_gc_json(self, tmp_path, capsys):
        import json

        store_dir = self._seed_store(tmp_path)
        assert main(
            ["cache", "gc", "--store", str(store_dir), "--keep-days", "365", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"removed": 0}
