"""Child-process entry points of the benchmark.

The timed invocations run ``python -m repro.cli`` directly.  This script is
only used for the three kinds of process that need something besides the
plain command:

``probe TARGET -- ARGV``
    Run ``repro-bounds ARGV`` until the first call of ``TARGET``
    (``module:Class.method``), then exit with :data:`PROBE_EXIT` at once.
    The process's wall time is the command's set-up time.
``trace OUT.json -- ARGV``
    Run ``repro-bounds ARGV`` under :class:`tracer.Tracer` and write the
    spans to ``OUT.json`` as Chrome trace events, with the spans of forked
    campaign pool workers merged in as their own processes.  Prints
    nothing of its own, so stdout is the command's.
``info PRESET``
    Print the engine registry, the CLI's default engine and the preset's
    configuration on every engine as one JSON object.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from typing import List

#: Exit code of a probe that reached its target.
PROBE_EXIT = 86


def _probe(target: str, argv: List[str]) -> int:
    module_name, qualname = target.split(":")
    class_name, attribute = qualname.split(".")
    owner = getattr(importlib.import_module(module_name), class_name)

    def stop(*args: object, **kwargs: object) -> None:
        os._exit(PROBE_EXIT)

    setattr(owner, attribute, stop)
    from repro.cli import main

    main(argv)
    print(f"probe target {target} was never called", file=sys.stderr)
    return 1


def _trace(out_path: str, argv: List[str]) -> int:
    import tracer

    from repro.sim.trace import global_trace_cache

    workers = out_path + ".workers"
    os.makedirs(workers, exist_ok=True)
    with tracer.Tracer(worker_dir=workers) as recorder:
        from repro.cli import main

        code = main(argv)
    leftover = tracer.installed_wrappers()
    if leftover:
        print(f"wrappers left installed: {leftover}", file=sys.stderr)
        return 1
    other = {"argv": argv, "exit_code": code, "trace_cache": global_trace_cache().stats()}
    trace = recorder.chrome_trace(other)
    for name in sorted(os.listdir(workers)):
        path = os.path.join(workers, name)
        trace["traceEvents"] += tracer.load_json(path)["traceEvents"]
        os.remove(path)
    os.rmdir(workers)
    tracer.write_json(out_path, trace)
    return code


def _info(preset: str) -> int:
    from repro.cli import build_parser
    from repro.config import get_preset
    from repro.sim.scheduler import registered_engines

    engines = list(registered_engines())
    payload = {
        "engines": engines,
        "default_engine": build_parser().get_default("engine"),
        "configs": {name: get_preset(preset, engine=name).to_dict() for name in engines},
    }
    print(json.dumps(payload))
    return 0


def main(argv: List[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "info":
        return _info(rest[0])
    split = rest.index("--")
    head, command = rest[:split], rest[split + 1 :]
    if mode == "probe":
        return _probe(head[0], command)
    if mode == "trace":
        return _trace(head[0], command)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
