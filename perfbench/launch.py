"""Run one ``innershape`` CLI command in this process, as the benchmark's child.

    python3 perfbench/launch.py MODE RECORD -- ARGS...

ARGS are the arguments of the ``innershape`` command, which runs from the
``src`` tree next to this directory, exactly as ``innershape ARGS`` would.

MODE is one of:

``plain``  run the command.  A one-shot hook notes the wall-clock time of
           its first call into ``registration``, ``statistics`` or
           ``shooting`` and writes it to RECORD (JSON), then removes itself.
``probe``  the same, but exit at that first call: only the command's
           set-up (start-up, imports, config parsing, mesh loading) runs.
``trace``  wrap the layer functions (see ``tracer.py``) and write the spans
           to RECORD (a numpy archive) when the command returns.

The exit code is the command's.
"""

import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: the modules whose first call ends a command's set-up
WORK_MODULES = ("innershape.registration", "innershape.statistics", "innershape.shooting")


def _hook_first_call(cli, record: str, stop: bool) -> None:
    originals = {
        attr: value for attr, value in vars(cli).items()
        if inspect.isfunction(value) and value.__module__ in WORK_MODULES
    }

    def first_call(fn):
        def hooked(*args, **kwargs):
            now = time.time()
            for attr, value in originals.items():
                setattr(cli, attr, value)
            with open(record, "w") as f:
                json.dump({"first_call": now}, f)
            if stop:
                sys.stdout.flush()
                os._exit(0)
            return fn(*args, **kwargs)
        return hooked

    for attr, value in originals.items():
        setattr(cli, attr, first_call(value))


def main() -> int:
    mode, record, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "probe", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import innershape.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"innershape was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if mode != "trace":
        _hook_first_call(cli, record, stop=mode == "probe")
        return cli.main(argv)

    import tracer

    tracer.install()
    code = tracer.wrap(cli.main, "cli.main")(argv)
    tracer.dump(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
