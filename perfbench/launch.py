"""Child-process launcher: times `import locsym.cli` and `main(argv)`.

    python3 perfbench/launch.py REPORT TRACE [CLI ARGS...]

With no CLI arguments the child only imports, which is how set-up time is
measured.  REPORT is a JSON file that receives the two timings and, when
TRACE is 1, the layer counters of the call.  The child's exit code is the
CLI's exit code.
"""
import json
import sys
import time


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import locsym
    import locsym.cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    called = time.perf_counter()
    code = locsym.cli.main(argv) if argv else 0
    done = time.perf_counter()
    sys.stdout.flush()
    payload = {"import_s": imported - start, "main_s": done - called}
    if tracer is not None:
        tracer.uninstall()
        payload["trace"] = tracer.dump()
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
