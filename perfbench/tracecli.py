"""One grflab CLI command under the tracing shim: a traced cold start.

    PYTHONPATH=src python3 perfbench/tracecli.py <grflab subcommand and flags> --out DIR

Times `import grflab` and `import grflab.cli` from a fresh interpreter,
runs the command through the shim and writes the span summary to
DIR.trace.json, beside the artifact directory so it is not hashed as an
artifact.  The exit status is the CLI's.
"""
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import grflab  # noqa: F401

    t1 = time.perf_counter()
    import grflab.cli

    t2 = time.perf_counter()
    import json

    from tracer import Tracer, install

    argv = sys.argv[1:]
    out_dir = argv[argv.index("--out") + 1]
    tracer = Tracer()
    install(tracer)
    try:
        return grflab.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import"] = {"grflab_s": t1 - t0, "cli_s": t2 - t0}
        with open(out_dir.rstrip("/") + ".trace.json", "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
