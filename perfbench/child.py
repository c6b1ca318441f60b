"""One qhjlab CLI invocation, timed from inside the process.

    python perfbench/child.py [--trace SPANS.json] <qhjlab CLI arguments>

Does what ``python -m qhjlab.cli <arguments>`` does (import ``qhjlab.cli``,
call ``main`` once, exit with its code) and prints the time of the ``main``
call as the last stdout line, ``PERFBENCH {"run_s": ...}``.  With
``--trace`` the layer modules are wrapped first and the spans are written to
SPANS.json after the call.
"""

import sys
import time


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    import qhjlab.cli

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = qhjlab.cli.main(argv)
    run_s = time.perf_counter() - start
    if tracer:
        tracer.dump(trace_path)
    print(f'PERFBENCH {{"run_s": {run_s!r}}}', flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
