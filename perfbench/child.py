"""``crn`` with crnkit's public functions traced, for the traced corpus run.

Usage: ``python3 perfbench/child.py <crn arguments>``, with crnkit on
``PYTHONPATH``.  Runs the CLI like the ``crn`` script does, then writes the
recorded spans as one JSON line at the end of standard error.
"""

import json
import sys

import crnkit.cli
import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install(spans.LAYERS)
    try:
        code = crnkit.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    print(json.dumps(tracer.take()), file=sys.stderr)
    sys.exit(code)
