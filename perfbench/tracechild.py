"""Run the traceschemes command line with spans recorded around module calls.

    python3 perfbench/tracechild.py SPANS_JSON ARG...

Behaves like ``python -m traceschemes ARG...`` (same stdout, stderr and
exit code) and writes the spans it recorded to SPANS_JSON, where the
benchmark's traced passes pick them up.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402  (this file's directory is on sys.path)

from traceschemes import cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps([s.to_list() for s in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main())
