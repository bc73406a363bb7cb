"""Long-lived query process for the query-mix workload.

Reads one JSON list of argv lists per line on stdin, answers each through
b2tensor.cli.main in this one process, and writes one JSON line back:
[[exit code, seconds, stdout, stderr], ...]. Only the cli.main call and the
capture of its output are timed. The process does nothing else, so its peak
RSS is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from b2tensor import cli


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return [rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()]


def main() -> int:
    for line in sys.stdin:
        results = [answer(argv) for argv in json.loads(line)]
        sys.stdout.write(json.dumps(results, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
