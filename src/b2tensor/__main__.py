import os
import sys

from .cli import main

code = main()
# The process exit frees the memory and closes the files, so the interpreter's
# teardown only costs time: once stdout and stderr are flushed, os._exit ends
# the process without it. Only here, never in cli.main, which a long-lived
# caller runs again and again. A flush that fails (a closed pipe) leaves the
# exit to sys.exit, whose own flush at shutdown reports the failure.
try:
    sys.stdout.flush()
    sys.stderr.flush()
except (OSError, ValueError):
    sys.exit(code)
os._exit(code)
