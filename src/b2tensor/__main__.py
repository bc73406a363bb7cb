import os
import sys

from .cli import main


def _stdout_gone() -> int:
    # the reader of stdout is gone: point stdout at os.devnull, so that no
    # flush writes to the pipe again, and exit 1 without a traceback
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


# The process exit frees the memory and closes the files, so the interpreter's
# teardown only costs time: once stdout and stderr are flushed, os._exit ends
# the process without it. Only here, never in cli.main, which a long-lived
# caller runs again and again. A closed stdout raises BrokenPipeError at the
# write in cli.main (a large answer, or any answer unbuffered) or at the
# flush here. A flush that fails otherwise leaves the exit to sys.exit, whose
# own flush at shutdown reports the failure.
try:
    code = main()
except BrokenPipeError:
    code = _stdout_gone()
try:
    sys.stdout.flush()
    sys.stderr.flush()
except BrokenPipeError:
    code = _stdout_gone()
except (OSError, ValueError):
    sys.exit(code)
os._exit(code)
