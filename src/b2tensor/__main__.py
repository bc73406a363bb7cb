import os
import sys

from .cli import main


def _stdout_gone() -> int:
    # the reader of stdout is gone: point stdout at os.devnull, so that no
    # flush writes to the pipe again, and exit 1 without a traceback
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def run():
    """Answer the command line in sys.argv and end the process: the entry
    point of `python -m b2tensor` and of the b2tensor script.

    The process exit frees the memory and closes the files, so the
    interpreter's teardown only costs time: once stdout and stderr are
    flushed, os._exit ends the process without it. Only here, never in
    cli.main, which a long-lived caller runs again and again. A stdout that
    cannot take the answer raises at the write in cli.main (a large answer,
    or any answer unbuffered) or at the flush here: a closed one exits 1
    quietly, any other failure, such as a full disk, exits 1 with one
    `error:` line. A stderr flush that fails leaves the exit to sys.exit,
    whose own flush at shutdown reports the failure.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_gone()
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 1
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
