"""``python -m pairinglab``: the command-line interface.

A reader that closes the pipe early (``pairinglab verify --json | head``)
ends the command with exit 141, 128 + SIGPIPE, as a shell reports a
command killed by that signal, and no traceback: exit 1 stays the code of
a verification violation.  ``cli.main`` itself lets the error through to
an in-process caller.
"""

import os
import sys

from .cli import EXIT_BROKEN_PIPE, main


def _main() -> int:
    try:
        code = main()
        sys.stdout.flush()  # a write the buffer held back fails here
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # this flush cannot fail as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(_main())
