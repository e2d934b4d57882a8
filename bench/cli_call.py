"""One untraced cli-cold call.

    python3 bench/cli_call.py SAMPLES [ARGV...]

Runs ``heckej.cli.main(ARGV)`` and exits with its code, as the ``heckej``
console script would, with a `clock.Clock` running from before
``heckej.cli`` is imported.  Without ARGV it only imports ``heckej.cli``,
the set-up that every call pays.  When the process ends, however it
ends, the clock's speed samples are written to the file SAMPLES as JSON.
"""

import sys

from clock import Clock

clock = Clock()
try:
    from heckej.cli import main

    if len(sys.argv) > 2:
        sys.exit(main(sys.argv[2:]))
finally:
    clock.mark()
    clock.dump(sys.argv[1])
