"""``python3 -m bench``: see :mod:`bench.cli`."""

import atexit
import sys
import time

# Read before anything heavy is imported: set-up time counts the imports.
_STARTED = time.perf_counter()


def _end_children():
    from bench.serve import end_children

    end_children()


if __name__ == "__main__":
    # No process of the run outlives it, whichever way it ends.  Exit
    # handlers run last-registered first and this one is registered before
    # ``multiprocessing`` is imported, so it runs after multiprocessing's
    # own (which ends daemon children and unlinks their semaphores) and
    # finds the resource tracker with nothing left to clean up.
    atexit.register(_end_children)
    from bench.serve import adopt_orphans

    adopt_orphans()
    from bench.cli import main

    sys.exit(main(sys.argv[1:], _STARTED))
