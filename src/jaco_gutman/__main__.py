"""Process entry point: `python -m jaco_gutman` and the `jaco` console script.

No command multiplies float matrices, so numpy's BLAS worker threads only
cost CPU time when they start.  OPENBLAS_NUM_THREADS defaults to 1 here,
before `cli` runs, so the default applies whenever a command loads numpy;
`build` loads none at any order, nor do `gutman` and `wiener` up to
`base.SMALL_ORDER` vertices.  A value the user set wins.

The cyclic garbage collector is kept off the start-up heap.  Once `cli`
has imported, `gc.freeze()` moves the long-lived objects of the start-up
out of every later collection.  When the command returns or raises,
`gc.freeze()` runs again, so the collections of interpreter teardown walk
none of the heap.  The collector stays enabled
throughout and the exit code is the command's.  (Disabling the collector
during the imports as well saved a few milliseconds but kept their garbage,
about 0.3 MB more peak RSS on `erratum`.)

Importing the package, `jaco_gutman.cli` or this module, or calling
`cli.main`, sets neither the BLAS default nor the collector state, so a
library caller keeps numpy's own default for the dense BFS and its own
collector.
"""

import gc
import os


def entrypoint() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import entrypoint as run

    gc.freeze()
    try:
        run()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entrypoint()
