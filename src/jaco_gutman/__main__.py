"""Process entry point: `python -m jaco_gutman` and the `jaco` console script.

No command multiplies float matrices, so numpy's BLAS worker threads only
cost CPU time when they start.  OPENBLAS_NUM_THREADS defaults to 1 here,
before `cli` imports numpy; a value the user set wins.  Importing the
package or `jaco_gutman.cli` sets nothing, so a library caller keeps
numpy's own default for the dense BFS.
"""

import os


def entrypoint() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import entrypoint as run

    run()


if __name__ == "__main__":
    entrypoint()
