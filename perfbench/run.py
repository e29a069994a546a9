"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload train-mutag --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory; the last line of standard output is the result object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread: the matrices are small (at most 80 x 256), the measured
# protocol runs one fold worker, and a second BLAS thread only adds noise on
# a 2-core machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _main():
    try:
        import graphdict
    except ImportError as exc:
        sys.exit(f"error: cannot import graphdict from {ROOT}/src: {exc}")
    expected = os.path.join(ROOT, "src", "graphdict")
    if os.path.dirname(os.path.abspath(graphdict.__file__)) != expected:
        sys.exit(f"error: graphdict imported from {graphdict.__file__}, "
                 f"not from {expected}")
    import harness
    # CPU seconds since the process started: interpreter start-up and imports.
    return harness.main(sys.argv[1:], import_s=time.process_time(), root=ROOT)


if __name__ == "__main__":
    sys.exit(_main())
