"""Build and calibrate a features model in a process of its own.

    python3 perfbench/calibrate.py VARIANT SEED IMAGE WEIGHTS LEVELS

Writes the calibrated weight file to WEIGHTS and the batch-statistics
levels to LEVELS (``.npz``); see ``workloads.calibration_job``.  The
features workloads run it as a child, so that the serving process's peak
memory is not that of the batch-statistics forward.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import calibration_job  # noqa: E402

if __name__ == "__main__":
    variant, seed, image, weights, levels = sys.argv[1:]
    calibration_job(variant, int(seed), image, weights, levels)
