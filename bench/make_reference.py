#!/usr/bin/env python3
"""Rewrite the reference CSVs in bench/reference/ from the current code.

    python3 bench/make_reference.py

Runs every workload once through the CLI at K = REFERENCE_K and the
default seed. Only do this when a change is meant to alter the numbers,
and show the diff of the CSVs with that change.
"""

import os
import shutil
import subprocess
import sys
import tempfile

from run import SRC
from workloads import DEFAULT_SEED, REFERENCE_DIR, REFERENCE_K, WORKLOADS, write_config


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.yaml")
            write_config(workload, DEFAULT_SEED, REFERENCE_K, config)
            out = os.path.join(tmp, "out")
            subprocess.run([sys.executable, "-m", "spinnet.cli", workload.command,
                            "--config", config, "--out", out], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            shutil.copyfile(os.path.join(out, workload.output),
                            os.path.join(REFERENCE_DIR, workload.name + ".csv"))
        print(f"wrote reference for {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
