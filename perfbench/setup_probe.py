"""Time one cold set-up in a fresh process and print it as JSON.

Set-up is importing craftfaces, building the face grid and rendered inputs,
and building the runtime (schedule, codec QR, denoiser) for a workload.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()

import checkout  # noqa: E402  (sits next to this file)

checkout.pin_blas_threads()
checkout.import_craftfaces()

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(json.dumps({"setup_s": perf_counter() - t0}))
