"""Struct-of-arrays batched simulation engine (the host default whenever
the native kernel loads; see ``repro.sim.engine.build_network``).

See :mod:`repro.sim.array.network` for the engine and its parity
contract, and :mod:`repro.sim.array.native` for the on-demand native
kernel build.
"""

from repro.sim.array.native import (
    NativeKernelUnavailable,
    load_kernel,
    native_available,
)
from repro.sim.array.network import ArrayChannel, ArrayNetwork

__all__ = [
    "ArrayChannel",
    "ArrayNetwork",
    "NativeKernelUnavailable",
    "load_kernel",
    "native_available",
]
