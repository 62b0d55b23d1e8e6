"""Build & load the native cycle kernel (``kernel.c``) on demand.

The kernel is compiled once per source revision with the system C
compiler into a content-addressed shared object under a user cache
directory, then loaded via ctypes.  No third-party build machinery is
involved: ``cc -O3 -shared -fPIC`` is the whole toolchain, and the
sandbox/CI images both ship a C compiler.

Environment gate ``REPRO_ARRAYNET_NATIVE``:

* unset (default) -- try to build/load; on any failure log one warning
  and report the kernel as unavailable (``build_network`` then runs the
  bit-identical timing-wheel engine, see ``repro.sim.engine``);
* ``0`` / ``off`` / ``no`` / ``false`` -- never attempt the native path
  (the host runs the wheel engine; tests and benchmarks use this to
  reach the parity reference);
* ``require`` -- raise :class:`NativeKernelUnavailable` instead of
  falling back (CI perf gates use this to fail loudly).

The :class:`CState` ctypes structure mirrors ``struct State`` in
``kernel.c`` field for field (and :class:`CRoute` mirrors ``struct
Route``); ``repro_abi()`` returns ``version * 100000 + sizeof(State)``
and ``repro_route_size()`` ``sizeof(Route)``, both checked before the
first call so a layout drift between the two files fails fast instead
of corrupting memory.

Native route decisions draw through the run's numpy bit generator with
a C replica of numpy's bounded-integer step.  Right after loading, the
replica draws a fixed mixed-bound sequence (interleaved with
``rng.random``) and compares it with ``rng.integers`` on a twin
generator.  On a mismatch -- a numpy release that changed its algorithm
-- the loader logs one warning and simulations keep the array engine but
route in Python (``RunManifest.routing_backend == "python"``); under
``REPRO_ARRAYNET_NATIVE=require`` the mismatch raises
:class:`NativeKernelUnavailable` instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional, Tuple

from repro.obs.log import get_logger

__all__ = [
    "CRoute",
    "CState",
    "NativeKernelUnavailable",
    "SPARSE_FN",
    "load_kernel",
    "native_available",
    "native_routing_available",
    "COUNTERS_LEN",
    "CNT_ACT",
    "CNT_PD",
    "CNT_PC",
    "CNT_PT",
    "CNT_EJ",
    "CNT_FREE",
    "PK_HOP",
    "PK_PATH",
    "PK_CVC",
    "PK_VC0",
    "PK_DST",
    "PK_REV",
    "PK_ARR",
    "PK_ROFF",
    "PK_STRIDE",
]

_log = get_logger("sim.array.native")

_ABI_VERSION = 12  # keep in sync with REPRO_ARRAYNET_ABI_VERSION in kernel.c
_KERNEL_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
_COMPILERS = ("cc", "gcc", "clang")

# counters[] indices, shared with kernel.c
CNT_ACT = 0
CNT_PD = 1
CNT_PC = 2
CNT_PT = 3
CNT_EJ = 4
CNT_FREE = 5
CNT_ARENA = 6
COUNTERS_LEN = 8

_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)

# packed per-packet record columns (pkt stride, shared with kernel.c)
PK_HOP = 0
PK_PATH = 1
PK_CVC = 2
PK_VC0 = 3
PK_DST = 4
PK_REV = 5
PK_ARR = 6
PK_ROFF = 7
PK_STRIDE = 8

# field order MUST match struct State in kernel.c exactly; repro_abi()
# only guards the total size, the parity test suite guards the semantics
_POINTER_FIELDS: List[Tuple[str, object]] = [
    ("ch_latency", _I32P),
    ("ch_delay", _I32P),
    ("ch_dst_router", _I32P),
    ("ch_gslot", _I32P),
    ("ch_kind", _I32P),
    ("outrow", _I32P),
    ("out_buf", _I32P),
    ("src_buf", _I32P),
    ("src_meta", _I32P),
    ("in_buf", _I32P),
    ("in_meta", _I32P),
    ("act_slots", _I32P),
    ("act_len", _I32P),
    ("act_list", _I32P),
    ("act_pos", _I32P),
    ("rr", _I32P),
    ("in_bud", _I64P),
    ("rsnap", _I32P),
    ("osnap", _I32P),
    ("rf_q", _I32P),
    ("rf_pos", _I32P),
    ("rf_off", _I32P),
    ("dw_chan", _I32P),
    ("dw_pid", _I32P),
    ("dw_meta", _I32P),
    ("dw_n", _I32P),
    ("rev_n", _I32P),
    ("cw_chan", _I32P),
    ("cw_vc", _I32P),
    ("cw_n", _I32P),
    ("tw_chan", _I32P),
    ("tw_n", _I32P),
    ("ej_pid", _I32P),
    ("ej_cycle", _I32P),
    ("ej_lat", _I32P),
    ("ej_hops", _I32P),
    ("ej_vlb", _I32P),
    ("ej_spid", _I32P),
    ("pkt", _I32P),
    ("pmeta", _I32P),
    ("free_stack", _I32P),
    ("arena_chan", _I32P),
    ("arena_vc", _I32P),
    ("counters", _I64P),
]

SCALAR_FIELDS: Tuple[str, ...] = (
    "nR",
    "radix",
    "nV",
    "nSr",
    "nC",
    "inj_base",
    "ej_base",
    "nNodes",
    "ws",
    "dw_cap",
    "cw_cap",
    "tw_cap",
    "out_cap",
    "in_cap",
    "src_cap",
    "speedup",
    "psize",
    "cred_stride",
    "ej_cap",
    "outrow_stride",
    "arena_cap",
)

POINTER_FIELD_NAMES: Tuple[str, ...] = tuple(n for n, _ in _POINTER_FIELDS)


class CState(ctypes.Structure):
    """ctypes mirror of ``struct State`` in kernel.c."""

    _fields_ = (  # type: ignore[assignment]
        _POINTER_FIELDS
        + [("route", ctypes.c_void_p)]
        + [(name, ctypes.c_int64) for name in SCALAR_FIELDS]
    )


# int64 (*)(int64 src, int64 dst, int32 *out): the sparse-policy fallback
SPARSE_FN = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I32P)

# struct Route in kernel.c: table pointers, per-run state pointers, then
# the bit generator, the sparse callback and the scalars
ROUTE_TABLE_FIELDS: Tuple[str, ...] = (
    "pair_links",
    "link_near",
    "link_far",
    "link_channel",
    "local_len",
    "local_channels",
    "eligible",
    "eligible_len",
    "ladders",
    "rule_classes",
    "min_pair",
    "min_pool",
    "vlb_pair",
    "vlb_pool",
)
ROUTE_SCALARS: Tuple[str, ...] = (
    "a",
    "g",
    "p",
    "nS",
    "links",
    "mlh",
    "maxh",
    "nsh",
    "variant",
    "threshold",
    "min_cands",
    "vlb_cands",
    "vlb_cap",
    "cred_cap",
    "rule_ordered",
    "rule_quota",
)

# rcnt[] indices, shared with kernel.c
RC_MIN = 0
RC_VLB = 1
RC_REV = 2
RC_MINLEN = 3
RC_VLBLEN = 4


class CRoute(ctypes.Structure):
    """ctypes mirror of ``struct Route`` in kernel.c."""

    _fields_ = (  # type: ignore[assignment]
        [(name, _I32P) for name in ROUTE_TABLE_FIELDS]
        + [
            ("rcnt", _I64P),
            ("sparse_out", _I32P),
            ("bitgen", ctypes.c_void_p),
            ("sparse", SPARSE_FN),
        ]
        + [(name, ctypes.c_int64) for name in ROUTE_SCALARS]
        + [
            ("rule_seed", ctypes.c_uint64),
            ("min_pool_cap", ctypes.c_int64),
            ("vlb_pool_cap", ctypes.c_int64),
            ("err", ctypes.c_int64),
        ]
    )


class NativeKernelUnavailable(RuntimeError):
    """The native kernel was required but could not be built/loaded."""


def _cache_dir() -> str:
    base = os.environ.get("REPRO_ARRAYNET_CACHE")
    if not base:
        xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        base = os.path.join(xdg, "repro-arraynet")
    return base


def _find_compiler() -> Optional[str]:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


_CFLAGS = ("-O3", "-shared", "-fPIC", "-std=c99")


def _build(compiler: str, source: str, digest: str) -> str:
    """Compile kernel.c into the content-addressed cache, atomically."""
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"kernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp = tempfile.mkstemp(
        prefix=f"kernel-{digest}-", suffix=".so.tmp", dir=cache
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, source],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _load() -> ctypes.CDLL:
    if not os.path.exists(_KERNEL_SRC):
        raise NativeKernelUnavailable(f"kernel source missing: {_KERNEL_SRC}")
    compiler = _find_compiler()
    if compiler is None:
        raise NativeKernelUnavailable(
            "no C compiler found (tried %s)" % ", ".join(_COMPILERS)
        )
    with open(_KERNEL_SRC, "rb") as fh:
        source_bytes = fh.read()
    # flags are part of the .so identity: changing them must miss the
    # cache, not silently reuse an object built under the old flags
    digest = hashlib.sha256(
        source_bytes + "\0".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    try:
        so_path = _build(compiler, _KERNEL_SRC, digest)
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = ""
        if isinstance(exc, subprocess.CalledProcessError):
            detail = f": {exc.stderr}"
        raise NativeKernelUnavailable(
            f"failed to build/load native kernel with {compiler}{detail}"
        ) from exc
    lib.repro_abi.restype = ctypes.c_int64
    lib.repro_abi.argtypes = []
    expected = _ABI_VERSION * 100000 + ctypes.sizeof(CState)
    got = int(lib.repro_abi())
    if got != expected:
        raise NativeKernelUnavailable(
            f"native kernel ABI mismatch: kernel reports {got}, "
            f"ctypes mirror expects {expected} -- clear the cache at "
            f"{_cache_dir()} or rebuild"
        )
    lib.repro_route_size.restype = ctypes.c_int64
    lib.repro_route_size.argtypes = []
    if int(lib.repro_route_size()) != ctypes.sizeof(CRoute):
        raise NativeKernelUnavailable(
            "native kernel route-state layout mismatch -- clear the cache "
            f"at {_cache_dir()} or rebuild"
        )
    lib.repro_step_cycle.restype = ctypes.c_int64
    lib.repro_step_cycle.argtypes = [
        ctypes.POINTER(CState),
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    # n runs one cycle each; unused, kept for perfbench's span wrapper
    lib.repro_step_batch.restype = ctypes.c_int64
    lib.repro_step_batch.argtypes = [
        ctypes.POINTER(ctypes.POINTER(CState)),
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_int64),
    ]
    # native route decisions: one injection cycle per call
    lib.repro_route_batch.restype = ctypes.c_int64
    lib.repro_route_batch.argtypes = [
        ctypes.POINTER(CState),
        ctypes.c_int64,
        _I64P,
        _I64P,
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    lib.repro_draw.restype = ctypes.c_int64
    lib.repro_draw.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    return lib


# bounds of the replica self-check: every branch of numpy's bounded
# integer step (no draw, 32-bit Lemire incl. rejection-prone ranges, the
# full 32-bit range, 64-bit Lemire)
_SELFCHECK_BOUNDS = (1, 2, 7, 2**31 + 1, 2**32, 3, 1, 1000, 2**32 + 1, 5)
_SELFCHECK_ROUNDS = 32


def _rng_replica_selfcheck(lib: ctypes.CDLL) -> bool:
    """Does the kernel's ``repro_draw`` reproduce ``rng.integers``?

    Draws the fixed bound sequence through the kernel on one generator
    and through numpy on a twin, interleaving ``rng.random`` calls on
    both so the bit generators' buffered state is exercised too.
    """
    import numpy as np

    ours = np.random.default_rng(20190917)
    ref = np.random.default_rng(20190917)
    bitgen = ours.bit_generator.ctypes.bit_generator
    for i in range(_SELFCHECK_ROUNDS):
        for k in _SELFCHECK_BOUNDS:
            if int(lib.repro_draw(bitgen, k)) != int(ref.integers(k)):
                return False
        if i % 3 == 0 and ours.random() != ref.random():
            return False
    return bool(ours.random() == ref.random())


# memo: None = not tried yet, False = tried and failed, CDLL = loaded
_KERNEL: object = None
# whether the loaded kernel's rng replica passed its self-check
_NATIVE_ROUTING = False


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when unavailable (per the env gate)."""
    global _KERNEL, _NATIVE_ROUTING
    gate = os.environ.get("REPRO_ARRAYNET_NATIVE", "").strip().lower()
    if gate in ("0", "off", "no", "false"):
        return None
    if _KERNEL is not None:
        if _KERNEL is False:
            if gate == "require":
                raise NativeKernelUnavailable(
                    "REPRO_ARRAYNET_NATIVE=require but the native kernel "
                    "failed to build/load earlier in this process"
                )
            return None
        return _KERNEL  # type: ignore[return-value]
    try:
        _KERNEL = _load()
    except NativeKernelUnavailable as exc:
        _KERNEL = False
        if gate == "require":
            raise
        _log.warning(
            "native array kernel unavailable (%s); simulations run on "
            "the timing-wheel engine (bit-identical, slower)",
            exc,
        )
        return None
    _NATIVE_ROUTING = _rng_replica_selfcheck(_KERNEL)  # type: ignore[arg-type]
    if not _NATIVE_ROUTING:
        if gate == "require":
            _KERNEL = False
            raise NativeKernelUnavailable(
                "REPRO_ARRAYNET_NATIVE=require but the kernel's rng "
                "replica disagrees with numpy's rng.integers; native "
                "route decisions would change results"
            )
        _log.warning(
            "the native kernel's rng replica disagrees with numpy's "
            "rng.integers; route decisions run in Python (bit-identical, "
            "slower) and RunManifest.routing_backend records 'python'"
        )
    return _KERNEL  # type: ignore[return-value]


def native_routing_available() -> bool:
    """True when the loaded kernel may make route decisions natively."""
    return native_available() and _NATIVE_ROUTING


def native_available() -> bool:
    """True when the native kernel can be (or has been) loaded."""
    try:
        return load_kernel() is not None
    except NativeKernelUnavailable:
        return False
