"""One malloc policy for the process: keep freed heap memory for reuse.

A training step, a metrics pass and an evaluation call each allocate and
free the same large temporaries over and over.  Under glibc's defaults
the top of the heap goes back to the kernel after a pass, and arrays past
the (dynamic) mmap threshold are mapped and unmapped per call, so the
next pass faults the same memory in again, one 4 KiB page at a time (a
minor fault costs about 2 us on a 2-core x86-64 VM).  How often that
happens depends on the order of earlier allocations, since each free of
a mapped block raises the dynamic threshold.  Setting both thresholds
fixes the policy whatever ran before:

- M_MMAP_THRESHOLD at 32 MiB, glibc's largest dynamic value on 64-bit,
  so every temporary below it comes from the heap;
- M_TRIM_THRESHOLD at 1 GiB, above the program's largest working set,
  so freed heap stays with the process until exit.

Both or neither: any explicit `mallopt` switches glibc's dynamic
thresholds off, and either setting alone faults more than the defaults.
Where the C library has no `mallopt` (macOS, musl builds without it,
Windows) nothing is set.  The arithmetic is untouched, so results are
bit-identical either way.
"""

import ctypes
import os

# glibc's <malloc.h> parameter numbers
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 * 2 ** 20
TRIM_THRESHOLD = 2 ** 30


def process_libc():
    """The C library the process links, as a ctypes handle; None where
    ctypes cannot open the running program (Windows)."""
    return ctypes.CDLL(None) if os.name == "posix" else None


def keep_freed_heap(libc):
    """Set the mmap threshold, then the trim threshold, through libc's
    `mallopt`; True when both took.  A libc without `mallopt` is left
    alone; if the mmap threshold is refused, the trim threshold is not
    set either."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
