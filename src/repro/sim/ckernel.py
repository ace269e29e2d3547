"""Optional compiled water-filling kernel for the batched data plane.

The batched fair-share engine re-levels only the link components an
event touched, and a component is small (at e26 full scale one AL's
links: a few dozen loaded links and a few hundred class incidences), so
the round loop's cost is pure interpreter/dispatch overhead, not
arithmetic.  This module compiles a short C translation of the loop at
first use (``gcc``/``cc`` + ``ctypes``; no build step, no new
dependency) and caches the shared object under the user cache directory
keyed by a source hash.

**The kernel.**  ``alvc_relevel`` water-fills a list of link
components, each given as a rank-ordered segment of link indices, in
full link space: ``remaining``/``load`` are scratch arrays indexed by
link, class pools hold link indices as interned, and a class is frozen
for this call when its stamp equals the call's epoch (the live
multiplicities are never written).  A component's loop stops when no
loaded link is left.

**The parity contract.**  Per component the kernel performs exactly the
numpy mirror's IEEE-754 double operations in exactly its order:

* per-round ratios are one ``remaining / load`` divide per loaded link
  of the component;
* the bottleneck is the *first* link in rank order attaining the
  minimum ratio (a strict ``<`` scan — ``np.argmin``'s first-occurrence
  rule);
* every member class's flows subtract the share once per crossing
  link, sequentially per position (all subtrahends in a round are the
  same share, so cross-position interleaving is immaterial — the same
  argument that makes the numpy engine bit-identical to the dict one);
* one deferred clamp per round over the still-loaded links, with
  ``!(x > 0.0) -> +0.0`` normalizing ``-0.0`` exactly like
  ``np.maximum(x, 0.0)``.

The suite asserts bitwise kernel/numpy equality on randomized
instances whenever a compiler is present; environments without one
(or with ``ALVC_NO_CKERNEL=1``) silently use the numpy loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

__all__ = [
    "KERNEL_SOURCE",
    "RelevelState",
    "kernel_available",
    "waterfill_kernel",
]

#: Environment variable that disables compilation and the kernel path
#: entirely (the parity suite uses it to pin the numpy loop).
DISABLE_ENV = "ALVC_NO_CKERNEL"

KERNEL_SOURCE = r"""
/* Component-local, class-aggregated max-min fair water-filling.
 *
 * Bit-for-bit contract with the numpy mirror:
 *  - ratio = remaining/load over the component's loaded links;
 *  - bottleneck = first link in rank order with the minimum ratio
 *    (strict < scan);
 *  - member classes subtract the share once per crossing link,
 *    sequentially per position;
 *  - one deferred clamp per round over the still-loaded links;
 *    !(x > 0) -> +0.0 normalizes -0.0 like np.maximum(x, 0.0).
 *
 * Returns rounds executed over all components, or -1 when a loaded
 * bottleneck has no unfrozen member class (water-filling invariant
 * violation).
 */
#include <stdint.h>
#include <math.h>

struct alvc_relevel_state {
    const double *cap;          /* [L] link capacities */
    const double *count;        /* [L] live flows per link */
    double *remaining;          /* [L] scratch */
    double *load;               /* [L] scratch */
    int64_t *work;              /* [L] scratch: still-loaded links */
    const int64_t *m;           /* [C] live class multiplicities */
    int64_t *frozen;            /* [C] epoch that froze the class */
    double *class_rate;         /* [C] out */
    const int64_t *cstart;      /* [C] pool start into cflat */
    const int64_t *clen;        /* [C] pool length */
    const int64_t *cflat;       /* class pools, link indices */
    const int64_t *t_classes;   /* link -> classes, gapped segments */
    const int64_t *t_start;     /* [L] segment start */
    const int64_t *t_len;       /* [L] segment length */
    const int64_t *layout;      /* components' links, rank order */
    const int64_t *bounds;      /* per component: [start, end) */
};

int64_t alvc_relevel(
    const struct alvc_relevel_state *s,
    int64_t epoch,
    int64_t n_components)       /* leading entries of s->bounds / 2 */
{
    const int64_t *links = s->layout, *bounds = s->bounds;
    double *remaining = s->remaining, *load = s->load;
    int64_t *work = s->work;
    int64_t rounds = 0;
    for (int64_t g = 0; g < n_components; g++) {
        int64_t n = 0;
        for (int64_t i = bounds[2 * g]; i < bounds[2 * g + 1]; i++) {
            int64_t l = links[i];
            if (s->count[l] > 0.0) {
                remaining[l] = s->cap[l];
                load[l] = s->count[l];
                work[n++] = l;
            }
        }
        while (n > 0) {
            rounds++;
            double best = INFINITY;
            int64_t b = work[0];
            for (int64_t i = 0; i < n; i++) {
                int64_t l = work[i];
                double r = remaining[l] / load[l];
                if (r < best) { best = r; b = l; }
            }
            double share = best;
            int64_t members = 0;
            int64_t end = s->t_start[b] + s->t_len[b];
            for (int64_t k = s->t_start[b]; k < end; k++) {
                int64_t c = s->t_classes[k];
                int64_t mc = s->m[c];
                if (mc <= 0 || s->frozen[c] == epoch) continue;
                members++;
                s->class_rate[c] = share;
                s->frozen[c] = epoch;
                int64_t e = s->cstart[c] + s->clen[c];
                for (int64_t j = s->cstart[c]; j < e; j++) {
                    int64_t p = s->cflat[j];
                    for (int64_t q = 0; q < mc; q++) remaining[p] -= share;
                    load[p] -= (double)mc;
                }
            }
            if (members == 0) return -1;
            int64_t kept = 0;
            for (int64_t i = 0; i < n; i++) {
                int64_t l = work[i];
                if (load[l] > 0.0) {
                    if (!(remaining[l] > 0.0)) remaining[l] = 0.0;
                    work[kept++] = l;
                }
            }
            n = kept;
        }
    }
    return rounds;
}
"""


class RelevelState(ctypes.Structure):
    """The kernel's persistent array pointers (``struct
    alvc_relevel_state``).  The engine rebinds it whenever one of those
    arrays is reallocated, so a call marshals only the per-call
    arguments."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "cap",
            "count",
            "remaining",
            "load",
            "work",
            "m",
            "frozen",
            "class_rate",
            "cstart",
            "clen",
            "cflat",
            "t_classes",
            "t_start",
            "t_len",
            "layout",
            "bounds",
        )
    ]


#: Tri-state compile cache: unset / a ctypes function / None (failed).
_UNSET = object()
_kernel = _UNSET


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    try:
        path = os.path.join(base, "alvc")
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def _compile() -> "ctypes.CDLL | None":
    digest = hashlib.sha256(KERNEL_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    library = os.path.join(directory, f"waterfill-{digest}.so")
    if not os.path.exists(library):
        source = os.path.join(directory, f"waterfill-{digest}.c")
        scratch = library + f".tmp{os.getpid()}"
        try:
            with open(source, "w") as handle:
                handle.write(KERNEL_SOURCE)
            for compiler in ("cc", "gcc", "clang"):
                # -O2 without any fast-math flag: the contract is exact
                # IEEE doubles in source order.
                result = subprocess.run(
                    [compiler, "-O2", "-fPIC", "-shared", source,
                     "-o", scratch],
                    capture_output=True,
                    timeout=60,
                )
                if result.returncode == 0:
                    os.replace(scratch, library)
                    break
            else:
                return None
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if os.path.exists(scratch):
                try:
                    os.remove(scratch)
                except OSError:
                    pass
    try:
        return ctypes.CDLL(library)
    except OSError:
        return None


def waterfill_kernel():
    """The compiled round-loop entry point, or ``None``.

    Compiles on first call (cached across processes via the on-disk
    shared object, across calls via a module global).  Returns ``None``
    when no C compiler is available, compilation fails, or
    ``ALVC_NO_CKERNEL`` is set.
    """
    global _kernel
    if _kernel is not _UNSET:
        return _kernel
    if os.environ.get(DISABLE_ENV):
        _kernel = None
        return None
    library = _compile()
    if library is None:
        _kernel = None
        return None
    function = library.alvc_relevel
    function.restype = ctypes.c_int64
    function.argtypes = [
        ctypes.c_void_p,         # addressof(RelevelState)
        ctypes.c_int64,          # epoch
        ctypes.c_int64,          # n_components
    ]
    _kernel = function
    return function


def kernel_available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return waterfill_kernel() is not None
