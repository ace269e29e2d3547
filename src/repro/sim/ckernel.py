"""Optional compiled kernels for the batched data plane and the path
engine's searches.

The batched fair-share engine re-levels only the link components an
event touched, and a component is small (at e26 full scale one AL's
links: a few dozen loaded links and a few hundred class incidences), so
the round loop's cost is pure interpreter/dispatch overhead, not
arithmetic.  The same holds for the per-event step around it: an event
moves the rates of a few hundred slots of a table of thousands, and for
the breadth-first searches of :class:`~repro.sdn.path_engine.
PathEngine`, which visit a few thousand CSR entries per query.  This
module compiles a short C translation of all of them, and of the
admission and removal bookkeeping around the step, at first use
(``gcc``/``cc`` + ``ctypes``; no build step, no new dependency) and
caches the shared object under the user cache directory keyed by a hash
of the source and the compiler flags.

**The entry points.**  One source, one shared object:

* ``alvc_relevel`` water-fills the components of a list of dirty
  links.  It resolves each link to its component through the engine's
  quick-find labels and the component bounds (the rank-ordered layout
  segment of each class-carrying root), listing every root once; a
  root that carries no class is skipped.  Water-filling runs in full
  link space: ``remaining``/``load`` are scratch arrays indexed by
  link, class pools hold link indices as interned, and a class is
  frozen for this call when its stamp equals the call's epoch (the
  live multiplicities are never written).  A component's loop stops
  when no loaded link is left.  A class frozen at a share that differs
  from its old rate is appended, once, to the step state's
  changed-class list.
* ``alvc_settle`` is the event step after a recompute.  Every live slot
  whose new rate (its class's rate) differs from its current one is
  charged its progress and link busy time, adopts the rate and gets a
  fresh eta.  The step returns the minimum eta over the table,
  the first slot reaching it and how many slots tie at it.
* ``alvc_materialize`` charges one slot's progress and busy time (flow
  completions and reroutes).
* ``alvc_admit`` writes one arrival batch into the slots and pool room
  the Python side reserved (id checks, compaction and growth stay in
  :class:`~repro.sim.vector.FlowTable`).  Per flow it copies its
  interned class pool from ``cflat`` into the table's ``int32`` pool and
  sets ``link_start`` and ``link_len``; it seeds
  ``remaining`` with the flow's size, ``rate`` with 0, ``eta`` with
  ``inf`` and ``last_update`` with ``now``, and sets ``alive`` and
  ``class_of``; it adds 1.0 to ``count`` for each link and 1 to the
  class's ``m``.  It first checks every link of the batch against
  ``link_alive`` and writes nothing when one was removed.
* ``alvc_release`` undoes one flow's ``count`` and ``m`` updates,
  clears ``alive``, ``eta``, ``rate`` and ``class_of``, sets the slot's
  bit in the touched bitmap and returns the class id, which the engine
  marks dirty.
* ``alvc_run`` is the simulator's event loop between external events
  (see below): plan arrival batches and completions, each followed by
  the relevel and the incremental step, without returning to Python.
* ``alvc_bidir`` is the path engine's bidirectional BFS between two
  node ids over a node mask and an optional cut mask over CSR
  positions (post-fault cut links, or a Yen spur query's ignored
  edges), and ``alvc_level_paths`` its level-order fan-out from one
  source, which writes each wanted target's walked-back path.  Both
  keep the discovery order of the Python loops they replace (and that
  stay as their mirrors), so every path is identical, tie-breaks
  included.  Their state (:class:`CsrState`) points at the engine's
  CSR arrays and scratch, and visited marks are epoch stamps, so a
  search allocates and clears nothing.

**The event loop.**  :class:`~repro.sim.event_simulator.
EventDrivenFlowSimulator` enters ``alvc_run`` whenever it has an
admission plan (runs that are not load-aware), the kernel runs, and
the engine owes no full pass.  The arrivals come pre-interned
(:class:`RunState`): per arrival its time, its route class (``-1`` for
co-located endpoints, ``-2`` for one the plan has no route for), its
size and the rank of its flow id.  Each turn picks the next event
with the per-event loop's rules: an event beyond ``until`` first, then
no finite event (a stall), then a fault, then the arrival batch (every
arrival at that time), then the earliest completion.  A batch is
written into consecutive slots exactly as ``alvc_admit`` writes it
(co-located arrivals complete at once with 0 hops and, when nothing
else is admitted, trigger no step); a completion takes the slot the
last step named, or on an eta tie the tied slot with the smallest
flow-id rank, charges it like ``alvc_materialize`` and releases it
like ``alvc_release``.  Both mark the components they touched, re-level
them and settle incrementally, and the loop appends each completion
``(slot, or -1 - arrival for a co-located flow; time)``, each step's
rounds and the peak live-slot count to the run state.

It hands back, with the event not begun, for:

* the next fault (``fault``), the ``until`` edge (``until``) and a
  stall (``stall``);
* a batch it cannot admit: too few slots or pool entries (``room``),
  a compaction the table owes (``compaction``), or an arrival the plan
  does not cover, over a removed link or inside a failure window
  (``uncovered``);
* an output buffer too short for the event (``buffer``);
* the end of the run (``end``).

Python then records the slots' ids and payloads, builds the
completion records and telemetry in bulk, and runs the handed-back
event with the per-event code.  That loop stays as the mirror: the
kernel loop performs exactly its IEEE operations in its order (it
calls the same admission, charge, release, relevel and step code), so
every report is bit-identical on both loops and on the numpy mirrors.
Its own arithmetic is integer (counts, slots, ranks) and its event
choice compares the same doubles the Python loop compares.

**Which slots the step visits.**  Not the whole table: the slots added
since the last step (``[settled, size)``: slots are append-only), the
slots removed since then (the engine sets their bits in the touched
bitmap as it removes them), and the live slots of every class on the
changed list (each class's slots are threaded through a per-slot
``next_in_class`` list; new slots are linked in at the step, dead ones
unlinked while a list is walked).  That set is
complete.  After a step every live slot's rate equals its class's rate;
a class rate moves only in ``alvc_relevel``, which lists the class; and
only an add or a removal changes which slots are live.  A slot outside
the set would compare equal and be skipped by the full scan too.  A
*full pass* visits every slot and rebuilds the class lists and block
summaries.  It is the same loop, and it runs on the first step, after a
compaction and after the table or class arrays grow.

**The next completion.**  The table is cut into 64-slot blocks, one
word of the touched-slot bitmap each, and every block stores its
minimum eta, the first slot at it and its tie count.  A touched block's
summary follows its etas as they move and is rescanned when an eta
leaves the minimum (a removal, or a slot that held it moving away); a
block that held no settled slot starts from an empty summary, since the
stored one may predate a compaction that cut the table below it.
The answer comes from one scan over the block summaries with the full
scan's rule: the strict-``<`` first block at the minimum supplies the
first slot, and the ``==`` tie counts of the blocks at it add up to the
full scan's count.

**The parity contract.**  Each entry point performs exactly its numpy
mirror's IEEE-754 double operations in exactly its order.  For
``alvc_relevel``, per component:

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

For ``alvc_settle``/``alvc_materialize`` (the mirror of ``alvc_settle``
is a full-table scan, the step's definition):

* progress is ``moved = rate * (now - last_update)`` clipped like
  ``np.minimum(moved, remaining)``, charged only for an elapsed time
  and a rate that are both positive and a finite rate;
* busy adds go per slot in ascending slot order (the kernel walks the
  touched bitmap upward), then in pool order within a slot — the exact
  sequence ``np.add.at`` applies;
* eta is ``now + remaining / rate``; ``now`` for an infinite rate and
  ``inf`` for a zero rate.

``alvc_admit``/``alvc_release`` copy values and add or subtract 1.0 on
link counts, which are integer-valued doubles far below 2**53, so every
count is exact in any order and equals the mirror's ``np.add.at`` /
``np.subtract.at`` result.  The searches do no arithmetic beyond
counting; their contract is the visit order (see ``alvc_bidir``).

The compiler runs with ``-O2 -ffp-contract=off`` and no fast-math flag,
so no multiply-add is fused either.  The suite asserts bitwise
kernel/numpy equality on randomized instances whenever a compiler is
present, checks the compiled step against a brute-force minimum over
the etas, and checks the compiled searches against their Python
mirrors and a brute-force shortest-path length; environments without
one (or with ``ALVC_NO_CKERNEL=1``) use the numpy and Python mirrors,
and :func:`kernel_status` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, NamedTuple

__all__ = [
    "CsrState",
    "KERNEL_SOURCE",
    "Kernels",
    "RUN_REASONS",
    "RelevelState",
    "RunState",
    "StepState",
    "kernel_available",
    "kernel_status",
    "kernels",
]

#: Environment variable that disables compilation and the kernel path
#: entirely (the parity suite uses it to pin the numpy loop).
DISABLE_ENV = "ALVC_NO_CKERNEL"

KERNEL_SOURCE = r"""
/* Component-local, class-aggregated max-min fair water-filling, the
 * incremental event step over the flow table, and flow admission and
 * release. */
#include <stddef.h>
#include <stdint.h>
#include <math.h>

/* The event step's arrays (S slots, C classes, W 64-slot blocks).
 *
 * Bit-for-bit contract with the numpy mirror (a full-table scan):
 *  - moved = rate * (now - last_update), then np.minimum(moved,
 *    remaining); charged only when elapsed > 0 and 0 < rate < inf;
 *  - busy adds per slot in ascending slot order, pool order within a
 *    slot (the np.add.at sequence);
 *  - eta = now + remaining / rate; now for an infinite rate, inf for a
 *    zero (or NaN) rate;
 *  - the answer is the minimum eta over [0, size), the first slot at
 *    it and how many slots tie at it.
 */
struct alvc_step_state {
    double *remaining;          /* [S] bytes left */
    double *rate;               /* [S] current rate */
    double *eta;                /* [S] projected completion */
    double *last_update;        /* [S] last materialization time */
    uint8_t *alive;             /* [S] numpy bool */
    int64_t *link_start;        /* [S] pool offset */
    int64_t *link_len;          /* [S] pool length */
    int32_t *pool;              /* link incidences */
    double *busy;               /* [L] busy byte-seconds */
    int64_t *class_of;          /* [S] class id, -1 = none */
    const double *class_rate;   /* [C] class rates */
    int64_t *next_in_class;     /* [S] next slot of the class list, -1 ends */
    int64_t *class_head;        /* [C] first slot of the class list, -1 */
    int64_t *changed;           /* [C] classes whose rate moved */
    uint8_t *listed;            /* [C] class is in changed */
    uint64_t *touched;          /* [W] slots to visit, one bit each */
    double *block_eta;          /* [W] minimum eta of the block */
    int64_t *block_slot;        /* [W] first slot at it, -1 if inf */
    int64_t *block_ties;        /* [W] slots at it, 0 if inf */
    int64_t *tie_rank;          /* [S] rank of the slot's flow id */
    double *count;              /* [L] live flows per link */
    int64_t *m;                 /* [C] live class multiplicities */
    const int64_t *cstart;      /* [C] pool start into cflat */
    const int64_t *clen;        /* [C] pool length */
    const int64_t *cflat;       /* class pools, link indices */
    const uint8_t *link_alive;  /* [L] numpy bool: link not removed */
    int64_t n_changed;          /* entries of changed */
    int64_t settled;            /* table size at the last settle */
    int64_t n_classes;          /* interned classes (full pass) */
    double next_eta;            /* out: minimum eta over [0, size) */
    int64_t next_slot;          /* out: first slot at it, -1 if inf */
    int64_t ties;               /* out: slots at it, 0 if inf */
};

/* Water-filling.  Bit-for-bit contract with the numpy mirror:
 *  - ratio = remaining/load over the component's loaded links;
 *  - bottleneck = first link in rank order with the minimum ratio
 *    (strict < scan);
 *  - member classes subtract the share once per crossing link,
 *    sequentially per position;
 *  - one deferred clamp per round over the still-loaded links;
 *    !(x > 0) -> +0.0 normalizes -0.0 like np.maximum(x, 0.0).
 *
 * A class frozen at a share that differs from its old rate is appended
 * once to step->changed, which the next alvc_settle consumes.
 *
 * Components are resolved here: a dirty link's component is the
 * layout segment of its quick-find root (label), and roots that carry
 * no class (seg_start < 0) are skipped.  Marked roots wait in dirty,
 * listed once (listed_at holds the epoch of the relevel they wait for).
 */
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
    const int64_t *label;       /* [L] root link of the link's component */
    const int64_t *seg_start;   /* [L] root -> layout start, -1: no class */
    const int64_t *seg_end;     /* [L] root -> layout end */
    int64_t *listed_at;         /* [L] root: epoch it is dirty for */
    int64_t *dirty;             /* [L] dirty roots */
    struct alvc_step_state *step;  /* out: the changed-class list */
    int64_t n_dirty;            /* entries of dirty */
    int64_t epoch;              /* the last relevel's stamp */
};

/* One component, the layout segment [lo, hi).  Returns its rounds, or
 * -1 when a loaded bottleneck has no unfrozen member class (a
 * water-filling invariant violation). */
static int64_t waterfill(struct alvc_relevel_state *s, int64_t lo,
                         int64_t hi, int64_t epoch)
{
    const int64_t *links = s->layout;
    double *remaining = s->remaining, *load = s->load;
    int64_t *work = s->work;
    struct alvc_step_state *step = s->step;
    int64_t rounds = 0, n = 0;
    for (int64_t i = lo; i < hi; i++) {
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
            if (s->class_rate[c] != share && !step->listed[c]) {
                step->listed[c] = 1;
                step->changed[step->n_changed++] = c;
            }
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
    return rounds;
}

/* Marks the component of link dirty (once per relevel). */
static void mark(struct alvc_relevel_state *s, int64_t link)
{
    int64_t root = s->label[link];
    if (s->seg_start[root] < 0 || s->listed_at[root] == s->epoch + 1)
        return;
    s->listed_at[root] = s->epoch + 1;
    s->dirty[s->n_dirty++] = root;
}

/* Water-fills every dirty component under one fresh epoch.  Returns
 * the rounds summed over them, or -1 on an invariant violation. */
static int64_t relevel(struct alvc_relevel_state *s)
{
    int64_t epoch = ++s->epoch, rounds = 0, n = s->n_dirty;
    s->n_dirty = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t root = s->dirty[k];
        int64_t r = waterfill(s, s->seg_start[root], s->seg_end[root],
                              epoch);
        if (r < 0) return -1;
        rounds += r;
    }
    return rounds;
}

/* Marks the components of links[0..n) dirty and re-levels every dirty
 * component (0 rounds when none carries a class). */
int64_t alvc_relevel(
    struct alvc_relevel_state *s,
    const int64_t *links,
    int64_t n)
{
    for (int64_t i = 0; i < n; i++) mark(s, links[i]);
    return s->n_dirty ? relevel(s) : 0;
}

static void charge(const struct alvc_step_state *s, int64_t slot, double now)
{
    double elapsed = now - s->last_update[slot];
    double r = s->rate[slot];
    if (elapsed > 0.0 && r > 0.0 && r < INFINITY) {
        double moved = r * elapsed;
        double left = s->remaining[slot];
        if (!(moved < left || isnan(moved))) moved = left;
        s->remaining[slot] = left - moved;
        if (moved > 0.0) {
            int64_t end = s->link_start[slot] + s->link_len[slot];
            for (int64_t k = s->link_start[slot]; k < end; k++)
                s->busy[s->pool[k]] += moved;
        }
    }
    s->last_update[slot] = now;
}

void alvc_materialize(const struct alvc_step_state *s, int64_t slot,
                      double now)
{
    charge(s, slot, now);
}

static inline void touch(struct alvc_step_state *s, int64_t slot)
{
    s->touched[slot >> 6] |= (uint64_t)1 << (slot & 63);
}

/* Writes one flow of class c into slot, its pool copied from offset
 * at: it starts with size bytes left, rate 0, eta inf and last_update
 * now; each of its links gains 1.0 in count and the class 1 in m.
 * Returns the pool entries written. */
static int64_t admit_one(struct alvc_step_state *s, int64_t c, int64_t slot,
                         int64_t at, double size, double now)
{
    const int64_t *links = s->cflat + s->cstart[c];
    int64_t len = s->clen[c];
    for (int64_t j = 0; j < len; j++) {
        int64_t l = links[j];
        s->pool[at + j] = (int32_t)l;
        s->count[l] += 1.0;
    }
    s->link_start[slot] = at;
    s->link_len[slot] = len;
    s->remaining[slot] = size;
    s->rate[slot] = 0.0;
    s->eta[slot] = INFINITY;
    s->last_update[slot] = now;
    s->alive[slot] = 1;
    s->class_of[slot] = c;
    s->m[c]++;
    return len;
}

/* Whether every link of class c is alive. */
static int class_alive(const struct alvc_step_state *s, int64_t c)
{
    int64_t e = s->cstart[c] + s->clen[c];
    for (int64_t j = s->cstart[c]; j < e; j++)
        if (!s->link_alive[s->cflat[j]]) return 0;
    return 1;
}

/* Admission of n flows into the consecutive slots first, first + 1, ...
 * (the engine has grown the table for them): flow i takes class
 * cids[i]'s pool, copied to the table pool from offset pool_len, and
 * starts with sizes[i] bytes left (see admit_one).  Returns the pool
 * entries written, or -1 - i when flow i's class crosses a removed
 * link; nothing is written then. */
int64_t alvc_admit(
    struct alvc_step_state *s,
    const int64_t *cids,
    const double *sizes,
    int64_t n,
    int64_t first,
    int64_t pool_len,
    double now)
{
    for (int64_t i = 0; i < n; i++)
        if (!class_alive(s, cids[i])) return -1 - i;
    int64_t at = pool_len;
    for (int64_t i = 0; i < n; i++)
        at += admit_one(s, cids[i], first + i, at, sizes[i], now);
    return at - pool_len;
}

/* Release of a live slot: its links lose 1.0 in count and its class 1
 * in m; it is marked dead with rate 0 and eta inf, loses its class and
 * is set in touched so the next step visits it.  Returns the class id
 * it held (-1 for none). */
int64_t alvc_release(struct alvc_step_state *s, int64_t slot)
{
    int64_t end = s->link_start[slot] + s->link_len[slot];
    for (int64_t k = s->link_start[slot]; k < end; k++)
        s->count[s->pool[k]] -= 1.0;
    s->alive[slot] = 0;
    s->eta[slot] = INFINITY;
    s->rate[slot] = 0.0;
    touch(s, slot);
    int64_t c = s->class_of[slot];
    if (c >= 0) {
        s->class_of[slot] = -1;
        s->m[c]--;
    }
    return c;
}

/* A block's (minimum eta, first slot at it, slots at it) over its slots
 * below size: the full scan's strict-< first-slot rule and == tie
 * count, restricted to 64 slots. */
static void summarize(struct alvc_step_state *s, int64_t w, int64_t size)
{
    int64_t lo = w << 6, hi = lo + 64 < size ? lo + 64 : size;
    double best = INFINITY;
    int64_t first = -1, ties = 0;
    for (int64_t i = lo; i < hi; i++) {
        double e = s->eta[i];
        if (e <= best) {
            if (e < best) { best = e; first = i; ties = 1; }
            else ties++;
        }
    }
    s->block_eta[w] = best;
    s->block_slot[w] = first;
    s->block_ties[w] = first < 0 ? 0 : ties;
}

/* The event step.  New rates come from class_rate[class_of[slot]].
 *
 * Visited slots: a full pass visits [0, size); otherwise the slots
 * added since the last settle ([settled, size)), the slots removed
 * since then (the engine sets their bits in touched at removal), and
 * the live slots of every class on the changed list.
 * That set is complete: after a settle every live slot's rate equals
 * its class's rate, class rates move only in alvc_relevel (which lists
 * the class), and only an add or a removal changes which slots are
 * live.  Class lists are threaded through next_in_class; new slots are
 * linked here and dead ones unlinked while a list is walked.
 *
 * Visits run over the touched bitmap in ascending slot order, so busy
 * adds keep the full scan's order.  A touched block's summary is
 * updated slot by slot as etas move, and rescanned when an eta leaves
 * the block's minimum (a removal, or a move away from it); a block
 * with no settled slot starts from an empty summary.  The answer
 * is the first block at the minimum of the block minima, with the tie
 * count summed over the blocks at it: the full scan's first slot and
 * count.  Returns that slot (-1 when the minimum is inf). */
static int64_t settle(
    struct alvc_step_state *s,
    int64_t size,
    double now,
    int64_t full)
{
    if (full) {
        for (int64_t c = 0; c < s->n_classes; c++) {
            s->class_head[c] = -1;
            s->listed[c] = 0;
        }
        s->n_changed = 0;
        s->settled = 0;
    }
    int64_t settled = s->settled;
    for (int64_t i = settled; i < size; i++) {
        touch(s, i);
        int64_t c = s->class_of[i];
        if (c >= 0 && s->alive[i]) {
            s->next_in_class[i] = s->class_head[c];
            s->class_head[c] = i;
        }
    }
    for (int64_t k = 0; k < s->n_changed; k++) {
        int64_t c = s->changed[k];
        s->listed[c] = 0;
        int64_t *link = &s->class_head[c];
        while (*link >= 0) {
            int64_t i = *link;
            if (s->class_of[i] != c) {
                *link = s->next_in_class[i];
            } else {
                touch(s, i);
                link = &s->next_in_class[i];
            }
        }
    }
    s->n_changed = 0;
    s->settled = size;

    int64_t n_blocks = (size + 63) >> 6;
    double best = INFINITY;
    int64_t first = -1, ties = 0;
    for (int64_t w = 0; w < n_blocks; w++) {
        uint64_t bits = s->touched[w];
        if (bits) {
            s->touched[w] = 0;
            /* A block that held no settled slot starts empty: its
             * stored summary may predate a compaction that cut the
             * table below it. */
            int fresh = (w << 6) >= settled;
            double m = fresh ? INFINITY : s->block_eta[w];
            int64_t f = fresh ? -1 : s->block_slot[w];
            int64_t t = fresh ? 0 : s->block_ties[w];
            int rescan = (int)full;
            do {
                int64_t i = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (!s->alive[i]) {
                    /* Removed: its eta went to inf behind the summary
                     * (a dead new slot was never part of it). */
                    if (i < settled) rescan = 1;
                    continue;
                }
                int64_t c = s->class_of[i];
                double r = c >= 0 ? s->class_rate[c] : 0.0;
                if (r == s->rate[i]) continue;
                charge(s, i, now);
                s->rate[i] = r;
                double old = s->eta[i], e;
                if (isinf(r)) e = now;
                else if (r > 0.0) e = now + s->remaining[i] / r;
                else e = INFINITY;
                s->eta[i] = e;
                if (rescan) continue;
                if (f >= 0 && !(old > m)) rescan = 1;
                else if (e < m) { m = e; f = i; t = 1; }
                else if (e == m && f >= 0) {
                    t++;
                    if (i < f) { m = e; f = i; }
                }
            } while (bits);
            if (rescan) {
                summarize(s, w, size);
            } else {
                s->block_eta[w] = m;
                s->block_slot[w] = f;
                s->block_ties[w] = t;
            }
        }
        double e = s->block_eta[w];
        if (e <= best) {
            if (e < best) {
                best = e;
                first = s->block_slot[w];
                ties = s->block_ties[w];
            } else {
                ties += s->block_ties[w];
            }
        }
    }
    s->next_eta = best;
    s->next_slot = first;
    s->ties = first < 0 ? 0 : ties;
    return first;
}
int64_t alvc_settle(
    struct alvc_step_state *s,
    int64_t size,
    double now,
    int64_t full)
{
    return settle(s, size, now, full);
}

/* The simulator's event loop between external events.  Arrivals are
 * the plan's, ascending in time: arrival_class holds each one's
 * interned class, -1 for co-located endpoints (they complete at once
 * with 0 hops) and -2 for an arrival the plan has no route for.
 *
 * Each turn picks the next event with the Python loop's rules: the
 * window edge (an event beyond until), a stall (no finite event time),
 * a fault, then an arrival batch (every arrival at that time), then
 * the next completion.  The loop hands back, with the event not begun,
 * at the edge, a stall, a fault, a batch it cannot admit (a failure
 * window, a flow not covered or over a removed link, a pending
 * compaction, too few slots or pool entries) or output buffers too
 * short for the event, and at the end of the run.  A batch writes its
 * flows into consecutive slots (admit_one), a completion breaks eta
 * ties on the smallest tie_rank, charges the slot and releases it, and
 * both mark the components they touched, re-level them and settle
 * incrementally, like the engine's settle.  Completions are written to
 * done/done_time (a slot, or -1 - i for co-located arrival i) and each
 * relevel's rounds to rounds.  Returns the hand-back reason (RUN_*), or
 * -1 on a water-filling invariant violation. */
struct alvc_run_state {
    const double *arrival_time;   /* [A] ascending */
    const int64_t *arrival_class; /* [A] class; -1 co-located, -2 uncovered */
    const double *arrival_size;   /* [A] bytes */
    const int64_t *arrival_rank;  /* [A] rank of the flow id */
    int64_t *done;                /* out: completed slot, or -1 - arrival */
    double *done_time;            /* out: its completion time */
    int64_t *rounds;              /* out: rounds of each step's relevel */
    int64_t n_arrivals;
    int64_t arrival;              /* in/out: next arrival */
    int64_t size;                 /* in/out: table size */
    int64_t pool_len;             /* in/out: pool entries in use */
    int64_t active;               /* in/out: live slots */
    int64_t slot_room;            /* slots allocated */
    int64_t pool_room;            /* pool entries allocated */
    int64_t compact_slack;        /* the table's compaction slack */
    int64_t compact_pending;      /* in/out: the next add compacts */
    int64_t failures_left;        /* a fault is still queued */
    double next_failure;          /* its time */
    double until;                 /* window edge, inf for none */
    int64_t window;               /* a node is down or a link is cut */
    double now;                   /* in/out: the last event's time */
    double next_eta;              /* in/out: the next completion */
    int64_t next_slot;            /* in/out: its first slot */
    int64_t ties;                 /* in/out: slots tied at it */
    int64_t done_room;            /* entries of done and done_time */
    int64_t rounds_room;          /* entries of rounds */
    int64_t n_done;               /* out */
    int64_t n_rounds;             /* out */
    int64_t events;               /* out: events processed */
    int64_t peak;                 /* in/out: peak live slots */
};

enum {
    RUN_END, RUN_FAULT, RUN_UNTIL, RUN_ROOM, RUN_COMPACTION,
    RUN_UNCOVERED, RUN_BUFFER, RUN_STALL
};

/* The step after an event: re-level the dirty components, record the
 * rounds and settle. */
static int64_t run_step(struct alvc_relevel_state *rs,
                        struct alvc_run_state *r, double now)
{
    int64_t rounds = rs->n_dirty ? relevel(rs) : 0;
    if (rounds < 0) return -1;
    r->rounds[r->n_rounds++] = rounds;
    if (r->size == 0) {
        r->next_eta = INFINITY;
        r->next_slot = -1;
        r->ties = 0;
        return 0;
    }
    struct alvc_step_state *s = rs->step;
    settle(s, r->size, now, 0);
    r->next_eta = s->next_eta;
    r->next_slot = s->next_slot;
    r->ties = s->ties;
    return 0;
}

int64_t alvc_run(struct alvc_relevel_state *rs, struct alvc_run_state *r)
{
    struct alvc_step_state *s = rs->step;
    r->n_done = r->n_rounds = r->events = 0;
    for (;;) {
        int64_t a = r->arrival, more = a < r->n_arrivals;
        if (!more && !r->active && !r->failures_left) return RUN_END;
        double next_arrival = more ? r->arrival_time[a] : INFINITY;
        double next_completion = r->next_eta;
        double next_failure = r->failures_left ? r->next_failure : INFINITY;
        double t = next_arrival < next_completion ? next_arrival
                                                  : next_completion;
        if (next_failure < t) t = next_failure;
        if (t > r->until) return RUN_UNTIL;
        if (isinf(t)) return RUN_STALL;
        if (next_failure <= next_arrival && next_failure <= next_completion)
            return RUN_FAULT;
        if (next_arrival <= next_completion && more) {
            if (r->window) return RUN_UNCOVERED;
            int64_t end = a, flows = 0, entries = 0;
            for (; end < r->n_arrivals && r->arrival_time[end] <= t; end++) {
                int64_t c = r->arrival_class[end];
                if (c == -1) continue;
                if (c < 0 || !class_alive(s, c)) return RUN_UNCOVERED;
                flows++;
                entries += s->clen[c];
            }
            if (end - a - flows > r->done_room - r->n_done) return RUN_BUFFER;
            if (flows) {
                if (r->compact_pending) return RUN_COMPACTION;
                if (r->size + flows > r->slot_room
                    || r->pool_len + entries > r->pool_room)
                    return RUN_ROOM;
                if (r->n_rounds == r->rounds_room) return RUN_BUFFER;
            }
            r->now = t;
            r->events += end - a;
            int64_t slot = r->size, at = r->pool_len;
            for (int64_t i = a; i < end; i++) {
                int64_t c = r->arrival_class[i];
                if (c < 0) {
                    r->done[r->n_done] = -1 - i;
                    r->done_time[r->n_done++] = t;
                    continue;
                }
                at += admit_one(s, c, slot, at, r->arrival_size[i], t);
                s->tie_rank[slot++] = r->arrival_rank[i];
                if (s->clen[c]) mark(rs, s->cflat[s->cstart[c]]);
            }
            r->arrival = end;
            if (flows) {
                r->size = slot;
                r->pool_len = at;
                r->active += flows;
                if (run_step(rs, r, t) < 0) return -1;
            }
        } else {
            if (r->n_done == r->done_room || r->n_rounds == r->rounds_room)
                return RUN_BUFFER;
            r->now = t;
            r->events++;
            int64_t slot = r->next_slot;
            if (r->ties > 1) {
                /* The smallest flow id among the slots at the eta. */
                int64_t best = INT64_MAX;
                for (int64_t i = 0; i < r->size; i++)
                    if (s->eta[i] == t && s->tie_rank[i] < best) {
                        best = s->tie_rank[i];
                        slot = i;
                    }
            }
            charge(s, slot, t);
            int64_t c = alvc_release(s, slot);
            if (s->clen[c]) mark(rs, s->cflat[s->cstart[c]]);
            r->active--;
            int64_t bound = r->compact_slack > r->active ? r->compact_slack
                                                         : r->active;
            if (r->size - r->active > bound) r->compact_pending = 1;
            r->done[r->n_done] = slot;
            r->done_time[r->n_done++] = t;
            if (run_step(rs, r, t) < 0) return -1;
        }
        if (r->active > r->peak) r->peak = r->active;
    }
}
/* The path engine's CSR searches (repro.sdn.path_engine).  Node ids
 * are the engine's dense ids; a node mask holds one byte per node (0 =
 * excluded), a cut mask one byte per CSR position (nonzero = the link
 * at that position is cut; the engine marks both directions of a
 * link).  Neither search checks its own endpoints against the mask.
 *
 * Visited marks are epoch stamps: each call bumps epoch, and a node is
 * in pred (succ) when its fwd_seen (rev_seen) stamp equals it, so a
 * call clears nothing.  Both fringes are FIFO queues of N entries (a
 * node joins each at most once); a BFS level is a contiguous run. */
struct alvc_csr_state {
    const int32_t *indptr;      /* [N + 1] row starts */
    const int32_t *indices;     /* [E] neighbours, insertion order */
    int32_t *pred;              /* [N] forward predecessor, -1 = s */
    int32_t *succ;              /* [N] reverse successor, -1 = t */
    int64_t *fwd_seen;          /* [N] epoch stamp: pred is set */
    int64_t *rev_seen;          /* [N] epoch stamp: succ is set */
    int64_t *wanted;            /* [N] epoch stamp: a fan-out target */
    int32_t *fwd;               /* [N] forward queue */
    int32_t *rev;               /* [N] reverse queue */
    int32_t *out;               /* [N] out: alvc_bidir's path */
    int64_t epoch;              /* the last call's stamp */
};

/* Writes pred's walk from w back to s, reversed, then succ's walk from
 * w's successor to t into out; returns the node count. */
static int64_t meet(const struct alvc_csr_state *g, int32_t w)
{
    int64_t n = 0;
    for (int32_t v = w; v != -1; v = g->pred[v]) n++;
    int64_t i = n;
    for (int32_t v = w; v != -1; v = g->pred[v]) g->out[--i] = v;
    for (int32_t v = g->succ[w]; v != -1; v = g->succ[v]) g->out[n++] = v;
    return n;
}

/* Bidirectional BFS from s to t (networkx's _bidirectional_pred_succ
 * order): expand the smaller fringe level (the forward one on a tie),
 * append a neighbour to its fringe before checking for the meet, and
 * return on the first meet.  cut may be NULL.  Returns the path's node
 * count (written to out), or 0 when mask and cut disconnect s from t. */
int64_t alvc_bidir(
    struct alvc_csr_state *g,
    int64_t s,
    int64_t t,
    const uint8_t *mask,
    const uint8_t *cut)
{
    if (s == t) {
        g->out[0] = (int32_t)s;
        return 1;
    }
    const int32_t *indptr = g->indptr, *indices = g->indices;
    int32_t *pred = g->pred, *succ = g->succ, *fwd = g->fwd, *rev = g->rev;
    int64_t *fseen = g->fwd_seen, *rseen = g->rev_seen;
    int64_t ep = ++g->epoch;
    fwd[0] = (int32_t)s;
    rev[0] = (int32_t)t;
    fseen[s] = ep;
    pred[s] = -1;
    rseen[t] = ep;
    succ[t] = -1;
    int64_t flo = 0, fhi = 1, rlo = 0, rhi = 1;
    while (flo < fhi && rlo < rhi) {
        if (fhi - flo <= rhi - rlo) {
            int64_t end = fhi;
            for (; flo < end; flo++) {
                int32_t v = fwd[flo];
                for (int32_t k = indptr[v]; k < indptr[v + 1]; k++) {
                    int32_t w = indices[k];
                    if (!mask[w] || (cut && cut[k])) continue;
                    if (fseen[w] != ep) {
                        fseen[w] = ep;
                        pred[w] = v;
                        fwd[fhi++] = w;
                    }
                    if (rseen[w] == ep) return meet(g, w);
                }
            }
        } else {
            int64_t end = rhi;
            for (; rlo < end; rlo++) {
                int32_t v = rev[rlo];
                for (int32_t k = indptr[v]; k < indptr[v + 1]; k++) {
                    int32_t w = indices[k];
                    if (!mask[w] || (cut && cut[k])) continue;
                    if (rseen[w] != ep) {
                        rseen[w] = ep;
                        succ[w] = v;
                        rev[rhi++] = w;
                    }
                    if (fseen[w] == ep) return meet(g, w);
                }
            }
        }
    }
    return 0;
}

/* Level-order BFS from s (networkx's single_source_shortest_path
 * order: the first discovery of a node fixes its predecessor), which
 * stops once every target other than s is discovered; a node's
 * predecessor never changes afterwards, so the stop alters no path.
 * For target i, lens[i] is its path's node count (0 when the mask cuts
 * it off) and the paths follow one another in paths in target order.
 * Returns the entries written, or minus the entries needed (nothing
 * written) when capacity is short. */
int64_t alvc_level_paths(
    struct alvc_csr_state *g,
    int64_t s,
    const uint8_t *mask,
    const int32_t *targets,
    int64_t n_targets,
    int64_t *lens,
    int32_t *paths,
    int64_t capacity)
{
    const int32_t *indptr = g->indptr, *indices = g->indices;
    int32_t *pred = g->pred, *queue = g->fwd;
    int64_t *seen = g->fwd_seen, *wanted = g->wanted;
    int64_t ep = ++g->epoch;
    seen[s] = ep;
    pred[s] = -1;
    int64_t remaining = 0;
    for (int64_t i = 0; i < n_targets; i++) {
        int32_t x = targets[i];
        if (x != s && wanted[x] != ep) {
            wanted[x] = ep;
            remaining++;
        }
    }
    int64_t lo = 0, hi = 0;
    if (remaining) queue[hi++] = (int32_t)s;
    while (lo < hi && remaining) {
        int32_t v = queue[lo++];
        for (int32_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int32_t w = indices[k];
            if (!mask[w] || seen[w] == ep) continue;
            seen[w] = ep;
            pred[w] = v;
            queue[hi++] = w;
            if (wanted[w] == ep && !--remaining) break;
        }
    }
    int64_t total = 0;
    for (int64_t i = 0; i < n_targets; i++) {
        int64_t n = 0;
        if (seen[targets[i]] == ep)
            for (int32_t v = targets[i]; v != -1; v = pred[v]) n++;
        lens[i] = n;
        total += n;
    }
    if (total > capacity) return -total;
    int64_t at = 0;
    for (int64_t i = 0; i < n_targets; i++) {
        at += lens[i];
        int64_t j = at;
        if (lens[i])
            for (int32_t v = targets[i]; v != -1; v = pred[v]) paths[--j] = v;
    }
    return total;
}
"""


class RelevelState(ctypes.Structure):
    """The kernel's persistent array pointers (``struct
    alvc_relevel_state``), plus the address of the engine's
    :class:`StepState`, whose changed-class list the round loop appends
    to.  The engine rebinds it whenever one of those arrays is
    reallocated, so a call marshals only the per-call arguments."""

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
            "label",
            "seg_start",
            "seg_end",
            "listed_at",
            "dirty",
            "step",
        )
    ] + [("n_dirty", ctypes.c_int64), ("epoch", ctypes.c_int64)]


class StepState(ctypes.Structure):
    """The event step's array pointers and outputs (``struct
    alvc_step_state``), shared with admission and release.  Rebound only
    when the flow table, the class arrays or pools, the per-link arrays
    or the step's own bookkeeping arrays are reallocated.  ``n_changed`` and ``settled`` are the kernel's state
    between calls; ``n_classes`` is read by a full pass; ``alvc_settle``
    writes the next completion into the three trailing fields."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "remaining",
            "rate",
            "eta",
            "last_update",
            "alive",
            "link_start",
            "link_len",
            "pool",
            "busy",
            "class_of",
            "class_rate",
            "next_in_class",
            "class_head",
            "changed",
            "listed",
            "touched",
            "block_eta",
            "block_slot",
            "block_ties",
            "tie_rank",
            "count",
            "m",
            "cstart",
            "clen",
            "cflat",
            "link_alive",
        )
    ] + [
        ("n_changed", ctypes.c_int64),
        ("settled", ctypes.c_int64),
        ("n_classes", ctypes.c_int64),
        ("next_eta", ctypes.c_double),
        ("next_slot", ctypes.c_int64),
        ("ties", ctypes.c_int64),
    ]


class RunState(ctypes.Structure):
    """The event loop's arrivals, table counters, event boundaries and
    output buffers (``struct alvc_run_state``).  The simulator fills the
    inputs before each ``alvc_run`` call and reads the outputs after it;
    the pointers are bound once per run."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "arrival_time",
            "arrival_class",
            "arrival_size",
            "arrival_rank",
            "done",
            "done_time",
            "rounds",
        )
    ] + [
        ("n_arrivals", ctypes.c_int64),
        ("arrival", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("pool_len", ctypes.c_int64),
        ("active", ctypes.c_int64),
        ("slot_room", ctypes.c_int64),
        ("pool_room", ctypes.c_int64),
        ("compact_slack", ctypes.c_int64),
        ("compact_pending", ctypes.c_int64),
        ("failures_left", ctypes.c_int64),
        ("next_failure", ctypes.c_double),
        ("until", ctypes.c_double),
        ("window", ctypes.c_int64),
        ("now", ctypes.c_double),
        ("next_eta", ctypes.c_double),
        ("next_slot", ctypes.c_int64),
        ("ties", ctypes.c_int64),
        ("done_room", ctypes.c_int64),
        ("rounds_room", ctypes.c_int64),
        ("n_done", ctypes.c_int64),
        ("n_rounds", ctypes.c_int64),
        ("events", ctypes.c_int64),
        ("peak", ctypes.c_int64),
    ]


#: ``alvc_run``'s hand-back reasons, by return code.
RUN_REASONS = (
    "end", "fault", "until", "room", "compaction", "uncovered", "buffer",
    "stall",
)


class CsrState(ctypes.Structure):
    """The path engine's CSR arrays and search scratch (``struct
    alvc_csr_state``).  :class:`~repro.sdn.path_engine.PathEngine`
    rebinds it when it rebuilds its snapshot, so a search marshals only
    its endpoints and masks.  ``epoch`` is the kernel's visit stamp
    between calls; a fresh state starts at 0 over zeroed stamps."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "indptr",
            "indices",
            "pred",
            "succ",
            "fwd_seen",
            "rev_seen",
            "wanted",
            "fwd",
            "rev",
            "out",
        )
    ] + [("epoch", ctypes.c_int64)]


class Kernels(NamedTuple):
    """The compiled entry points, typed for ``ctypes``."""

    relevel: Callable
    run: Callable
    settle: Callable
    materialize: Callable
    admit: Callable
    release: Callable
    bidir: Callable
    level_paths: Callable


#: ``-O2`` without any fast-math flag and without contraction: the
#: contract is exact IEEE doubles in source order.
COMPILE_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

COMPILERS = ("cc", "gcc", "clang")

#: Tri-state compile cache: unset / the entry points / None (failed).
_UNSET = object()
_kernel = _UNSET
#: Why :data:`_kernel` is what it is (see :func:`kernel_status`).
_status = "not resolved"


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


def _build(source: str, library: str) -> str | None:
    """Compile ``source`` into ``library``; ``None`` on success, else
    why not."""
    scratch = library + f".tmp{os.getpid()}"
    failure = None
    try:
        for compiler in COMPILERS:
            try:
                result = subprocess.run(
                    [compiler, *COMPILE_FLAGS, source, "-o", scratch],
                    capture_output=True,
                    timeout=60,
                )
            except FileNotFoundError:
                continue
            if result.returncode == 0:
                os.replace(scratch, library)
                return None
            if failure is None:
                lines = result.stderr.decode(errors="replace").splitlines()
                first = next((line for line in lines if line.strip()), "")
                failure = (
                    f"compile failed: {compiler} exited "
                    f"{result.returncode}: {first.strip()}"
                )
        return failure or "no compiler: none of " + ", ".join(COMPILERS)
    except (OSError, subprocess.SubprocessError) as error:
        return f"compile failed: {error}"
    finally:
        if os.path.exists(scratch):
            try:
                os.remove(scratch)
            except OSError:
                pass


def _load() -> "tuple[ctypes.CDLL | None, str]":
    """The shared object (built on a cache miss) and how it was got."""
    key = KERNEL_SOURCE + "\0" + " ".join(COMPILE_FLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    directory = _cache_dir()
    library = os.path.join(directory, f"waterfill-{digest}.so")
    how = "cached"
    if not os.path.exists(library):
        source = os.path.join(directory, f"waterfill-{digest}.c")
        try:
            with open(source, "w") as handle:
                handle.write(KERNEL_SOURCE)
        except OSError as error:
            return None, f"compile failed: {error}"
        failure = _build(source, library)
        if failure is not None:
            return None, failure
        how = "compiled"
    try:
        return ctypes.CDLL(library), how
    except OSError as error:
        return None, f"load failed: {error}"


def kernels() -> Kernels | None:
    """The compiled entry points, or ``None``.

    Compiles on first call (cached across processes via the on-disk
    shared object, across calls via a module global).  Returns ``None``
    when no C compiler is available, compilation or loading fails, or
    ``ALVC_NO_CKERNEL`` is set; :func:`kernel_status` says which.
    """
    global _kernel, _status
    if _kernel is not _UNSET:
        return _kernel
    if os.environ.get(DISABLE_ENV):
        _kernel, _status = None, f"disabled: {DISABLE_ENV} is set"
        return None
    library, _status = _load()
    if library is None:
        _kernel = None
        return None
    relevel = library.alvc_relevel
    relevel.restype = ctypes.c_int64
    relevel.argtypes = [
        ctypes.c_void_p,         # addressof(RelevelState)
        ctypes.c_void_p,         # dirty link indices (int64)
        ctypes.c_int64,          # how many
    ]
    run = library.alvc_run
    run.restype = ctypes.c_int64
    run.argtypes = [
        ctypes.c_void_p,         # addressof(RelevelState)
        ctypes.c_void_p,         # addressof(RunState)
    ]
    settle = library.alvc_settle
    settle.restype = ctypes.c_int64
    settle.argtypes = [
        ctypes.c_void_p,         # addressof(StepState)
        ctypes.c_int64,          # table size
        ctypes.c_double,         # now
        ctypes.c_int64,          # full pass (nonzero) or incremental
    ]
    materialize = library.alvc_materialize
    materialize.restype = None
    materialize.argtypes = [
        ctypes.c_void_p,         # addressof(StepState)
        ctypes.c_int64,          # slot
        ctypes.c_double,         # now
    ]
    admit = library.alvc_admit
    admit.restype = ctypes.c_int64
    admit.argtypes = [
        ctypes.c_void_p,         # addressof(StepState)
        ctypes.c_void_p,         # class id per flow (int64)
        ctypes.c_void_p,         # size per flow (double)
        ctypes.c_int64,          # flows
        ctypes.c_int64,          # first slot
        ctypes.c_int64,          # pool offset
        ctypes.c_double,         # now
    ]
    release = library.alvc_release
    release.restype = ctypes.c_int64
    release.argtypes = [
        ctypes.c_void_p,         # addressof(StepState)
        ctypes.c_int64,          # slot
    ]
    bidir = library.alvc_bidir
    bidir.restype = ctypes.c_int64
    bidir.argtypes = [
        ctypes.c_void_p,         # addressof(CsrState)
        ctypes.c_int64,          # source id
        ctypes.c_int64,          # target id
        ctypes.c_void_p,         # node mask (uint8)
        ctypes.c_void_p,         # cut mask (uint8), or None
    ]
    level_paths = library.alvc_level_paths
    level_paths.restype = ctypes.c_int64
    level_paths.argtypes = [
        ctypes.c_void_p,         # addressof(CsrState)
        ctypes.c_int64,          # source id
        ctypes.c_void_p,         # node mask (uint8)
        ctypes.c_void_p,         # target ids (int32)
        ctypes.c_int64,          # targets
        ctypes.c_void_p,         # out: path length per target (int64)
        ctypes.c_void_p,         # out: the paths (int32)
        ctypes.c_int64,          # capacity of the paths buffer
    ]
    _kernel = Kernels(
        relevel, run, settle, materialize, admit, release, bidir,
        level_paths,
    )
    return _kernel


def kernel_available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return kernels() is not None


def kernel_status() -> str:
    """Which step, round loop and path searches run, and why.

    ``"compiled"`` (built by this process) or ``"cached"`` (an earlier
    build was loaded) when the kernel runs; otherwise why the numpy
    and Python mirrors run: ``"disabled: ..."`` (``ALVC_NO_CKERNEL``),
    ``"no compiler: ..."``, ``"compile failed: ..."`` (with the
    compiler's first stderr line) or ``"load failed: ..."``.
    """
    kernels()
    return _status
