/* The kernelizers' two DPs, one pass per stage each: the beam DP
 * (beam_kernelize, repro.core.fast_kernelize) and, at the end of this file,
 * the contiguous-segment DP of Algorithm 5 (ordered_segments,
 * repro.core.ordered_kernelize).
 *
 * beam_kernelize() runs the search of fast_kernelize's Python loop, state for
 * state and in the same order, over flat inputs: per-gate qubit masks and
 * shared-memory costs, suffix masks (suffix[i + 1]: the qubits of the gates
 * after position i), the fusion cost by kernel width, the shared-memory load
 * cost, the width limits, the subsumption switch and the beam width.  It
 * writes each gate's kernel as a position in the closing order (the winner's
 * closed kernels as they closed, then its still-open ones) and returns the
 * kernel count, or -1 when an allocation fails.
 *
 * What keeps the answer identical to the Python loop's:
 * - a kernel's gates are appended in increasing index order, so interning
 *   (parent gate set, gate) gives every gate set one id, and a state's key is
 *   its open kernels' ids in open order, at any stage length;
 * - a state that beats the one of its key on closed cost replaces it where
 *   it stood, as a Python dict's assignment does;
 * - ranking is a stable sort on closed + (0.0 + c1 + c2 + ...), the open
 *   kernels' closing costs summed in open order;
 * - the final pick is the first state of least closed + c1 + c2 + ... .
 * Every float is one double operation in the Python loop's order, and the
 * library is built with -ffp-contract=off, so none is fused.
 *
 * Plain C11 plus __builtin_popcountll; both entries allocate per call and
 * hold no state between calls, so concurrent calls are safe.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ALLQUBITS UINT64_MAX /* extensible by any qubit (the paper's ALLQUBITS) */
#define MIX 0x9E3779B97F4A7C15ULL

typedef struct {
    int64_t id;    /* interned gate set */
    uint64_t mask; /* qubits */
    uint64_t ext;  /* extensible qubits, or ALLQUBITS */
    double sum;    /* running shared-memory gate cost */
    double close;  /* closing cost now: min(fusion, shm) */
} kernel_t;

typedef struct {
    int64_t first;   /* open kernels at arena[first .. first + count) */
    int64_t count;
    int64_t chain;   /* newest closed kernel's chain node; -1 when none */
    uint64_t hash;   /* of the open kernels' ids */
    double closed;   /* cost of the closed kernels */
    double estimate; /* the rank: closed + (0.0 + c1 + c2 + ...) */
} state_t;

typedef struct {
    int64_t parent; /* older chain node; -1 when none */
    int64_t id;     /* the closed kernel's gate set */
} link_t;

typedef struct {
    void *data;
    int64_t len, cap;
} vec_t;

#define EMPTY {NULL, 0, 0}

/* Room for `more` further elements of `size` bytes (and a buffer, even for
 * none); 0 when out of memory. */
static int reserve(vec_t *v, int64_t more, size_t size)
{
    if (v->data && v->len + more <= v->cap)
        return 1;
    int64_t cap = v->cap ? v->cap : 64;
    while (cap < v->len + more)
        cap *= 2;
    void *data = realloc(v->data, (size_t)cap * size);
    if (!data)
        return 0;
    v->data = data;
    v->cap = cap;
    return 1;
}

typedef struct {
    int64_t parent; /* the set without its last gate; -1 for {} */
    int64_t gate;   /* its last (highest) gate */
    int64_t child;  /* the latest set made from this one plus a gate; -1 when none */
} set_t;

/* The id of set `parent` plus `gate`, or -1 when out of memory.  A set
 * gains gate i at position i only, so the child made there is the one:
 * every gate set gets one id, with no table. */
static int64_t extend(vec_t *sets, int64_t parent, int64_t gate)
{
    set_t *all = sets->data;
    if (all[parent].child >= 0 && all[all[parent].child].gate == gate)
        return all[parent].child;
    if (!reserve(sets, 1, sizeof(set_t)))
        return -1;
    all = sets->data;
    all[sets->len] = (set_t){parent, gate, -1};
    all[parent].child = sets->len;
    return sets->len++;
}

/* Stable merge sort of `order[0..n)` by ascending estimate. */
static void rank(int64_t *order, int64_t *tmp, int64_t n, const state_t *states)
{
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi)
                tmp[out++] = states[order[b]].estimate < states[order[a]].estimate
                                 ? order[b++] : order[a++];
            while (a < mid)
                tmp[out++] = order[a++];
            while (b < hi)
                tmp[out++] = order[b++];
        }
        memcpy(order, tmp, (size_t)n * sizeof(int64_t));
    }
}

int64_t beam_kernelize(int64_t n, const uint64_t *masks, const double *costs,
                       const uint64_t *suffix, const double *fusion, double shm_load,
                       int64_t max_shm, int64_t max_width, int64_t subsume,
                       int64_t beam_width, int64_t *kernel_of)
{
    int64_t result = -1;
    vec_t sets = EMPTY, beam = EMPTY, next = EMPTY, beam_arena = EMPTY, next_arena = EMPTY;
    vec_t links = EMPTY, scratch = EMPTY, order = EMPTY, table = EMPTY;

    if (!reserve(&sets, 1, sizeof(set_t)) || !reserve(&beam, 1, sizeof(state_t)) ||
        !reserve(&beam_arena, 0, sizeof(kernel_t)))
        goto done;
    ((set_t *)sets.data)[sets.len++] = (set_t){-1, -1, -1}; /* id 0: {} */
    ((state_t *)beam.data)[beam.len++] = (state_t){0, 0, -1, 0, 0.0, 0.0};

    for (int64_t i = 0; i < n; i++) {
        const uint64_t gmask = masks[i], future = suffix[i + 1];
        const double gcost = costs[i];
        /* A state has at most one child per open kernel plus one: size the
         * key table for that, at most half full. */
        int64_t children = 0, table_bits = 4;
        for (int64_t s = 0; s < beam.len; s++)
            children += ((state_t *)beam.data)[s].count + 1;
        while (((int64_t)1 << table_bits) < 2 * children)
            table_bits++;
        table.len = 0;
        if (!reserve(&table, (int64_t)1 << table_bits, sizeof(int64_t)))
            goto done;
        memset(table.data, 0, sizeof(int64_t) << table_bits);
        const uint64_t tmask = ((uint64_t)1 << table_bits) - 1;
        next.len = next_arena.len = 0;

        for (int64_t s = 0; s < beam.len; s++) {
            const state_t parent = ((state_t *)beam.data)[s];
            const int64_t c = parent.count;
            /* scratch: observed[c] | child[c + 1] as kernels, then the
             * acceptors and the ids that close, as int64s. */
            if (!reserve(&scratch, (2 * c + 1) * (int64_t)sizeof(kernel_t) + 2 * (c + 1) * 8, 1))
                goto done;
            kernel_t *observed = scratch.data, *child = observed + c;
            int64_t *acceptors = (int64_t *)(child + c + 1), *dying = acceptors + c + 1;
            const kernel_t *open = (kernel_t *)beam_arena.data + parent.first;

            /* One pass shared by every branch: which kernels accept the gate,
             * and Algorithm 4's EXTQ update of every kernel it does not join. */
            int64_t nacc = 0, subsumed = -1;
            for (int64_t j = 0; j < c; j++) {
                kernel_t k = open[j];
                if (subsumed < 0 && (k.ext == ALLQUBITS
                                         ? __builtin_popcountll(k.mask | gmask) <= max_width
                                         : !(gmask & ~k.ext))) {
                    acceptors[nacc++] = j;
                    if (subsume && !(gmask & ~k.mask))
                        subsumed = j;
                }
                uint64_t extensible = k.ext == ALLQUBITS ? k.mask : k.ext;
                if (extensible & gmask)
                    k.ext = extensible & ~gmask;
                observed[j] = k;
            }
            if (subsumed >= 0) {
                acceptors[0] = subsumed;
                nacc = 1;
            } else {
                acceptors[nacc++] = c; /* a new single-gate kernel */
            }

            for (int64_t b = 0; b < nacc; b++) {
                const int64_t idx = acceptors[b];
                kernel_t joined;
                if (idx < c) {
                    joined = open[idx];
                    joined.id = extend(&sets, joined.id, i);
                    if (joined.ext == ALLQUBITS)
                        joined.mask |= gmask;
                    joined.sum += gcost;
                } else {
                    joined = (kernel_t){extend(&sets, 0, i), gmask, ALLQUBITS, gcost, 0.0};
                }
                if (joined.id < 0)
                    goto done;
                int width = __builtin_popcountll(joined.mask);
                double fuse = fusion[width];
                double shm = width <= max_shm ? shm_load + joined.sum : INFINITY;
                joined.close = fuse < shm ? fuse : shm;

                /* The child's open kernels in open order; the ones nothing
                 * after this gate can extend close, in that order too. */
                double closed = parent.closed, open_cost = 0.0;
                uint64_t hash = 0;
                int64_t nopen = 0, nclosed = 0;
                for (int64_t j = 0; j < (idx < c ? c : c + 1); j++) {
                    const kernel_t *k = j == idx ? &joined : &observed[j];
                    if (k->ext & future) {
                        child[nopen++] = *k;
                        hash = (hash ^ (uint64_t)k->id) * MIX;
                    } else {
                        closed += k->close;
                        dying[nclosed++] = k->id;
                    }
                }
                for (int64_t j = 0; j < nopen; j++)
                    open_cost += child[j].close;

                /* The state of this key so far, if any. */
                uint64_t at = (hash ^ hash >> 29) & tmask;
                int64_t *slots = table.data, found = -1;
                for (; slots[at]; at = (at + 1) & tmask) {
                    const state_t *other = (state_t *)next.data + slots[at] - 1;
                    if (other->hash != hash || other->count != nopen)
                        continue;
                    const kernel_t *theirs = (kernel_t *)next_arena.data + other->first;
                    int64_t j = 0;
                    while (j < nopen && theirs[j].id == child[j].id)
                        j++;
                    if (j == nopen) {
                        found = slots[at] - 1;
                        break;
                    }
                }
                if (found >= 0 && !(closed < ((state_t *)next.data)[found].closed))
                    continue;

                if (!reserve(&links, nclosed, sizeof(link_t)))
                    goto done;
                int64_t chain = parent.chain;
                for (int64_t j = 0; j < nclosed; j++) {
                    ((link_t *)links.data)[links.len] = (link_t){chain, dying[j]};
                    chain = links.len++;
                }
                if (found < 0) {
                    if (!reserve(&next, 1, sizeof(state_t)) ||
                        !reserve(&next_arena, nopen, sizeof(kernel_t)))
                        goto done;
                    found = next.len++;
                    ((state_t *)next.data)[found].first = next_arena.len;
                    next_arena.len += nopen;
                    slots[at] = found + 1;
                }
                state_t *st = (state_t *)next.data + found;
                st->count = nopen;
                st->chain = chain;
                st->hash = hash;
                st->closed = closed;
                st->estimate = closed + open_cost;
                memcpy((kernel_t *)next_arena.data + st->first, child,
                       (size_t)nopen * sizeof(kernel_t));
            }
        }

        /* Beam pruning (Appendix B-f): the best beam_width in ranked order. */
        if (!reserve(&order, 2 * next.len, sizeof(int64_t)))
            goto done;
        int64_t *ranked = order.data;
        for (int64_t t = 0; t < next.len; t++)
            ranked[t] = t;
        rank(ranked, ranked + next.len, next.len, next.data);
        int64_t keep = next.len < beam_width ? next.len : beam_width;
        beam.len = beam_arena.len = 0;
        if (!reserve(&beam, keep, sizeof(state_t)) ||
            !reserve(&beam_arena, next_arena.len, sizeof(kernel_t)))
            goto done;
        for (int64_t t = 0; t < keep; t++) {
            state_t st = ((state_t *)next.data)[ranked[t]];
            memcpy((kernel_t *)beam_arena.data + beam_arena.len,
                   (kernel_t *)next_arena.data + st.first, (size_t)st.count * sizeof(kernel_t));
            st.first = beam_arena.len;
            beam_arena.len += st.count;
            ((state_t *)beam.data)[beam.len++] = st;
        }
    }

    /* The first state of least total; the first state when none is finite. */
    const state_t *states = beam.data, *best = states;
    double best_total = INFINITY;
    for (int64_t s = 0; s < beam.len; s++) {
        double total = states[s].closed;
        const kernel_t *open = (kernel_t *)beam_arena.data + states[s].first;
        for (int64_t j = 0; j < states[s].count; j++)
            total += open[j].close;
        if (total < best_total) {
            best_total = total;
            best = &states[s];
        }
    }

    /* Closed kernels in closing order (the chain runs newest first), then
     * the open ones; each gate gets its kernel's position. */
    int64_t nclosed = 0;
    for (int64_t l = best->chain; l >= 0; l = ((link_t *)links.data)[l].parent)
        nclosed++;
    const set_t *all = sets.data;
    int64_t position = nclosed;
    for (int64_t l = best->chain; l >= 0; l = ((link_t *)links.data)[l].parent) {
        position--;
        for (int64_t id = ((link_t *)links.data)[l].id; id > 0; id = all[id].parent)
            kernel_of[all[id].gate] = position;
    }
    const kernel_t *open = (kernel_t *)beam_arena.data + best->first;
    for (int64_t j = 0; j < best->count; j++)
        for (int64_t id = open[j].id; id > 0; id = all[id].parent)
            kernel_of[all[id].gate] = nclosed + j;
    result = nclosed + best->count;

done:
    free(sets.data);
    free(beam.data);
    free(next.data);
    free(beam_arena.data);
    free(next_arena.data);
    free(links.data);
    free(scratch.data);
    free(order.data);
    free(table.data);
    return result;
}

/* Algorithm 5 (Appendix A, "Atlas-Naive"): the contiguous-segment DP of
 * repro.core.ordered_kernelize, over flat inputs — per-gate qubit masks and
 * shared-memory costs, the fusion cost by kernel width up to max_fusion,
 * the shared-memory load cost and the width limits.  dp[i] is the least
 * cost of the first i gates, and prev[i] (written for i in [0, n]) the
 * start of the last kernel of that answer.  Returns 0, or -1 when the dp
 * row cannot be allocated.
 *
 * The Python loop's expressions, in its order: the segment's shared-memory
 * sum accumulates backwards from gate i - 1, a kernel costs min(fusion,
 * shm) (fusion unless shm is strictly less), a split replaces the best
 * only on a strict dp[j] + cost < dp[i], so the first of equal splits —
 * the one of largest j — stands, and the segment stops growing once it is
 * wider than max_width and holds more than one gate. */
int64_t ordered_segments(int64_t n, const uint64_t *masks, const double *costs,
                         const double *fusion, double shm_load, int64_t max_fusion,
                         int64_t max_shm, int64_t max_width, int64_t *prev)
{
    double *dp = malloc((size_t)(n + 1) * sizeof(double));
    if (!dp)
        return -1;
    dp[0] = 0.0;
    prev[0] = 0;
    for (int64_t i = 1; i <= n; i++) {
        dp[i] = INFINITY;
        prev[i] = 0;
        uint64_t mask = 0;
        double shm_sum = 0.0;
        for (int64_t j = i - 1; j >= 0; j--) {
            mask |= masks[j];
            shm_sum += costs[j];
            const int64_t width = __builtin_popcountll(mask);
            if (width > max_width && j < i - 1)
                break;
            const double fuse = width <= max_fusion ? fusion[width] : INFINITY;
            const double shm = width <= max_shm ? shm_load + shm_sum : INFINITY;
            const double total = dp[j] + (shm < fuse ? shm : fuse);
            if (total < dp[i]) {
                dp[i] = total;
                prev[i] = j;
            }
        }
    }
    free(dp);
    return 0;
}
