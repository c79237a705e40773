/* Span kernel for the "array" engine's RADS core.
 *
 * This file is compiled on demand by repro.sim.kernel (cc -O2 -shared) and
 * loaded through ctypes; it is NOT a CPython extension module and includes
 * no Python headers, so it builds anywhere a C99 compiler exists.  The
 * kernel executes exactly the slot loop of repro.sim.array_engine's RADS
 * core (stock ECQF + threshold tail MMA + RandomArbiter, num_queues <=
 * 65536 so a queue id fits the 16-bit field of CRIT_KEY) on flat state
 * marshalled in from the python core, and marshals the resulting state
 * back.  Everything is integer arithmetic except the two places CPython
 * uses doubles — random() and choices() — which are reproduced with the
 * identical IEEE-754 expressions (this translation unit must never be
 * compiled with -ffast-math).
 *
 * Exactness contract:
 *  - the Mersenne Twister below is the reference mt19937ar generator that
 *    CPython's random.Random wraps; the kernel starts from the key/pos
 *    handed in and reports the words it consumed, so the python side ends
 *    bit-identical to a scalar run;
 *  - heaps only need the heap invariant (keys are unique), so the C sift
 *    need not mirror heapq's internal move order — every pop yields the
 *    same minimum the python heap would;
 *  - strict-mode overflow/miss aborts return an error code and the python
 *    core replays the span on its own scalar loop to raise with exact
 *    in-place state; non-strict misses and lossy DRAM drops are native.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Mersenne Twister (mt19937ar), resumed from CPython's getstate().    */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER 0x80000000UL
#define MT_LOWER 0x7fffffffUL

typedef struct {
    uint32_t key[MT_N];
    int pos;
    int64_t consumed;
} mt_state;

static uint32_t mt_next(mt_state *mt)
{
    uint32_t y;
    if (mt->pos >= MT_N) {
        uint32_t *m = mt->key;
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
            m[kk] = m[kk + MT_M] ^ (y >> 1) ^ ((y & 1) ? MT_MATRIX_A : 0);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
            m[kk] = m[kk + (MT_M - MT_N)] ^ (y >> 1)
                    ^ ((y & 1) ? MT_MATRIX_A : 0);
        }
        y = (m[MT_N - 1] & MT_UPPER) | (m[0] & MT_LOWER);
        m[MT_N - 1] = m[MT_M - 1] ^ (y >> 1) ^ ((y & 1) ? MT_MATRIX_A : 0);
        mt->pos = 0;
    }
    y = mt->key[mt->pos++];
    mt->consumed++;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680UL;
    y ^= (y << 15) & 0xefc60000UL;
    y ^= (y >> 18);
    return y;
}

/* random(): two words -> 53-bit integer (random_res53 numerator). */
static int64_t mt_comb53(mt_state *mt)
{
    uint32_t a = mt_next(mt) >> 5;
    uint32_t b = mt_next(mt) >> 6;
    return ((int64_t)a << 26) | (int64_t)b;
}

/* _randbelow(m) for 1 <= m <= 65536: getrandbits(bit_length(m)) per try,
 * i.e. the top bit_length(m) bits of one 32-bit word; shift is
 * 32 - bit_length(m). */
static int mt_randbelow(mt_state *mt, int m, int shift)
{
    uint32_t r = mt_next(mt) >> shift;
    while ((int)r >= m)
        r = mt_next(mt) >> shift;
    return (int)r;
}

/* ------------------------------------------------------------------ */
/* Growable int64 array / FIFO-by-cursor                               */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *buf;
    int head;    /* first live element */
    int len;     /* one past last live element */
    int cap;
} ivec;

static int iv_init(ivec *v, int cap)
{
    if (cap < 4)
        cap = 4;
    v->buf = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    v->head = 0;
    v->len = 0;
    v->cap = cap;
    return v->buf != NULL;
}

static int iv_push(ivec *v, int64_t x)
{
    if (v->len == v->cap) {
        int live = v->len - v->head;
        if (v->head > 0 && v->head * 2 >= v->len) {
            memmove(v->buf, v->buf + v->head,
                    (size_t)live * sizeof(int64_t));
            v->head = 0;
            v->len = live;
        } else {
            int ncap = v->cap * 2;
            int64_t *nb = (int64_t *)realloc(v->buf,
                                             (size_t)ncap * sizeof(int64_t));
            if (!nb)
                return 0;
            v->buf = nb;
            v->cap = ncap;
        }
    }
    v->buf[v->len++] = x;
    return 1;
}

#define IV_COUNT(v) ((v)->len - (v)->head)

/* ------------------------------------------------------------------ */
/* Min-heaps (unique keys -> any valid heap pops identically)          */
/* ------------------------------------------------------------------ */

static void heap_up(int64_t *h, int i)
{
    int64_t x = h[i];
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p] <= x)
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = x;
}

static void heap_down(int64_t *h, int n, int i)
{
    int64_t x = h[i];
    for (;;) {
        int c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && h[c + 1] < h[c])
            c++;
        if (h[c] >= x)
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = x;
}

/* crit heap entries: (entered << 16) | queue keeps tuple ordering for
 * entered < 2^46 and queue < 2^16 — entered is a slot number, bounded by
 * the horizon, and ties break on the queue index exactly like the python
 * (entered, queue) tuples. */
#define CRIT_KEY(entered, q) (((int64_t)(entered) << 16) | (int64_t)(q))
#define CRIT_ENTERED(k) ((k) >> 16)
#define CRIT_QUEUE(k) ((int)((k) & 0xffff))

/* Largest num_queues the kernel accepts: every queue id fits CRIT_KEY. */
#define MAX_QUEUES 65536

/* "No critical entry" cache marker (python uses float inf). */
#define CRIT_INF INT64_MAX

/* "No pending landing" sentinel (compares greater than any slot). */
#define NEVER (INT64_C(1) << 62)

/* Error codes (mirror the strict-mode raises; the python side replays). */
#define ERR_OK 0
#define ERR_OOM 1
#define ERR_STRICT 2
#define ERR_CAP 3   /* a python-preallocated out buffer would overflow */
#define ERR_ARG 4   /* num_queues out of range, or a plan entry names no queue */

/* ------------------------------------------------------------------ */
/* Kernel interface (mirrored by ctypes structs in repro.sim.kernel)   */
/* ------------------------------------------------------------------ */

typedef struct {
    /* configuration (in) */
    int64_t num_queues, granularity, strict, tail_cap;
    int64_t dram_cap, sram_cap;     /* -1 = unbounded (python None) */
    int64_t la_len, num_slots, start_slot, is_main;
    int64_t arb_tint;               /* ceil(arbiter.load * 2**53) */
    int64_t plan_mode;              /* 0 = plan, 1 = bernoulli, 2 = none */
    int64_t bern_tint;              /* ceil(arrivals.load * 2**53) */
    double bern_total;              /* cum_weights[-1] + 0.0 */
    /* machine scalars (in/out) */
    int64_t tail_total, dram_total, sram_total, la_pos, negatives;
    int64_t cells_in, cells_out, dram_reads, dram_writes, dropped;
    int64_t max_tail, max_head;
    int64_t crit_len, pending_len, eligible_len;
    int64_t ecqf_fallback;
    /* results (out) */
    int64_t n_delays, n_head_miss, n_tail_miss, n_drained;
    int64_t arrivals_seen, grants;
    int64_t pend_head_out, pend_flat_off_out;
    /* fused drain: run this many extra drain-mode slots (no arrivals, no
     * arbiter, no backlog upkeep) after the main window, saving the
     * caller a second full state marshal for the drain span. */
    int64_t drain_slots;
    /* capacities of the python-preallocated out buffers (in elements).
     * The kernel never writes past any of them: a span that would exceed
     * one aborts with ERR_CAP before the write and the python side falls
     * back to the scalar loop on its untouched state. */
    int64_t tail_ocap, dram_ocap, sram_ocap, req_ocap, arr_ocap;
    int64_t pend_cap, pend_flat_cap, crit_cap;
} kcfg;

typedef struct {
    uint32_t *arb_key;              /* in/out: 624 words */
    int64_t *arb_meta;              /* in/out: [pos, consumed] */
    uint32_t *bern_key;             /* in/out (plan_mode 1) */
    int64_t *bern_meta;
    const double *cum_weights;      /* len num_queues (plan_mode 1) */
    const int32_t *plan;            /* len num_slots (plan_mode 0), -1 = none */
    /* per-queue int64[num_queues], in/out */
    int64_t *backlog, *next_seqno, *delivered, *counters, *req_count;
    int64_t *tail_occ, *dram_occ, *crit_cache;
    int64_t *eligible;              /* sorted, len eligible_len */
    /* flattened per-queue contents; *_icnt give the in counts */
    const int64_t *sram_icnt, *arr_icnt;
    const int64_t *tail_iflat, *dram_iflat, *sram_iflat, *req_iflat,
                  *arr_iflat;
    /* out counts + flats (python preallocates to safe bounds) */
    int64_t *sram_ocnt, *arr_ocnt;
    int64_t *tail_oflat, *dram_oflat, *sram_oflat, *req_oflat, *arr_oflat;
    int64_t *la_ring;               /* in/out, len la_len, -1 = empty */
    int64_t *crit_heap;             /* in/out, cap >= crit_len + 3n + 8 */
    int64_t *pending_fin, *pending_q, *pending_cnt, *pending_flat;
    int64_t *delays;                /* out, cap num_slots */
    int64_t *head_miss_q, *head_miss_slot;  /* out, cap num_slots */
    int64_t *drained;               /* out, cap num_slots */
} kptrs;

typedef struct {
    ivec tail, dram, req, arr;
    int64_t *sram;                  /* heap array */
    int sram_len, sram_cap_;
} qstate;

static int sram_push(qstate *q, int64_t seq)
{
    if (q->sram_len == q->sram_cap_) {
        int nc = q->sram_cap_ * 2;
        int64_t *nb = (int64_t *)realloc(q->sram,
                                         (size_t)nc * sizeof(int64_t));
        if (!nb)
            return 0;
        q->sram = nb;
        q->sram_cap_ = nc;
    }
    q->sram[q->sram_len] = seq;
    heap_up(q->sram, q->sram_len);
    q->sram_len++;
    return 1;
}

static int upper_bound_d(const double *a, int hi, double x)
{
    int lo = 0;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

int64_t rads_run_span(kcfg *c, kptrs *p)
{
    const int nq = (int)c->num_queues;
    const int g = (int)c->granularity;
    const int strict = (int)c->strict;
    const int64_t tail_cap = c->tail_cap;
    const int64_t dram_cap = c->dram_cap;
    const int64_t sram_cap = c->sram_cap;
    const int la_len = (int)c->la_len;
    const int64_t num_slots = c->num_slots;
    const int is_main = (int)c->is_main;
    const int plan_mode = (int)c->plan_mode;
    int64_t err = ERR_OK;
    int i, q2;
    int64_t *seqbuf;
    int *rb_shift;                  /* 32 - bit_length(m), idx 0..nq */
    qstate *qs = NULL;
    if (nq < 1 || nq > MAX_QUEUES)
        return ERR_ARG;
    seqbuf = (int64_t *)malloc((size_t)(g > 0 ? g : 1) * sizeof(int64_t));
    rb_shift = (int *)malloc((size_t)(nq + 1) * sizeof(int));
    if (!seqbuf || !rb_shift) {
        free(seqbuf);
        free(rb_shift);
        return ERR_OOM;
    }
    /* Portable bit length, once per call: it grows by one exactly when m
     * reaches the next power of two. */
    {
        int m, bits = 0;
        rb_shift[0] = 32;
        for (m = 1; m <= nq; m++) {
            if (m >> bits)
                bits++;
            rb_shift[m] = 32 - bits;
        }
    }

    mt_state arb, bern;
    memcpy(arb.key, p->arb_key, sizeof(arb.key));
    arb.pos = (int)p->arb_meta[0];
    arb.consumed = 0;
    if (plan_mode == 1) {
        memcpy(bern.key, p->bern_key, sizeof(bern.key));
        bern.pos = (int)p->bern_meta[0];
        bern.consumed = 0;
    }

    /* ---- build per-queue working state from the marshalled flats ---- */
    qs = (qstate *)calloc((size_t)nq, sizeof(qstate));
    if (!qs) {
        free(seqbuf);
        free(rb_shift);
        return ERR_OOM;
    }
    {
        int64_t toff = 0, doff = 0, soff = 0, roff = 0, aoff = 0;
        for (i = 0; i < nq; i++) {
            qstate *q = &qs[i];
            int tn = (int)p->tail_occ[i], dn = (int)p->dram_occ[i];
            int sn = (int)p->sram_icnt[i], rn = (int)p->req_count[i];
            int an = (int)p->arr_icnt[i];
            if (!iv_init(&q->tail, tn + 8) || !iv_init(&q->dram, dn + 8)
                    || !iv_init(&q->req, rn + 8)
                    || !iv_init(&q->arr, an + 8)) {
                err = ERR_OOM;
                goto cleanup;
            }
            q->sram_cap_ = sn + 8;
            q->sram = (int64_t *)malloc((size_t)q->sram_cap_
                                        * sizeof(int64_t));
            if (!q->sram) {
                err = ERR_OOM;
                goto cleanup;
            }
            memcpy(q->tail.buf, p->tail_iflat + toff,
                   (size_t)tn * sizeof(int64_t));
            q->tail.len = tn;
            memcpy(q->dram.buf, p->dram_iflat + doff,
                   (size_t)dn * sizeof(int64_t));
            q->dram.len = dn;
            memcpy(q->sram, p->sram_iflat + soff,
                   (size_t)sn * sizeof(int64_t));
            q->sram_len = sn;
            memcpy(q->req.buf, p->req_iflat + roff,
                   (size_t)rn * sizeof(int64_t));
            q->req.len = rn;
            memcpy(q->arr.buf, p->arr_iflat + aoff,
                   (size_t)an * sizeof(int64_t));
            q->arr.len = an;
            toff += tn;
            doff += dn;
            soff += sn;
            roff += rn;
            aoff += an;
        }
    }

    {
    /* ---- loop-local scalars ---- */
    int64_t tail_total = c->tail_total, dram_total = c->dram_total;
    int64_t sram_total = c->sram_total;
    int la_pos = (int)c->la_pos;
    int64_t negatives = c->negatives;
    int64_t cells_in = c->cells_in, cells_out = c->cells_out;
    int64_t dram_reads = c->dram_reads, dram_writes = c->dram_writes;
    int64_t dropped = c->dropped;
    int64_t max_tail = c->max_tail, max_head = c->max_head;
    int crit_len = (int)c->crit_len;
    int pend_head = 0, pend_len = (int)c->pending_len;
    int64_t pend_flat_off = 0;  /* consumed prefix of pending_flat */
    int elig_len = (int)c->eligible_len;
    int64_t n_delays = 0, n_head_miss = 0, n_tail_miss = 0, n_drained = 0;
    int64_t arrivals_seen = 0, grants = 0;
    int big_cnt = 0;
    int64_t *elig = p->eligible;
    int64_t *crit_heap = p->crit_heap;
    int64_t *crit_cache = p->crit_cache;
    int64_t *counters = p->counters;
    int64_t *req_count = p->req_count;
    int64_t *tail_occ = p->tail_occ;
    int64_t *dram_occ = p->dram_occ;
    int64_t slot, next_land, flat_w;
    int pc;

    flat_w = 0;
    for (i = 0; i < pend_len; i++)
        flat_w += p->pending_cnt[i];
    next_land = pend_len ? p->pending_fin[0] : NEVER;

    for (i = 0; i < nq; i++)
        if (tail_occ[i] >= g)
            big_cnt++;
    pc = (g - (int)(c->start_slot % g)) % g;

    for (slot = c->start_slot;
         slot < c->start_slot + num_slots + c->drain_slots; slot++) {
        int pol = 0;
        int a = -1;         /* arrival queue, -1 = none */
        int request = -1;   /* granted queue, -1 = none */
        int leaving;
        /* past the main window the loop continues in drain mode, exactly
         * as a separate is_main=0 span starting at this slot would. */
        const int main_now = is_main && slot < c->start_slot + num_slots;
        if (--pc < 0) {
            pc = g - 1;
            pol = 1;
        }

        if (main_now) {
            /* -- arbiter: gate draw, then choice over eligible -- */
            if (mt_comb53(&arb) < c->arb_tint && elig_len) {
                request = (int)elig[mt_randbelow(&arb, elig_len,
                                                 rb_shift[elig_len])];
            }
            /* -- arrival plan -- */
            if (plan_mode == 0) {
                a = p->plan[slot - c->start_slot];
                if (a < -1 || a >= nq) {
                    err = ERR_ARG;
                    goto done;
                }
            } else if (plan_mode == 1) {
                if (mt_comb53(&bern) < c->bern_tint) {
                    double u = (double)mt_comb53(&bern)
                               * (1.0 / 9007199254740992.0);
                    a = upper_bound_d(p->cum_weights, nq - 1,
                                      u * c->bern_total);
                }
            }
        }

        /* -- arrival: cut through to head SRAM or enqueue for the tail -- */
        if (a >= 0) {
            qstate *qa = &qs[a];
            int64_t seqno = p->next_seqno[a]++;
            arrivals_seen++;
            if (!iv_push(&qa->arr, slot)) {
                err = ERR_OOM;
                goto done;
            }
            if (dram_occ[a] == 0 && tail_occ[a] == 0 && qa->sram_len < g) {
                sram_total++;
                if (sram_cap >= 0 && sram_total > sram_cap) {
                    err = ERR_STRICT;   /* SRAM overflow raises always */
                    goto done;
                }
                if (!sram_push(qa, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                {
                    int64_t count = ++counters[a];
                    if (count == 0)
                        negatives--;
                    if (count >= 0 && count < req_count[a]) {
                        int64_t entered = qa->req.buf[qa->req.head + count];
                        if (crit_len >= c->crit_cap) {
                            err = ERR_CAP;
                            goto done;
                        }
                        crit_cache[a] = entered;
                        crit_heap[crit_len] = CRIT_KEY(entered, a);
                        heap_up(crit_heap, crit_len);
                        crit_len++;
                    } else {
                        crit_cache[a] = CRIT_INF;
                    }
                }
            } else if (tail_total >= tail_cap) {
                n_tail_miss++;
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
            } else {
                int64_t occ;
                if (!iv_push(&qa->tail, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                occ = ++tail_occ[a];
                tail_total++;
                cells_in++;
                if (occ == g)
                    big_cnt++;
                if (!pol && tail_total > max_tail)
                    max_tail = tail_total;
            }
        }

        /* -- tail MMA (threshold scan, gated on the block count) -- */
        if (pol) {
            if (big_cnt) {
                int selection = -1;
                int64_t best_occ = g - 1;
                for (i = 0; i < nq; i++)
                    if (tail_occ[i] > best_occ) {
                        best_occ = tail_occ[i];
                        selection = i;
                    }
                if (selection >= 0) {
                    qstate *qt = &qs[selection];
                    int avail = IV_COUNT(&qt->tail);
                    int evicted = avail < g ? avail : g;
                    int64_t *blk = qt->tail.buf + qt->tail.head;
                    int64_t occ_b = tail_occ[selection];
                    int64_t occ_a = occ_b - evicted;
                    qt->tail.head += evicted;
                    tail_occ[selection] = occ_a;
                    tail_total -= evicted;
                    if (occ_b >= g && occ_a < g)
                        big_cnt--;
                    if (evicted) {
                        int stored = evicted;
                        if (dram_cap >= 0 && !strict) {
                            int64_t room = dram_cap - dram_total;
                            if (room < stored) {
                                int keep = room > 0 ? (int)room : 0;
                                dropped += stored - keep;
                                stored = keep;
                            }
                        }
                        if (stored) {
                            for (q2 = 0; q2 < stored; q2++) {
                                if (dram_cap >= 0 && dram_total >= dram_cap) {
                                    err = ERR_STRICT;
                                    goto done;
                                }
                                if (!iv_push(&qt->dram, blk[q2])) {
                                    err = ERR_OOM;
                                    goto done;
                                }
                                dram_total++;
                            }
                            dram_occ[selection] += stored;
                        }
                        dram_writes++;
                    }
                }
            }
            if (tail_total > max_tail)
                max_tail = tail_total;
        }

        /* -- head: lookahead shift, ECQF bookkeeping -- */
        leaving = (int)p->la_ring[la_pos];
        p->la_ring[la_pos] = request;
        if (++la_pos == la_len)
            la_pos = 0;
        if (request >= 0) {
            qstate *qr = &qs[request];
            int64_t count;
            if (!iv_push(&qr->req, slot)) {
                err = ERR_OOM;
                goto done;
            }
            count = req_count[request]++;
            if (counters[request] == count) {
                if (crit_len >= c->crit_cap) {
                    err = ERR_CAP;
                    goto done;
                }
                crit_cache[request] = slot;
                crit_heap[crit_len] = CRIT_KEY(slot, request);
                heap_up(crit_heap, crit_len);
                crit_len++;
            }
        }
        if (leaving >= 0) {
            int64_t count = --counters[leaving];
            if (count == -1) {
                negatives++;
                crit_cache[leaving] = CRIT_INF;
            }
            qs[leaving].req.head++;   /* python compaction is layout-only */
            req_count[leaving]--;
        }

        /* -- transfer landings -- */
        if (next_land <= slot) {
            while (pend_len && p->pending_fin[pend_head] <= slot) {
                int lq = (int)p->pending_q[pend_head];
                int cnt = (int)p->pending_cnt[pend_head];
                qstate *ql = &qs[lq];
                for (q2 = 0; q2 < cnt; q2++) {
                    sram_total++;
                    if (sram_cap >= 0 && sram_total > sram_cap) {
                        err = ERR_STRICT;
                        goto done;
                    }
                    if (!sram_push(ql, p->pending_flat[pend_flat_off + q2])) {
                        err = ERR_OOM;
                        goto done;
                    }
                }
                pend_flat_off += cnt;
                pend_head++;
                pend_len--;
            }
            next_land = pend_len ? p->pending_fin[pend_head] : NEVER;
        }

        /* -- ECQF select + replenish -- */
        if (pol) {
            int selection = -1;
            if (negatives) {
                int64_t best_counter = 0;
                for (i = 0; i < nq; i++)
                    if (counters[i] < 0
                            && (selection < 0 || counters[i] < best_counter)) {
                        best_counter = counters[i];
                        selection = i;
                    }
            } else {
                while (crit_len) {
                    int64_t top = crit_heap[0];
                    int tq = CRIT_QUEUE(top);
                    if (crit_cache[tq] == CRIT_ENTERED(top)) {
                        selection = tq;
                        break;
                    }
                    crit_heap[0] = crit_heap[--crit_len];
                    if (crit_len)
                        heap_down(crit_heap, crit_len, 0);
                }
                if (selection < 0 && c->ecqf_fallback) {
                    int64_t best_deficit = 0;
                    for (i = 0; i < nq; i++)
                        if (req_count[i]) {
                            int64_t deficit = req_count[i] - counters[i];
                            if (selection < 0 || deficit > best_deficit) {
                                best_deficit = deficit;
                                selection = i;
                            }
                        }
                    if (selection >= 0 && best_deficit <= 0)
                        selection = -1;
                }
            }
            if (selection >= 0) {
                qstate *qr = &qs[selection];
                int got = 0, nseqs;
                if (dram_occ[selection]) {
                    int avail = IV_COUNT(&qr->dram);
                    got = avail < g ? avail : g;
                    memcpy(seqbuf, qr->dram.buf + qr->dram.head,
                           (size_t)got * sizeof(int64_t));
                    qr->dram.head += got;
                    dram_occ[selection] -= got;
                    dram_total -= got;
                }
                nseqs = got;
                if (got < g) {
                    int want = g - got;
                    int avail = IV_COUNT(&qr->tail);
                    int extra = avail < want ? avail : want;
                    if (extra) {
                        int64_t occ_b = tail_occ[selection];
                        int64_t occ_a = occ_b - extra;
                        memcpy(seqbuf + got, qr->tail.buf + qr->tail.head,
                               (size_t)extra * sizeof(int64_t));
                        qr->tail.head += extra;
                        nseqs += extra;
                        tail_occ[selection] = occ_a;
                        tail_total -= extra;
                        if (occ_b >= g && occ_a < g)
                            big_cnt--;
                    }
                }
                if (nseqs) {
                    int w = pend_head + pend_len;
                    int64_t count = counters[selection] + nseqs;
                    if (w >= c->pend_cap
                            || flat_w + nseqs > c->pend_flat_cap) {
                        err = ERR_CAP;
                        goto done;
                    }
                    counters[selection] = count;
                    if (count >= 0 && count - nseqs < 0)
                        negatives--;
                    if (count >= 0 && count < req_count[selection]) {
                        int64_t entered = qr->req.buf[qr->req.head + count];
                        if (crit_len >= c->crit_cap) {
                            err = ERR_CAP;
                            goto done;
                        }
                        crit_cache[selection] = entered;
                        crit_heap[crit_len] = CRIT_KEY(entered, selection);
                        heap_up(crit_heap, crit_len);
                        crit_len++;
                    } else {
                        crit_cache[selection] = CRIT_INF;
                    }
                    if (!pend_len)
                        next_land = slot + g;
                    p->pending_fin[w] = slot + g;
                    p->pending_q[w] = selection;
                    p->pending_cnt[w] = nseqs;
                    memcpy(p->pending_flat + flat_w, seqbuf,
                           (size_t)nseqs * sizeof(int64_t));
                    flat_w += nseqs;
                    pend_len++;
                    dram_reads++;
                }
            }
        }

        /* -- serve -- */
        if (leaving >= 0) {
            qstate *ql = &qs[leaving];
            int64_t expected = p->delivered[leaving];
            int ok = 1;
            if (ql->sram_len && ql->sram[0] == expected) {
                ql->sram[0] = ql->sram[--ql->sram_len];
                if (ql->sram_len)
                    heap_down(ql->sram, ql->sram_len, 0);
                sram_total--;
            } else if (tail_occ[leaving]
                       && ql->tail.buf[ql->tail.head] == expected) {
                /* tail bypass: the in-order cell never left the tail */
                int64_t occ;
                ql->tail.head++;
                occ = --tail_occ[leaving];
                tail_total--;
                if (occ == g - 1)
                    big_cnt--;
            } else {
                p->head_miss_q[n_head_miss] = leaving;
                p->head_miss_slot[n_head_miss] = slot;
                n_head_miss++;
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
                ok = 0;
            }
            if (ok) {
                int64_t arrival_slot;
                p->delivered[leaving] = expected + 1;
                cells_out++;
                arrival_slot = ql->arr.buf[ql->arr.head++];
                if (main_now)
                    p->delays[n_delays++] = slot + 1 - arrival_slot;
                else
                    p->drained[n_drained++] = arrival_slot;
            }
        }
        if (sram_total > max_head)
            max_head = sram_total;

        /* -- end of slot: backlog + eligible -- */
        if (main_now) {
            if (a >= 0) {
                int64_t count = ++p->backlog[a];
                if (count == 1) {
                    int lo = 0, hi = elig_len;
                    while (lo < hi) {
                        int mid = (lo + hi) >> 1;
                        if (elig[mid] < a)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    memmove(elig + lo + 1, elig + lo,
                            (size_t)(elig_len - lo) * sizeof(int64_t));
                    elig[lo] = a;
                    elig_len++;
                }
            }
            if (request >= 0) {
                int64_t count;
                grants++;
                count = --p->backlog[request];
                if (count == 0) {
                    int lo = 0, hi = elig_len;
                    while (lo < hi) {
                        int mid = (lo + hi) >> 1;
                        if (elig[mid] < request)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    memmove(elig + lo, elig + lo + 1,
                            (size_t)(elig_len - lo - 1) * sizeof(int64_t));
                    elig_len--;
                }
            }
        }
    }

done:
    if (err == ERR_OK) {
        /* ---- scalars back ---- */
        c->tail_total = tail_total;
        c->dram_total = dram_total;
        c->sram_total = sram_total;
        c->la_pos = la_pos;
        c->negatives = negatives;
        c->cells_in = cells_in;
        c->cells_out = cells_out;
        c->dram_reads = dram_reads;
        c->dram_writes = dram_writes;
        c->dropped = dropped;
        c->max_tail = max_tail;
        c->max_head = max_head;
        c->crit_len = crit_len;
        c->pending_len = pend_len;
        c->eligible_len = elig_len;
        c->pend_head_out = pend_head;
        c->pend_flat_off_out = pend_flat_off;
        c->n_delays = n_delays;
        c->n_head_miss = n_head_miss;
        c->n_tail_miss = n_tail_miss;
        c->n_drained = n_drained;
        c->arrivals_seen = arrivals_seen;
        c->grants = grants;
    }
    }

cleanup:
    if (err == ERR_OK) {
        /* Never trust the sizing formulas alone: total the final live
         * windows first and refuse the writeback (python replays on the
         * scalar loop) if any out buffer would overflow. */
        int64_t ttot = 0, dtot = 0, stot = 0, rtot = 0, atot = 0;
        for (i = 0; i < nq; i++) {
            ttot += IV_COUNT(&qs[i].tail);
            dtot += IV_COUNT(&qs[i].dram);
            stot += qs[i].sram_len;
            rtot += IV_COUNT(&qs[i].req);
            atot += IV_COUNT(&qs[i].arr);
        }
        if (ttot > c->tail_ocap || dtot > c->dram_ocap
                || stot > c->sram_ocap || rtot > c->req_ocap
                || atot > c->arr_ocap)
            err = ERR_CAP;
    }
    if (err == ERR_OK) {
        /* ---- per-queue contents back (live windows, head at 0) ---- */
        int64_t toff = 0, doff = 0, soff = 0, roff = 0, aoff = 0;
        for (i = 0; i < nq; i++) {
            qstate *q = &qs[i];
            int tn = IV_COUNT(&q->tail), dn = IV_COUNT(&q->dram);
            int rn = IV_COUNT(&q->req), an = IV_COUNT(&q->arr);
            memcpy(p->tail_oflat + toff, q->tail.buf + q->tail.head,
                   (size_t)tn * sizeof(int64_t));
            memcpy(p->dram_oflat + doff, q->dram.buf + q->dram.head,
                   (size_t)dn * sizeof(int64_t));
            memcpy(p->sram_oflat + soff, q->sram,
                   (size_t)q->sram_len * sizeof(int64_t));
            memcpy(p->req_oflat + roff, q->req.buf + q->req.head,
                   (size_t)rn * sizeof(int64_t));
            memcpy(p->arr_oflat + aoff, q->arr.buf + q->arr.head,
                   (size_t)an * sizeof(int64_t));
            p->sram_ocnt[i] = q->sram_len;
            p->arr_ocnt[i] = an;
            toff += tn;
            doff += dn;
            soff += q->sram_len;
            roff += rn;
            aoff += an;
        }
        /* ---- final RNG states (python setstate()s these verbatim) ---- */
        memcpy(p->arb_key, arb.key, sizeof(arb.key));
        p->arb_meta[0] = arb.pos;
        p->arb_meta[1] = arb.consumed;
        if (plan_mode == 1) {
            memcpy(p->bern_key, bern.key, sizeof(bern.key));
            p->bern_meta[0] = bern.pos;
            p->bern_meta[1] = bern.consumed;
        }
    }
    if (qs) {
        for (i = 0; i < nq; i++) {
            free(qs[i].tail.buf);
            free(qs[i].dram.buf);
            free(qs[i].sram);
            free(qs[i].req.buf);
            free(qs[i].arr.buf);
        }
        free(qs);
    }
    free(seqbuf);
    free(rb_shift);
    return err;
}
