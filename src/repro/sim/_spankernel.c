/* Span kernel for the "array" engine's RADS core.
 *
 * This file is compiled on demand by repro.sim.kernel (cc -O2 -shared) and
 * loaded through ctypes; it is NOT a CPython extension module and includes
 * no Python headers, so it builds anywhere a C99 compiler exists.  The
 * kernel executes exactly the slot loop of repro.sim.array_engine's RADS
 * core (stock ECQF + threshold tail MMA + RandomArbiter, num_queues <=
 * 65536 so a queue id fits the 16-bit field of CRIT_KEY).  Everything is
 * integer arithmetic except the two places CPython uses doubles — random()
 * and choices() — which are reproduced with the identical IEEE-754
 * expressions (this translation unit must never be compiled with
 * -ffast-math).
 *
 * Buffer ownership: python hands in only fixed-shape arrays (per-queue
 * scalars, the eligible list, the lookahead ring, RNG keys, the arrival
 * plan) plus one read-only image of the variable-length state.  Every
 * buffer that grows during the span — per-queue FIFO contents, SRAM heaps,
 * the critical heap, pending blocks, delays, misses, drained slots — is
 * the kernel's own, and the span's outcome comes back as one exact-size
 * result that python reads and then releases with rads_free_result().  No
 * capacity is negotiated with the caller, so there is nothing to
 * overflow.
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
/* Growable int64 array: FIFO by cursor, or a heap (head stays 0)      */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *buf;
    int64_t head;   /* first live element */
    int64_t len;    /* one past last live element */
    int64_t cap;
} ivec;

#define IV_COUNT(v) ((v)->len - (v)->head)

/* Room for n more elements: reclaim the consumed prefix when it is at
 * least half the storage (amortised O(1)), else double. */
static int iv_reserve(ivec *v, int64_t n)
{
    int64_t ncap;
    int64_t *nb;
    if (v->len + n <= v->cap)
        return 1;
    if (v->head > 0 && v->head * 2 >= v->len) {
        memmove(v->buf, v->buf + v->head,
                (size_t)IV_COUNT(v) * sizeof(int64_t));
        v->len -= v->head;
        v->head = 0;
        if (v->len + n <= v->cap)
            return 1;
    }
    ncap = v->cap > 4 ? v->cap * 2 : 8;
    while (ncap < v->len + n)
        ncap *= 2;
    nb = (int64_t *)realloc(v->buf, (size_t)ncap * sizeof(int64_t));
    if (!nb)
        return 0;
    v->buf = nb;
    v->cap = ncap;
    return 1;
}

static int iv_push(ivec *v, int64_t x)
{
    if (v->len == v->cap && !iv_reserve(v, 1))
        return 0;
    v->buf[v->len++] = x;
    return 1;
}

static int iv_append(ivec *v, const int64_t *src, int64_t n)
{
    if (n <= 0)
        return 1;
    if (!iv_reserve(v, n))
        return 0;
    memcpy(v->buf + v->len, src, (size_t)n * sizeof(int64_t));
    v->len += n;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Min-heaps (unique keys -> any valid heap pops identically)          */
/* ------------------------------------------------------------------ */

static void heap_up(int64_t *h, int64_t i)
{
    int64_t x = h[i];
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h[p] <= x)
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = x;
}

static void heap_down(int64_t *h, int64_t n, int64_t i)
{
    int64_t x = h[i];
    for (;;) {
        int64_t c = 2 * i + 1;
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

static int heap_push(ivec *h, int64_t key)
{
    if (!iv_push(h, key))
        return 0;
    heap_up(h->buf, h->len - 1);
    return 1;
}

static void heap_pop(ivec *h)
{
    h->buf[0] = h->buf[--h->len];
    if (h->len)
        heap_down(h->buf, h->len, 0);
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
#define ERR_ARG 3   /* bad shape, or a plan entry names no queue */

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
    int64_t ecqf_fallback;
    int64_t state_len;              /* elements in kptrs.state */
    /* machine scalars (in/out) */
    int64_t tail_total, dram_total, sram_total, la_pos, negatives;
    int64_t cells_in, cells_out, dram_reads, dram_writes, dropped;
    int64_t max_tail, max_head;
    int64_t crit_len, pending_len, eligible_len;
    /* results (out) */
    int64_t n_delays, n_delay_pairs, n_head_miss, n_tail_miss, n_drained;
    int64_t arrivals_seen, grants, result_len;
} kcfg;

/* The variable-length state image (kptrs.state, read-only) and the head
 * of the result share one layout, queue by queue within each part:
 *
 *   sram_cnt[nq] arr_cnt[nq]
 *   tail cells (tail_occ[q] each)   dram cells (dram_occ[q] each)
 *   sram heaps (sram_cnt[q] each)   request entry slots (req_count[q] each)
 *   arrival slots (arr_cnt[q] each) crit heap keys (crit_len)
 *   pending blocks (pending_len x: finish slot, queue, cell count, cells)
 *
 * The result then appends the main window's delays folded into
 * n_delay_pairs (delay, count) pairs in ascending delay order,
 * n_head_miss (queue, slot) pairs and n_drained arrival slots. */
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
    int64_t *eligible;              /* sorted, len eligible_len, cap nq */
    int64_t *la_ring;               /* in/out, len la_len, -1 = empty */
    const int64_t *state;           /* in: the state image, state_len */
    int64_t *result;                /* out: kernel-owned, result_len */
} kptrs;

typedef struct {
    ivec tail, dram, req, arr;      /* FIFOs by cursor */
    ivec sram;                      /* heap */
} qstate;

/* Delay histogram of the main window, indexed by delay. */
typedef struct {
    int64_t *count;
    int64_t cap, max;
} hist;

static int64_t hist_add(hist *h, int64_t delay)
{
    if (delay < 0)
        return ERR_ARG;
    if (delay >= h->cap) {
        int64_t ncap = h->cap > 0 ? h->cap * 2 : 1024;
        int64_t *nb;
        while (ncap <= delay)
            ncap *= 2;
        nb = (int64_t *)realloc(h->count, (size_t)ncap * sizeof(int64_t));
        if (!nb)
            return ERR_OOM;
        memset(nb + h->cap, 0, (size_t)(ncap - h->cap) * sizeof(int64_t));
        h->count = nb;
        h->cap = ncap;
    }
    h->count[delay]++;
    if (delay > h->max)
        h->max = delay;
    return ERR_OK;
}

/* Sequential reader over the state image: every take is bounds-checked,
 * so counts that disagree with the image abort with ERR_ARG. */
typedef struct {
    const int64_t *at;
    int64_t left;
} reader;

static const int64_t *take(reader *r, int64_t n)
{
    const int64_t *at = r->at;
    if (n < 0 || n > r->left)
        return NULL;
    r->at += n;
    r->left -= n;
    return at;
}

/* Fill v with the next n image elements (ERR_ARG / ERR_OOM on failure). */
static int64_t iv_load(ivec *v, reader *r, int64_t n)
{
    const int64_t *src = take(r, n);
    if (!src)
        return ERR_ARG;
    return iv_append(v, src, n) ? ERR_OK : ERR_OOM;
}

static int64_t *put(int64_t *w, const ivec *v)
{
    int64_t n = IV_COUNT(v);
    if (n)
        memcpy(w, v->buf + v->head, (size_t)n * sizeof(int64_t));
    return w + n;
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

void rads_free_result(int64_t *result)
{
    free(result);
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
    int *rb_shift = NULL;           /* 32 - bit_length(m), idx 0..nq */
    qstate *qs = NULL;
    ivec crit = {0}, pend = {0}, misses = {0}, drained = {0};
    hist delays = {0};
    mt_state arb, bern;
    p->result = NULL;
    if (nq < 1 || nq > MAX_QUEUES || g < 1 || la_len < 1
            || c->la_pos < 0 || c->la_pos >= la_len
            || c->eligible_len < 0 || c->eligible_len > nq
            || c->pending_len < 0)
        return ERR_ARG;
    rb_shift = (int *)malloc((size_t)(nq + 1) * sizeof(int));
    qs = (qstate *)calloc((size_t)nq, sizeof(qstate));
    if (!rb_shift || !qs) {
        err = ERR_OOM;
        goto cleanup;
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

    /* Every id that indexes per-queue state must name a queue. */
    for (i = 0; i < la_len; i++)
        if (p->la_ring[i] < -1 || p->la_ring[i] >= nq)
            err = ERR_ARG;
    for (i = 0; i < c->eligible_len; i++)
        if (p->eligible[i] < 0 || p->eligible[i] >= nq)
            err = ERR_ARG;
    if (err != ERR_OK)
        goto cleanup;

    memcpy(arb.key, p->arb_key, sizeof(arb.key));
    arb.pos = (int)p->arb_meta[0];
    arb.consumed = 0;
    if (plan_mode == 1) {
        memcpy(bern.key, p->bern_key, sizeof(bern.key));
        bern.pos = (int)p->bern_meta[0];
        bern.consumed = 0;
    }

    /* ---- working state from the image ---- */
    {
        reader r = {p->state, c->state_len};
        const int64_t *sram_cnt = take(&r, nq), *arr_cnt = take(&r, nq);
        if (!sram_cnt || !arr_cnt) {
            err = ERR_ARG;
            goto cleanup;
        }
        for (i = 0; i < nq && err == ERR_OK; i++)
            err = iv_load(&qs[i].tail, &r, p->tail_occ[i]);
        for (i = 0; i < nq && err == ERR_OK; i++)
            err = iv_load(&qs[i].dram, &r, p->dram_occ[i]);
        for (i = 0; i < nq && err == ERR_OK; i++)
            err = iv_load(&qs[i].sram, &r, sram_cnt[i]);
        for (i = 0; i < nq && err == ERR_OK; i++)
            err = iv_load(&qs[i].req, &r, p->req_count[i]);
        for (i = 0; i < nq && err == ERR_OK; i++)
            err = iv_load(&qs[i].arr, &r, arr_cnt[i]);
        if (err == ERR_OK)
            err = iv_load(&crit, &r, c->crit_len);
        for (i = 0; i < crit.len && err == ERR_OK; i++)
            if (crit.buf[i] < 0 || CRIT_QUEUE(crit.buf[i]) >= nq)
                err = ERR_ARG;
        for (i = 0; i < c->pending_len && err == ERR_OK; i++) {
            const int64_t *entry = take(&r, 3);
            if (!entry || entry[1] < 0 || entry[1] >= nq) {
                err = ERR_ARG;
                break;
            }
            if (!iv_append(&pend, entry, 3))
                err = ERR_OOM;
            else
                err = iv_load(&pend, &r, entry[2]);
        }
        if (err != ERR_OK)
            goto cleanup;
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
    int64_t pend_len = c->pending_len;
    int elig_len = (int)c->eligible_len;
    int64_t n_delays = 0, n_tail_miss = 0;
    int64_t arrivals_seen = 0, grants = 0;
    int big_cnt = 0;
    int64_t *elig = p->eligible;
    int64_t *crit_cache = p->crit_cache;
    int64_t *counters = p->counters;
    int64_t *req_count = p->req_count;
    int64_t *tail_occ = p->tail_occ;
    int64_t *dram_occ = p->dram_occ;
    int64_t slot, next_land;
    int pc;

    next_land = pend_len ? pend.buf[pend.head] : NEVER;

    for (i = 0; i < nq; i++)
        if (tail_occ[i] >= g)
            big_cnt++;
    pc = (g - (int)(c->start_slot % g)) % g;

    for (slot = c->start_slot; slot < c->start_slot + num_slots; slot++) {
        int pol = 0;
        int a = -1;         /* arrival queue, -1 = none */
        int request = -1;   /* granted queue, -1 = none */
        int leaving;
        if (--pc < 0) {
            pc = g - 1;
            pol = 1;
        }

        if (is_main) {
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
            if (dram_occ[a] == 0 && tail_occ[a] == 0
                    && IV_COUNT(&qa->sram) < g) {
                sram_total++;
                if (sram_cap >= 0 && sram_total > sram_cap) {
                    err = ERR_STRICT;   /* SRAM overflow raises always */
                    goto done;
                }
                if (!heap_push(&qa->sram, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                {
                    int64_t count = ++counters[a];
                    if (count == 0)
                        negatives--;
                    if (count >= 0 && count < req_count[a]) {
                        int64_t entered = qa->req.buf[qa->req.head + count];
                        crit_cache[a] = entered;
                        if (!heap_push(&crit, CRIT_KEY(entered, a))) {
                            err = ERR_OOM;
                            goto done;
                        }
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
                    int64_t avail = IV_COUNT(&qt->tail);
                    int evicted = avail < g ? (int)avail : g;
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
                            if (dram_cap >= 0
                                    && dram_total + stored > dram_cap) {
                                err = ERR_STRICT;
                                goto done;
                            }
                            /* blk stays valid: the tail buffer is not
                             * touched until the next push. */
                            if (!iv_append(&qt->dram, blk, stored)) {
                                err = ERR_OOM;
                                goto done;
                            }
                            dram_total += stored;
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
                crit_cache[request] = slot;
                if (!heap_push(&crit, CRIT_KEY(slot, request))) {
                    err = ERR_OOM;
                    goto done;
                }
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
            while (pend_len && pend.buf[pend.head] <= slot) {
                int lq = (int)pend.buf[pend.head + 1];
                int64_t cnt = pend.buf[pend.head + 2];
                const int64_t *cells = pend.buf + pend.head + 3;
                qstate *ql = &qs[lq];
                for (q2 = 0; q2 < cnt; q2++) {
                    sram_total++;
                    if (sram_cap >= 0 && sram_total > sram_cap) {
                        err = ERR_STRICT;
                        goto done;
                    }
                    if (!heap_push(&ql->sram, cells[q2])) {
                        err = ERR_OOM;
                        goto done;
                    }
                }
                pend.head += 3 + cnt;
                pend_len--;
            }
            next_land = pend_len ? pend.buf[pend.head] : NEVER;
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
                while (crit.len) {
                    int64_t top = crit.buf[0];
                    int tq = CRIT_QUEUE(top);
                    if (crit_cache[tq] == CRIT_ENTERED(top)) {
                        selection = tq;
                        break;
                    }
                    heap_pop(&crit);
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
                int64_t got = 0, extra = 0, nseqs;
                if (dram_occ[selection]) {
                    int64_t avail = IV_COUNT(&qr->dram);
                    got = avail < g ? avail : g;
                }
                if (got < g) {
                    int64_t avail = IV_COUNT(&qr->tail);
                    extra = avail < g - got ? avail : g - got;
                }
                nseqs = got + extra;
                if (nseqs) {
                    /* The block lands g slots from now: DRAM cells first,
                     * then the cut-through rest from the tail. */
                    if (!pend_len)
                        next_land = slot + g;
                    if (!iv_push(&pend, slot + g)
                            || !iv_push(&pend, selection)
                            || !iv_push(&pend, nseqs)
                            || !iv_append(&pend, qr->dram.buf + qr->dram.head,
                                          got)
                            || !iv_append(&pend, qr->tail.buf + qr->tail.head,
                                          extra)) {
                        err = ERR_OOM;
                        goto done;
                    }
                    pend_len++;
                    dram_reads++;
                }
                if (got) {
                    qr->dram.head += got;
                    dram_occ[selection] -= got;
                    dram_total -= got;
                }
                if (extra) {
                    int64_t occ_b = tail_occ[selection];
                    int64_t occ_a = occ_b - extra;
                    qr->tail.head += extra;
                    tail_occ[selection] = occ_a;
                    tail_total -= extra;
                    if (occ_b >= g && occ_a < g)
                        big_cnt--;
                }
                if (nseqs) {
                    int64_t count = counters[selection] + nseqs;
                    counters[selection] = count;
                    if (count >= 0 && count - nseqs < 0)
                        negatives--;
                    if (count >= 0 && count < req_count[selection]) {
                        int64_t entered = qr->req.buf[qr->req.head + count];
                        crit_cache[selection] = entered;
                        if (!heap_push(&crit, CRIT_KEY(entered, selection))) {
                            err = ERR_OOM;
                            goto done;
                        }
                    } else {
                        crit_cache[selection] = CRIT_INF;
                    }
                }
            }
        }

        /* -- serve -- */
        if (leaving >= 0) {
            qstate *ql = &qs[leaving];
            int64_t expected = p->delivered[leaving];
            int ok = 1;
            if (ql->sram.len && ql->sram.buf[0] == expected) {
                heap_pop(&ql->sram);
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
                if (!iv_push(&misses, leaving) || !iv_push(&misses, slot)) {
                    err = ERR_OOM;
                    goto done;
                }
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
                ok = 0;
            }
            if (ok) {
                int64_t arrival_slot;
                if (!IV_COUNT(&ql->arr)) {
                    err = ERR_ARG;      /* a cell without an arrival slot */
                    goto done;
                }
                p->delivered[leaving] = expected + 1;
                cells_out++;
                arrival_slot = ql->arr.buf[ql->arr.head++];
                if (is_main) {
                    n_delays++;
                    err = hist_add(&delays, slot + 1 - arrival_slot);
                    if (err != ERR_OK)
                        goto done;
                } else if (!iv_push(&drained, arrival_slot)) {
                    err = ERR_OOM;
                    goto done;
                }
            }
        }
        if (sram_total > max_head)
            max_head = sram_total;

        /* -- end of slot: backlog + eligible -- */
        if (is_main) {
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
        /* ---- the one exact-size result (layout above kptrs) ---- */
        int64_t n_pairs = 0, size = 2 * (int64_t)nq, d;
        int64_t *w;
        for (d = 0; d <= delays.max && delays.count; d++)
            if (delays.count[d])
                n_pairs++;
        for (i = 0; i < nq; i++)
            size += IV_COUNT(&qs[i].tail) + IV_COUNT(&qs[i].dram)
                    + IV_COUNT(&qs[i].sram) + IV_COUNT(&qs[i].req)
                    + IV_COUNT(&qs[i].arr);
        size += crit.len + IV_COUNT(&pend) + 2 * n_pairs + IV_COUNT(&misses)
                + IV_COUNT(&drained);
        w = p->result = (int64_t *)malloc((size_t)(size > 0 ? size : 1)
                                          * sizeof(int64_t));
        if (!w) {
            err = ERR_OOM;
            goto cleanup;
        }
        for (i = 0; i < nq; i++)
            *w++ = IV_COUNT(&qs[i].sram);
        for (i = 0; i < nq; i++)
            *w++ = IV_COUNT(&qs[i].arr);
        for (i = 0; i < nq; i++)
            w = put(w, &qs[i].tail);
        for (i = 0; i < nq; i++)
            w = put(w, &qs[i].dram);
        for (i = 0; i < nq; i++)
            w = put(w, &qs[i].sram);
        for (i = 0; i < nq; i++)
            w = put(w, &qs[i].req);
        for (i = 0; i < nq; i++)
            w = put(w, &qs[i].arr);
        w = put(w, &crit);
        w = put(w, &pend);
        for (d = 0; d <= delays.max && delays.count; d++)
            if (delays.count[d]) {
                *w++ = d;
                *w++ = delays.count[d];
            }
        w = put(w, &misses);
        put(w, &drained);
        c->result_len = size;

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
        c->crit_len = crit.len;
        c->pending_len = pend_len;
        c->eligible_len = elig_len;
        c->n_delays = n_delays;
        c->n_delay_pairs = n_pairs;
        c->n_head_miss = IV_COUNT(&misses) / 2;
        c->n_tail_miss = n_tail_miss;
        c->n_drained = IV_COUNT(&drained);
        c->arrivals_seen = arrivals_seen;
        c->grants = grants;

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
    }

cleanup:
    if (qs) {
        for (i = 0; i < nq; i++) {
            free(qs[i].tail.buf);
            free(qs[i].dram.buf);
            free(qs[i].sram.buf);
            free(qs[i].req.buf);
            free(qs[i].arr.buf);
        }
        free(qs);
    }
    free(crit.buf);
    free(pend.buf);
    free(misses.buf);
    free(drained.buf);
    free(delays.count);
    free(rb_shift);
    return err;
}
