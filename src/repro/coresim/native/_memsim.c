/* Native memory-hierarchy walk: a C port of repro/memsim (cache.py,
 * prefetcher.py, simulator.py) for memory bug models that declare a native
 * spec (repro/memsim/hooks.py: NativeMemorySpec).  It is compiled into the
 * same shared library as _core.c.
 *
 * Bit-identity contract: every per-step counter delta, AMAT, stall and IPC
 * value, the total cycle count and the total AMAT must match the Python
 * MemoryHierarchySim exactly.  The places where that takes care:
 *   - Replacement ages are unique per cache (one tick per access or fill,
 *     and a tick is written to at most one line), so the min()/max() victim
 *     choice of the Python dict has no ties and the order of ways is free.
 *   - The SPP pattern table keeps each signature's deltas in first-seen
 *     order, and the best/worst delta is the first one with the extreme
 *     count, as Python's max()/min() over an insertion-ordered dict.
 *   - Cache statistics (load_misses included, which the miss-delay bug
 *     reads) reset after warm-up; the prefetcher's issued count does not.
 *   - Floating-point sums run in the Python order, one operation at a
 *     time (the build passes -ffp-contract=off).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef int32_t i32;
typedef uint8_t u8;

#define MEM_LEVELS 3
#define PAGE_SIZE 4096
#define SIGNATURE_MASK 0xFFF
#define NUM_SIGNATURES (SIGNATURE_MASK + 1)
#define SPP_MAX_DEPTH 4
#define SPP_CONFIDENCE_THRESHOLD 0.25

enum { PF_NONE = 0, PF_NEXT_LINE, PF_SPP };

/* Per-level statistics, in ReplacementCache.stats() order. */
enum {
    LS_ACCESSES = 0,
    LS_MISSES,
    LS_LOAD_MISSES,
    LS_EVICTIONS,
    LS_PREFETCH_FILLS,
    LS_USEFUL_PREFETCHES,
    NUM_LEVEL_STATS
};

/* Output columns.  Must match _COLUMN_NAMES in repro/memsim/native.py:
 * NUM_LEVEL_STATS per level (l1d, l2, llc), then the step-level values. */
enum {
    MC_LEVEL0 = 0,
    MC_PREFETCHES_ISSUED = MC_LEVEL0 + MEM_LEVELS * NUM_LEVEL_STATS,  /* 18 */
    MC_AMAT,
    MC_ACCESSES,
    MC_INSTRUCTIONS,
    MC_STALL_CYCLES,
    MC_IPC,
    NUM_MEM_COLUMNS       /* 24 */
};

/* Mirror of the ctypes _MemParams structure in repro/memsim/native.py
 * (field order and array lengths must match; every field is 8 bytes). */
typedef struct {
    i64 total;             /* trace length */
    i64 warmup;            /* leading instructions that only warm the caches */
    i64 step;              /* instructions per sample step */
    i64 issue_width;
    i64 dram_latency;
    i64 prefetcher;        /* PF_* */
    i64 prefetch_degree;   /* clamped to >= 1 */
    i64 prefetch_line_size;
    i64 num_sets[MEM_LEVELS];
    i64 assoc[MEM_LEVELS];
    i64 line_shift[MEM_LEVELS];
    i64 latency[MEM_LEVELS];
    i64 no_age_update[MEM_LEVELS];
    i64 evict_mru[MEM_LEVELS];
    i64 delay_level;       /* 0 (l1d), 1 (l2) or -1: no miss-delay bug */
    i64 delay_threshold;
    i64 delay_cycles;
    i64 spp_reset;
    i64 spp_least_confident;
    i64 spp_drop_every;    /* 0: never drop */
    double mlp_factor;
} MemParams;

/* Python-compatible modulo / floor division (operands may be negative). */
static inline i64 pymod(i64 a, i64 b) {
    i64 r = a % b;
    return r < 0 ? r + b : r;
}

static inline i64 pyfloordiv(i64 a, i64 b) {
    i64 q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) {
        q -= 1;
    }
    return q;
}

/* ---------------------------------------------------------------------- */
/* One cache level (port of repro/memsim/cache.py)                         */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 tag;
    i64 age;
    i64 prefetched;
} Way;

/* A set gets its block of ways on its first insert, as the Python lane's
 * dict does, so memory follows the lines a probe touches. */
typedef struct {
    i64 num_sets;
    i64 assoc;
    i64 line_shift;
    int no_age_update;
    int evict_mru;
    i64 tick;
    i64 stats[NUM_LEVEL_STATS];
    i32 *set_block;   /* per set: 1 + its block index, 0 = never filled */
    i32 *fill;        /* per block: valid ways */
    Way *ways;        /* per block: assoc ways */
    i64 nblocks;
    i64 cap_blocks;
} Level;

static Way *level_find(const Level *c, i64 set, i64 tag) {
    i32 block = c->set_block[set];
    Way *ways;
    i64 n, w;
    if (block == 0) {
        return NULL;
    }
    ways = c->ways + (i64)(block - 1) * c->assoc;
    n = c->fill[block - 1];
    for (w = 0; w < n; w++) {
        if (ways[w].tag == tag) {
            return &ways[w];
        }
    }
    return NULL;
}

/* Install *tag* (known absent) into *set*.  Returns 0, or -1 when out of
 * memory. */
static int level_insert(Level *c, i64 set, i64 tag, int prefetch) {
    i64 block = c->set_block[set] - 1;
    Way *ways;
    i64 n, w, victim;
    if (block < 0) {
        if (c->nblocks == c->cap_blocks) {
            i64 cap = c->cap_blocks ? 2 * c->cap_blocks : 64;
            i32 *fill = (i32 *)realloc(c->fill, (size_t)cap * sizeof(i32));
            Way *grown;
            if (fill == NULL) {
                return -1;
            }
            c->fill = fill;
            grown = (Way *)realloc(c->ways, (size_t)(cap * c->assoc) * sizeof(Way));
            if (grown == NULL) {
                return -1;
            }
            c->ways = grown;
            c->cap_blocks = cap;
        }
        block = c->nblocks++;
        c->fill[block] = 0;
        c->set_block[set] = (i32)(block + 1);
    }
    ways = c->ways + block * c->assoc;
    n = c->fill[block];
    if (n < c->assoc) {
        victim = n;
        c->fill[block] = (i32)(n + 1);
    } else {
        victim = 0;
        for (w = 1; w < n; w++) {
            if (c->evict_mru ? ways[w].age > ways[victim].age
                             : ways[w].age < ways[victim].age) {
                victim = w;
            }
        }
        c->stats[LS_EVICTIONS] += 1;
    }
    ways[victim].tag = tag;
    ways[victim].age = c->tick;
    ways[victim].prefetched = prefetch;
    return 0;
}

/* Demand access: 1 on hit, 0 on miss (line allocated), -1 out of memory. */
static int level_access(Level *c, i64 address, int is_load) {
    i64 line = address >> c->line_shift;
    i64 set = pymod(line, c->num_sets);
    i64 tag = pyfloordiv(line, c->num_sets);
    Way *way;
    c->tick += 1;
    c->stats[LS_ACCESSES] += 1;
    way = level_find(c, set, tag);
    if (way != NULL) {
        if (!c->no_age_update) {
            way->age = c->tick;
        }
        if (way->prefetched) {
            c->stats[LS_USEFUL_PREFETCHES] += 1;
            way->prefetched = 0;
        }
        return 1;
    }
    c->stats[LS_MISSES] += 1;
    if (is_load) {
        c->stats[LS_LOAD_MISSES] += 1;
    }
    return level_insert(c, set, tag, 0);
}

static int level_prefetch_fill(Level *c, i64 address) {
    i64 line = address >> c->line_shift;
    i64 set = pymod(line, c->num_sets);
    i64 tag = pyfloordiv(line, c->num_sets);
    c->tick += 1;
    if (level_find(c, set, tag) != NULL) {
        return 0;
    }
    c->stats[LS_PREFETCH_FILLS] += 1;
    return level_insert(c, set, tag, 1);
}

/* ---------------------------------------------------------------------- */
/* Signature Path Prefetcher (port of repro/memsim/prefetcher.py)          */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 delta;
    i64 count;
} DeltaCount;

/* One signature's deltas in first-seen order, plus their count sum. */
typedef struct {
    DeltaCount *entries;
    i64 n;
    i64 cap;
    i64 total;
} Pattern;

/* Open-addressing page -> (signature, last block) table. */
typedef struct {
    i64 mask;
    i64 *page;
    i64 *signature;
    i64 *block;
    u8 *used;
} PageTable;

typedef struct {
    i64 line_size;
    i64 degree;
    i64 blocks_per_page;
    int reset;
    int least_confident;
    i64 drop_every;
    i64 issued;
    i64 marked_executed;
    Pattern patterns[NUM_SIGNATURES];
    PageTable pages;
} Spp;

static inline i64 advance_signature(i64 signature, i64 delta) {
    return ((signature << 3) ^ (delta & 0x3F)) & SIGNATURE_MASK;
}

static int pattern_update(Pattern *p, i64 delta) {
    i64 i;
    p->total += 1;
    for (i = 0; i < p->n; i++) {
        if (p->entries[i].delta == delta) {
            p->entries[i].count += 1;
            return 0;
        }
    }
    if (p->n == p->cap) {
        i64 cap = p->cap ? 2 * p->cap : 4;
        DeltaCount *grown =
            (DeltaCount *)realloc(p->entries, (size_t)cap * sizeof(DeltaCount));
        if (grown == NULL) {
            return -1;
        }
        p->entries = grown;
        p->cap = cap;
    }
    p->entries[p->n].delta = delta;
    p->entries[p->n].count = 1;
    p->n += 1;
    return 0;
}

static inline i64 page_slot(const PageTable *t, i64 page) {
    return (i64)(((u64)page * 0x9E3779B97F4A7C15ULL) >> 1) & t->mask;
}

/* Slot of *page*: its entry, or the free slot where it would go. */
static i64 page_find(const PageTable *t, i64 page) {
    i64 slot = page_slot(t, page);
    while (t->used[slot] && t->page[slot] != page) {
        slot = (slot + 1) & t->mask;
    }
    return slot;
}

/* Observe one demand access; issued prefetches fill L2, then the LLC.
 * Returns 0, or -1 when out of memory. */
static int spp_observe(Spp *s, Level *l2, Level *llc, i64 address) {
    i64 page = pyfloordiv(address, PAGE_SIZE);
    i64 block = pyfloordiv(pymod(address, PAGE_SIZE), s->line_size);
    i64 slot = page_find(&s->pages, page);
    i64 signature = 0;
    double path_confidence = 1.0;
    i64 lookahead_signature, lookahead_block, depth, requests = 0;

    if (s->pages.used[slot]) {
        i64 delta = block - s->pages.block[slot];
        signature = s->pages.signature[slot];
        if (delta != 0) {
            if (pattern_update(&s->patterns[signature], delta) != 0) {
                return -1;
            }
            signature = advance_signature(signature, delta);
        }
    }
    if (s->reset) {
        signature = 0;
    }
    signature &= SIGNATURE_MASK;
    s->pages.used[slot] = 1;
    s->pages.page[slot] = page;
    s->pages.signature[slot] = signature;
    s->pages.block[slot] = block;

    lookahead_signature = signature;
    lookahead_block = block;
    for (depth = 0; depth < SPP_MAX_DEPTH; depth++) {
        const Pattern *p = &s->patterns[lookahead_signature];
        i64 best, i, delta;
        if (p->n == 0) {
            break;
        }
        best = 0;
        for (i = 1; i < p->n; i++) {
            if (s->least_confident ? p->entries[i].count < p->entries[best].count
                                   : p->entries[i].count > p->entries[best].count) {
                best = i;
            }
        }
        delta = p->entries[best].delta;
        path_confidence *= (double)p->entries[best].count / (double)p->total;
        if (path_confidence < SPP_CONFIDENCE_THRESHOLD) {
            break;
        }
        lookahead_block += delta;
        if (!(0 <= lookahead_block && lookahead_block < s->blocks_per_page)) {
            break;
        }
        if (s->drop_every > 0 &&
            (s->issued + s->marked_executed) % s->drop_every == 0) {
            /* Marked as executed, but nothing reaches the cache. */
            s->marked_executed += 1;
        } else {
            i64 target = page * PAGE_SIZE + lookahead_block * s->line_size;
            requests += 1;
            s->issued += 1;
            if (level_prefetch_fill(l2, target) != 0 ||
                level_prefetch_fill(llc, target) != 0) {
                return -1;
            }
        }
        lookahead_signature = advance_signature(lookahead_signature, delta);
        if (requests >= s->degree) {
            break;
        }
    }
    return 0;
}

/* ---------------------------------------------------------------------- */
/* The hierarchy walk (port of repro/memsim/simulator.py)                  */
/* ---------------------------------------------------------------------- */

typedef struct {
    const MemParams *P;
    Level levels[MEM_LEVELS];
    Spp *spp;
    i64 next_line_issued;
} Hierarchy;

/* One demand access; returns its latency in cycles, or -1 when out of
 * memory. */
static i64 hierarchy_access(Hierarchy *h, i64 address, int is_load) {
    const MemParams *P = h->P;
    i64 latency = P->latency[0];
    int hit = level_access(&h->levels[0], address, is_load);
    if (hit < 0) {
        return -1;
    }
    if (!hit) {
        latency += P->latency[1];
        if (is_load && P->delay_level == 0 &&
            h->levels[0].stats[LS_LOAD_MISSES] > P->delay_threshold) {
            latency += P->delay_cycles;
        }
        hit = level_access(&h->levels[1], address, is_load);
        if (hit < 0) {
            return -1;
        }
        if (!hit) {
            latency += P->latency[2];
            if (is_load && P->delay_level == 1 &&
                h->levels[1].stats[LS_LOAD_MISSES] > P->delay_threshold) {
                latency += P->delay_cycles;
            }
            hit = level_access(&h->levels[2], address, is_load);
            if (hit < 0) {
                return -1;
            }
            if (!hit) {
                latency += P->dram_latency;
            }
        }
    }
    /* The prefetcher observes demand accesses at L1D and fills L2/LLC. */
    if (P->prefetcher == PF_NEXT_LINE) {
        i64 i;
        for (i = 1; i <= P->prefetch_degree; i++) {
            i64 target = address + i * P->prefetch_line_size;
            if (level_prefetch_fill(&h->levels[1], target) != 0 ||
                level_prefetch_fill(&h->levels[2], target) != 0) {
                return -1;
            }
        }
        h->next_line_issued += P->prefetch_degree;
    } else if (P->prefetcher == PF_SPP) {
        if (spp_observe(h->spp, &h->levels[1], &h->levels[2], address) != 0) {
            return -1;
        }
    }
    return latency;
}

static i64 prefetches_issued(const Hierarchy *h) {
    if (h->P->prefetcher == PF_NEXT_LINE) {
        return h->next_line_issued;
    }
    if (h->P->prefetcher == PF_SPP) {
        return h->spp->issued;
    }
    return 0;
}

/* Cumulative statistics in column order (MC_LEVEL0 .. MC_PREFETCHES_ISSUED). */
static void snapshot(const Hierarchy *h, i64 *out) {
    i64 level, stat;
    for (level = 0; level < MEM_LEVELS; level++) {
        for (stat = 0; stat < NUM_LEVEL_STATS; stat++) {
            out[MC_LEVEL0 + level * NUM_LEVEL_STATS + stat] =
                h->levels[level].stats[stat];
        }
    }
    out[MC_PREFETCHES_ISSUED] = prefetches_issued(h);
}

typedef struct {
    double latency;
    i64 accesses;
    i64 instructions;
} Step;

/* Append one sample row (column-major out[col * max_rows + row]). */
static void flush_step(const Hierarchy *h, Step *step, i64 *previous,
                       double *out, i64 max_rows, i64 row) {
    const MemParams *P = h->P;
    i64 current[MC_PREFETCHES_ISSUED + 1];
    i64 col;
    double l1 = (double)P->latency[0];
    double amat, stall, cycles;
    snapshot(h, current);
    for (col = 0; col <= MC_PREFETCHES_ISSUED; col++) {
        out[col * max_rows + row] = (double)current[col] - (double)previous[col];
        previous[col] = current[col];
    }
    amat = step->accesses ? step->latency / (double)step->accesses : l1;
    stall = step->latency - (double)(step->accesses * P->latency[0]);
    if (!(stall > 0.0)) {
        stall = 0.0;
    }
    cycles = (double)step->instructions / (double)P->issue_width +
             stall / P->mlp_factor;
    out[MC_AMAT * max_rows + row] = amat;
    out[MC_ACCESSES * max_rows + row] = (double)step->accesses;
    out[MC_INSTRUCTIONS * max_rows + row] = (double)step->instructions;
    out[MC_STALL_CYCLES * max_rows + row] = stall;
    out[MC_IPC * max_rows + row] =
        cycles > 0.0 ? (double)step->instructions / cycles : 0.0;
    step->latency = 0.0;
    step->accesses = 0;
    step->instructions = 0;
}

static void hierarchy_free(Hierarchy *h) {
    i64 level, sig;
    for (level = 0; level < MEM_LEVELS; level++) {
        free(h->levels[level].set_block);
        free(h->levels[level].fill);
        free(h->levels[level].ways);
    }
    if (h->spp != NULL) {
        for (sig = 0; sig < NUM_SIGNATURES; sig++) {
            free(h->spp->patterns[sig].entries);
        }
        free(h->spp->pages.page);
        free(h->spp->pages.signature);
        free(h->spp->pages.block);
        free(h->spp->pages.used);
        free(h->spp);
    }
}

/* Simulate one trace.  access[i] is 0 (no memory access), 1 (a non-load
 * access) or 2 (a load) at address[i].  Writes up to max_rows sample rows
 * into out_rows (column-major, NUM_MEM_COLUMNS columns) and
 * out_scalars = {rows, total cycles, AMAT}.  Returns 0 on success, 2 when
 * out of memory, 3 when max_rows is too small. */
int repro_memsim(const MemParams *P, const i64 *address, const u8 *access,
                 double *out_rows, i64 max_rows, double *out_scalars) {
    Hierarchy h;
    Step step = {0.0, 0, 0};
    i64 previous[MC_PREFETCHES_ISSUED + 1];
    i64 i, level, rows = 0, total_accesses = 0;
    double total_latency = 0.0, total_cycles = 0.0;
    double l1 = (double)P->latency[0];
    int rc = 0;

    memset(&h, 0, sizeof(h));
    h.P = P;
    for (level = 0; level < MEM_LEVELS; level++) {
        Level *c = &h.levels[level];
        c->num_sets = P->num_sets[level];
        c->assoc = P->assoc[level];
        c->line_shift = P->line_shift[level];
        c->no_age_update = P->no_age_update[level] != 0;
        c->evict_mru = P->evict_mru[level] != 0;
        c->set_block = (i32 *)calloc((size_t)c->num_sets, sizeof(i32));
        if (c->set_block == NULL) {
            rc = 2;
            goto done;
        }
    }
    if (P->prefetcher == PF_SPP) {
        i64 accesses = 0, size = 16;
        for (i = 0; i < P->total; i++) {
            accesses += access[i] != 0;
        }
        while (size < 2 * accesses) {
            size *= 2;
        }
        h.spp = (Spp *)calloc(1, sizeof(Spp));
        if (h.spp == NULL) {
            rc = 2;
            goto done;
        }
        h.spp->line_size = P->prefetch_line_size;
        h.spp->degree = P->prefetch_degree;
        h.spp->blocks_per_page = PAGE_SIZE / P->prefetch_line_size;
        h.spp->reset = P->spp_reset != 0;
        h.spp->least_confident = P->spp_least_confident != 0;
        h.spp->drop_every = P->spp_drop_every;
        h.spp->pages.mask = size - 1;
        h.spp->pages.page = (i64 *)malloc((size_t)size * sizeof(i64));
        h.spp->pages.signature = (i64 *)malloc((size_t)size * sizeof(i64));
        h.spp->pages.block = (i64 *)malloc((size_t)size * sizeof(i64));
        h.spp->pages.used = (u8 *)calloc((size_t)size, 1);
        if (h.spp->pages.page == NULL || h.spp->pages.signature == NULL ||
            h.spp->pages.block == NULL || h.spp->pages.used == NULL) {
            rc = 2;
            goto done;
        }
    }

    for (i = 0; i < P->warmup; i++) {
        if (access[i] && hierarchy_access(&h, address[i], access[i] == 2) < 0) {
            rc = 2;
            goto done;
        }
    }
    for (level = 0; level < MEM_LEVELS; level++) {
        memset(h.levels[level].stats, 0, sizeof(h.levels[level].stats));
    }
    snapshot(&h, previous);

    for (i = P->warmup; i < P->total; i++) {
        step.instructions += 1;
        if (access[i]) {
            i64 latency = hierarchy_access(&h, address[i], access[i] == 2);
            double extra;
            if (latency < 0) {
                rc = 2;
                goto done;
            }
            step.latency += (double)latency;
            step.accesses += 1;
            total_latency += (double)latency;
            total_accesses += 1;
            extra = (double)(latency - P->latency[0]);
            total_cycles += (extra > 0.0 ? extra : 0.0) / P->mlp_factor;
        }
        if (step.instructions >= P->step) {
            if (rows >= max_rows) {
                rc = 3;
                goto done;
            }
            flush_step(&h, &step, previous, out_rows, max_rows, rows++);
        }
    }
    if (step.instructions >= P->step / 2 || rows == 0) {
        if (rows >= max_rows) {
            rc = 3;
            goto done;
        }
        flush_step(&h, &step, previous, out_rows, max_rows, rows++);
        /* The Python driver's second check ("no rows yet") cannot fire
         * after this flush. */
    }
    total_cycles += (double)(P->total - P->warmup) / (double)P->issue_width;
    out_scalars[0] = (double)rows;
    out_scalars[1] = total_cycles;
    out_scalars[2] = total_accesses ? total_latency / (double)total_accesses : l1;

done:
    hierarchy_free(&h);
    return rc;
}
