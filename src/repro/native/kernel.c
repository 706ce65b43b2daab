/* The exact search's depth-first traversal and the two fused popcount
 * kernels over packed uint64 transaction sets.
 *
 * Compiled on demand by repro.native.build with the system C compiler and
 * loaded through ctypes (repro.native.api).  Exported are the search's
 * whole traversal (repro_dfs, sized by repro_dfs_workspace_bytes), the
 * fused AND + popcount of column-store scans (repro_and_popcount) and the
 * fused subset test + consequent union of bulk predict
 * (repro_match_union).  Everything here is exact integer arithmetic over
 * the same packed word layout that repro.core.bitset produces (64
 * transactions per little-endian word, padding bits zero), so every
 * function is bit-identical to its numpy path: the popcount kernels to
 * repro/core/bitset.py, and repro_dfs to the numpy traversal of
 * repro/core/search.py.
 *
 * Weight tables are fixed-point int64 vectors laid out padded to
 * n_words * 64 entries (the layout of bitset.fixed_weight_table), with the
 * padding entries zero; the callers guarantee every partial sum stays far
 * below 2**51 (see repro.core.search._Quantized), so the int64
 * accumulators can never overflow and the results convert exactly to the
 * float64 integers the numpy paths carry.
 *
 * No external dependencies, C99, single translation unit; no function
 * allocates memory, and every function is reentrant.
 */

#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_POPCOUNT(x) ((int64_t)__builtin_popcountll(x))
#define REPRO_CTZ(x) ((int64_t)__builtin_ctzll(x))
#define REPRO_EXPORT __attribute__((visibility("default")))
#else
static int64_t repro_popcount_fallback(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}
static int64_t repro_ctz_fallback(uint64_t x) {
    int64_t n = 0;
    while (!(x & 1ULL)) { x >>= 1; ++n; }
    return n;
}
#define REPRO_POPCOUNT(x) repro_popcount_fallback(x)
#define REPRO_CTZ(x) repro_ctz_fallback(x)
#define REPRO_EXPORT
#endif

/* Bumped whenever an exported signature changes; repro.native.build folds
 * it into the cache key so a stale shared object is never reused. */
REPRO_EXPORT int64_t repro_abi_version(void) { return 3; }

/* Per-row popcount of rows[i] & mask (mask == NULL: plain popcount). */
REPRO_EXPORT void repro_and_popcount(
    const uint64_t *rows, int64_t n_rows, int64_t n_words,
    const uint64_t *mask, int64_t *out)
{
    int64_t i, w;
    for (i = 0; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words;
        int64_t count = 0;
        if (mask) {
            for (w = 0; w < n_words; ++w)
                count += REPRO_POPCOUNT(row[w] & mask[w]);
        } else {
            for (w = 0; w < n_words; ++w)
                count += REPRO_POPCOUNT(row[w]);
        }
        out[i] = count;
    }
}

/* Fused predict: subset test and consequent union in one pass, never
 * materialising the fired matrix.  out must hold n_rows * n_words_tgt
 * words; it is zeroed here. */
REPRO_EXPORT void repro_match_union(
    const uint64_t *rows, int64_t n_rows, int64_t n_words_src,
    const uint64_t *ant, const uint64_t *cons,
    int64_t n_rules, int64_t n_words_tgt, uint64_t *out)
{
    int64_t i, r, w;
    for (i = 0; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words_src;
        uint64_t *acc = out + i * n_words_tgt;
        for (w = 0; w < n_words_tgt; ++w)
            acc[w] = 0;
        for (r = 0; r < n_rules; ++r) {
            const uint64_t *a = ant + r * n_words_src;
            uint8_t ok = 1;
            for (w = 0; w < n_words_src; ++w) {
                if ((row[w] & a[w]) != a[w]) {
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                const uint64_t *set = cons + r * n_words_tgt;
                for (w = 0; w < n_words_tgt; ++w)
                    acc[w] |= set[w];
            }
        }
    }
}

/* ------------------------------------------------------------------------
 * The exact search's depth-first branch-and-bound (repro_dfs)
 *
 * One call runs ExactRuleSearch's whole traversal for one search, or for
 * one root-range shard of it, making every decision the numpy traversal
 * in repro/core/search.py makes, in the same order:
 *
 *   - a frame's children are the universe entries after its creator whose
 *     item co-occurs with the frame's joint support ("alive"), taken in
 *     universe order, and the root only takes those below root_hi;
 *   - each child is counted as visited, then cut by rub, then (when both
 *     sides are non-empty) skipped by qub or evaluated;
 *   - the ->, <- and <-> gains are tried in that order, and a gain
 *     replaces the incumbent only when it is strictly greater;
 *   - a child is stacked unless it already has max_rule_size items.
 *
 * Universe entry u is an item of view sides[u] (0 = left, 1 = right) with
 * packed transaction set rows[u], packed sign rows pos[u] / neg[u] (the
 * cells where translating the item gains / loses its code length) and
 * fixed-point code length wq[u], which is also its per-cell weight.  A
 * rule's delta towards view t is, over the items j of view t,
 *
 *     sum wq[j] * (|S & pos[j]| - |S & neg[j]|),  S = support of the other view,
 *
 * so the forward gain of (X, Y) is delta(1) - L(X) - L(Y) - 2, the
 * backward gain is delta(0) - L(X) - L(Y) - 2 and the bidirectional one
 * delta(0) + delta(1) - L(X) - L(Y) - 1, all in units of `one`.  Extending
 * view s by u leaves the support of the other view alone, so the child's
 * delta towards s is its parent's plus u's own term; its delta towards
 * the other view is summed afresh over the narrowed support.
 *
 * tub_left / tub_right are the transaction upper bounds of each view as
 * weight tables, and rub is the mass of each view's support under the
 * other view's table, minus the rule's cost.  The masses are summed on
 * demand: a child's rub test first reads its frame's other-side mass,
 * and sums the child's own mass only when that alone does not clear the
 * incumbent (mass - cost <= best_q).  Every tub entry is >= 0
 * (NativeKernel.dfs rejects a negative one), so a mass is never negative
 * and a child that clears the test on the frame's mass alone clears it
 * with its own mass added: skipping the sum changes no decision.  A mass
 * a frame skipped (or a checkpoint replay stacked) stays unsummed until
 * a descendant's rub test or the budget break's frontier bound reads it.
 *
 * A node budget (max_nodes >= 0, cumulative with the counters passed in)
 * stops the traversal before the first node past it; the call then
 * writes the stacked path and child cursors, which a later call accepts
 * back (cursors != NULL) to resume exactly there, plus the largest rub
 * over the unexplored frontier.  The caller validates the checkpoint's
 * shape; the cursors are checked here against the replayed child lists.
 * ---------------------------------------------------------------------- */

/* Return codes of repro_dfs. */
#define REPRO_DFS_COMPLETE 0
#define REPRO_DFS_INTERRUPTED 1
#define REPRO_DFS_BAD_TOP_CURSOR (-1) /* top cursor past its children */
#define REPRO_DFS_BAD_CURSOR (-2)     /* cursor not just past its path entry */
#define REPRO_DFS_TOO_DEEP (-3)       /* path deeper than the workspace */

/* Slots of the io block.  In: best_q and the four counters.  Out: all. */
enum {
    REPRO_IO_BEST_Q,          /* incumbent gain, fixed point */
    REPRO_IO_VISITED,         /* SearchStats counters, cumulative */
    REPRO_IO_PRUNED_RUB,
    REPRO_IO_EVALUATIONS,
    REPRO_IO_SKIPPED_QUB,
    REPRO_IO_BEST_DIRECTION,  /* -1: incumbent kept; 0 ->, 1 <-, 2 <-> */
    REPRO_IO_BEST_SIZE,       /* entries of a new incumbent in best_items */
    REPRO_IO_DEPTH,           /* path length at a budget break */
    REPRO_IO_HAS_BOUND,       /* frontier non-empty (use_rub only) */
    REPRO_IO_BOUND,           /* largest frontier rub, fixed point */
    REPRO_IO_ERROR_DEPTH,     /* frame whose cursor a replay rejected */
    REPRO_IO_ERROR_CHILDREN,  /* its number of children */
    REPRO_IO_SLOTS
};

typedef struct {
    const uint64_t *supp[2]; /* supports of the lhs (0) and the rhs (1) */
    uint64_t *own;           /* buffer for the support a child narrows */
    int64_t *alive;          /* alive children, universe order */
    int64_t n_alive;         /* -1 until the frame is expanded */
    int64_t position, limit, cursor;
    int64_t n_items[2];      /* |lhs|, |rhs| */
    int64_t len[2];          /* L(lhs), L(rhs) */
    int64_t wsum[2];         /* supp[0] under tub_right, supp[1] under tub_left */
    int64_t have_wsum[2];
    int64_t count[2];        /* |supp[0]|, |supp[1]| */
    int64_t delta[2];        /* delta towards the left / right view */
    int64_t have_delta[2];
} repro_frame;

typedef struct {
    const uint64_t *rows, *pos, *neg;
    const int64_t *sides, *wq;
    const int64_t *tub[2];
    int64_t size, n_words;
    repro_frame *frames;
    int64_t *items;       /* universe entry that created frame d + 1 */
    uint64_t *joint;      /* expansion scratch: supp[0] & supp[1] ... */
    int64_t *joint_words; /* ... and the indices of its non-zero words */
} repro_dfs_ctx;

/* Bytes of workspace repro_dfs needs for n_frames stacked frames. */
REPRO_EXPORT int64_t repro_dfs_workspace_bytes(
    int64_t size, int64_t n_words, int64_t n_frames)
{
    return n_frames * (int64_t)sizeof(repro_frame)
        + (n_frames * n_words + n_words) * (int64_t)sizeof(uint64_t)
        + (n_frames * size + n_frames + n_words) * (int64_t)sizeof(int64_t);
}

/* |supp & pos[u]| - |supp & neg[u]|. */
static int64_t repro_net(
    const repro_dfs_ctx *c, const uint64_t *supp, int64_t u)
{
    const uint64_t *pos = c->pos + u * c->n_words;
    const uint64_t *neg = c->neg + u * c->n_words;
    int64_t w, net = 0;
    for (w = 0; w < c->n_words; ++w) {
        uint64_t s = supp[w];
        if (s)
            net += REPRO_POPCOUNT(s & pos[w]) - REPRO_POPCOUNT(s & neg[w]);
    }
    return net;
}

/* Delta towards view t of the first `depth` path items over support supp. */
static int64_t repro_delta(
    const repro_dfs_ctx *c, int64_t depth, int64_t t, const uint64_t *supp)
{
    int64_t k, total = 0;
    for (k = 0; k < depth; ++k) {
        int64_t j = c->items[k];
        if (c->sides[j] == t)
            total += c->wq[j] * repro_net(c, supp, j);
    }
    return total;
}

/* List the frame's alive children. */
static void repro_expand(const repro_dfs_ctx *c, repro_frame *f)
{
    int64_t w, k, u, n_joint = 0, n_alive = 0;
    int64_t hi = f->limit < c->size ? f->limit : c->size;
    for (w = 0; w < c->n_words; ++w) {
        uint64_t both = f->supp[0][w] & f->supp[1][w];
        c->joint[w] = both;
        if (both)
            c->joint_words[n_joint++] = w;
    }
    for (u = f->position; u < hi; ++u) {
        const uint64_t *row = c->rows + u * c->n_words;
        for (k = 0; k < n_joint; ++k) {
            w = c->joint_words[k];
            if (row[w] & c->joint[w]) {
                f->alive[n_alive++] = u;
                break;
            }
        }
    }
    f->n_alive = n_alive;
}

/* The tub mass of support words under a weight table. */
static int64_t repro_mass(
    const repro_dfs_ctx *c, const uint64_t *supp, const int64_t *table)
{
    int64_t w, mass = 0;
    for (w = 0; w < c->n_words; ++w) {
        uint64_t word = supp[w];
        const int64_t *weights = table + w * 64;
        while (word) {
            mass += weights[REPRO_CTZ(word)];
            word &= word - 1;
        }
    }
    return mass;
}

/* The frame's mass of view t's support, summed on first read. */
static int64_t repro_wsum(const repro_dfs_ctx *c, repro_frame *f, int64_t t)
{
    if (!f->have_wsum[t]) {
        f->wsum[t] = repro_mass(c, f->supp[t], c->tub[1 - t]);
        f->have_wsum[t] = 1;
    }
    return f->wsum[t];
}

/* Narrow the frame's support on u's view by u into out; returns its
 * popcount.  The loop has no branch, so the compiler can vectorise it. */
static int64_t repro_narrow(
    const repro_dfs_ctx *c, const repro_frame *f, int64_t u, uint64_t *out)
{
    const uint64_t *row = c->rows + u * c->n_words;
    const uint64_t *same = f->supp[c->sides[u]];
    int64_t w, count = 0;
    for (w = 0; w < c->n_words; ++w) {
        uint64_t word = row[w] & same[w];
        out[w] = word;
        count += REPRO_POPCOUNT(word);
    }
    return count;
}

/* Stack child (at the slot after f) created by u; its support on u's
 * view is already in child->own, and its mass in wsum when have_wsum. */
static void repro_push(
    const repro_dfs_ctx *c, const repro_frame *f, repro_frame *child,
    int64_t u, int64_t count, int64_t wsum, int64_t have_wsum)
{
    int64_t s = c->sides[u], t;
    for (t = 0; t < 2; ++t) {
        child->supp[t] = f->supp[t];
        child->n_items[t] = f->n_items[t];
        child->len[t] = f->len[t];
        child->wsum[t] = f->wsum[t];
        child->have_wsum[t] = f->have_wsum[t];
        child->count[t] = f->count[t];
        child->have_delta[t] = 0;
    }
    child->supp[s] = child->own;
    child->n_items[s] += 1;
    child->len[s] += c->wq[u];
    child->wsum[s] = wsum;
    child->have_wsum[s] = have_wsum;
    child->count[s] = count;
    child->n_alive = -1;
    child->position = u + 1;
    child->limit = c->size;
    child->cursor = 0;
}

/* Run the traversal; returns a REPRO_DFS_* code.  best_items, out_path
 * and out_cursors hold n_frames entries; workspace holds
 * repro_dfs_workspace_bytes(size, n_words, n_frames) bytes, suitably
 * aligned for int64, with n_frames >= min(max_rule_size, size) + 1. */
REPRO_EXPORT int64_t repro_dfs(
    const uint64_t *rows, const uint64_t *pos, const uint64_t *neg,
    const int64_t *sides, const int64_t *wq,
    const int64_t *tub_left, const int64_t *tub_right, const uint64_t *full,
    int64_t size, int64_t n_words, int64_t one,
    int64_t use_rub, int64_t use_qub, int64_t max_rule_size, int64_t max_nodes,
    int64_t root_lo, int64_t root_hi,
    const int64_t *path, const int64_t *cursors, int64_t path_len,
    int64_t *io, int64_t *best_items, int64_t *out_path, int64_t *out_cursors,
    void *workspace, int64_t n_frames)
{
    repro_dfs_ctx ctx;
    repro_dfs_ctx *c = &ctx;
    repro_frame *root, *f, *child;
    uint64_t *words_area;
    int64_t *int_area;
    int64_t best_q = io[REPRO_IO_BEST_Q];
    int64_t visited = io[REPRO_IO_VISITED];
    int64_t pruned = io[REPRO_IO_PRUNED_RUB];
    int64_t evaluations = io[REPRO_IO_EVALUATIONS];
    int64_t skipped = io[REPRO_IO_SKIPPED_QUB];
    int64_t best_direction = -1, best_size = 0;
    int64_t status = REPRO_DFS_COMPLETE;
    int64_t depth = 0, count, d, k, w, u;

    c->rows = rows;
    c->pos = pos;
    c->neg = neg;
    c->sides = sides;
    c->wq = wq;
    c->tub[0] = tub_left;
    c->tub[1] = tub_right;
    c->size = size;
    c->n_words = n_words;
    c->frames = (repro_frame *)workspace;
    words_area = (uint64_t *)(c->frames + n_frames);
    c->joint = words_area + n_frames * n_words;
    int_area = (int64_t *)(c->joint + n_words);
    c->items = int_area + n_frames * size;
    c->joint_words = c->items + n_frames;
    for (d = 0; d < n_frames; ++d) {
        c->frames[d].own = words_area + d * n_words;
        c->frames[d].alive = int_area + d * size;
    }

    root = c->frames;
    root->supp[0] = root->supp[1] = full;
    root->n_alive = -1;
    root->position = root_lo;
    root->limit = root_hi;
    root->cursor = 0;
    root->count[0] = root->count[1] = 0;
    root->wsum[0] = root->wsum[1] = 0;
    for (w = 0; w < n_words; ++w) {
        root->count[0] += REPRO_POPCOUNT(full[w]);
        for (k = 0; k < 64; ++k) {
            root->wsum[0] += tub_right[w * 64 + k];
            root->wsum[1] += tub_left[w * 64 + k];
        }
    }
    root->count[1] = root->count[0];
    for (k = 0; k < 2; ++k) {
        root->n_items[k] = 0;
        root->len[k] = 0;
        root->have_wsum[k] = 1;
        root->delta[k] = 0;
        root->have_delta[k] = 1;
    }

    if (cursors) {
        /* Replay the checkpoint's path the way the traversal built it. */
        if (path_len + 1 >= n_frames)
            return REPRO_DFS_TOO_DEEP;
        for (d = 0; d <= path_len; ++d) {
            f = c->frames + d;
            repro_expand(c, f);
            f->cursor = cursors[d];
            if (d == path_len) {
                if (f->cursor >= f->n_alive) {
                    io[REPRO_IO_ERROR_DEPTH] = d;
                    io[REPRO_IO_ERROR_CHILDREN] = f->n_alive;
                    return REPRO_DFS_BAD_TOP_CURSOR;
                }
                break;
            }
            u = path[d];
            if (f->cursor <= 0 || f->cursor > f->n_alive
                || f->alive[f->cursor - 1] != u) {
                io[REPRO_IO_ERROR_DEPTH] = d;
                io[REPRO_IO_ERROR_CHILDREN] = f->n_alive;
                return REPRO_DFS_BAD_CURSOR;
            }
            child = f + 1;
            /* Masses stay unsummed until a rub test reads them. */
            count = repro_narrow(c, f, u, child->own);
            repro_push(c, f, child, u, count, 0, 0);
            c->items[d] = u;
        }
        depth = path_len;
    }

    while (depth >= 0) {
        int64_t s, o, wsum = 0, have_wsum, cost, size_new, n_lhs, n_rhs;
        int64_t len_new[2], count_new[2], delta_new[2];
        int evaluated = 0;
        f = c->frames + depth;
        if (f->n_alive < 0) {
            if (f->position >= f->limit) {
                --depth;
                continue;
            }
            repro_expand(c, f);
        }
        if (f->cursor >= f->n_alive) {
            --depth;
            continue;
        }
        u = f->alive[f->cursor];
        ++f->cursor;
        ++visited;
        if (max_nodes >= 0 && visited > max_nodes) {
            /* Leave the over-budget node unvisited for the resume. */
            --f->cursor;
            --visited;
            status = REPRO_DFS_INTERRUPTED;
            break;
        }
        s = sides[u];
        o = 1 - s;
        child = f + 1;
        len_new[s] = f->len[s] + wq[u];
        len_new[o] = f->len[o];
        cost = len_new[0] + len_new[1] + one;
        count = repro_narrow(c, f, u, child->own);
        /* The child's own mass matters only if the frame's does not
         * clear the incumbent alone. */
        have_wsum = use_rub && repro_wsum(c, f, o) - cost <= best_q;
        if (have_wsum) {
            wsum = repro_mass(c, child->own, c->tub[o]);
            if (wsum + f->wsum[o] - cost <= best_q) {
                ++pruned;
                continue;
            }
        }
        count_new[s] = count;
        count_new[o] = f->count[o];
        n_lhs = f->n_items[0] + (s == 0);
        n_rhs = f->n_items[1] + (s == 1);
        if (n_lhs && n_rhs) {
            if (use_qub
                && count_new[0] * len_new[1] + count_new[1] * len_new[0] - cost
                    <= best_q) {
                ++skipped;
            } else {
                int64_t base = len_new[0] + len_new[1], gain, direction = -1;
                ++evaluations;
                if (!f->have_delta[s]) {
                    f->delta[s] = repro_delta(c, depth, s, f->supp[o]);
                    f->have_delta[s] = 1;
                }
                delta_new[s] = f->delta[s] + wq[u] * repro_net(c, f->supp[o], u);
                delta_new[o] = repro_delta(c, depth, o, child->own);
                evaluated = 1;
                gain = delta_new[1] - base - 2 * one;
                if (gain > best_q) {
                    best_q = gain;
                    direction = 0;
                }
                gain = delta_new[0] - base - 2 * one;
                if (gain > best_q) {
                    best_q = gain;
                    direction = 1;
                }
                gain = delta_new[0] + delta_new[1] - base - one;
                if (gain > best_q) {
                    best_q = gain;
                    direction = 2;
                }
                if (direction >= 0) {
                    for (k = 0; k < depth; ++k)
                        best_items[k] = c->items[k];
                    best_items[depth] = u;
                    best_size = depth + 1;
                    best_direction = direction;
                }
            }
        }
        size_new = n_lhs + n_rhs;
        if (max_rule_size >= 0 && size_new >= max_rule_size)
            continue;
        repro_push(c, f, child, u, count, wsum, have_wsum);
        if (evaluated) {
            child->delta[0] = delta_new[0];
            child->delta[1] = delta_new[1];
            child->have_delta[0] = child->have_delta[1] = 1;
        }
        c->items[depth] = u;
        ++depth;
    }

    if (status == REPRO_DFS_INTERRUPTED) {
        io[REPRO_IO_DEPTH] = depth;
        for (k = 0; k < depth; ++k)
            out_path[k] = c->items[k];
        for (k = 0; k <= depth; ++k)
            out_cursors[k] = c->frames[k].cursor;
        io[REPRO_IO_HAS_BOUND] = 0;
        io[REPRO_IO_BOUND] = 0;
        if (use_rub) {
            /* Every unexplored node lies under a stacked frame's child
             * from its cursor on; bound each the way the traversal would. */
            uint64_t *scratch = c->frames[depth + 1].own;
            for (d = 0; d <= depth; ++d) {
                f = c->frames + d;
                for (k = f->cursor; k < f->n_alive; ++k) {
                    int64_t rub, o;
                    u = f->alive[k];
                    o = 1 - sides[u];
                    repro_narrow(c, f, u, scratch);
                    rub = repro_mass(c, scratch, c->tub[o])
                        + repro_wsum(c, f, o)
                        - (f->len[0] + f->len[1] + one) - wq[u];
                    if (!io[REPRO_IO_HAS_BOUND] || rub > io[REPRO_IO_BOUND]) {
                        io[REPRO_IO_BOUND] = rub;
                        io[REPRO_IO_HAS_BOUND] = 1;
                    }
                }
            }
        }
    }
    io[REPRO_IO_BEST_Q] = best_q;
    io[REPRO_IO_VISITED] = visited;
    io[REPRO_IO_PRUNED_RUB] = pruned;
    io[REPRO_IO_EVALUATIONS] = evaluations;
    io[REPRO_IO_SKIPPED_QUB] = skipped;
    io[REPRO_IO_BEST_DIRECTION] = best_direction;
    io[REPRO_IO_BEST_SIZE] = best_size;
    return status;
}
