/* Exact Dijkstra from one or many roots on a CSR matrix, and the canonical
 * predecessor walk, for confdeform._graphs (loaded through ctypes).
 *
 * With positive weights the settled values are the fixed point
 * dist[v] = min_u dist[u] + w(u, v), whatever the heap order, so a run is
 * bitwise equal to scipy.sparse.csgraph.dijkstra on the same matrix.
 * Weights must not be negative (the package's lengths are positive): the
 * relaxation trusts that a settled vertex never improves.
 *
 * A run may carry a goal potential h (A*: Hart, Nilsson and Raphael, 1968;
 * landmark differences: Goldberg and Harrelson, 2005).  The heap key is then
 * g + h(v) while dist keeps g, with, over a row-major block of k fields
 * (row v holds f_1[v] .. f_k[v], so one vertex's values share a cache line),
 *     h(v) = (1 - 2^-10) max(|f_1[v] - f_1[t]|, ..., |f_k[v] - f_k[t]|,
 *                            kappa |xy[v] - xy[t]|).
 * 1-Lipschitz fields and kappa at most every edge's length over its chord
 * make h consistent; the shrink leaves each edge a margin of 2^-10 w, far
 * above the few ulps the floats put into h and into the keys, so each
 * vertex a run settles gets the same fixed-point value, and every vertex on
 * a shortest or tied path to the goal has a key below the stop value c.
 * No field and a null xy give h = 0: the plain run, bit for bit.
 * A run never enters a vertex of the blocked mask, though a root may be one:
 * bit for bit the run on the matrix without the entries into them (null: none).
 * Build with -O2 and without -ffast-math: the sums must round as numpy's.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double key;
    int32_t v;
} entry;
_Static_assert(sizeof(entry) == 16, "a scratch block holds 16 + 4 + 4 bytes a vertex");

/* A 4-ary heap: shallower than a binary one, and the 4 children of slot k
 * (4k + 1 .. 4k + 4) share one or two cache lines.
 * pos[v]: k + 1 at heap slot k, -1 settled (read only for a v this run pushed) */
static inline void sift_up(entry *heap, int32_t *pos, int32_t k, entry e)
{
    while (k > 0 && heap[(k - 1) / 4].key > e.key) {
        heap[k] = heap[(k - 1) / 4];
        pos[heap[k].v] = k + 1;
        k = (k - 1) / 4;
    }
    heap[k] = e;
    pos[e.v] = k + 1;
}

/* Move e down from the root's slot while the least of the up to 4 children
 * (its key kept in a register) is less than e. */
static inline void sift_down(entry *heap, int32_t *pos, int32_t size, entry e)
{
    int32_t k = 0, c;
    while ((c = 4 * k + 1) < size) {
        int32_t best = c, end = c + 4 < size ? c + 4 : size;
        double least = heap[c].key;
        for (int32_t j = c + 1; j < end; j++)
            if (heap[j].key < least)
                least = heap[j].key, best = j;
        if (!(least < e.key))
            break;
        heap[k] = heap[best];
        pos[heap[k].v] = k + 1;
        k = best;
    }
    heap[k] = e;
    pos[e.v] = k + 1;
}

/* Stop membership as a sparse set (Briggs and Torczon, 1993): v is a
 * member when slot[v] - 1 indexes an entry of stop that names v, so slot
 * may hold anything on entry and needs no clearing.  Returns that index,
 * or -1. */
static inline int32_t member(const int32_t *slot, int32_t n_stop,
                             const int64_t *stop, int32_t v)
{
    uint32_t k = (uint32_t)slot[v] - 1;
    return k < (uint32_t)n_stop && stop[k] == v ? (int32_t)k : -1;
}

/* The most fields a goal may stack, read by the loader. */
#define CD_MAX_FIELDS 8
const int32_t cd_max_fields = CD_MAX_FIELDS;

/* The goal of a run: h(v) of the header, 0 without a field and xy. */
typedef struct {
    const double *field, *xy;
    int32_t n_field;
    double field_t[CD_MAX_FIELDS], x_t, y_t, kappa;
} goal;

/* The NaN of inf - inf (v and the goal both out of a field's reach) fails
 * the > test, which leaves h at most the distance. */
static inline double potential(const goal *g, int32_t v)
{
    double h = 0.0, a;
    for (int32_t i = 0; i < g->n_field; i++)  /* row v: one or two cache lines */
        if ((a = fabs(g->field[(size_t)v * g->n_field + i] - g->field_t[i])) > h)
            h = a;
    if (g->xy) {
        double dx = g->xy[2 * v] - g->x_t, dy = g->xy[2 * v + 1] - g->y_t;
        if ((a = g->kappa * sqrt(dx * dx + dy * dy)) > h)
            h = a;
    }
    return (1.0 - 0x1p-10) * h;
}

/* The least w / |xy[u] - xy[v]| over the entries (u, v, w) whose ends have
 * distinct coordinates, or 0 when there is none: kappa |xy[u] - xy[v]| is
 * then at most the distance from u to v, whatever path joins them. */
double cd_kappa(int32_t n, const int32_t *indptr, const int32_t *indices,
                const double *data, const double *xy)
{
    double kappa = INFINITY;
    for (int32_t u = 0; u < n; u++)
        for (int32_t j = indptr[u]; j < indptr[u + 1]; j++) {
            double dx = xy[2 * u] - xy[2 * indices[j]];
            double dy = xy[2 * u + 1] - xy[2 * indices[j] + 1];
            double chord = sqrt(dx * dx + dy * dy);
            if (chord > 0 && data[j] / chord < kappa)
                kappa = data[j] / chord;
        }
    return kappa < INFINITY ? kappa : 0.0;
}

/* Distances from the nearest of the n_root roots into dist (all inf on
 * entry); every root starts at 0.  An edge relaxes only when
 * dist[u] + w <= limit.  The heap key is dist[v] + h(v), h the potential
 * toward vertex t, or toward the zeros of the n_field fields (at most
 * CD_MAX_FIELDS, in the n x n_field row-major block field) for t = -1; xy
 * is read only for t >= 0 and kappa > 0.
 * The run stops once the least key exceeds c = min(dist[v] + offset) over
 * the stop members settled so far; every vertex it did not settle then
 * reads inf, so without a goal dist is that of limit = c.  Where stop_value
 * is not null, c goes there as the run ends (inf when no member settled).
 * The first n_order vertices it settles go to order, in settling order.
 * Returns the number of vertices settled, -1 when out of memory, or -2,
 * before it reads any array, when a root or a stop member is not in
 * [0, n) or t not in [-1, n).
 * No n-sized array is cleared, so a run costs what it touches: pos[u] is
 * read only once dist[u] is finite, that is once this run pushed u, and
 * slot is a sparse set.  So the heap, pos and slot may come from a scratch
 * block of 24n bytes, 8-byte aligned, that runs before this one left as
 * they liked (null: the run mallocs and frees its own); one run at a time
 * may use a block. */
int32_t cd_dijkstra(int32_t n, const int32_t *indptr, const int32_t *indices,
                    const double *data, int32_t n_root, const int64_t *roots,
                    double limit, int32_t n_stop, const int64_t *stop,
                    const double *offset, double *dist, int32_t n_order,
                    int32_t *order, int32_t n_field, const double *field,
                    const double *xy, int64_t t, double kappa,
                    const uint8_t *blocked, void *scratch, double *stop_value)
{
    if (t < -1 || t >= n)
        return -2;
    for (int32_t k = 0; k < n_root; k++)
        if ((uint64_t)roots[k] >= (uint64_t)n)
            return -2;
    for (int32_t k = 0; k < n_stop; k++)
        if ((uint64_t)stop[k] >= (uint64_t)n)
            return -2;
    entry *heap = scratch ? scratch : malloc(n * sizeof *heap);
    int32_t *pos = scratch ? (int32_t *)(heap + n) : malloc(n * sizeof *pos);
    int32_t *slot = scratch ? pos + n : malloc(n * sizeof *slot);
    int32_t size = 0, settled = 0;
    double c = INFINITY;
    goal to = {field, t >= 0 && kappa > 0 ? xy : NULL, n_field, {0.0}, 0.0, 0.0, kappa};
    for (int32_t i = 0; i < n_field && t >= 0; i++)
        to.field_t[i] = field[(size_t)t * n_field + i];
    if (to.xy)
        to.x_t = xy[2 * t], to.y_t = xy[2 * t + 1];
    if (!pos || !slot || !heap) {
        if (!scratch)
            free(pos), free(slot), free(heap);
        return -1;
    }
    for (int32_t k = 0; k < n_stop; k++) {  /* slot[v]: 1 + its least offset */
        int32_t m = member(slot, n_stop, stop, (int32_t)stop[k]);
        if (m < 0 || offset[k] < offset[m])
            slot[stop[k]] = k + 1;
    }
    for (int32_t k = 0; k < n_root; k++) {
        int32_t r = (int32_t)roots[k];
        if (dist[r] == INFINITY) {  /* equal keys: each push stays */
            dist[r] = 0.0;
            sift_up(heap, pos, size++, (entry){potential(&to, r), r});
        }
    }
    while (size > 0 && !(heap[0].key > c)) {
        entry top = heap[0];
        double g = dist[top.v];
        pos[top.v] = -1;
        if (settled < n_order)
            order[settled] = top.v;
        settled++;
        if (--size > 0)
            sift_down(heap, pos, size, heap[size]);
        /* the next pops are the root and its children: fetch their rows */
        for (int32_t k = 0; k < size && k < 5; k++) {
            int32_t j = indptr[heap[k].v];
            __builtin_prefetch(indices + j);
            __builtin_prefetch(data + j);
            __builtin_prefetch(data + j + 8);
        }
        int32_t m = member(slot, n_stop, stop, top.v);
        if (m >= 0 && g + offset[m] < c)
            c = g + offset[m];
        for (int32_t j = indptr[top.v]; j < indptr[top.v + 1]; j++) {
            int32_t u = indices[j];
            double d = g + data[j];
            /* a settled u has dist[u] <= d (with a goal, by the margin of
             * the potential), so no pos test; a finite dist[u] means this
             * run pushed u, and the > 0 keeps the heap in bounds even for
             * a negative w */
            if (!(d < dist[u]) || !(d <= limit) || (blocked && blocked[u]))
                continue;
            int32_t k = dist[u] < INFINITY && pos[u] > 0 ? pos[u] - 1 : size++;
            dist[u] = d;
            sift_up(heap, pos, k, (entry){d + potential(&to, u), u});
        }
    }
    for (int32_t k = 0; k < size; k++)  /* tentative values of a stopped run */
        dist[heap[k].v] = INFINITY;
    if (stop_value)
        *stop_value = c;
    if (!scratch)
        free(pos), free(slot), free(heap);
    return settled;
}

/* Walk from start down dist to the first vertex where it is 0, into path
 * (room for cap <= n vertices) and pos (cap - 1 entries); each step takes
 * the smallest u with dist[u] + w(u, v) == dist[v], and pos[i] is the
 * entry j of row path[i] at which it took path[i + 1].  On a run from one
 * root (positive weights) that vertex is the root; on a field from many,
 * the walk is a shortest path from start to a nearest root.
 * Returns the length, -1 when a vertex has no such u, -2 when the walk
 * would exceed cap vertices (at cap = n: it cycles), -3 when start is not
 * in [0, n), or -4 when dist[start] is not finite; it reads no array
 * before that test of start. */
int32_t cd_walk(int32_t n, const int32_t *indptr, const int32_t *indices,
                const double *data, const double *dist, int64_t start,
                int32_t cap, int64_t *path, int64_t *pos)
{
    if (start < 0 || start >= n)
        return -3;
    if (!isfinite(dist[start]))
        return -4;
    int32_t len = 1, v = (int32_t)start;
    path[0] = v;
    while (dist[v] != 0.0) {
        int32_t best = -1;
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++)
            if (dist[indices[j]] + data[j] == dist[v]
                    && (best < 0 || indices[j] < indices[best]))
                best = j;
        if (best < 0)
            return -1;
        if (len == cap)
            return -2;
        pos[len - 1] = best;
        path[len++] = v = indices[best];
    }
    return len;
}
