/* Exact Dijkstra from one or many roots on a CSR matrix, and the canonical
 * predecessor walk, for confdeform._graphs (loaded through ctypes).
 *
 * With positive weights the settled values are the fixed point
 * dist[v] = min_u dist[u] + w(u, v), whatever the heap order, so a run is
 * bitwise equal to scipy.sparse.csgraph.dijkstra on the same matrix.
 * Weights must not be negative (the package's lengths are positive): the
 * relaxation trusts that a settled vertex never improves.
 * Build with -O2 and without -ffast-math: the sums must round as numpy's.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double key;
    int32_t v;
} entry;

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
                             const int32_t *stop, int32_t v)
{
    uint32_t k = (uint32_t)slot[v] - 1;
    return k < (uint32_t)n_stop && stop[k] == v ? (int32_t)k : -1;
}

/* Distances from the nearest of the n_root roots into dist (all inf on
 * entry); every root starts at 0.  An edge relaxes only when
 * dist[u] + w <= limit.  The run stops once the heap minimum exceeds
 * c = min(dist[v] + offset) over the stop members settled so far; every
 * vertex it did not settle then reads inf, so dist is that of limit = c.
 * The first n_order vertices it settles go to order, in settling order.
 * Returns the number of vertices settled, or -1 when out of memory.
 * No n-sized array is cleared, so a run costs what it touches: pos[u] is
 * read only once dist[u] is finite, that is once this run pushed u, and
 * slot is a sparse set. */
int32_t cd_dijkstra(int32_t n, const int32_t *indptr, const int32_t *indices,
                    const double *data, int32_t n_root, const int32_t *roots,
                    double limit, int32_t n_stop, const int32_t *stop,
                    const double *offset, double *dist, int32_t n_order,
                    int32_t *order)
{
    int32_t *pos = malloc(n * sizeof *pos), *slot = malloc(n * sizeof *slot);
    entry *heap = malloc(n * sizeof *heap);
    int32_t size = 0, settled = 0;
    double c = INFINITY;
    if (!pos || !slot || !heap) {
        free(pos), free(slot), free(heap);
        return -1;
    }
    for (int32_t k = 0; k < n_stop; k++) {  /* slot[v]: 1 + its least offset */
        int32_t m = member(slot, n_stop, stop, stop[k]);
        if (m < 0 || offset[k] < offset[m])
            slot[stop[k]] = k + 1;
    }
    for (int32_t k = 0; k < n_root; k++)
        if (dist[roots[k]] == INFINITY) {  /* equal keys: each push stays */
            dist[roots[k]] = 0.0;
            sift_up(heap, pos, size++, (entry){0.0, roots[k]});
        }
    while (size > 0 && !(heap[0].key > c)) {
        entry top = heap[0];
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
        if (m >= 0 && top.key + offset[m] < c)
            c = top.key + offset[m];
        for (int32_t j = indptr[top.v]; j < indptr[top.v + 1]; j++) {
            int32_t u = indices[j];
            double d = top.key + data[j];
            /* a settled u has dist[u] <= top.key <= d, so no pos test;
             * a finite dist[u] means this run pushed u, and the > 0
             * keeps the heap in bounds even for a negative w */
            if (!(d < dist[u]) || !(d <= limit))
                continue;
            int32_t k = dist[u] < INFINITY && pos[u] > 0 ? pos[u] - 1 : size++;
            dist[u] = d;
            sift_up(heap, pos, k, (entry){d, u});
        }
    }
    for (int32_t k = 0; k < size; k++)  /* tentative values of a stopped run */
        dist[heap[k].v] = INFINITY;
    free(pos), free(slot), free(heap);
    return settled;
}

/* Path target -> source into path; each step takes the smallest u with
 * dist[u] + w(u, v) == dist[v].  Returns the length, -1 when a vertex has
 * no such u, or -2 when the walk would exceed n vertices. */
int32_t cd_walk(int32_t n, const int32_t *indptr, const int32_t *indices,
                const double *data, const double *dist, int32_t source,
                int32_t target, int64_t *path)
{
    int32_t len = 1, v = target;
    path[0] = v;
    while (v != source) {
        int32_t best = -1;
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++)
            if (dist[indices[j]] + data[j] == dist[v]
                    && (best < 0 || indices[j] < best))
                best = indices[j];
        if (best < 0)
            return -1;
        if (len == n)
            return -2;
        path[len++] = v = best;
    }
    return len;
}
