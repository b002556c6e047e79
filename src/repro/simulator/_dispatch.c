/* Compiled family loops of repro.simulator.engine.
 *
 * Ports of engine._serve_family and engine._run_families with the same
 * float operations: the same `<=` and `<` comparisons and the same
 * `t + s` / `best + s` additions on float64.  Each family's free times
 * live in a plain binary min-heap; the loops only ever read a heap's
 * minimum, which is the minimum of the same multiset as Python's heapq
 * holds, so the results are bit-identical.  Build flags must keep
 * -ffp-contract=off (no fused multiply-add reordering).
 */
#include <stdint.h>

/* Replace the minimum of the min-heap h[0..m) with v. */
static void replace_top(double *h, int64_t m, double v)
{
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && h[c + 1] < h[c])
            c++;
        if (!(h[c] < v))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = v;
}

/* A single-family pool of `count` instances: start times of n queries. */
void serve_family(int64_t n, const double *arrival, const double *row,
                  int64_t count, double *heap, double *start)
{
    for (int64_t i = 0; i < count; i++)
        heap[i] = 0.0;
    for (int64_t q = 0; q < n; q++) {
        double t = arrival[q];
        double s = heap[0];
        if (s <= t)
            s = t;
        replace_top(heap, count, s + row[q]);
        start[q] = s;
    }
}

/* The family loop over n_live families in type order: family[j] is the
 * matrix row (of length n) of live family j and count[j] its instances;
 * `heap` holds sum(count) doubles.  Writes start times and the chosen
 * matrix row per query. */
void run_families(int64_t n, const double *arrival, const double *matrix,
                  int64_t n_live, const int64_t *family, const int64_t *count,
                  double *heap, double *start, int64_t *chosen)
{
    int64_t total = 0;
    for (int64_t j = 0; j < n_live; j++)
        total += count[j];
    for (int64_t i = 0; i < total; i++)
        heap[i] = 0.0;
    for (int64_t q = 0; q < n; q++) {
        double t = arrival[q];
        double best = 0.0, *best_heap = heap, *h = heap;
        int64_t best_j = -1, j;
        for (j = 0; j < n_live; h += count[j], j++) {
            double top = h[0];
            if (top <= t) /* first family with a free instance */
                break;
            if (best_j < 0 || top < best) {
                best = top;
                best_j = j;
                best_heap = h;
            }
        }
        if (j < n_live) {
            replace_top(h, count[j], t + matrix[family[j] * n + q]);
            start[q] = t;
            chosen[q] = family[j];
        } else { /* none free: the earliest-free family, first on ties */
            replace_top(best_heap, count[best_j],
                        best + matrix[family[best_j] * n + q]);
            start[q] = best;
            chosen[q] = family[best_j];
        }
    }
}
