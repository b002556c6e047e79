/* Compiled family loops of repro.simulator.engine.
 *
 * Ports of engine._serve_family and engine._run_families with the same
 * float operations: the same `<=` and `<` comparisons and the same
 * `t + s` / `best + s` additions on float64.  Each family's free times
 * live in a plain binary min-heap; the loops only ever read a heap's
 * minimum, which is the minimum of the same multiset as Python's heapq
 * holds, so the results are bit-identical.
 *
 * Besides the start times, each loop writes the figures of merit that
 * InferenceServingSimulator.simulate otherwise derives in NumPy, with the
 * same operations: the latency `(start - t) + service` per query, and the
 * total waiting-queue length seen at arrivals, an exact integer count
 * (metrics.queue_lengths_at_arrival summed).  Build flags must keep
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

/* Sum over queries q of q - #{j < q : start[j] <= arrival[q]}, the
 * queries still queued when q arrives.  Arrivals are sorted and FCFS
 * starts are monotone, so the started ones are a prefix that only grows:
 * one pointer pass. */
static int64_t queue_total(int64_t n, const double *arrival,
                           const double *start)
{
    int64_t total = 0, started = 0;
    for (int64_t q = 0; q < n; q++) {
        while (started < q && start[started] <= arrival[q])
            started++;
        total += q - started;
    }
    return total;
}

/* A single-family pool of `count` instances serving n queries: writes
 * start times and latencies, returns the queue total. */
int64_t serve_family(int64_t n, const double *arrival, const double *row,
                     int64_t count, double *heap, double *start,
                     double *latency)
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
        latency[q] = (s - t) + row[q];
    }
    return queue_total(n, arrival, start);
}

/* The family loop over n_live families in type order: family[j] is the
 * matrix row (of length n) of live family j and count[j] its instances;
 * `heap` holds sum(count) doubles.  Writes start times and latencies,
 * returns the queue total. */
int64_t run_families(int64_t n, const double *arrival, const double *matrix,
                     int64_t n_live, const int64_t *family,
                     const int64_t *count, double *heap, double *start,
                     double *latency)
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
        double begin, s;
        if (j < n_live) {
            s = matrix[family[j] * n + q];
            replace_top(h, count[j], t + s);
            begin = t;
        } else { /* none free: the earliest-free family, first on ties */
            s = matrix[family[best_j] * n + q];
            replace_top(best_heap, count[best_j], best + s);
            begin = best;
        }
        start[q] = begin;
        latency[q] = (begin - t) + s;
    }
    return queue_total(n, arrival, start);
}
