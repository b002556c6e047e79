/* Compiled negative log marginal likelihood of repro.gp.regression.
 *
 * lml_eval is GaussianProcessRegressor._make_analytic_objective in one
 * call, with the same float operations in the same order:
 *
 *   l = exp(theta_0), v = exp(theta_1), as Matern52.set_theta
 *   r = r0 / l, nu = -sqrt(5) r, E = exp(nu), and K and G from them, as
 *   Matern52.eval_and_gradient_state
 *   K + noise I copied into an F-order buffer (the copy scipy's potrf
 *   makes of a C-order matrix) and dpotrf on it; nothing reads the
 *   factor's upper triangle, so it is not zeroed as potrf's clean=1 would
 *   log(diag(L)) summed in ndarray.sum's pairwise order
 *   dpotrs on [y | I], ddot(-0.5 y, alpha) for `-0.5 * y @ alpha`,
 *   W = alpha alpha^T - K^-1 in C order, and 0.5 ddot(W, G_j) for each
 *   np.vdot(W, G_j).
 *
 * Every exp and log is libm's, which the spec takes through math.exp and
 * math.log.  Where r0 is symmetric (checked at a fit's first call) K and G
 * are computed on the lower triangle and mirrored, halving the exp calls.
 * After the last call A holds the factor, which the fit keeps.
 *
 * dpotrf, dpotrs and ddot are the routines scipy.linalg's cython_lapack
 * and cython_blas export, passed in as function pointers, so this file
 * links against libm only.  Build flags must keep -ffp-contract=off (no
 * fused multiply-add reordering).
 */
#include <math.h>
#include <stdint.h>

typedef void potrf_fn(char *uplo, int *n, double *a, int *lda, int *info);
typedef void potrs_fn(char *uplo, int *n, int *nrhs, double *a, int *lda,
                      double *b, int *ldb, int *info);
typedef double ddot_fn(int *n, double *x, int *incx, double *y, int *incy);

/* One fit's problem.  work holds, in this order (n x n matrices in C
 * order unless noted):
 *   r0   n x n   the training distances        } written by the caller
 *   y    n       the normalized targets        }
 *   ny   n       -0.5 y
 *   K, G, W      n x n each
 *   A    n x n   F order: K + noise I, then L
 *   B    n x (n + 1), F order: [y | I], then solved
 *   d    n       log(diag(L))
 *   g    2       the two gradient entries, negated */
struct lml_fit {
    int64_t n, sym;     /* sym: -1 until the first call checks r0 == r0^T */
    double noise, cnst; /* sigma_n^2 and 0.5 n log(2 pi) */
    potrf_fn *potrf;
    potrs_fn *potrs;
    ddot_fn *ddot;
    double *work;
};

/* NumPy's pairwise summation of a contiguous float64 array (the inner
 * loop of np.add.reduce): a plain loop below 8 entries, eight
 * accumulators up to 128, halves on multiples of 8 above. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The negated lml at theta = (log_l, log_v) and its negated gradient in
 * g; 1e25 and a zero gradient where the lml is not finite.  NaN where
 * K + noise I is not positive definite: the caller takes the jitter
 * path. */
double lml_eval(struct lml_fit *f, double log_l, double log_v)
{
    int64_t n = f->n;
    double *r0 = f->work, *y = r0 + n * n, *ny = y + n, *K = ny + n;
    double *G = K + n * n, *W = G + n * n, *A = W + n * n, *B = A + n * n;
    double *d = B + n * (n + 1), *g = d + n;
    if (f->sym < 0) {
        f->sym = 1;
        for (int64_t i = 0; i < n; i++) {
            ny[i] = -0.5 * y[i];
            for (int64_t j = 0; j < i; j++)
                if (r0[i * n + j] != r0[j * n + i])
                    f->sym = 0;
        }
    }
    double l = exp(log_l), variance = exp(log_v);
    double neg_sqrt5 = -sqrt(5.0);
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < (f->sym ? i + 1 : n); j++) {
            double r = r0[i * n + j] / l;
            double nu = neg_sqrt5 * r;
            double e = exp(nu);
            double one_plus_u = 1.0 - nu;
            double t = r * r; /* np.power(r, 2) is the exact square */
            t = 5.0 * t;
            t = t / 3.0;
            t = one_plus_u + t;
            double k = variance * t;
            k = k * e;
            double dk = nu * nu;
            dk = dk * one_plus_u;
            dk = dk / 3.0;
            dk = variance * dk;
            dk = dk * e;
            K[i * n + j] = K[j * n + i] = k;
            G[i * n + j] = G[j * n + i] = dk;
        }
    }
    /* K + noise * eye(n): the off-diagonal adds noise * 0.0 == +0.0. */
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            A[i + j * n] = K[i * n + j] + (i == j ? f->noise : 0.0);
    char uplo = 'L';
    int m = (int)n, nrhs = m + 1, info, one = 1, mm = m * m;
    f->potrf(&uplo, &m, A, &m, &info);
    if (info != 0)
        return NAN;
    for (int64_t i = 0; i < n; i++)
        d[i] = log(A[i + i * n]);
    double logdet = pairwise_sum(d, n);

    for (int64_t i = 0; i < n; i++)
        B[i] = y[i];
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            B[i + (j + 1) * n] = i == j ? 1.0 : 0.0;
    f->potrs(&uplo, &m, &nrhs, A, &m, B, &m, &info);
    double lml = f->ddot(&m, ny, &one, B, &one);
    lml = lml - logdet;
    lml = lml - f->cnst;
    if (!isfinite(lml)) {
        g[0] = 0.0;
        g[1] = 0.0;
        return 1e25;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            W[i * n + j] = B[i] * B[j] - B[i + (j + 1) * n];
    g[0] = -(0.5 * f->ddot(&mm, W, &one, G, &one));
    g[1] = -(0.5 * f->ddot(&mm, W, &one, K, &one));
    return -lml;
}
