/* Compiled negative log marginal likelihood of repro.gp.regression.
 *
 * A port of GaussianProcessRegressor._make_analytic_objective after its
 * exp: Python computes r = r0 / l, nu = -sqrt(5) r and E = exp(nu) with
 * NumPy's ufuncs (NumPy's SIMD exp is not libm's), and takes
 * log(diag(L)).sum() between the two calls below.  Everything else runs
 * here with the same float operations in the same order:
 *
 *   lml_factor  K and G as Matern52.eval_and_gradient_state builds them,
 *               K + noise I copied into an F-order buffer (the copy
 *               scipy's potrf makes of a C-order matrix) and dpotrf on it;
 *               nothing reads the factor's upper triangle, so it is not
 *               zeroed as potrf's clean=1 would;
 *   lml_finish  dpotrs on [y | I], ddot(-0.5 y, alpha) for
 *               `-0.5 * y @ alpha`, W = alpha alpha^T - K^-1 in C order,
 *               and 0.5 ddot(W, G_j) for each np.vdot(W, G_j).
 *
 * dpotrf, dpotrs and ddot are the routines scipy.linalg's cython_lapack
 * and cython_blas export, passed in as function pointers, so this file
 * links against nothing.  Build flags must keep -ffp-contract=off (no
 * fused multiply-add reordering).
 */
#include <math.h>
#include <stdint.h>

typedef void potrf_fn(char *uplo, int *n, double *a, int *lda, int *info);
typedef void potrs_fn(char *uplo, int *n, int *nrhs, double *a, int *lda,
                      double *b, int *ldb, int *info);
typedef double ddot_fn(int *n, double *x, int *incx, double *y, int *incy);

/* One fit's problem and buffers; n x n matrices are C order unless noted. */
struct lml_fit {
    int64_t n;
    double noise, cnst; /* sigma_n^2 and 0.5 n log(2 pi) */
    potrf_fn *potrf;
    potrs_fn *potrs;
    ddot_fn *ddot;
    const double *r, *nu, *E; /* written by NumPy before lml_factor */
    const double *y, *ny;     /* y and -0.5 y */
    double *K, *G, *W;
    double *A;                /* n x n, F order: K + noise I, then L */
    double *B;                /* n x (n + 1), F order: [y | I], then solved */
    double *g;                /* the two gradient entries, negated */
};

/* K, G and the Cholesky factor of K + noise I under `variance`.  Returns
 * dpotrf's info: non-zero means K + noise I is not positive definite and
 * the caller takes the jitter path. */
int lml_factor(const struct lml_fit *f, double variance)
{
    int64_t n = f->n;
    for (int64_t i = 0; i < n * n; i++) {
        double nu = f->nu[i], e = f->E[i], r = f->r[i];
        double one_plus_u = 1.0 - nu;
        double t = r * r; /* np.power(r, 2) is the exact square */
        t = 5.0 * t;
        t = t / 3.0;
        t = one_plus_u + t;
        double k = variance * t;
        f->K[i] = k * e;
        double g = nu * nu;
        g = g * one_plus_u;
        g = g / 3.0;
        g = variance * g;
        f->G[i] = g * e;
    }
    /* K + noise * eye(n): the off-diagonal adds noise * 0.0 == +0.0. */
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            f->A[i + j * n] = f->K[i * n + j] + (i == j ? f->noise : 0.0);
    char uplo = 'L';
    int m = (int)n, info;
    f->potrf(&uplo, &m, f->A, &m, &info);
    return info;
}

/* The negated lml given log(diag(L)).sum(), and its negated gradient in
 * f->g; 1e25 and a zero gradient where the lml is not finite. */
double lml_finish(const struct lml_fit *f, double logdet)
{
    int64_t n = f->n;
    double *B = f->B;
    for (int64_t i = 0; i < n; i++)
        B[i] = f->y[i];
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            B[i + (j + 1) * n] = i == j ? 1.0 : 0.0;
    char uplo = 'L';
    int m = (int)n, nrhs = m + 1, info, one = 1, mm = m * m;
    f->potrs(&uplo, &m, &nrhs, f->A, &m, B, &m, &info);
    double lml = f->ddot(&m, (double *)f->ny, &one, B, &one);
    lml = lml - logdet;
    lml = lml - f->cnst;
    if (!isfinite(lml)) {
        f->g[0] = 0.0;
        f->g[1] = 0.0;
        return 1e25;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            f->W[i * n + j] = B[i] * B[j] - B[i + (j + 1) * n];
    f->g[0] = -(0.5 * f->ddot(&mm, f->W, &one, f->G, &one));
    f->g[1] = -(0.5 * f->ddot(&mm, f->W, &one, f->K, &one));
    return -lml;
}
