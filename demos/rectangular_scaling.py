"""Rectangular states, squared by embedding, against classical scaling.

A diagonal state on C^2 (x) C^3 carries a 2x3 weight matrix.  Classically
such a matrix can be scaled to constant margins by alternating row and column
normalizations exactly when its support pattern allows it; on the operator
side the same question is answered by embedding the state into a square one
and running the decision pipeline.  The two verdicts agree.  Where they say
scalable, the embedding's normal form holds the k x m one, whose diagonal is
the classical scaling over km; the last column is their largest gap.
"""

import numpy as np

from filternorm import (
    decide_equivalence,
    diagonal_state,
    embed_rectangular,
    filter_normal_form,
)


def classical_scaling(w, iters=2000):
    """Alternate row/column normalization toward row sums m and column sums
    k; return the scaled matrix, or ``None`` where it does not converge."""
    a = np.array(w, dtype=float)
    k, m = a.shape
    for _ in range(iters):
        rows = a.sum(axis=1)
        if np.any(rows <= 0):
            return None
        a = a * (m / rows)[:, None]
        cols = a.sum(axis=0)
        if np.any(cols <= 0):
            return None
        a = a * (k / cols)[None, :]
    resid = max(np.abs(a.sum(axis=1) - m).max(), np.abs(a.sum(axis=0) - k).max())
    if resid > 1e-8 or a[w > 0].min() < 1e-6:
        return None
    return a


def normal_form_diagonal(nf, k, m):
    """The diagonal of the k x m normal form inside an embedded one.

    The embedding is ``Id_m (x) rho (x) Id_k`` on ``C^m (x) C^k (x) C^m (x) C^k``,
    ``mk`` copies of ``rho`` along its diagonal.  It has unit trace, so
    ``mk`` times one copy is the k x m normal form.
    """
    copy = nf.state.rho.diagonal().real.reshape(m, k, m, k)[0, :, :, 0]
    return k * m * copy


def main():
    rng = np.random.default_rng(5)
    patterns = [
        np.ones((2, 3)),
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]),
        (rng.random((2, 3)) < 0.6) * rng.uniform(0.2, 2.0, size=(2, 3)),
    ]
    print("pattern                     classical    embedded verdict   normal-form gap")
    for w in patterns:
        k, m = w.shape
        embedded = embed_rectangular(diagonal_state(w / w.sum()))
        verdict = decide_equivalence(embedded)
        scaled = classical_scaling(w)
        classical = "stuck" if scaled is None else "scalable"
        gap = ""
        if scaled is not None and verdict.outcome == "equivalent":
            diagonal = normal_form_diagonal(filter_normal_form(embedded, verdict), k, m)
            gap = f"{np.abs(diagonal - scaled / (k * m)).max():.1e}"
        flat = np.array2string(
            (w > 0).astype(int).reshape(-1), separator=""
        ).strip("[]")
        print(f"support {flat}          {classical:<12} {verdict.outcome:<18} {gap}")


if __name__ == "__main__":
    main()
