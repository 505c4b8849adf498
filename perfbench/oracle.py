"""Reference estimates, written independently of the ruleval kernels.

The benchmark checks the program's outputs against these.  They use plain
NumPy sufficient statistics (fold sums and sums of squares) instead of the
program's per-fold experiment rebuilds, so a kernel rewrite that changes the
numbers shows up as a mismatch.  Fold labels replay the documented stream
derivation (BLAKE2b-keyed ``SeedSequence``, one stream per experiment and
arm), which pins fold assignment but not bootstrap draws.
"""

from __future__ import annotations

import csv
import hashlib
import math
from statistics import NormalDist

import numpy as np


def stream(seed: int, *path) -> np.random.Generator:
    """Generator keyed by ``(seed, *path)``, as documented for ruleval streams."""
    token = repr((int(seed),) + tuple(path)).encode("utf-8")
    digest = hashlib.blake2b(token, digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def critical_value(alpha: float) -> float:
    """One-sided-greater z critical value."""
    return NormalDist().inv_cdf(1.0 - alpha)


def read_corpus(path: str) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    """Experiment ids, metric names and a (E, 2, M, J) array, units sorted by id.

    Only the two-arm, equal-size layout that ``make-corpus`` writes is
    supported; anything else raises ``ValueError``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        metrics = tuple(header[3:])
        grouped: dict[str, dict[int, list]] = {}
        for row in reader:
            grouped.setdefault(row[0], {}).setdefault(int(row[1]), []).append(
                (row[2], [float(v) for v in row[3:]])
            )
    ids = sorted(grouped)
    arms = []
    for exp_id in ids:
        if sorted(grouped[exp_id]) != [1, 2]:
            raise ValueError(f"{exp_id}: reference needs exactly arms 1 and 2")
        arms.append(
            [[v for _, v in sorted(grouped[exp_id][a])] for a in (1, 2)]
        )
    data = np.array(arms, dtype=float)
    if data.ndim != 4:
        raise ValueError("reference needs equal arm sizes in every experiment")
    return ids, metrics, data


def fold_labels(seed: int, ids: list[str], m: int, num_folds: int) -> np.ndarray:
    """(E, 2, M) fold labels in [0, num_folds), stratified per arm."""
    base = np.arange(m) % num_folds
    return np.array(
        [
            [base[stream(seed, "folds", exp_id, arm).permutation(m)] for arm in (1, 2)]
            for exp_id in ids
        ]
    )


def _launch(s, q, n, gate_crit):
    """Treatment-arm launch from per-arm blend sums ``s``, squares ``q``, counts ``n``.

    Arrays carry the arm on axis 1.  Ungated: treatment mean strictly above
    control.  Gated: one-sided z-test with unpooled standard errors.
    """
    mean = s / n
    diff = mean[:, 1] - mean[:, 0]
    if gate_crit is None:
        return diff > 0
    var = (q - s * mean) / (n - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n)
    denom = np.hypot(se[:, 1], se[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(denom > 0, diff / denom, np.sign(diff) * np.inf)
    return z > gate_crit


def corpus_estimates(
    data: np.ndarray,
    labels_by_folds: dict[int, np.ndarray],
    blend: np.ndarray,
    reward: np.ndarray,
    gate_crit: float | None,
) -> dict[int, np.ndarray]:
    """Per-experiment naive (key 0) and k-fold CV (key P) contributions."""
    v = data @ blend  # (E, 2, M)
    psi = data @ reward
    m = data.shape[2]
    full = _launch(v.sum(axis=2), (v * v).sum(axis=2), m, gate_crit)
    psi_mean = psi.mean(axis=2)
    out = {0: np.where(full, psi_mean[:, 1], psi_mean[:, 0])}
    for p, labels in labels_by_folds.items():
        onehot = labels[..., None] == np.arange(p)  # (E, 2, M, P)
        n_fold = onehot.sum(axis=2)
        s_fold = np.einsum("eam,eamp->eap", v, onehot)
        q_fold = np.einsum("eam,eamp->eap", v * v, onehot)
        r_fold = np.einsum("eam,eamp->eap", psi, onehot)
        launch = _launch(
            v.sum(axis=2)[..., None] - s_fold,
            (v * v).sum(axis=2)[..., None] - q_fold,
            m - n_fold,
            gate_crit,
        )  # (E, P)
        fold_reward = r_fold / n_fold
        out[p] = np.where(launch, fold_reward[:, 1], fold_reward[:, 0]).mean(axis=1)
    return out


def leave_l_out_estimate(
    exp: np.ndarray,
    blend: np.ndarray,
    reward: np.ndarray,
    leave_out: int,
    m0: float,
    gate_crit: float | None,
) -> float:
    """Poisson-rescaled leave-l-out contribution of one (2, M, J) experiment."""
    v = exp @ blend  # (2, M)
    psi = exp @ reward
    m = exp.shape[1]
    if leave_out == 1:
        out_v, out_q, out_psi = v, v * v, psi  # (2, M): one subset per unit
    else:
        i, j = np.triu_indices(m, k=1)
        out_v, out_q = v[:, i] + v[:, j], v[:, i] ** 2 + v[:, j] ** 2
        out_psi = 0.5 * (psi[:, i] + psi[:, j])
    s = v.sum(axis=1, keepdims=True) - out_v
    q = (v * v).sum(axis=1, keepdims=True) - out_q
    launch = _launch(s.T[:, :, None], q.T[:, :, None], m - leave_out, gate_crit)[:, 0]
    total = float(np.where(launch, out_psi[1], out_psi[0]).sum())
    return math.factorial(leave_out) * total / m0**leave_out


def close(value: float, reference: float, scale: float, rel: float = 1e-9) -> bool:
    """``value`` within ``rel`` of ``reference``, relative to ``scale``.

    ``scale`` is the magnitude of the terms summed into the reference, which
    bounds its rounding error even when the sum itself is near zero.
    """
    return abs(value - reference) <= rel * max(abs(reference), scale)
